"""Command-line surface.

Subcommands: device (single-unit runs), run (array cycling with trace, remnant
and map outputs), sense (sensitization raster), export-spice, validate-config.
Exit codes: 0 success, 1 configuration/validation error, 2 runtime error such
as a disconnected network without --allow-disconnected or missing stimulus
zero crossings. A flag is validated as the INI key it overrides. run and
sense check the rules of their experiment (``config.check_experiment``),
validate-config those of the configured one, and export-spice, which runs
none, only each key.

Every output directory receives the resolved configuration snapshot
(config.ini) so the outputs can be regenerated bit-identically. It is created
only after every check has passed and the results are computed, so a command
that exits 1 or 2 writes nothing.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ConfigError,
    check_experiment,
    ini_value,
    parse_config,
    serialize_config,
)
from .engine import simulate, write_csv
from .experiments import (
    _measured,
    flags_to_csv,
    run_device_sweep,
    run_sensitization,
    sensitization_to_csv,
)
from .experiments import run_single_device  # noqa: F401  (perfbench wraps it here by name)
from .measure import InsufficientSamplesError, RemnantPoint, map_to_csv, remnant_to_csv
from .measure import remnant_series  # noqa: F401  (perfbench wraps it here by name)
from .solver import DisconnectedNetworkError, SingularSystemError
from .spice import export_spice
from .topology import build_grid, is_connected, network_to_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memgrid",
        description="Transient simulator for lattices of threshold-type bipolar memristive devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="INI configuration file")
        p.add_argument("--out", type=Path, default=Path("memgrid_out"),
                       help="output directory (default: memgrid_out)")
        p.add_argument("--seed", type=int, help="override [array].seed")
        p.add_argument("--dt", type=float, help="override [run].dt")

    p_device = sub.add_parser("device", help="single-device runs (I-V and state-voltage series)")
    common(p_device)
    p_device.add_argument("--amplitude", type=float, action="append",
                          help="source amplitude; repeat for a sweep")
    p_device.add_argument("--beta", type=float, action="append",
                          help="switching rate; repeat for a sweep")

    p_run = sub.add_parser("run", help="uniform-array cycling with remnant readout")
    common(p_run)
    p_run.add_argument("--allow-disconnected", action="store_true",
                       help="emit an infinite-resistance remnant instead of failing "
                            "when the lattice has no source-ground path")

    p_sense = sub.add_parser("sense", help="per-unit sensitization raster")
    common(p_sense)
    p_sense.add_argument("--vts", type=float, help="sensitized threshold (V)")
    p_sense.add_argument("--ratio-sweep", type=float, action="append", dest="ratio_sweep",
                         help="run one raster per v_t/vts ratio; repeatable")
    p_sense.add_argument("--workers", type=int, default=1,
                         help="ignored: the raster runs as one batch")

    p_export = sub.add_parser("export-spice", help="write an NGSPICE netlist of the configured lattice")
    common(p_export)

    p_validate = sub.add_parser("validate-config", help="parse, validate and print the resolved configuration")
    common(p_validate)

    return parser


def _load_config(args, **experiment):
    """Parse the configuration with each given flag written over its INI key
    (``experiment`` names keys of [experiment]), so a flag passes, and fails,
    exactly the checks of its key."""
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
    flags = {("array", "seed"): args.seed, ("run", "dt"): args.dt,
             **{("experiment", key): value for key, value in experiment.items()}}
    return parse_config(text, {key: ini_value(value) for key, value in flags.items()
                               if value is not None})


def _prepare_out(args, cfg, network=None) -> Path:
    """Create the output directory with the configuration snapshot (and the
    lattice, when given); commands call it only once every check has passed
    and the results are computed, so a rejected command writes nothing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg))
    if network is not None:
        (out / "network.json").write_text(network_to_json(network))
    return out


def _network_from(cfg):
    return build_grid(cfg.n, cfg.p_r, cfg.p_i, cfg.seed, cfg.device,
                      source=cfg.source, ground=cfg.ground)


def _cmd_device(args) -> int:
    cfg = _load_config(args, kind="device", amplitudes=args.amplitude, betas=args.beta)
    cfg = replace(cfg, amplitudes=cfg.amplitudes or (cfg.waveform.amplitude,),
                  betas=cfg.betas or (cfg.device.beta,))
    pairs = [(beta, amplitude) for beta in cfg.betas for amplitude in cfg.amplitudes]
    runs = run_device_sweep([replace(cfg.device, beta=beta) for beta, _ in pairs],
                            [amplitude for _, amplitude in pairs], cfg.waveform, cfg.sim)
    out = _prepare_out(args, cfg)
    paths = [out / f"device_A{amplitude:g}_beta{beta:g}.csv" for beta, amplitude in pairs]
    write_csv([result.trace for result in runs], paths)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args, kind="run")
    check_experiment(cfg)
    network = _network_from(cfg)
    if not is_connected(network):
        if not args.allow_disconnected:
            raise DisconnectedNetworkError(
                f"no path between {network.source} and {network.ground} "
                "(rerun with --allow-disconnected to record the infinite remnant)"
            )
        out = _prepare_out(args, cfg, network)
        point = RemnantPoint(crossing_index=0, t=0.0, r_fit=math.inf,
                             r_thevenin=math.inf, n_samples=0)
        remnant_to_csv([point], out / "remnant.csv")
        print(f"disconnected lattice; wrote infinite remnant to {out / 'remnant.csv'}")
        return 0
    run = _measured(network, simulate(network, cfg.waveform, cfg.sim), cfg.sim,
                    cfg.waveform.cycles)
    out = _prepare_out(args, cfg, network)
    run.trace.to_csv(out / "trace.csv")
    remnant_to_csv(run.remnants, out / "remnant.csv")
    for point, rmap in zip(run.remnants, run.maps):
        map_to_csv(rmap, out / f"map_{point.crossing_index}.csv")
    print(f"wrote trace.csv, remnant.csv and {len(run.remnants)} maps to {out}")
    return 0


def _cmd_sense(args) -> int:
    cfg = _load_config(args, kind="sense", vts=args.vts, ratios=args.ratio_sweep)
    check_experiment(cfg)
    # file suffix -> sensitized threshold
    rasters = ({f"_ratio_{ratio:g}": cfg.device.v_t / ratio for ratio in cfg.ratios}
               if cfg.ratios else {"": cfg.v_t_s})
    results = {suffix: run_sensitization(cfg.device, v_t_s, cfg.n, cfg.waveform, cfg.sim,
                                         cfg.deviation_threshold, source=cfg.source,
                                         ground=cfg.ground, seed=cfg.seed)
               for suffix, v_t_s in rasters.items()}
    out = _prepare_out(args, cfg, next(iter(results.values())).baseline.network)
    for suffix, result in results.items():
        sensitization_to_csv(result, out / f"sensitization{suffix}.csv")
        flags_to_csv(result, out / f"flags{suffix}.csv")
        print(f"wrote sensitization{suffix}.csv and flags{suffix}.csv to {out}")
    return 0


def _cmd_export_spice(args) -> int:
    cfg = _load_config(args)  # a netlist runs no experiment, so checks no experiment's rules
    netlist = export_spice(_network_from(cfg), cfg.waveform, dt=cfg.sim.dt)
    path = _prepare_out(args, cfg) / "netlist.cir"
    path.write_text(netlist)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    check_experiment(cfg)
    print(serialize_config(cfg), end="")
    return 0


_COMMANDS = {
    "device": _cmd_device,
    "run": _cmd_run,
    "sense": _cmd_sense,
    "export-spice": _cmd_export_spice,
    "validate-config": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DisconnectedNetworkError, InsufficientSamplesError, SingularSystemError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
