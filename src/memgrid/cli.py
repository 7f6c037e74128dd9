"""Command-line surface.

Subcommands: device (single-unit runs), run (array cycling with trace, remnant
and map outputs), sense (sensitization raster), export-spice, validate-config.
Exit codes: 0 success, 1 configuration/validation error, 2 runtime error such
as a disconnected network without --allow-disconnected.

Every output directory receives the resolved configuration snapshot
(config.ini) so the outputs can be regenerated bit-identically.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, default_config, parse_config, serialize_config, with_overrides
from .engine import simulate
from .experiments import (
    flags_to_csv,
    run_sensitization,
    run_single_device,
    sensitization_to_csv,
)
from .measure import (
    InsufficientSamplesError,
    RemnantPoint,
    map_to_csv,
    remnant_series,
    remnant_to_csv,
    resistance_map,
)
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


def _load_config(args):
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        cfg = parse_config(text)
    else:
        cfg = default_config()
    return with_overrides(cfg, seed=args.seed, dt=args.dt)


def _prepare_out(args, cfg) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg))
    return out


def _network_from(cfg):
    return build_grid(cfg.n, cfg.p_r, cfg.p_i, cfg.seed, cfg.device,
                      source=cfg.source, ground=cfg.ground)


def _cmd_device(args) -> int:
    cfg = _load_config(args)
    amplitudes = tuple(args.amplitude) if args.amplitude else cfg.amplitudes or (cfg.waveform.amplitude,)
    betas = tuple(args.beta) if args.beta else cfg.betas or (cfg.device.beta,)
    cfg = with_overrides(cfg, amplitudes=amplitudes, betas=betas, experiment="device")
    out = _prepare_out(args, cfg)
    for beta in betas:
        for amplitude in amplitudes:
            params = replace(cfg.device, beta=beta)
            waveform = replace(cfg.waveform, amplitude=amplitude)
            result = run_single_device(params, waveform, cfg.sim)
            path = out / f"device_A{amplitude:g}_beta{beta:g}.csv"
            result.trace.to_csv(path)
            print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    cfg = with_overrides(cfg, experiment="run")
    out = _prepare_out(args, cfg)
    network = _network_from(cfg)
    (out / "network.json").write_text(network_to_json(network))
    if not is_connected(network):
        if not args.allow_disconnected:
            raise DisconnectedNetworkError(
                f"no path between {network.source} and {network.ground} "
                "(rerun with --allow-disconnected to record the infinite remnant)"
            )
        point = RemnantPoint(crossing_index=0, t=0.0, r_fit=math.inf,
                             r_thevenin=math.inf, n_samples=0)
        remnant_to_csv([point], out / "remnant.csv")
        print(f"disconnected lattice; wrote infinite remnant to {out / 'remnant.csv'}")
        return 0
    trace = simulate(network, cfg.waveform, cfg.sim)
    remnants = remnant_series(trace, network, cfg.sim)
    trace.to_csv(out / "trace.csv")
    remnant_to_csv(remnants, out / "remnant.csv")
    for point in remnants:
        rmap = resistance_map(trace, network, point.t)
        map_to_csv(rmap, out / f"map_{point.crossing_index}.csv")
    print(f"wrote trace.csv, remnant.csv and {len(remnants)} maps to {out}")
    return 0


def _cmd_sense(args) -> int:
    cfg = _load_config(args)
    cfg = with_overrides(cfg, v_t_s=args.vts,
                         ratios=tuple(args.ratio_sweep) if args.ratio_sweep else None,
                         experiment="sense")
    if cfg.p_r or cfg.p_i:
        raise ConfigError(f"[array].p_r = {cfg.p_r!r}, [array].p_i = {cfg.p_i!r}: "
                          "sense rasters the complete lattice, so both must be 0")
    out = _prepare_out(args, cfg)
    network = _network_from(cfg)
    (out / "network.json").write_text(network_to_json(network))

    def one_raster(v_t_s, suffix=""):
        result = run_sensitization(
            cfg.device, v_t_s, cfg.n, cfg.waveform, cfg.sim,
            cfg.deviation_threshold,
            source=cfg.source, ground=cfg.ground, seed=cfg.seed,
        )
        sensitization_to_csv(result, out / f"sensitization{suffix}.csv")
        flags_to_csv(result, out / f"flags{suffix}.csv")
        print(f"wrote sensitization{suffix}.csv and flags{suffix}.csv to {out}")

    if cfg.ratios:
        for ratio in cfg.ratios:
            one_raster(cfg.device.v_t / ratio, suffix=f"_ratio_{ratio:g}")
    else:
        one_raster(cfg.v_t_s)
    return 0


def _cmd_export_spice(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    network = _network_from(cfg)
    netlist = export_spice(network, cfg.waveform, dt=cfg.sim.dt)
    path = out / "netlist.cir"
    path.write_text(netlist)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
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
