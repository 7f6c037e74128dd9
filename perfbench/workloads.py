"""The benchmark's four workloads: seeded inputs, one study invocation, and
the correctness checks run on every invocation.

Each check tests a property of the model rather than a digest of its output,
so a legitimate change of solver or integrator does not trip it:

* the readout has 2 x cycles zero crossings;
* every fitted remnant agrees with the Thevenin value of its frozen states
  to 1e-9 (relative);
* the initial Thevenin value agrees with a pseudoinverse-Laplacian oracle
  to 1e-9;
* every state lies in [r_on, r_off];
* the raster matrix has shape 24 x 11.

A CLI workload reruns every invocation after the first from the first one's
``config.ini`` snapshot and requires byte-identical files. The library
workload requires bit-identical remnants across invocations instead.
"""

import configparser
import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

# The reference device of the 4x4 study, written into every generated config.
R_ON, R_OFF, V_T, BETA = 2000.0, 200000.0, 0.6, 5e5
DEVICE_INI = f"""[device]
r_on = {R_ON!r}
r_off = {R_OFF!r}
v_t = {V_T!r}
beta = {BETA!r}
r_init = {R_OFF!r}
"""
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An invocation finished but its outputs violate a model property."""


def pinv_resistance(nodes, edges, x, source, ground) -> float:
    """Two-terminal resistance from the Moore-Penrose pseudoinverse of the
    full graph Laplacian; independent of the program's reduced-system solver.
    ``edges`` are (node_a, node_b) pairs with resistances ``x``."""
    index = {node: i for i, node in enumerate(sorted(nodes))}
    lap = np.zeros((len(index), len(index)))
    for (a, b), xe in zip(edges, x):
        ia, ib, g = index[a], index[b], 1.0 / xe
        lap[ia, ia] += g
        lap[ib, ib] += g
        lap[ia, ib] -= g
        lap[ib, ia] -= g
    lp = np.linalg.pinv(lap)
    s, t = index[source], index[ground]
    return float(lp[s, s] - 2.0 * lp[s, t] + lp[t, t])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_states(x: np.ndarray, where: str) -> None:
    _require(np.all(np.isfinite(x)) and np.all((x >= R_ON) & (x <= R_OFF)),
             f"{where}: state outside [{R_ON}, {R_OFF}]")


def _network_from_json(path: Path):
    payload = json.loads(path.read_text())
    nodes = [tuple(n) for n in payload["present"]]
    edges = [(tuple(e["node_a"]), tuple(e["node_b"])) for e in payload["edges"]]
    return nodes, edges, tuple(payload["source"]), tuple(payload["ground"])


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _remnant_checks(points, cycles: int, r_oracle: float, where: str) -> None:
    """points: (crossing_index, r_fit, r_thevenin, n_samples) per remnant."""
    indices = [p[0] for p in points]
    _require(indices == list(range(2 * cycles + 1)),
             f"{where}: crossings {indices[1:]} != 2 x {cycles} cycles")
    _require(_rel(points[0][2], r_oracle) <= REL_TOL,
             f"{where}: initial Thevenin {points[0][2]!r} vs oracle {r_oracle!r}")
    for idx, r_fit, r_thev, n_samples in points[1:]:
        _require(n_samples >= 2, f"{where}: crossing {idx} fitted on {n_samples} samples")
        _require(_rel(r_fit, r_thev) <= REL_TOL,
                 f"{where}: crossing {idx} r_fit {r_fit!r} vs r_thevenin {r_thev!r}")


def _count_crossings(v: np.ndarray) -> int:
    """Sign changes of a sampled sine, with near-zero samples skipped and a
    trailing zero closing the last half cycle."""
    tol = 1e-9 * float(np.max(np.abs(v)))
    signs = np.sign(v[np.abs(v) > tol])
    return int(np.count_nonzero(np.diff(signs))) + int(abs(v[-1]) <= tol)


class CliWorkload:
    """A ``memgrid`` subcommand run in-process through ``memgrid.cli.main``."""

    name = ""
    argv: tuple = ()
    full_warmup = True
    probe_flags = ("grid", "cli")  # what setup_probe.py builds before the first step

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = work / f"{self.name}.ini"
        self.config.write_text(self.config_text(seed))
        self.reference: Path | None = None

    def config_text(self, seed: int) -> str:
        raise NotImplementedError

    def inputs(self) -> dict:
        return {"config": self.config_text(self.seed),
                "seed_effect": "none: p_r = p_i = 0, so every seed gives the same lattice"}

    def invoke(self, out: Path) -> Path:
        import memgrid.cli

        config = self.reference / "config.ini" if self.reference else self.config
        argv = [self.argv[0], "--config", str(config), "--out", str(out), *self.argv[1:]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = memgrid.cli.main(argv)
        if code != 0:
            raise CheckFailed(f"memgrid {self.argv[0]} exited with code {code}")
        return out

    def check(self, out: Path) -> None:
        self.check_outputs(out)
        if self.reference is None:
            self.reference = out
            return
        ref_files = sorted(p.name for p in self.reference.iterdir())
        files = sorted(p.name for p in out.iterdir())
        _require(files == ref_files, f"rerun from snapshot wrote {files}, first run {ref_files}")
        for name in files:
            _require((out / name).read_bytes() == (self.reference / name).read_bytes(),
                     f"rerun from config.ini snapshot changed {name}")

    def check_outputs(self, out: Path) -> None:
        raise NotImplementedError

    def bytes_written(self, out: Path) -> int:
        return sum(p.stat().st_size for p in out.iterdir())


def _reference_ini(seed: int, kind: str, extra: str = "") -> str:
    return DEVICE_INI + f"""
[array]
n = 4
p_r = 0.0
p_i = 0.0
seed = {seed}

[source]
amplitude = 12.0
frequency = 1.0
cycles = 5

[run]
dt = 0.001

[experiment]
kind = {kind}
{extra}"""


class Run4x4(CliWorkload):
    name = "run-4x4"
    argv = ("run",)
    cycles = 5

    def config_text(self, seed):
        return _reference_ini(seed, "run")

    def check_outputs(self, out):
        nodes, edges, source, ground = _network_from_json(out / "network.json")
        oracle = pinv_resistance(nodes, edges, [R_OFF] * len(edges), source, ground)
        rows = _read_csv(out / "remnant.csv")[1:]
        points = [(int(r[0]), float(r[2]), float(r[3]), int(r[4])) for r in rows]
        _remnant_checks(points, self.cycles, oracle, "remnant.csv")
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        _require(trace.shape == (5001, 3 + 2 * len(edges)),
                 f"trace.csv has shape {trace.shape}")
        _check_states(trace[:, 4::2], "trace.csv")
        for idx, _, _, _ in points:
            rows = _read_csv(out / f"map_{idx}.csv")[1:]
            _require(len(rows) == len(edges), f"map_{idx}.csv has {len(rows)} rows")
            _check_states(np.array([float(r[-1]) for r in rows]), f"map_{idx}.csv")


class Sense4x4(CliWorkload):
    name = "sense-4x4"
    argv = ("sense", "--workers", "1")
    full_warmup = False
    cycles = 5

    def config_text(self, seed):
        return _reference_ini(seed, "sense", "vts = 0.06\n")

    def warm(self):
        """One raster baseline: the same lattice and step count as each of
        the 25 simulations in an invocation."""
        import memgrid
        from memgrid.config import parse_config
        from memgrid.experiments import measurement_settings

        cfg = parse_config(self.config.read_text())
        sim = measurement_settings(cfg.sim, cfg.waveform, cfg.v_t_s)
        memgrid.run_uniform_array(cfg.n, cfg.device, cfg.waveform, sim, seed=cfg.seed)

    def check_outputs(self, out):
        nodes, edges, source, ground = _network_from_json(out / "network.json")
        unit = pinv_resistance(nodes, edges, [1.0] * len(edges), source, ground)
        rows = _read_csv(out / "sensitization.csv")
        conditions = len(rows[0]) - 1
        _require(conditions == 2 * self.cycles + 1,
                 f"{conditions - 1} crossings != 2 x {self.cycles} cycles")
        _require(rows[1][0] == "-1", "sensitization.csv: baseline row missing")
        base = np.array([float(v) for v in rows[1][1:]])
        matrix = np.array([[float(v) for v in r[1:]] for r in rows[2:]])
        _require(matrix.shape == (24, 11), f"raster matrix has shape {matrix.shape}")
        everything = np.vstack([base, matrix])
        # Initial condition: every run starts from the uniform r_init lattice.
        worst = float(np.max(np.abs(everything[:, 0] - unit * R_OFF))) / (unit * R_OFF)
        _require(worst <= REL_TOL, f"initial remnant off the oracle by {worst:.3g}")
        # Rayleigh monotonicity: states in [r_on, r_off] bound every remnant.
        _require(np.all(np.isfinite(everything))
                 and np.all(everything >= unit * R_ON * (1 - REL_TOL))
                 and np.all(everything <= unit * R_OFF * (1 + REL_TOL)),
                 "a remnant lies outside the all-r_on / all-r_off bounds")
        flags = np.array([[int(v) for v in r[1:]] for r in _read_csv(out / "flags.csv")[1:]])
        snapshot = configparser.ConfigParser()
        snapshot.read(out / "config.ini")
        threshold = snapshot.getfloat("run", "deviation_threshold")
        _require(np.array_equal(flags, np.abs(matrix - base) / base > threshold),
                 "flags.csv disagrees with the sensitization matrix")


class DeviceSweep(CliWorkload):
    name = "device-sweep"
    argv = ("device",)
    probe_flags = ("cli",)
    amplitudes = (0.7, 1.0, 2.0, 4.0)
    betas = (5e5, 5e7)
    cycles = 5

    def config_text(self, seed):
        return _reference_ini(seed, "device",
                              f"amplitudes = {','.join(map(repr, self.amplitudes))}\n"
                              f"betas = {','.join(map(repr, self.betas))}\n")

    def check_outputs(self, out):
        files = sorted(out.glob("device_*.csv"))
        _require(len(files) == len(self.amplitudes) * len(self.betas),
                 f"{len(files)} device files written")
        for path in files:
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            _require(data.shape == (5001, 5), f"{path.name} has shape {data.shape}")
            v, i, v_m, x = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
            _require(_count_crossings(v) == 2 * self.cycles,
                     f"{path.name}: {_count_crossings(v)} crossings")
            _check_states(x, path.name)
            # A lone device is its own Thevenin equivalent: r = x from the start.
            _require(x[0] == R_OFF and np.array_equal(v_m, v), f"{path.name}: bad initial state")
            live = i != 0
            gap = np.abs(v[live] / i[live] - x[live]) / x[live]
            _require(float(np.max(gap, initial=0.0)) <= REL_TOL,
                     f"{path.name}: v/i departs from x by {float(np.max(gap)):.3g}")


class Lattice16:
    """Library path on a distorted 16x16 lattice drawn from the seed:
    parse_config -> build_grid -> simulate -> remnant_series, no files."""

    name = "lattice-16x16"
    full_warmup = True
    probe_flags = ("grid",)
    n = 16
    cycles = 1

    def __init__(self, seed: int, work: Path):
        from memgrid.config import parse_config
        from memgrid.topology import build_grid, is_connected

        # Disconnected draws are skipped in a fixed order, so a seed always
        # lands on the same lattice.
        for draw in range(1000):
            lattice_seed = seed * 1000 + draw
            text = self._config_text(lattice_seed)
            cfg = parse_config(text)
            network = build_grid(cfg.n, cfg.p_r, cfg.p_i, cfg.seed, cfg.device)
            if is_connected(network):
                break
        else:
            raise CheckFailed(f"no connected lattice in 1000 draws from seed {seed}")
        self.seed, self.draw, self.lattice_seed, self.text = seed, draw, lattice_seed, text
        self.config = work / f"{self.name}.ini"
        self.config.write_text(text)
        self.edges = len(network.edges)
        self.first: list | None = None

    def _config_text(self, lattice_seed: int) -> str:
        # 4 (n - 1) volts lets devices switch across 16 nodes; the wider fit
        # window keeps 3-5 samples per crossing at the finer dt.
        return DEVICE_INI + f"""
[array]
n = {self.n}
p_r = 0.05
p_i = 0.1
seed = {lattice_seed}

[source]
amplitude = {4.0 * (self.n - 1)!r}
frequency = 1.0
cycles = {self.cycles}

[run]
dt = 0.0005
fit_window = 0.5
"""

    def inputs(self) -> dict:
        return {"config": self.text, "draw": self.draw, "lattice_seed": self.lattice_seed,
                "edges": self.edges,
                "seed_effect": "draws the lattice: build_grid seed = seed * 1000 + draw"}

    def invoke(self, out: Path):
        from memgrid import config, engine, measure, topology

        cfg = config.parse_config(self.text)
        network = topology.build_grid(cfg.n, cfg.p_r, cfg.p_i, cfg.seed, cfg.device,
                                      source=cfg.source, ground=cfg.ground)
        trace = engine.simulate(network, cfg.waveform, cfg.sim)
        return network, trace, measure.remnant_series(trace, network, cfg.sim)

    def check(self, result) -> None:
        network, trace, remnants = result
        edges = [(e.node_a, e.node_b) for e in network.edges]
        oracle = pinv_resistance(network.present, edges, trace.x[0],
                                 network.source, network.ground)
        points = [(p.crossing_index, p.r_fit, p.r_thevenin, p.n_samples) for p in remnants]
        _remnant_checks(points, self.cycles, oracle, self.name)
        _check_states(trace.x, self.name)
        if self.first is None:
            self.first = points
        _require(points == self.first, "remnants differ from the first invocation's")

    def bytes_written(self, result) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Run4x4, Sense4x4, Lattice16, DeviceSweep)}
