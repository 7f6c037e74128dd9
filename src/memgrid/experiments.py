"""The three studies: single-device characterization, uniform-array cycling,
and the per-unit sensitization raster.

All three run on the engine's one time-marching loop: the single device as a
scalar state, the lattice as one network's states, and the raster's
sensitized runs as one batch of parameter rows on the baseline lattice.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .device import DeviceParams, ParamTable
from .device import step_resistance  # noqa: F401  (perfbench wraps it here by name)
from .engine import SimConfig, Trace, Waveform, _march, _record, simulate
from .measure import _fit_at, find_zero_crossings, remnant_series, resistance_map
from .solver import NodalStamper
from .topology import GridNetwork, NodeId, build_grid


@dataclass(frozen=True)
class SingleDeviceRun:
    """Standalone device response; the trace has a single device column, so
    (v_src, i_src) is the I-V loop and (v_src, x) the state-voltage loop."""

    params: DeviceParams
    waveform: Waveform
    trace: Trace

    @property
    def v(self) -> np.ndarray:
        return self.trace.v_src

    @property
    def i(self) -> np.ndarray:
        return self.trace.i_src

    @property
    def x(self) -> np.ndarray:
        return self.trace.x[:, 0]


@dataclass(frozen=True)
class UniformArrayRun:
    network: GridNetwork
    trace: Trace
    remnants: tuple
    maps: tuple
    cfg: SimConfig


@dataclass(frozen=True)
class SensitizationResult:
    """Fitted global resistance per (sensitized label, remnant condition).

    ``matrix[l, c]`` holds r_fit for the run where edge ``labels[l]`` had its
    threshold lowered, at condition ``conditions[c]`` (0 is the initial
    condition). ``flags`` marks cells deviating from the uniform baseline by
    more than ``deviation_threshold`` (relative).
    """

    v_t_s: float
    deviation_threshold: float
    labels: tuple
    conditions: tuple
    matrix: np.ndarray
    flags: np.ndarray
    baseline: UniformArrayRun

    @property
    def max_relative_deviation(self) -> float:
        base = np.array([p.r_fit for p in self.baseline.remnants])
        return float(np.max(np.abs(self.matrix - base) / base))


def run_single_device(p: DeviceParams, w: Waveform, cfg: SimConfig) -> SingleDeviceRun:
    """Integrate one device driven directly by the stimulus.

    The device voltage equals the source voltage (an array of one has no
    interconnect), and the steps and recorded samples are the lattice
    engine's, so a one-edge lattice simulation reproduces this trace exactly.
    """
    trace = _record(np.float64(p.r_init), p, lambda x, v: (v, v / x), w, cfg)
    return SingleDeviceRun(params=p, waveform=w, trace=trace)


def run_uniform_array(
    n: int,
    params: DeviceParams,
    w: Waveform,
    cfg: SimConfig,
    source: NodeId | None = None,
    ground: NodeId | None = None,
    seed: int = 0,
) -> UniformArrayRun:
    """Cycle a complete, homogeneous lattice and measure the remnant series,
    with a resistance map at the initial condition and at every crossing."""
    network = build_grid(n, p_r=0.0, p_i=0.0, seed=seed, params=params,
                         source=source, ground=ground)
    trace = simulate(network, w, cfg)
    remnants = tuple(remnant_series(trace, network, cfg))
    maps = tuple(resistance_map(trace, network, point.t) for point in remnants)
    return UniformArrayRun(network=network, trace=trace, remnants=remnants,
                           maps=maps, cfg=cfg)


def sensitized_network(network: GridNetwork, label: int, v_t_s: float) -> GridNetwork:
    """Copy of the network with one unit's threshold replaced by v_t_s."""
    if all(e.label != label for e in network.edges):
        raise ValueError(f"no edge with label {label}")
    edges = tuple(
        replace(e, params=replace(e.params, v_t=v_t_s)) if e.label == label else e
        for e in network.edges
    )
    return replace(network, edges=edges)


def measurement_settings(cfg: SimConfig, w: Waveform, v_t_s: float) -> SimConfig:
    """Shrink the fit window (and refine dt) so remnant fits stay valid when a
    sensitized threshold drops below the configured window.

    The window must sit strictly below the smallest threshold so no state can
    move while fit samples are collected, and dt must put at least two samples
    inside the window around each crossing.
    """
    window = min(cfg.fit_window, 0.8 * v_t_s)
    dt = cfg.dt
    quarter = 0.25 / w.frequency
    while dt > quarter or w.amplitude * math.sin(2 * math.pi * w.frequency * dt) > 0.9 * window:
        dt /= 2
    if dt == cfg.dt and window == cfg.fit_window:
        return cfg
    return SimConfig(dt=dt, record_stride=cfg.record_stride, fit_window=window)


def _raster_job(network: GridNetwork, v_t_s: float, w: Waveform, cfg: SimConfig,
                n_samples: int) -> np.ndarray:
    """Source currents (n_samples, E) of the sensitized runs, stepped as one
    batch: row l has unit ``network.labels[l]`` at threshold ``v_t_s``."""
    table = ParamTable.from_params([e.params for e in network.edges])
    n_edges = len(network.edges)
    batch = replace(table, v_t=np.where(np.eye(n_edges, dtype=bool), v_t_s, table.v_t))
    stamper = NodalStamper(network)
    samples = _march(np.tile(table.r_init, (n_edges, 1)), batch,
                     lambda x, v: stamper.solve_raw(x, v)[1:], w, cfg)
    currents = np.empty((n_samples, n_edges))
    for row, (_, _, _, i_src, _) in enumerate(samples):
        currents[row] = i_src
    return currents


def run_sensitization(
    base: DeviceParams,
    v_t_s: float,
    n: int,
    w: Waveform,
    cfg: SimConfig,
    deviation_threshold: float,
    source: NodeId | None = None,
    ground: NodeId | None = None,
    seed: int = 0,
) -> SensitizationResult:
    """One run per edge, each with exactly one unit's threshold lowered to
    v_t_s, compared against the uniform baseline at the same settings. The
    runs share the baseline's samples, crossings and fit windows, and its
    all-r_init initial condition."""
    if not 0 < v_t_s <= base.v_t:
        raise ValueError(f"v_t_s must lie in (0, v_t], got {v_t_s} with v_t {base.v_t}")
    cfg_eff = measurement_settings(cfg, w, v_t_s)
    baseline = run_uniform_array(n, base, w, cfg_eff, source=source, ground=ground,
                                 seed=seed)
    labels = tuple(baseline.network.labels)
    currents = _raster_job(baseline.network, v_t_s, w, cfg_eff, baseline.trace.n_samples)
    base_r = np.array([p.r_fit for p in baseline.remnants])
    crossings = find_zero_crossings(baseline.trace)
    # each row as a trace with the baseline's samples and its own source current
    rows = (replace(baseline.trace, i_src=i_src) for i_src in currents.T)
    matrix = np.array([[base_r[0]] + [_fit_at(row, c, cfg_eff.fit_window)[0] for c in crossings]
                       for row in rows])
    flags = np.abs(matrix - base_r) / base_r > deviation_threshold
    return SensitizationResult(
        v_t_s=v_t_s,
        deviation_threshold=deviation_threshold,
        labels=labels,
        conditions=tuple(p.crossing_index for p in baseline.remnants),
        matrix=matrix,
        flags=flags,
        baseline=baseline,
    )


def exceedance_sets(uniform_trace: Trace, v_threshold: float) -> list[set]:
    """Per semicycle of the uniform run, the labels whose |v_m| reached
    ``v_threshold``. Semicycles are delimited by the stimulus zero crossings."""
    crossings = find_zero_crossings(uniform_trace)
    bounds = [0] + [c.right for c in crossings]
    sets = []
    for seg in range(1, len(bounds)):
        window = uniform_trace.v_m[bounds[seg - 1]:bounds[seg] + 1]
        peak = np.max(np.abs(window), axis=0)
        sets.append(set(np.nonzero(peak >= v_threshold)[0].tolist()))
    return sets


def sensitization_to_csv(result: SensitizationResult, path) -> None:
    """Rows are sensitized labels (baseline first with label -1), columns the
    remnant conditions."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"cond_{c}" for c in result.conditions])
        base_row = [repr(float(p.r_fit)) for p in result.baseline.remnants]
        writer.writerow([-1] + base_row)
        for l, label in enumerate(result.labels):
            writer.writerow([label] + [repr(float(v)) for v in result.matrix[l]])


def flags_to_csv(result: SensitizationResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"cond_{c}" for c in result.conditions])
        for l, label in enumerate(result.labels):
            writer.writerow([label] + [int(v) for v in result.flags[l]])
