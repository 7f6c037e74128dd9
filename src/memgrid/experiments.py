"""The three studies: single-device characterization, uniform-array cycling,
and the per-unit sensitization raster.

All three run on the engine's one time-marching loop, which also records
them: an amplitude/parameter sweep of single devices as one batch of lone
devices, whose voltages (amplitude times stimulus) the loop knows ahead,
a single device as a batch of one, the lattice as one network's
states, and the raster as one batch of parameter rows on the complete
lattice, whose row 0 is the uniform baseline and whose every further row has
one unit sensitized. The raster records only row 0's trace, and reads each
row's cells as the Thevenin values of the states the loop holds at the
crossings. ``_measured`` reads out a lattice's trace for
``run_uniform_array``, the raster's row 0 and ``memgrid run``; every table
is written by ``engine.write_rows``.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .device import DeviceParams, InvalidValue, ParamTable
from .device import step_resistance  # noqa: F401  (perfbench wraps it here by name)
from .engine import SimConfig, Trace, Waveform, _run, simulate, write_rows
from .measure import (
    InsufficientSamplesError,
    find_zero_crossings,
    fit_sampled,
    remnant_series,
    resistance_map,
)
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
    """Thevenin global resistance per (sensitized label, remnant condition).

    ``matrix[l, c]`` holds it for the run where edge ``labels[l]`` had its
    threshold lowered, at its states at step 0 (condition 0) or at the step
    nearest crossing ``conditions[c]``, not a fit. ``flags`` marks cells off
    the baseline's ``r_thevenin`` by more than ``deviation_threshold``.
    """

    v_t_s: float
    deviation_threshold: float
    labels: tuple
    conditions: tuple
    matrix: np.ndarray
    flags: np.ndarray
    baseline: UniformArrayRun


def run_device_sweep(params_list, amplitudes, w: Waveform,
                     cfg: SimConfig) -> list[SingleDeviceRun]:
    """One lone device per pair (params_list[b], amplitudes[b]), driven
    directly by ``w`` at that amplitude and stepped as one batch.

    A device's voltage equals the source voltage (an array of one has no
    interconnect) and its current is that voltage over its state, v_m / x,
    and the steps and recorded samples are the lattice engine's, so a
    one-edge lattice simulation reproduces its trace exactly.
    The stimulus is marched at unit amplitude and scaled per device:
    ``waveform_sample`` multiplies the amplitude into the sine the same way,
    so every voltage is the same double as at that amplitude. The march gets
    the amplitudes as the gains of its lone devices, not a solve: their
    voltages, amps * v, do not depend on the states, so it takes their
    voltage terms ahead and steps only the states, and forms every recorded
    voltage and current after its loop."""
    if len(params_list) != len(amplitudes):
        raise InvalidValue("amplitudes", f"must give one per parameter set: "
                                         f"{len(amplitudes)} for {len(params_list)}")
    if not len(amplitudes):
        raise InvalidValue("amplitudes", "must give at least one device, got none")
    waveforms = [replace(w, amplitude=a) for a in amplitudes]  # checked before the march
    table = ParamTable.from_params(params_list)
    amps = np.array(amplitudes, dtype=float)
    t, _, v_m, i_src, x, _ = _run(table.r_init, table, amps,
                                  (slice(None), lambda _, v_m, x: v_m / x),
                                  replace(w, amplitude=1.0), cfg)
    return [SingleDeviceRun(params=p, waveform=wave,
                            trace=Trace(t=t, v_src=v_m[:, b], i_src=i_src[:, b],
                                        v_m=v_m[:, b:b + 1], x=x[:, b:b + 1]))
            for b, (p, wave) in enumerate(zip(params_list, waveforms))]


def run_single_device(p: DeviceParams, w: Waveform, cfg: SimConfig) -> SingleDeviceRun:
    """Integrate one device driven directly by the stimulus: a device sweep
    of one."""
    return run_device_sweep([p], [w.amplitude], w, cfg)[0]


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
    return _measured(network, simulate(network, w, cfg), cfg, w.cycles)


def _measured(network: GridNetwork, trace: Trace, cfg: SimConfig,
              cycles: int) -> UniformArrayRun:
    """The remnant series of a lattice's trace, with a resistance map at
    every remnant condition; ``InsufficientSamplesError`` unless there is a
    remnant at every zero crossing of the ``cycles``-cycle stimulus."""
    remnants = tuple(remnant_series(trace, network, cfg))
    if len(remnants) - 1 != 2 * cycles:
        raise InsufficientSamplesError(
            f"{len(remnants) - 1} stimulus zero crossings in the trace, expected "
            f"2 x {cycles} cycles, so remnants would be missing"
        )
    maps = tuple(resistance_map(trace, network, point.t) for point in remnants)
    return UniformArrayRun(network=network, trace=trace, remnants=remnants,
                           maps=maps, cfg=cfg)


MAX_RASTER_STEPS = 2 ** 20


def measurement_settings(cfg: SimConfig, w: Waveform, v_t_s: float) -> SimConfig:
    """The settings the raster steps and fits at: the fit window shrunk (and
    dt refined) so that no unit, a sensitized one included, moves at the
    samples nearest a crossing, and every step recorded.

    The window must sit strictly below the smallest threshold so no state can
    move while fit samples are collected, and dt must put at least two samples
    inside the window around each crossing. The raster writes no trace, so it
    samples every step whatever ``record_stride`` says. A threshold whose
    window needs more than ``MAX_RASTER_STEPS`` steps raises InvalidValue:
    at ``vts = 1e-5`` the default raster would take 81,920,000 steps and a
    row-0 trace of some 33 GB.
    """
    window = min(cfg.fit_window, 0.8 * v_t_s)
    dt = cfg.dt
    while not fit_sampled(w, dt, 0.9 * window):
        dt /= 2
    steps = w.duration / dt if dt else math.inf
    if steps > MAX_RASTER_STEPS:
        count = f"{steps:.0f}" if steps < 1e15 else f"{steps:.3g}"
        raise InvalidValue("v_t_s", f"{v_t_s!r} needs {count} steps of dt = {dt:.4g} s to put two "
                                    f"fit samples inside its {window:.3g} V window; a raster "
                                    f"takes at most {MAX_RASTER_STEPS} (2**20)")
    if dt == cfg.dt and window == cfg.fit_window and cfg.record_stride == 1:
        return cfg
    return SimConfig(dt=dt, record_stride=1, fit_window=window)


def check_sensitized_threshold(v_t_s: float, v_t: float) -> None:
    """A sensitized threshold lowers ``v_t``: it must lie in (0, v_t]."""
    if not 0 < v_t_s <= v_t:
        raise InvalidValue("v_t_s", f"must lie in (0, {v_t}], got {v_t_s}")


def check_deviation_threshold(threshold: float) -> None:
    """A flag threshold is a relative deviation: it must lie in (0, inf)."""
    if not 0 < threshold < np.inf:
        raise InvalidValue("deviation_threshold", f"must lie in (0, inf), got {threshold}")


def _raster_job(network: GridNetwork, v_t_s: float, w: Waveform,
                cfg: SimConfig) -> tuple[Trace, np.ndarray]:
    """Step the baseline and the sensitized runs as one batch: row 0 keeps
    every threshold, row l + 1 has unit ``network.labels[l]`` at ``v_t_s``.
    Returns the baseline's trace, the only row recorded, and the sensitized
    rows' Thevenin resistances, (E, crossings + 1), of the states held at
    every held step, read by one ``stamper.resistance`` call per held step:
    a batch of the march's shape, whose tables the march has built."""
    table = ParamTable.from_params([e.params for e in network.edges])
    n_edges = len(network.edges)
    sensitized = np.eye(n_edges + 1, n_edges, k=-1, dtype=bool)
    # every parameter as a full (rows, E) array, so that the device step's
    # ufuncs run over the batch without broadcasting
    batch = ParamTable(*(np.broadcast_to(getattr(table, f.name), sensitized.shape).copy()
                         for f in fields(table)))
    batch.v_t[sensitized] = v_t_s
    stamper = NodalStamper(network)
    t, v_src, v_m, i_src, x, held = _run(np.tile(table.r_init, (n_edges + 1, 1)), batch,
                                         stamper.solve_raw, (stamper.near, stamper.source_current),
                                         w, cfg, row=0)
    r = np.array([stamper.resistance(states) for states in held])
    return Trace(t=t, v_src=v_src, i_src=i_src, v_m=v_m, x=x), r[:, 1:].T


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
    baseline and the sensitized runs step as one batch, from the all-r_init
    initial condition; the sensitized runs share the baseline's steps and
    crossings."""
    check_sensitized_threshold(v_t_s, base.v_t)
    check_deviation_threshold(deviation_threshold)
    cfg_eff = measurement_settings(cfg, w, v_t_s)
    network = build_grid(n, p_r=0.0, p_i=0.0, seed=seed, params=base,
                         source=source, ground=ground)
    trace, matrix = _raster_job(network, v_t_s, w, cfg_eff)
    baseline = _measured(network, trace, cfg_eff, w.cycles)
    base_r = np.array([p.r_thevenin for p in baseline.remnants])
    flags = np.abs(matrix - base_r) / base_r > deviation_threshold
    return SensitizationResult(
        v_t_s=v_t_s,
        deviation_threshold=deviation_threshold,
        labels=tuple(network.labels),
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
    base_row = [-1] + [p.r_thevenin for p in result.baseline.remnants]
    write_rows(path, ["label"] + [f"cond_{c}" for c in result.conditions],
               [base_row] + [[label, *row] for label, row in zip(result.labels, result.matrix)])


def flags_to_csv(result: SensitizationResult, path) -> None:
    write_rows(path, ["label"] + [f"cond_{c}" for c in result.conditions],
               ([label, *map(int, row)] for label, row in zip(result.labels, result.flags)))
