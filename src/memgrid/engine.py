"""The one time-marching loop, ``_run``, which steps and records a lattice, a
batch of lone devices (a single device is a batch of one) or a batch of
lattices on one topology; the sample schedule lives in it alone. Explicit
coupling: at each step the stimulus is sampled, the network is solved once
with the device states produced by the previous step, each device voltage is
read off through its polarity, and all states take one restarted
Adams-Bashforth 2 step (``device.step_resistance``), which reuses the state
rates of the previous step instead of solving the network again. A plain Euler
step, driven by voltages that lag the states by one step, lets the winner of a
RESET race between series devices depend on dt; the second-order step makes
the remnants converge under dt refinement. Samples are recorded before the
state advance so every trace row (t, v_src, i_src, v_m, x) is self-consistent.
A batch may record one row alone, as the raster does. A network's states,
or every batch row's, are also held at step 0 and each crossing's nearest step.

Lone devices have no network to solve: each one's voltage is its gain times
the source voltage, known for every step before the march starts, and so is
its rate until its state reaches or leaves a bound. Each unit marches in
stretches between those events, one running sum of increments taken ahead,
with the bits of the per-step loop. It keeps the recorded states alone, and
forms the voltages and the currents, v_m / x, from them after the march.

The units are threshold-type, so each half-cycle of the stimulus opens a
stretch in which no unit moves and the lattice is a fixed resistor network.
A step whose rates are all exactly zero leaves the states bitwise unchanged:
x + (+-0) * dt is x, and the clamp to [r_on, r_off] keeps an in-bound x. The
loop therefore solves the steps after it ahead, K at a time, at those
states: one stamp per system serves all K source voltages, and on the banded
path so does one factorization. A chunk only reads ahead: it records the
rows before the first in which a unit would move, and the loop takes that
step as any other, so the outputs are those of the per-step march bit for
bit. K starts at 2 and doubles while the stretch lasts, up to 64 steps,
which bounds a chunk's memory. Only a single network looks ahead: a batch
steps one by one, and a lone device's frozen stretch is one of zero
increments.

``write_csv`` writes a command's traces, all of one length, in one pass:
each block of rows is stacked from every trace, and each distinct 64-bit
pattern in it is formatted once and shared by every file. A device sweep
writes the same ``t`` column per point, the same ``v_src`` per amplitude and
``x`` at a bound for long runs, so only about a third of its values are
distinct. ``write_rows`` writes every other table (remnants, maps, rasters
and flags) with the same float rule."""

import csv
from contextlib import ExitStack
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .device import (
    InvalidValue,
    ParamTable,
    StepOperands,
    ab2_increment,
    gated_rate,
    state_rate,
    step_resistance,
    voltage_terms,
)
from .topology import GridNetwork
from .solver import NodalStamper

TWO_PI = 2.0 * np.pi
# Values per write_csv block, summed over the files of a pass: 40 rows of
# the 4x4 trace (51 columns), 51 rows of the 8-point device sweep (5 columns
# each). Only the block's distinct values are formatted, and their reprs live
# until every file's rows of the block are joined. 816 values wrote the sweep
# about 5% slower; 4,096 were no faster and held 0.6 MB more at run's peak.
_CSV_VALUES = 2048
# Files write_csv holds open at once: a longer list is written in passes of
# this many, far below the usual limit of 1,024 open descriptors.
_CSV_FILES = 64
# Steps of a single network in one frozen-stretch chunk, which bounds its
# memory. A batch does not look ahead: on 2x2 and 3x3 rasters it saved
# 2.4-6.4% of solves and no time that could be resolved.
_AHEAD_SYSTEMS = 64
# Values (steps times devices) in one pass of a lone march: 256 steps of the
# 8-point device sweep, 2,048 of a single device. On a 2-core x86-64 host,
# 4,096 marched the sweep in 4.6-4.8 ms against 4.3 ms and peaked 90 KB
# higher under tracemalloc, but 128 random devices in 42 ms against 47-53.
_STRETCH_VALUES = 2048


@dataclass(frozen=True)
class Waveform:
    """Sinusoidal stimulus v(t) = amplitude * sin(2*pi*frequency*t + phase)."""

    kind: str = "sine"
    amplitude: float = 12.0
    frequency: float = 1.0
    cycles: int = 5
    phase: float = 0.0

    def __post_init__(self):
        if self.kind != "sine":
            raise InvalidValue("kind", f"must be sine, got {self.kind!r}")
        if not 0 <= self.amplitude < np.inf:
            raise InvalidValue("amplitude", f"must lie in [0, inf), got {self.amplitude}")
        if not (self.cycles >= 1 and self.cycles % 1 == 0):
            raise InvalidValue("cycles", f"must be an integer >= 1, got {self.cycles}")
        if not (0 < self.frequency < np.inf and self.duration < np.inf):
            raise InvalidValue("frequency", f"must lie in (0, inf), the duration finite, "
                                            f"got {self.frequency}")
        if not abs(self.phase) < np.inf:
            raise InvalidValue("phase", f"must be finite, got {self.phase}")

    @property
    def duration(self) -> float:
        return self.cycles / self.frequency


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    record_stride: int = 1
    fit_window: float = 0.1  # volts; must stay below every device threshold

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise InvalidValue("dt", f"must lie in (0, inf), got {self.dt}")
        if not (self.record_stride >= 1 and self.record_stride % 1 == 0):
            raise InvalidValue("record_stride", f"must be an integer >= 1, got {self.record_stride}")
        if not 0 < self.fit_window < np.inf:
            raise InvalidValue("fit_window", f"must lie in (0, inf), got {self.fit_window}")


def step_count(w: Waveform, cfg: SimConfig) -> int:
    """The steps of ``_run``: those of ``cfg.dt`` in the stimulus. A dt that
    does not divide its duration would silently shorten or stretch the run,
    and one that leaves no finite count of steps would overflow ``round``."""
    steps = w.duration / cfg.dt
    if not steps < np.inf:
        raise InvalidValue("dt", f"{cfg.dt!r} gives the {w.duration!r} s stimulus infinite steps")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise InvalidValue("dt", f"{cfg.dt!r} does not divide the {w.duration!r} s stimulus")
    return round(steps)


def waveform_sample(w: Waveform, t):
    """The stimulus at time ``t``, a float or an array of times; an array
    gives each time the bits of its own scalar call, zero sign included,
    where numpy's array ``sin`` agrees with its scalar one."""
    return w.amplitude * np.sin(TWO_PI * w.frequency * t + w.phase)


class Crossing(NamedTuple):
    t: float
    left: int
    right: int


def zero_crossings(t: np.ndarray, v: np.ndarray) -> list[Crossing]:
    """One crossing per sign change of ``v``, its time interpolated in ``t``.

    Samples within 1e-9 of the stimulus amplitude count as exact zeros, which
    absorbs the floating-point residue of sine roots that land on the sample
    grid. A trailing zero sample closes the final crossing of a whole number
    of cycles. A constant-zero stimulus yields no crossings.
    """
    tol = 1e-9 * float(np.max(np.abs(v))) if len(v) else 0.0
    signed = np.flatnonzero(~(np.abs(v) <= tol))  # a NaN sample counts as negative
    positive = v[signed] > 0
    change = np.flatnonzero(positive[1:] != positive[:-1])
    left, right = signed[change], signed[change + 1]
    t1, v1 = t[left], v[left]
    times = t1 + v1 * (t[right] - t1) / (v1 - v[right])
    crossings = [Crossing(t=time, left=a, right=b)
                 for time, a, b in zip(times.tolist(), left.tolist(), right.tolist())]
    if len(v) and abs(float(v[-1])) <= tol and len(signed):
        last = len(v) - 1
        crossings.append(Crossing(t=float(t[last]), left=last, right=last))
    return crossings


@dataclass(frozen=True)
class Trace:
    """Recorded time series: source voltage/current plus per-device v_m and x.

    Columns of v_m and x follow the network's edge labels in ascending order.
    """

    t: np.ndarray
    v_src: np.ndarray
    i_src: np.ndarray
    v_m: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("trace times must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def n_devices(self) -> int:
        return self.x.shape[1]

    def nearest_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.t - t)))

    def to_csv(self, path) -> None:
        """Write the columns t, v_src, i_src, then v_m and x per label, one
        row per sample, every value as its shortest round-tripping ``repr``.
        The bytes are those of ``csv.writer``: no field needs quoting and
        rows end in CRLF. Same as ``write_csv([self], [path])``."""
        write_csv([self], [path])


def _csv_header(trace: Trace) -> str:
    header = ["t", "v_src", "i_src"]
    for label in range(trace.n_devices):
        header += [f"v_m[{label}]", f"x[{label}]"]
    return ",".join(header) + "\r\n"


def write_csv(traces, paths) -> None:
    """Write each trace to its path as ``Trace.to_csv`` does, byte for byte,
    in passes of up to ``_CSV_FILES`` files held open together. The traces
    must be equally long, else ``ValueError``.

    A pass walks its traces in blocks of rows, about ``_CSV_VALUES`` values
    over all its files, and stacks each block's columns from all of them.
    The block's distinct values are found by their 64-bit patterns, not by
    float equality (``0.0 == -0.0``, but their reprs differ), each gets one
    ``repr``, and every file's rows are joined from those shared strings
    and the separators. Neither the text nor a full copy of any trace is
    held at once."""
    traces, paths = list(traces), list(paths)
    if len(traces) != len(paths):
        raise ValueError(f"{len(traces)} traces for {len(paths)} paths")
    lengths = sorted({trace.n_samples for trace in traces})
    if len(lengths) > 1:
        raise ValueError(f"traces written together must be equally long, got {lengths} samples")
    for lo in range(0, len(traces), _CSV_FILES):
        _write_pass(traces[lo:lo + _CSV_FILES], paths[lo:lo + _CSV_FILES])


def _write_pass(traces, paths) -> None:
    fills, spans, cols = [], [], 0  # (block columns, trace array); each file's columns
    for trace in traces:
        end = cols + 3 + 2 * trace.n_devices
        fills += [(cols, trace.t), (cols + 1, trace.v_src), (cols + 2, trace.i_src),
                  (slice(cols + 3, end, 2), trace.v_m), (slice(cols + 4, end, 2), trace.x)]
        spans.append(slice(cols, end))
        cols = end
    step = max(1, _CSV_VALUES // cols)
    block = np.empty((step, cols))
    cells = np.full((step, cols, 2), ",", dtype=object)  # each value's text, then its separator
    for span in spans:
        cells[:, span.stop - 1, 1] = "\r\n"
    n_samples = traces[0].n_samples
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path in paths]
        for fh, trace in zip(files, traces):
            fh.write(_csv_header(trace))
        for lo in range(0, n_samples, step):
            rows = slice(lo, lo + step)
            values = block[:min(step, n_samples - lo)]
            for where, column in fills:
                values[:, where] = column[rows]
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            # numpy 1.x returns the inverse flat, 2.x in the shape of its input
            cells[:len(values), :, 0] = text[inverse.reshape(values.shape)]
            for fh, span in zip(files, spans):
                fh.write("".join(cells[:len(values), span].ravel().tolist()))


def write_rows(path, header, rows) -> None:
    """Write a table through ``csv.writer``: the header, then each row, every
    float (numpy float64 included) as its shortest round-tripping ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _run(x, params, solve, source, w: Waveform, cfg: SimConfig, row=None):
    """The one time-marching loop, from the states ``x``, an array: lone
    devices (B,), one network's states (E,) or a batch (B, E). The sample
    schedule is built once: the step times, their source voltages by one
    ``waveform_sample`` call on the array of times and the recorded steps
    (every ``record_stride``-th and the last); for a network or a batch,
    also the held steps (step 0 and the step nearest each zero crossing)
    and so every output's slots: the recorded rows and held copies before
    each step, two prefix sums.
    Per step the loop gets ``solve(x, v_src) -> (solution, v_m)``, which
    leaves ``x`` be, writes the step's recorded row and held copies at one
    site, then advances ``x``. ``source`` is ``(near, current)``: a recorded
    sample keeps ``solution[..., near]``, and after the loop one call
    ``current(v_src, kept, x)`` of the recorded source voltages, those kept
    values and the recorded states gives every recorded source current at
    once. Keeping them is one gather, 1.6-1.9 us a step for the raster's
    row 0, where the current of every row took about 5 us a step (2-core
    x86-64 host).
    Returns the arrays (t, v_src, v_m, i_src, x), each of shape
    (n_samples,) plus the shape of its per-step value, and the held states,
    (crossings + 1,) plus the shape of ``x``, of every row whatever the
    stride; with ``row``, v_m, i_src and x keep only that batch row.

    ``solve`` may instead be an array of gains, one per unit, for units
    whose voltages do not depend on the states: lone devices (B,), each
    driven by ``gain * v_src``. ``source`` is then unused (``None``), each
    recorded current is v_m / x, and the held slot is ``None``. Each unit
    then marches in stretches from one of its own bound events to the next,
    up to ``_STRETCH_VALUES // B`` steps a pass: its rates, increments and
    states are taken at once, the states by one ``np.add.accumulate``, and
    the step that reaches or leaves a bound is clamped and ends the stretch.
    A march takes as many passes as its busiest unit has stretches. Only the
    recorded ``x`` is kept; the voltages, from the recorded source voltages,
    and the currents follow the march with the per-step march's bits.

    After a step of a single network that leaves every rate exactly zero,
    the following steps are solved ahead in chunks at the unchanged states
    (see the module docstring): ``solve`` is then handed K source voltages
    of the schedule shaped (K, 1), and returns results with that leading
    axis. A chunk writes its frozen steps' slots alone; the first step in
    which a unit moves is solved again, recorded, held and stepped by the
    loop's one ``step_resistance``. A chunk holds up to ``_AHEAD_SYSTEMS``
    steps. A batch never looks ahead."""
    n_steps = step_count(w, cfg)
    ts = np.arange(n_steps + 1) * cfg.dt
    vs = waveform_sample(w, ts)
    kept = np.arange(n_steps + 1) % cfg.record_stride == 0
    kept[-1] = True  # the last step is recorded whatever the stride
    # the device step's operands, once per march and after any write to params
    dt, params = np.array(cfg.dt), StepOperands.of(params)
    rate = 0.0 * x  # no rate before the first step: it is an Euler step
    if isinstance(solve, np.ndarray):  # lone devices: ``solve`` holds their gains
        slot = np.cumsum(kept) - 1  # each recorded step's row of x_rec
        x_rec = np.empty((slot[-1] + 1,) + x.shape)
        rows = np.arange(min(n_steps + 1, max(1, _STRETCH_VALUES // x.size)))[:, None]
        units, pos = np.arange(x.size), np.zeros(x.size, dtype=int)  # each unit's next step
        while pos.min() <= n_steps:
            # Each unit's stretch from its own next step: while its state
            # stays strictly inside (r_on, r_off), or exactly at the bound
            # it starts at, its gate is the one read at x and the clamp
            # leaves it be, so every step's rate and increment are known
            # ahead and its states are their running sum, the loop's own
            # x + increment in its order. Its first step out ends it, clamped.
            steps = np.minimum(pos + rows, n_steps)  # the last step stands in past the end
            up, push = voltage_terms(vs[steps] * solve, params)
            rates = gated_rate(x, up, push, params)
            states = np.add.accumulate(np.concatenate(
                (x[None], ab2_increment(rates, np.concatenate((rate[None], rates[:-1])), dt))))
            # the open interval a unit's sums must stay in: (r_on, r_off)
            # from inside, the doubles either side of its x from a bound
            inside = (x > params.r_on) & (x < params.r_off)
            lo = np.where(inside, params.r_on, np.nextafter(x, -np.inf))
            hi = np.where(inside, params.r_off, np.nextafter(x, np.inf))
            out = (states[1:] <= lo) | (states[1:] >= hi)
            taken = np.where(out.any(axis=0), out.argmax(axis=0) + 1, len(rows))
            row, unit = np.nonzero((rows < np.minimum(taken, n_steps + 1 - pos)) & kept[steps])
            x_rec[slot[steps[row, unit]], unit] = states[row, unit]
            x = np.minimum(np.maximum(states[taken, units], params.r_on), params.r_off)
            rate, pos = rates[taken - 1, units], pos + taken
        vs = vs[kept]  # the recorded voltages, from the recorded source voltages alone
        v_m = vs[:, None] * solve
        return ts[kept], vs, v_m, v_m / x_rec, x_rec, None
    held = np.bincount([0] + [np.argmin(np.abs(ts - c.t)) for c in zero_crossings(ts, vs)],
                       minlength=n_steps + 1)  # copies of x held per step, whatever the stride
    near, current = source
    # the recorded part of a v_m or x, and of a solution: all of it, or batch row ``row``
    at, gather = (..., (..., near)) if row is None else ((..., row, slice(None)), (..., row, near))
    # the recorded rows and the held copies before each step, and in all
    rec, hold = (np.concatenate(([0], np.cumsum(a))) for a in (kept, held))
    x_rec = np.empty((rec[-1],) + np.shape(x[at]))
    vm_rec, near_rec = np.empty(x_rec.shape), np.empty(x_rec.shape[:-1] + np.shape(near))
    x_held = np.empty((hold[-1],) + np.shape(x))
    batch = np.ndim(x) == 2  # a batch steps one by one; a single network may look ahead
    k = 0
    while k <= n_steps:
        solution, v_m = solve(x, vs[k])
        if kept[k]:  # the solve leaves x as it was
            x_rec[rec[k]], vm_rec[rec[k]], near_rec[rec[k]] = x[at], v_m[at], solution[gather]
        if held[k]:
            x_held[hold[k]:hold[k + 1]] = x
        x, rate = step_resistance(x, v_m, dt, params, rate)
        k += 1
        if batch or np.count_nonzero(rate):
            continue
        # No unit moved: x + (+-0) * dt == x and the clamp keeps an in-bound
        # x, so every step until a rate turns nonzero solves these states.
        size = 2
        while k <= n_steps:
            end = min(k + size, n_steps + 1)
            solutions, v_ms = solve(x, vs[k:end, None])
            moved = state_rate(x, v_ms, params).any(axis=1)
            taken = int(moved.argmax()) if moved.any() else end - k
            keep, slots = kept[k:k + taken], slice(rec[k], rec[k + taken])
            x_rec[slots], vm_rec[slots], near_rec[slots] = (
                x, v_ms[:taken][keep], solutions[:taken][keep][..., near])
            x_held[hold[k]:hold[k + taken]] = x
            k += taken
            if k < end:
                break
            size = min(2 * size, _AHEAD_SYSTEMS)
    vs = vs[kept]
    return ts[kept], vs, vm_rec, current(vs, near_rec, x_rec), x_rec, x_held


def simulate(network: GridNetwork, w: Waveform, cfg: SimConfig) -> Trace:
    """Run the stimulus over the network and record the trace.

    Connectivity is checked once up front (the topology is static, so a run
    cannot disconnect mid-flight); DisconnectedNetworkError propagates from
    the solver. The first and last steps are always recorded regardless of
    ``record_stride``.
    """
    stamper = NodalStamper(network)
    ptable = ParamTable.from_params([e.params for e in network.edges])
    t, v_src, v_m, i_src, x, _ = _run(ptable.r_init, ptable, stamper.solve_raw,
                                      (stamper.near, stamper.source_current), w, cfg)
    return Trace(t=t, v_src=v_src, i_src=i_src, v_m=v_m, x=x)
