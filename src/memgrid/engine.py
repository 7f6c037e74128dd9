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
A batch may record one row alone, as the raster does; every row's states are
also held at step 0 and at each crossing's nearest step, whatever the stride.

The units are threshold-type, so each half-cycle of the stimulus opens a
stretch in which no unit moves and the lattice is a fixed resistor network.
A step whose rates are all exactly zero leaves the states bitwise unchanged:
x + (+-0) * dt is x, and the clamp to [r_on, r_off] keeps an in-bound x. The
loop therefore solves the steps after it ahead, K at a time, at those
states: one stamp per system serves all K source voltages, and on the banded
path so does one factorization. A chunk only reads ahead: it records the
rows before the first in which a unit would move, and the loop takes that
step as any other, so the outputs are those of the per-step march bit for
bit. K starts at 2 and doubles while the stretch lasts. A chunk holds at
most 64 systems (K times the batch rows), which bounds its memory; a batch
that leaves K < 4 under that cap, such as the 25-row raster, never looks
ahead and does not even test its rates for it.

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

from .device import InvalidValue, ParamTable, StepOperands, state_rate, step_resistance
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
# Systems (steps times batch rows) in one frozen-stretch chunk, which bounds
# its memory; a batch whose chunks would hold fewer than _AHEAD_MIN steps
# does not look ahead: for the 25-row raster, 4.1% of steps are frozen.
_AHEAD_SYSTEMS = 64
_AHEAD_MIN = 4


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
    does not divide its duration would silently shorten or stretch the run."""
    steps = w.duration / cfg.dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise InvalidValue("dt", f"{cfg.dt!r} does not divide the {w.duration!r} s stimulus")
    return round(steps)


def waveform_sample(w: Waveform, t: float) -> float:
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
    schedule is built once: the step times, a scalar ``waveform_sample`` at
    each, the recorded steps (every ``record_stride``-th and the last) and
    the held steps (step 0 and the step nearest each zero crossing). Per
    step the loop gets ``solve(x, v_src) -> (solution, v_m)``, records a
    scheduled sample, copies ``x`` once per hold of the step, then advances
    ``x``. ``source`` is ``(near, current)``: a recorded sample keeps
    ``solution[..., near]``, and after the loop one call ``current(v_src,
    kept, x)`` of the recorded source voltages, those kept values and the
    recorded states gives every recorded source current at once. Keeping
    them is one gather, 1.6-1.9 us a step for the raster's row 0, where the
    current of every row took about 5 us a step (2-core x86-64 host). Returns
    the arrays (t, v_src, v_m, i_src, x), each of shape (n_samples,) plus
    the shape of its per-step value, and the held states, (crossings + 1,)
    plus the shape of ``x``, of every row whatever the stride; with
    ``row``, v_m, i_src and x keep only that batch row.

    After a step that leaves every rate exactly zero, the following steps
    are solved ahead in chunks at the unchanged states (see the module
    docstring): ``solve`` is then handed K source voltages of the schedule
    shaped (K,) plus one axis of 1 per axis of ``x``, and returns results
    with that leading axis. A chunk records and holds only its frozen rows;
    the first step in which a unit moves is solved again, recorded, held
    and stepped by the loop's one ``step_resistance``. A chunk holds up to
    ``_AHEAD_SYSTEMS`` systems: 64 steps for one network or lone devices,
    64 // B for a batch of B rows, and a batch left with fewer than
    ``_AHEAD_MIN`` never looks ahead."""
    n_steps = step_count(w, cfg)
    ts = np.arange(n_steps + 1) * cfg.dt
    vs = np.fromiter((waveform_sample(w, t) for t in ts), float, n_steps + 1)
    kept = np.arange(n_steps + 1) % cfg.record_stride == 0
    kept[-1] = True  # the last step is recorded whatever the stride
    cap = _AHEAD_SYSTEMS // (len(x) if np.ndim(x) == 2 else 1)
    ahead = None if cap < _AHEAD_MIN else (-1,) + (1,) * np.ndim(x)  # a chunk's v_src shape
    held = np.bincount([0] + [np.argmin(np.abs(ts - c.t)) for c in zero_crossings(ts, vs)],
                       minlength=n_steps + 1)  # copies of x held per step, whatever the stride
    # the device step's operands, once per march and after any write to params
    dt, params = np.array(cfg.dt), StepOperands.of(params)
    rate = 0.0 * x  # no rate before the first step: it is an Euler step
    near, current = source
    # the recorded part of a v_m or x, and of a solution: all of it, or batch row ``row``
    at, gather = (..., (..., near)) if row is None else ((..., row, slice(None)), (..., row, near))
    x_held = np.empty((held.sum(),) + np.shape(x))
    j = h = k = 0
    while k <= n_steps:
        solution, v_m = solve(x, vs[k])
        if kept[k]:
            sample = v_m[at], solution[gather], x[at]
            if k == 0:
                vm_rec, near_rec, x_rec = [np.empty((np.count_nonzero(kept),) + np.shape(a))
                                           for a in sample]
            vm_rec[j], near_rec[j], x_rec[j] = sample
            j += 1
        if held[k]:
            x_held[h:h + held[k]] = x
            h += held[k]
        x, rate = step_resistance(x, v_m, dt, params, rate)
        k += 1
        if ahead is None or np.count_nonzero(rate):
            continue
        # No unit moved: x + (+-0) * dt == x and the clamp keeps an in-bound
        # x, so every step until a rate turns nonzero solves these states.
        size = 2
        while k <= n_steps:
            end = min(k + size, n_steps + 1)
            solutions, v_ms = solve(x, vs[k:end].reshape(ahead))
            moved = state_rate(x, v_ms, params).reshape(end - k, -1).any(axis=1)
            taken = int(moved.argmax()) if moved.any() else end - k
            keep, copies = kept[k:k + taken], held[k:k + taken].sum()
            m = np.count_nonzero(keep)
            near_rec[j:j + m] = solutions[:taken][keep][gather]
            vm_rec[j:j + m] = v_ms[:taken][keep][at]
            x_rec[j:j + m] = x[at]
            x_held[h:h + copies] = x
            j, h = j + m, h + copies
            k += taken
            if k < end:
                break
            size = min(2 * size, cap)
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
