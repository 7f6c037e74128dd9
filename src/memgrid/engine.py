"""The one time-marching loop, ``_run``, which steps and records a lattice, a
lone device, a batch of lone devices or a batch of lattices on one topology;
the sample schedule lives in it alone. Explicit coupling: at each
step the stimulus is sampled, the network is solved once with the device
states produced by the previous step, each device voltage is read off through
its polarity, and all states take one restarted Adams-Bashforth 2 step
(``device.step_resistance``), which reuses the state rates of the previous
step instead of solving the network again. A plain Euler step, driven by
voltages that lag the states by one step, lets the winner of a RESET race
between series devices depend on dt; the second-order step makes the remnants
converge under dt refinement. Samples are recorded before the state advance
so every trace row (t, v_src, i_src, v_m, x) is self-consistent.

The units are threshold-type, so each half-cycle of the stimulus opens a
stretch in which no unit moves and the lattice is a fixed resistor network.
A step whose rates are all exactly zero leaves the states bitwise unchanged:
x + (+-0) * dt is x, and the clamp to [r_on, r_off] keeps an in-bound x. The
loop therefore solves the steps after it ahead, K at a time, at those
states: one stamp per system serves all K source voltages, and on the banded
path so does one factorization. The chunk is recorded up to its first row in
which a unit would move, and that row takes the ordinary step, so the
outputs are those of the per-step march bit for bit. K starts at 2 and
doubles while the stretch lasts. A chunk holds at most 64 systems (K times
the batch rows), which bounds its memory; a batch that leaves K < 4 under
that cap, such as the 25-row raster, never looks ahead and does not even
test its rates for it."""

from dataclasses import dataclass

import numpy as np

from .device import ParamTable, state_rate, step_resistance
from .topology import GridNetwork
from .solver import NodalStamper

TWO_PI = 2.0 * np.pi
_CSV_BLOCK = 64  # trace rows per write; 512 rows hold 3 MB more at peak and are no faster
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
            raise ValueError(f"unsupported waveform kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be > 0, got {self.frequency}")
        if self.cycles < 1 or int(self.cycles) != self.cycles:
            raise ValueError(f"cycles must be a positive integer, got {self.cycles}")

    @property
    def duration(self) -> float:
        return self.cycles / self.frequency


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    record_stride: int = 1
    fit_window: float = 0.1  # volts; must stay below every device threshold

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.record_stride < 1 or int(self.record_stride) != self.record_stride:
            raise ValueError(f"record_stride must be a positive integer, got {self.record_stride}")
        if self.fit_window <= 0:
            raise ValueError(f"fit_window must be > 0, got {self.fit_window}")


def waveform_sample(w: Waveform, t: float) -> float:
    return w.amplitude * np.sin(TWO_PI * w.frequency * t + w.phase)


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
        rows end in CRLF. Rows are formatted a block at a time, so neither
        the text nor a full copy of the table is held at once."""
        header = ["t", "v_src", "i_src"]
        for label in range(self.n_devices):
            header += [f"v_m[{label}]", f"x[{label}]"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, self.n_samples, _CSV_BLOCK):
                rows = slice(lo, lo + _CSV_BLOCK)
                block = np.empty((len(self.t[rows]), 3 + 2 * self.n_devices))
                block[:, 0] = self.t[rows]
                block[:, 1] = self.v_src[rows]
                block[:, 2] = self.i_src[rows]
                block[:, 3::2] = self.v_m[rows]
                block[:, 4::2] = self.x[rows]
                fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()))


def _run(x, params, solve, w: Waveform, cfg: SimConfig, row=None):
    """The one time-marching loop, from the states ``x``: a scalar, lone
    devices (B,), one network's states (E,) or a batch (B, E). Per step it
    samples the stimulus, gets ``solve(x, v_src) -> (v_m, i_src)``, records
    the sample on every ``record_stride``-th and on the last step, then
    advances ``x``. Returns the arrays (t, v_src, v_m, i_src, x), each of
    shape (n_samples,) plus the shape of its per-step value; with ``row``,
    v_m and x keep only that batch row, while i_src keeps every row.

    After a step that leaves every rate exactly zero, the following steps
    are solved ahead in chunks at the unchanged states (see the module
    docstring): ``solve`` is then handed K source voltages shaped (K,) plus
    one axis of 1 per axis of ``x``, and returns results with that leading
    axis. A chunk's voltages come from the same scalar ``waveform_sample``
    calls as single steps; its rows are recorded up to and including the
    first in which a unit moves, which takes the ordinary
    ``step_resistance`` step. A chunk holds up to ``_AHEAD_SYSTEMS``
    systems: 64 steps for one network or lone devices, 64 // B for a batch
    of B rows, and a batch left with fewer than ``_AHEAD_MIN`` never looks
    ahead."""
    n_steps = round(w.duration / cfg.dt)
    stride = cfg.record_stride
    n_rec = -(-n_steps // stride) + 1
    cap = _AHEAD_SYSTEMS // (len(x) if np.ndim(x) == 2 else 1)
    ahead = None if cap < _AHEAD_MIN else (-1,) + (1,) * np.ndim(x)  # a chunk's v_src shape
    rate = 0.0 * x  # no rate before the first step: it is an Euler step
    j = resume = 0
    for k in range(n_steps + 1):
        if k < resume:
            continue  # solved, recorded and stepped in a chunk
        t = k * cfg.dt
        v = waveform_sample(w, t)
        v_m, i_src = solve(x, v)
        if k % stride == 0 or k == n_steps:
            sample = (t, v, v_m, i_src, x) if row is None else (t, v, v_m[row], i_src, x[row])
            if k == 0:
                recs = t_rec, v_rec, vm_rec, i_rec, x_rec = [
                    np.empty((n_rec,) + np.shape(a)) for a in sample]
            t_rec[j], v_rec[j], vm_rec[j], i_rec[j], x_rec[j] = sample
            j += 1
        x, rate = step_resistance(x, v_m, cfg.dt, params, rate)
        if ahead is None or rate.any():
            continue
        # No unit moved: x + (+-0) * dt == x and the clamp keeps an in-bound
        # x, so every step until a rate turns nonzero solves these states.
        size, resume = 2, k + 1
        while resume <= n_steps:
            steps = range(resume, min(resume + size, n_steps + 1))
            ts = np.array([s * cfg.dt for s in steps])
            vs = np.array([waveform_sample(w, t) for t in ts])
            v_ms, i_srcs = solve(x, vs.reshape(ahead))
            moved = state_rate(x, v_ms, params).reshape(len(steps), -1).any(axis=1)
            taken = int(moved.argmax()) + 1 if moved.any() else len(steps)
            keep = [i for i, s in enumerate(steps[:taken]) if s % stride == 0 or s == n_steps]
            m = len(keep)
            t_rec[j:j + m], v_rec[j:j + m], i_rec[j:j + m] = ts[keep], vs[keep], i_srcs[keep]
            vm_rec[j:j + m] = v_ms[keep] if row is None else v_ms[keep, row]
            x_rec[j:j + m] = x if row is None else x[row]
            j += m
            resume += taken
            if moved[taken - 1]:
                x, rate = step_resistance(x, v_ms[taken - 1], cfg.dt, params, rate)
                break
            size = min(2 * size, cap)
    return recs


def simulate(network: GridNetwork, w: Waveform, cfg: SimConfig) -> Trace:
    """Run the stimulus over the network and record the trace.

    Connectivity is checked once up front (the topology is static, so a run
    cannot disconnect mid-flight); DisconnectedNetworkError propagates from
    the solver. The first and last steps are always recorded regardless of
    ``record_stride``.
    """
    stamper = NodalStamper(network)
    ptable = ParamTable.from_params([e.params for e in network.edges])
    t, v_src, v_m, i_src, x = _run(ptable.r_init, ptable,
                                   lambda x, v: stamper.solve_raw(x, v)[1:], w, cfg)
    return Trace(t=t, v_src=v_src, i_src=i_src, v_m=v_m, x=x)
