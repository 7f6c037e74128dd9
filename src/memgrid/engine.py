"""The one time-marching loop, for a lattice, a lone device or a batch of
lattices on one topology. Explicit coupling: at each step the stimulus is
sampled, the network is solved once with the device states produced by the
previous step, each device voltage is read off through its polarity, and all
states take one restarted Adams-Bashforth 2 step (``device.step_resistance``),
which reuses the state rates of the previous step instead of solving the
network again. A plain Euler step, driven by voltages that lag the states by
one step, lets the winner of a RESET race between series devices depend on
dt; the second-order step makes the remnants converge under dt refinement.
Samples are recorded before the state advance so every trace row
(t, v_src, i_src, v_m, x) is self-consistent."""

import csv
from dataclasses import dataclass

import numpy as np

from .device import ParamTable, step_resistance
from .topology import GridNetwork
from .solver import NodalStamper

TWO_PI = 2.0 * np.pi


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
        header = ["t", "v_src", "i_src"]
        for label in range(self.n_devices):
            header += [f"v_m[{label}]", f"x[{label}]"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.n_samples):
                row = [repr(float(self.t[k])), repr(float(self.v_src[k])),
                       repr(float(self.i_src[k]))]
                for e in range(self.n_devices):
                    row.append(repr(float(self.v_m[k, e])))
                    row.append(repr(float(self.x[k, e])))
                writer.writerow(row)


def _march(x, params, solve, w: Waveform, cfg: SimConfig):
    """The one time-marching loop: per step, sample the stimulus, get
    ``solve(x, v_src) -> (v_m, i_src)``, yield ``(t, v_src, v_m, i_src, x)``
    on every ``record_stride``-th and on the last step, then advance ``x``,
    a scalar, one network's states (E,) or a batch (B, E)."""
    n_steps = round(w.duration / cfg.dt)
    rate = 0.0 * x  # no rate before the first step: it is an Euler step
    for k in range(n_steps + 1):
        t = k * cfg.dt
        v = waveform_sample(w, t)
        v_m, i_src = solve(x, v)
        if k % cfg.record_stride == 0 or k == n_steps:
            yield t, v, v_m, i_src, x
        x, rate = step_resistance(x, v_m, cfg.dt, params, rate)


def _record(x, params, solve, w: Waveform, cfg: SimConfig) -> Trace:
    """Run ``_march`` from the states ``x`` and record every sample."""
    n_rec = -(-round(w.duration / cfg.dt) // cfg.record_stride) + 1  # as _march yields
    t_rec, v_rec, i_rec = np.empty((3, n_rec))
    vm_rec, x_rec = np.empty((2, n_rec) + np.shape(x))
    for row, (t, v, v_m, i_src, x) in enumerate(_march(x, params, solve, w, cfg)):
        t_rec[row] = t
        v_rec[row] = v
        i_rec[row] = i_src
        vm_rec[row] = v_m
        x_rec[row] = x
    return Trace(t=t_rec, v_src=v_rec, i_src=i_rec, v_m=vm_rec.reshape(n_rec, -1),
                 x=x_rec.reshape(n_rec, -1))


def simulate(network: GridNetwork, w: Waveform, cfg: SimConfig) -> Trace:
    """Run the stimulus over the network and record the trace.

    Connectivity is checked once up front (the topology is static, so a run
    cannot disconnect mid-flight); DisconnectedNetworkError propagates from
    the solver. The first and last steps are always recorded regardless of
    ``record_stride``.
    """
    stamper = NodalStamper(network)
    ptable = ParamTable.from_params([e.params for e in network.edges])
    return _record(ptable.r_init, ptable, lambda x, v: stamper.solve_raw(x, v)[1:], w, cfg)
