"""Single-memristor model: threshold-clipped drive, windowed state rate, Ohmic conduction.

The device resistance X is the internal state. It only moves while the applied
voltage magnitude exceeds the threshold ``v_t``, grows for positive voltage
(RESET direction) and shrinks for negative voltage (SET direction), and is
confined to ``[r_on, r_off]`` by window terms plus a hard clamp after each
integration step. Time marching uses a restarted Adams-Bashforth 2 step
(second order, one rate evaluation per step).

All functions accept scalars or numpy arrays and broadcast. The engine hands
them arrays only, the states and a ``ParamTable`` of the same shape, so the
same code drives lone devices, a lattice and the raster's batch of lattices.
Each is a fixed sequence of ufunc calls on the whole batch, with no branch on
its shape, so the per-step cost is the number of calls more than the batch
size. ``step_resistance`` is ``voltage_terms``, the 5 calls that depend on
the device voltages alone, then ``gated_rate``, ``ab2_increment`` and the
clamp, the 18 that depend on the states. A network takes them a step at a
time, since its voltages come from its states; lone devices, whose voltages
the stimulus alone sets, take the voltage terms, gated rates and increments
of a stretch of steps at once.

``InvalidValue`` is the ``ValueError`` that every argument check raises, its
args the name of the argument that failed and why; ``config.parse_config``
maps the name to its ``[section].key``. Every check fails on NaN, and a
record's numbers must all be finite.
"""

from dataclasses import dataclass, fields
from enum import IntEnum
from typing import NamedTuple

import numpy as np

# The device step's constant operands as float64 0-d arrays: a ufunc takes
# one in about 0.6 us a call, a Python float, which it converts each time,
# in about 0.85 us (2-core x86-64 host, numpy 2.4.6). Same bits either way.
_THREE_HALVES, _HALF, _ZERO = np.array(1.5), np.array(0.5), np.array(0.0)


class InvalidValue(ValueError):
    """An argument out of its range; ``args`` are (name, reason)."""

    def __str__(self):
        return " ".join(self.args)


@dataclass(frozen=True)
class DeviceParams:
    """Per-unit model constants (SI units: ohm, volt, ohm per volt-second)."""

    r_on: float
    r_off: float
    v_t: float
    beta: float
    r_init: float

    def __post_init__(self):
        if not self.r_on > 0:
            raise InvalidValue("r_on", f"must be > 0, got {self.r_on}")
        if not self.r_on < self.r_off < np.inf:
            raise InvalidValue("r_off", f"must lie in (r_on, inf), got {self.r_off}")
        if not self.r_on <= self.r_init <= self.r_off:
            raise InvalidValue("r_init", f"must lie in [r_on, r_off], got {self.r_init}")
        if not 0 <= self.v_t < np.inf:
            raise InvalidValue("v_t", f"must lie in [0, inf), got {self.v_t}")
        if not 0 < self.beta < np.inf:
            raise InvalidValue("beta", f"must lie in (0, inf), got {self.beta}")

    @property
    def ratio(self) -> float:
        """Programmed resistance ratio r_off / r_on (derived, never stored)."""
        return self.r_off / self.r_on


class Polarity(IntEnum):
    """Sign applied to the node-voltage difference to obtain the device voltage."""

    FORWARD = 1
    INVERTED = -1


def clipped_drive(v_m, v_t, neg_v_t=None):
    """Dead-band clip of the device voltage.

    Exactly zero for |v_m| <= v_t, v_m - v_t above, v_m + v_t below; odd in
    v_m and continuous at the threshold. Equivalent to
    v_m - 0.5*(|v_m + v_t| - |v_m - v_t|) but evaluated as v_m minus its clamp
    to [-v_t, v_t], so the dead band is v_m - v_m and carries no rounding
    residue. ``neg_v_t``, -v_t taken ahead, saves negating v_t on each call.
    """
    if neg_v_t is None:
        neg_v_t = -v_t
    return v_m - np.minimum(np.maximum(v_m, neg_v_t), v_t)


def voltage_terms(v_m, p):
    """The half of the device step that depends on the voltages alone:
    ``(up, push)``, the sign test ``drive > 0`` of the clipped drive and
    ``beta * drive``. Five ufunc calls. Where the voltages do not depend on
    the states, as for lone devices, the engine takes them ahead, over a
    block of steps at once; ``p`` may carry ``neg_v_t``, as the engine's
    ``StepOperands`` do."""
    drive = clipped_drive(v_m, p.v_t, getattr(p, "neg_v_t", None))
    return drive > _ZERO, p.beta * drive


def gated_rate(x, up, push, p):
    """The state rate from the voltage terms: ``push`` where the gate lets
    the unit move, zero where it does not.

    The clipped drive is gated so a positive voltage can only raise x while
    x < r_off and a negative voltage can only lower it while x > r_on; the
    step functions are closed at zero, so a device parked at a bound stays put.

    The gate is read from the sign of the drive, which is that of v_m
    wherever the drive is nonzero; where it is zero, so is the rate, whatever
    the gate: (up <= below r_off) & (up | above r_on) is the one bound test
    that the drive's direction selects."""
    return push * ((up <= (x < p.r_off)) & (up | (x > p.r_on)))


def state_rate(x, v_m, p: DeviceParams):
    """Rate of change of the resistance, in ohm per second: the gated rate
    of the voltage terms of ``v_m``."""
    return gated_rate(x, *voltage_terms(v_m, p), p)


def ab2_increment(rate, rate_prev, dt):
    """The restarted Adams-Bashforth increment before the clamp:
    dt*(3/2*rate - 1/2*rate_prev) where that and ``rate_prev`` share the sign
    of the nonzero ``rate``, else dt*rate; elementwise, so stacked steps'
    rates give each step's increment at once."""
    ab2 = _THREE_HALVES * rate - _HALF * rate_prev
    return np.where(np.minimum(rate * rate_prev, rate * ab2) > _ZERO, ab2, rate) * dt


def step_resistance(x, v_m, dt, p: DeviceParams, rate_prev):
    """One integration step of the resistance with a hard clamp to the bounds.

    ``rate_prev`` is the state rate of each unit on the previous step: zero
    before the first step, which makes that step explicit Euler. This is one
    restarted second-order Adams-Bashforth step and returns ``(x_next,
    rate)``, with ``rate`` to be passed back on the next step. A unit moves by
    dt*(3/2*rate - 1/2*rate_prev) when rate_prev and that increment share the
    sign of its nonzero rate, and by the Euler increment dt*rate otherwise, so
    a parked unit never moves and no unit moves against its own rate. Both
    products with rate are positive exactly when the smaller one is.

    It is the ``gated_rate`` of ``voltage_terms(v_m, p)``, then its
    ``ab2_increment`` and the clamp. Every operation is one ufunc call on
    the whole batch, whatever its shape: 23 calls, 10-18 us for 24 units
    and 15-27 us for the raster's 25 x 24 (2-core x86-64 host, numpy
    2.4.6), given ``StepOperands`` and dt as a float64 0-d array, as the
    engine hands them.
    """
    rate = gated_rate(x, *voltage_terms(v_m, p), p)
    return np.minimum(np.maximum(x + ab2_increment(rate, rate_prev, dt), p.r_on), p.r_off), rate


@dataclass(frozen=True)
class ParamTable:
    """``DeviceParams``' fields as arrays, one entry per unit of a batch: the
    ``p`` the engine hands the device functions."""

    r_on: np.ndarray
    r_off: np.ndarray
    v_t: np.ndarray
    beta: np.ndarray
    r_init: np.ndarray

    @classmethod
    def from_params(cls, params_list) -> "ParamTable":
        return cls(*(np.array([getattr(p, f.name) for p in params_list], dtype=float)
                     for f in fields(cls)))


class StepOperands(NamedTuple):
    """A parameter table's operands of the device step, taken once per
    march with the thresholds negated, so that no step negates them."""

    r_on: np.ndarray
    r_off: np.ndarray
    v_t: np.ndarray
    neg_v_t: np.ndarray
    beta: np.ndarray

    @classmethod
    def of(cls, p) -> "StepOperands":
        return cls(p.r_on, p.r_off, p.v_t, -p.v_t, p.beta)
