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
size.

``InvalidValue`` is the ``ValueError`` that every argument check raises, its
args the name of the argument that failed and why; ``config.parse_config``
maps the name to its ``[section].key``. Every check fails on NaN.
"""

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np


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
        if not self.v_t >= 0:
            raise InvalidValue("v_t", f"must be >= 0, got {self.v_t}")
        if not self.beta > 0:
            raise InvalidValue("beta", f"must be > 0, got {self.beta}")

    @property
    def ratio(self) -> float:
        """Programmed resistance ratio r_off / r_on (derived, never stored)."""
        return self.r_off / self.r_on


class Polarity(IntEnum):
    """Sign applied to the node-voltage difference to obtain the device voltage."""

    FORWARD = 1
    INVERTED = -1


def clipped_drive(v_m, v_t):
    """Dead-band clip of the device voltage.

    Exactly zero for |v_m| <= v_t, v_m - v_t above, v_m + v_t below; odd in
    v_m and continuous at the threshold. Equivalent to
    v_m - 0.5*(|v_m + v_t| - |v_m - v_t|) but evaluated as v_m minus its clamp
    to [-v_t, v_t], so the dead band is v_m - v_m and carries no rounding
    residue.
    """
    return v_m - np.minimum(np.maximum(v_m, -v_t), v_t)


def state_rate(x, v_m, p: DeviceParams):
    """Rate of change of the resistance, in ohm per second.

    The clipped drive is gated so a positive voltage can only raise x while
    x < r_off and a negative voltage can only lower it while x > r_on; the
    step functions are closed at zero, so a device parked at a bound stays put.

    The gate is read from the sign of the drive, which is that of v_m
    wherever the drive is nonzero; where it is zero, so is the rate, whatever
    the gate: (up <= below r_off) & (up | above r_on) is the one bound test
    that the drive's direction selects.
    """
    drive = clipped_drive(v_m, p.v_t)
    up = drive > 0.0
    return p.beta * drive * ((up <= (x < p.r_off)) & (up | (x > p.r_on)))


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

    Every operation is one ufunc call on the whole batch, whatever its
    shape: about 23 calls, some 14 us for 24 units (2-core x86-64 host).
    """
    rate = state_rate(x, v_m, p)
    ab2 = 1.5 * rate - 0.5 * rate_prev
    slope = np.where(np.minimum(rate * rate_prev, rate * ab2) > 0.0, ab2, rate)
    return np.minimum(np.maximum(x + slope * dt, p.r_on), p.r_off), rate


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
