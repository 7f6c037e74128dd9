"""Observables extracted from traces: zero crossings, fitted global resistance,
Thevenin cross-checks and per-device resistance maps.

The global resistance at a remnant condition is the through-origin
least-squares slope of source voltage against source current over the samples
with |v_src| inside a small window around a 0 V crossing. The window must sit
below every device threshold so the states are frozen while the fit data is
collected; the Thevenin effective resistance of the frozen states is reported
alongside as an independent consistency value.
"""

import csv
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .device import InvalidValue
from .engine import Trace, Waveform
from .solver import DisconnectedNetworkError, NodalStamper, effective_resistance
from .topology import GridNetwork


class InsufficientSamplesError(Exception):
    """The trace samples cannot carry the readout: fewer than two fall inside
    a fit window, or they miss zero crossings of the stimulus."""


class Crossing(NamedTuple):
    t: float
    left: int
    right: int


@dataclass(frozen=True)
class RemnantPoint:
    crossing_index: int
    t: float
    r_fit: float
    r_thevenin: float
    n_samples: int


@dataclass(frozen=True)
class ResistanceMap:
    """Per-device resistance snapshot with edge geometry for rendering."""

    t: float
    edges: tuple
    x: np.ndarray


def find_zero_crossings(trace: Trace) -> list[Crossing]:
    """One crossing per sign change of v_src, with linear interpolation for the
    time.

    Samples within 1e-9 of the stimulus amplitude count as exact zeros, which
    absorbs the floating-point residue of sine roots that land on the sample
    grid. A trailing zero sample closes the final crossing of a whole number
    of cycles. A constant-zero stimulus yields no crossings.
    """
    v = trace.v_src
    tol = 1e-9 * float(np.max(np.abs(v))) if len(v) else 0.0
    crossings: list[Crossing] = []
    prev_sign = 0
    prev_k = -1
    for k in range(len(v)):
        vk = float(v[k])
        sign = 0 if abs(vk) <= tol else (1 if vk > 0 else -1)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            t1, t2 = float(trace.t[prev_k]), float(trace.t[k])
            v1, v2 = float(v[prev_k]), vk
            t_star = t1 + v1 * (t2 - t1) / (v1 - v2)
            crossings.append(Crossing(t=t_star, left=prev_k, right=k))
        prev_sign, prev_k = sign, k
    if len(v) and abs(float(v[-1])) <= tol and prev_sign != 0:
        last = len(v) - 1
        crossings.append(Crossing(t=float(trace.t[last]), left=last, right=last))
    return crossings


def _window_selection(trace: Trace, crossing: Crossing, window: float) -> np.ndarray:
    lo = crossing.left
    while lo - 1 >= 0 and abs(float(trace.v_src[lo - 1])) <= window:
        lo -= 1
    hi = crossing.right
    while hi + 1 < trace.n_samples and abs(float(trace.v_src[hi + 1])) <= window:
        hi += 1
    candidates = np.arange(lo, hi + 1)
    return candidates[np.abs(trace.v_src[candidates]) <= window]


def fit_global_resistance(trace: Trace, crossing: int, window: float) -> float:
    """Through-origin slope of v_src against i_src near the given crossing.

    ``crossing`` is the 1-based ordinal among the trace's zero crossings,
    matching RemnantPoint.crossing_index. Returns math.inf when every window
    current is zero (disconnected network).
    """
    crossings = find_zero_crossings(trace)
    if not 1 <= crossing <= len(crossings):
        raise ValueError(f"crossing {crossing} out of range 1..{len(crossings)}")
    return _fit_at(trace, crossings[crossing - 1], window)[0]


def _fit_at(trace: Trace, crossing: Crossing, window: float) -> tuple[float, int]:
    sel = _window_selection(trace, crossing, window)
    if len(sel) < 2:
        raise InsufficientSamplesError(
            f"{len(sel)} samples inside |v_src| <= {window} around t={crossing.t:.6g}; "
            "reduce dt or widen the window"
        )
    v = trace.v_src[sel]
    i = trace.i_src[sel]
    denom = float(np.dot(i, i))
    if denom == 0.0:
        return math.inf, len(sel)
    return float(np.dot(v, i) / denom), len(sel)


def check_fit_window(fit_window: float, v_t: float) -> None:
    """No state may move while fit samples are collected: window < threshold."""
    if not fit_window < v_t:
        raise InvalidValue("fit_window", f"must be below the threshold {v_t}, got {fit_window}")


def fit_sampled(w: Waveform, h: float, window: float) -> bool:
    """Whether samples ``h`` apart put two inside |v_src| <= ``window`` around
    every zero crossing of ``w``, whatever the phase: within a quarter period
    of a crossing the sine moves by at most amplitude * sin(2*pi*frequency*h)."""
    step = 2 * math.pi * w.frequency * h
    return step <= math.pi / 2 and w.amplitude * math.sin(step) <= window


def remnant_series(trace: Trace, network: GridNetwork, cfg) -> list[RemnantPoint]:
    """Fitted and Thevenin global resistance at the initial condition and at
    every stimulus zero crossing, ordered by time.

    Point 0 is the pre-stimulus condition: no fit window exists before the
    drive starts, so r_fit is defined as the Thevenin value there.
    """
    window = cfg.fit_window
    check_fit_window(window, min(e.params.v_t for e in network.edges))
    try:
        stamper = NodalStamper(network)
    except DisconnectedNetworkError:
        stamper = None  # effective_resistance reports math.inf
    r0 = effective_resistance(network, trace.x[0], stamper)
    points = [
        RemnantPoint(crossing_index=0, t=float(trace.t[0]), r_fit=r0,
                     r_thevenin=r0, n_samples=0)
    ]
    for idx, crossing in enumerate(find_zero_crossings(trace), start=1):
        r_fit, n_sel = _fit_at(trace, crossing, window)
        k_near = trace.nearest_index(crossing.t)
        r_thev = effective_resistance(network, trace.x[k_near], stamper)
        points.append(
            RemnantPoint(crossing_index=idx, t=crossing.t, r_fit=r_fit,
                         r_thevenin=r_thev, n_samples=n_sel)
        )
    return points


def check_crossings(remnants, cycles: int) -> None:
    """Require a remnant at every stimulus zero crossing: 2 x ``cycles``
    points after the initial condition."""
    if len(remnants) - 1 != 2 * cycles:
        raise InsufficientSamplesError(
            f"{len(remnants) - 1} stimulus zero crossings in the trace, expected "
            f"2 x {cycles} cycles, so remnants would be missing"
        )


def resistance_map(trace: Trace, network: GridNetwork, t: float) -> ResistanceMap:
    """Per-device resistance at the recorded sample nearest ``t``."""
    if not trace.t[0] <= t <= trace.t[-1]:
        raise ValueError(f"t={t} outside trace range [{trace.t[0]}, {trace.t[-1]}]")
    k = trace.nearest_index(t)
    return ResistanceMap(t=float(trace.t[k]), edges=network.edges,
                         x=trace.x[k].copy())


def remnant_to_csv(points: list[RemnantPoint], path) -> None:
    """One column per ``RemnantPoint`` field, in field order; a float field
    written as its shortest round-tripping ``repr``."""
    columns = fields(RemnantPoint)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in columns])
        for p in points:
            writer.writerow([repr(float(getattr(p, f.name))) if f.type is float
                             else getattr(p, f.name) for f in columns])


def map_to_csv(rmap: ResistanceMap, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "row_a", "col_a", "row_b", "col_b",
                         "orientation", "polarity", "x"])
        for e, xe in zip(rmap.edges, rmap.x):
            writer.writerow([e.label, e.node_a.row, e.node_a.col, e.node_b.row,
                             e.node_b.col, e.orientation, int(e.polarity),
                             repr(float(xe))])
