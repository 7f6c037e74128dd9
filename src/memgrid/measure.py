"""Observables of a trace: its zero crossings (by ``engine.zero_crossings``),
fitted and Thevenin global resistance, resistance maps, and their tables.

``memgrid run``'s remnant is the through-origin least-squares slope
(``_slope``) of source voltage against source current over the samples with
|v_src| inside a small window around a 0 V crossing (``_window_selection``).
The window sits below every threshold, so no state moves inside it, and the
fit equals, to rounding, the Thevenin resistance of the states nearest the
crossing, reported alongside: one ``effective_resistance`` call reads it for
the initial states and every crossing. The raster reads that value alone.
The tables are written by ``engine.write_rows``.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .device import InvalidValue
from .engine import Crossing, Trace, Waveform, write_rows, zero_crossings
from .solver import effective_resistance
from .topology import GridNetwork


class InsufficientSamplesError(Exception):
    """The trace samples cannot carry the readout: fewer than two fall inside
    a fit window, or they miss zero crossings of the stimulus."""


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
    """The zero crossings of a trace's v_src: ``engine.zero_crossings``."""
    return zero_crossings(trace.t, trace.v_src)


def _window_selection(trace: Trace, crossing: Crossing, window: float) -> np.ndarray:
    """The samples around ``crossing`` with |v_src| <= ``window``, two or more."""
    lo = crossing.left
    while lo - 1 >= 0 and abs(float(trace.v_src[lo - 1])) <= window:
        lo -= 1
    hi = crossing.right
    while hi + 1 < trace.n_samples and abs(float(trace.v_src[hi + 1])) <= window:
        hi += 1
    candidates = np.arange(lo, hi + 1)
    sel = candidates[np.abs(trace.v_src[candidates]) <= window]
    if len(sel) < 2:
        raise InsufficientSamplesError(
            f"{len(sel)} samples inside |v_src| <= {window} around t={crossing.t:.6g}; "
            "reduce dt or widen the window"
        )
    return sel


def _slope(v: np.ndarray, i: np.ndarray) -> float:
    """The through-origin least-squares slope of ``v`` against ``i``, or inf."""
    denom = float(np.dot(i, i))
    if denom == 0.0:
        return math.inf
    return float(np.dot(v, i) / denom)


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
    every stimulus zero crossing, ordered by time; the Thevenin values of the
    states at step 0 and at the sample nearest each crossing, in one call.

    Point 0 is the pre-stimulus condition: no fit window exists before the
    drive starts, so r_fit is defined as the Thevenin value there.
    """
    window = cfg.fit_window
    check_fit_window(window, min(e.params.v_t for e in network.edges))
    crossings = find_zero_crossings(trace)
    fits = [_window_selection(trace, crossing, window) for crossing in crossings]
    near = [0] + [trace.nearest_index(crossing.t) for crossing in crossings]
    r0, *r_thev = effective_resistance(network, trace.x[near]).tolist()
    return [RemnantPoint(crossing_index=0, t=float(trace.t[0]), r_fit=r0, r_thevenin=r0,
                         n_samples=0)] + [
        RemnantPoint(crossing_index=idx, t=crossing.t,
                     r_fit=_slope(trace.v_src[sel], trace.i_src[sel]),
                     r_thevenin=r, n_samples=len(sel))
        for idx, (crossing, sel, r) in enumerate(zip(crossings, fits, r_thev), start=1)
    ]


def resistance_map(trace: Trace, network: GridNetwork, t: float) -> ResistanceMap:
    """Per-device resistance at the recorded sample nearest ``t``."""
    if not trace.t[0] <= t <= trace.t[-1]:
        raise ValueError(f"t={t} outside trace range [{trace.t[0]}, {trace.t[-1]}]")
    k = trace.nearest_index(t)
    return ResistanceMap(t=float(trace.t[k]), edges=network.edges,
                         x=trace.x[k].copy())


def remnant_to_csv(points: list[RemnantPoint], path) -> None:
    """One column per ``RemnantPoint`` field, in field order."""
    write_rows(path, [f.name for f in fields(RemnantPoint)], map(astuple, points))


def map_to_csv(rmap: ResistanceMap, path) -> None:
    write_rows(path, ["label", "row_a", "col_a", "row_b", "col_b", "orientation",
                      "polarity", "x"],
               ([e.label, e.node_a.row, e.node_a.col, e.node_b.row, e.node_b.col,
                 e.orientation, int(e.polarity), xe] for e, xe in zip(rmap.edges, rmap.x)))
