import csv
import math

import numpy as np
import pytest

from memgrid.device import DeviceParams
from memgrid.engine import SimConfig, Trace, Waveform, simulate
from memgrid.measure import (
    InsufficientSamplesError,
    _fit_at,
    find_zero_crossings,
    map_to_csv,
    remnant_series,
    remnant_to_csv,
    resistance_map,
)
from memgrid.solver import effective_resistance
from memgrid.topology import build_grid
from oracles import loop_zero_crossings, pinv_effective_resistance

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)


def sine_trace(amplitude, cycles, dt, n_dev=1, i_of_v=None):
    n = round(cycles / dt)
    t = np.arange(n + 1) * dt
    v = amplitude * np.sin(2 * np.pi * t)
    i = i_of_v(v) if i_of_v else np.zeros_like(v)
    return Trace(t=t, v_src=v, i_src=i,
                 v_m=np.tile(v[:, None], (1, n_dev)),
                 x=np.full((n + 1, n_dev), 1e5))


def test_crossing_count_and_times_five_cycles():
    trace = sine_trace(12.0, 5, 1e-3)
    crossings = find_zero_crossings(trace)
    assert len(crossings) == 10
    for k, c in enumerate(crossings, start=1):
        assert c.t == pytest.approx(0.5 * k, abs=1e-3)


def test_crossing_count_one_cycle():
    trace = sine_trace(1.0, 1, 1e-3)
    times = [c.t for c in find_zero_crossings(trace)]
    assert len(times) == 2
    assert times[0] == pytest.approx(0.5, abs=1e-3)
    assert times[1] == pytest.approx(1.0, abs=1e-3)


def test_null_stimulus_has_no_crossings():
    trace = sine_trace(0.0, 1, 1e-3)
    assert find_zero_crossings(trace) == []


def test_crossings_found_off_grid():
    # dt chosen so no sample lands on the analytic roots
    trace = sine_trace(2.0, 1, 1 / 301)
    times = [c.t for c in find_zero_crossings(trace)]
    assert len(times) == 2
    assert times[0] == pytest.approx(0.5, abs=1 / 301)


def values_trace(v):
    v = np.array(v, dtype=float)
    return Trace(t=0.1 * np.arange(len(v)), v_src=v, i_src=np.zeros_like(v),
                 v_m=v[:, None], x=np.ones((len(v), 1)))


def phased_trace(amplitude, phase, dt):
    n = round(1 / dt)
    t = np.arange(n + 1) * dt
    v = amplitude * np.sin(2 * np.pi * t + phase)
    return Trace(t=t, v_src=v, i_src=np.zeros_like(v), v_m=v[:, None], x=np.ones((n + 1, 1)))


NAN = float("nan")
CROSSING_CASES = {
    "five-cycles": lambda: sine_trace(12.0, 5, 1e-3),
    "one-cycle": lambda: sine_trace(1.0, 1, 1e-3),
    "null": lambda: sine_trace(0.0, 1, 1e-3),
    "off-grid": lambda: sine_trace(2.0, 1, 1 / 301),
    "coarse": lambda: sine_trace(12.0, 1, 0.05),
    **{f"phase-{k}": (lambda phase=phase, dt=dt: phased_trace(3.0, phase, dt))
       for k, (phase, dt) in enumerate((phase, dt) for phase in (0.3, np.pi / 2, np.pi,
                                                                  -np.pi / 4, 2.0)
                                       for dt in (1e-3, 1 / 7, 0.25))},
    "signed-zeros": lambda: values_trace([0.0, -0.0, 1.0, 0.0, -1.0, -0.0]),
    "leading-negative-zero": lambda: values_trace([-0.0, 2.0, 0.0, 0.0, -2.0, 0.0]),
    "alternating": lambda: values_trace([1.0, -1.0, 1.0, -1.0]),
    "zeros": lambda: values_trace([0.0, -0.0, 0.0]),
    "trailing-zero": lambda: values_trace([1.0, 0.0]),
    "residue": lambda: values_trace([0.0, 1e-12, -1.0, 1e-10, 1.0]),
    "nan-inside": lambda: values_trace([1.0, NAN, 1.0, -1.0]),
    "nan-only": lambda: values_trace([NAN, NAN]),
    "one-sample": lambda: values_trace([3.0]),
    "empty": lambda: values_trace([]),
    **{f"random-{seed}": (lambda seed=seed: values_trace(
        np.random.default_rng(seed).choice([-2.0, -0.5, -0.0, 0.0, 1e-12, 0.5, 3.0], 40)))
       for seed in range(20)},
}


@pytest.mark.parametrize("case", CROSSING_CASES)
def test_crossings_match_the_sample_loop(case):
    trace = CROSSING_CASES[case]()
    # repr tells apart NaN times, zero signs and numpy from Python scalars
    assert repr(find_zero_crossings(trace)) == repr(loop_zero_crossings(trace))


def test_crossings_of_a_run_match_the_sample_loop(uniform_run):
    trace = uniform_run.trace
    assert repr(find_zero_crossings(trace)) == repr(loop_zero_crossings(trace))


def fit_at_crossing(trace, k, window):
    """The fitted resistance at the trace's k-th zero crossing (1-based)."""
    return _fit_at(trace, find_zero_crossings(trace)[k - 1], window)[0]


def test_fit_recovers_exact_linear_relation():
    r = 3.3e4
    trace = sine_trace(1.0, 1, 1e-3, i_of_v=lambda v: v / r)
    assert fit_at_crossing(trace, 1, window=0.1) == pytest.approx(r, rel=1e-12)
    assert fit_at_crossing(trace, 2, window=0.1) == pytest.approx(r, rel=1e-12)


def test_fit_returns_infinity_when_currents_vanish():
    trace = sine_trace(1.0, 1, 1e-3)  # i_src identically zero
    assert fit_at_crossing(trace, 1, window=0.1) == math.inf


def test_fit_requires_enough_window_samples():
    # dt so coarse that only the on-grid zero sample falls inside the window
    trace = sine_trace(12.0, 1, 0.05, i_of_v=lambda v: v / 1e4)
    with pytest.raises(InsufficientSamplesError):
        fit_at_crossing(trace, 1, window=0.1)


def test_remnant_series_reference_run(uniform_run):
    points = uniform_run.remnants
    assert [p.crossing_index for p in points] == list(range(11))
    k = pinv_effective_resistance(uniform_run.network, [1.0] * 24)
    assert points[0].r_fit == points[0].r_thevenin
    assert points[0].r_fit == pytest.approx(k * P.r_off, rel=1e-9)
    assert points[0].n_samples == 0
    for p in points[1:]:
        assert p.n_samples >= 2
        assert abs(p.r_fit - p.r_thevenin) / p.r_thevenin <= 1e-3


def test_remnant_series_deadband_stimulus():
    net = build_grid(4, 0.0, 0.0, 0, P)
    cfg = SimConfig(dt=1e-3, fit_window=0.1)
    trace = simulate(net, Waveform(amplitude=0.5, cycles=2), cfg)
    points = remnant_series(trace, net, cfg)
    assert len(points) == 5
    for p in points:
        assert p.r_fit == pytest.approx(points[0].r_fit, rel=1e-12)


def test_window_must_sit_below_thresholds():
    net = build_grid(4, 0.0, 0.0, 0, P)
    cfg = SimConfig(dt=1e-3, fit_window=0.7)
    trace = simulate(net, Waveform(amplitude=12, cycles=1), SimConfig(dt=1e-3))
    with pytest.raises(ValueError):
        remnant_series(trace, net, cfg)


def test_resistance_map_initial_and_completeness(uniform_run):
    rmap = resistance_map(uniform_run.trace, uniform_run.network, 0.0)
    assert rmap.t == 0.0
    assert np.all(rmap.x == P.r_init)
    assert sorted(e.label for e in rmap.edges) == list(range(24))
    with pytest.raises(ValueError):
        resistance_map(uniform_run.trace, uniform_run.network, 99.0)


def test_resistance_map_after_full_set():
    from memgrid.topology import EdgeDescriptor, GridNetwork, NodeId, HORIZONTAL
    from memgrid.device import Polarity
    a, b = NodeId(0, 0), NodeId(0, 1)
    net = GridNetwork(n=2, present=frozenset({a, b}),
                      edges=(EdgeDescriptor(0, a, b, HORIZONTAL, Polarity.FORWARD, P),),
                      source=a, ground=b, seed=0)
    trace = simulate(net, Waveform(amplitude=12, cycles=1), SimConfig(dt=1e-3))
    rmap = resistance_map(trace, net, trace.t[-1])
    assert rmap.x[0] == P.r_on


def test_remnant_csv_serializes_infinity(tmp_path):
    from memgrid.measure import RemnantPoint
    points = [RemnantPoint(0, 0.0, math.inf, math.inf, 0)]
    path = tmp_path / "remnant.csv"
    remnant_to_csv(points, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["crossing_index", "t", "r_fit", "r_thevenin", "n_samples"]
    assert rows[1] == ["0", "0.0", "inf", "inf", "0"]


def test_map_csv_schema(tmp_path, uniform_run):
    rmap = resistance_map(uniform_run.trace, uniform_run.network, 0.0)
    path = tmp_path / "map.csv"
    map_to_csv(rmap, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "row_a", "col_a", "row_b", "col_b",
                       "orientation", "polarity", "x"]
    assert len(rows) == 25
    assert rows[1] == ["0", "0", "0", "0", "1", "horizontal", "1", "200000.0"]


def test_thevenin_equals_fit_when_states_frozen(uniform_run):
    # spot check: recompute the Thevenin value from the trace states at the
    # sample nearest each crossing and compare with the stored point
    net = uniform_run.network
    for p in uniform_run.remnants[1:4]:
        k = uniform_run.trace.nearest_index(p.t)
        thev = effective_resistance(net, uniform_run.trace.x[k])
        assert thev == p.r_thevenin
