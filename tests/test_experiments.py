import csv

import numpy as np
import pytest

from memgrid.device import DeviceParams
from memgrid.engine import SimConfig, Waveform, simulate
from memgrid.experiments import (
    exceedance_sets,
    flags_to_csv,
    measurement_settings,
    run_sensitization,
    run_single_device,
    run_uniform_array,
    sensitization_to_csv,
    sensitized_network,
)
from memgrid.measure import remnant_series
from memgrid.topology import build_grid
from oracles import semicycle_state_increment

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
W1 = Waveform(amplitude=1.0, frequency=1.0, cycles=1)
CFG = SimConfig(dt=1e-3)


def test_single_device_amplitude_study():
    span = P.r_off - P.r_on
    finals = {}
    for amplitude in (0.7, 1.0, 2.0, 4.0):
        run = run_single_device(P, Waveform(amplitude=amplitude, cycles=1), CFG)
        # positive semicycle cannot move a device parked at r_off
        half = run.trace.nearest_index(0.5)
        assert run.x[half] == P.r_init
        dx = abs(run.x[-1] - run.x[half])
        oracle = semicycle_state_increment(amplitude, P.v_t, P.beta, 1.0)
        assert dx == pytest.approx(min(oracle, span), rel=2e-3)
        finals[amplitude] = run.x[-1]
    # only the largest amplitude completes the switch
    assert finals[4.0] == P.r_on
    for amplitude in (0.7, 1.0, 2.0):
        assert finals[amplitude] > P.r_on
    # A = 0.7 barely dents the state
    assert finals[0.7] == pytest.approx(P.r_off - 5.7e3, rel=0.05)


def test_single_device_threshold_regime_is_abrupt():
    fast = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e7, r_init=2e5)
    run = run_single_device(fast, Waveform(amplitude=2.0, cycles=1), SimConfig(dt=1e-4))
    assert run.x[-1] == fast.r_on
    assert np.max(run.x) / np.min(run.x) == pytest.approx(100.0, rel=1e-9)


def test_single_device_series_accessors():
    run = run_single_device(P, W1, CFG)
    assert run.v.shape == run.i.shape == run.x.shape
    assert run.trace.n_devices == 1


def test_uniform_array_shapes(uniform_run):
    assert len(uniform_run.remnants) == 11
    assert len(uniform_run.maps) == 11
    assert uniform_run.trace.n_devices == 24


def test_uniform_array_deadband():
    run = run_uniform_array(4, P, Waveform(amplitude=0.5, cycles=1), CFG)
    values = [p.r_fit for p in run.remnants]
    assert values == pytest.approx([values[0]] * len(values), rel=1e-12)


def test_sensitized_network_replaces_one_threshold():
    net = build_grid(4, 0.0, 0.0, 0, P)
    sens = sensitized_network(net, 7, 0.06)
    assert sens.edges[7].params.v_t == 0.06
    assert all(e.params.v_t == 0.6 for e in sens.edges if e.label != 7)
    assert sens.edges[7].params.r_on == P.r_on
    with pytest.raises(ValueError):
        sensitized_network(net, 99, 0.06)


def test_measurement_settings_adjustment():
    cfg = SimConfig(dt=1e-3, fit_window=0.1)
    w = Waveform(amplitude=12.0, frequency=1.0, cycles=5)
    adjusted = measurement_settings(cfg, w, v_t_s=0.06)
    assert adjusted.fit_window == pytest.approx(0.048)
    assert adjusted.dt == pytest.approx(5e-4)
    # thresholds above the window leave the settings untouched
    assert measurement_settings(cfg, w, v_t_s=0.5) is cfg
    assert measurement_settings(cfg, w, v_t_s=0.6) is cfg


def test_sensitization_noop_reproduces_baseline_bit_exactly():
    w = Waveform(amplitude=4.0, frequency=1.0, cycles=2)
    result = run_sensitization(P, P.v_t, 2, w, CFG, deviation_threshold=0.01)
    base = np.array([p.r_fit for p in result.baseline.remnants])
    for row in result.matrix:
        assert np.array_equal(row, base)
    assert not result.flags.any()


def test_sensitization_matrix_layout_and_initial_column():
    w = Waveform(amplitude=4.0, frequency=1.0, cycles=1)
    result = run_sensitization(P, 0.3, 2, w, CFG, deviation_threshold=0.01)
    assert result.labels == (0, 1, 2, 3)
    assert result.conditions == (0, 1, 2)
    assert result.matrix.shape == (4, 3)
    col0 = result.matrix[:, 0]
    assert np.all(col0 == result.baseline.remnants[0].r_fit)
    assert not result.flags[:, 0].any()


def test_sensitization_rejects_bad_threshold():
    with pytest.raises(ValueError):
        run_sensitization(P, 0.0, 2, W1, CFG, 0.01)
    with pytest.raises(ValueError):
        run_sensitization(P, 1.0, 2, W1, CFG, 0.01)


def test_batched_raster_matches_per_label_runs():
    """The sensitized runs step as one batch; every row equals, bit for bit,
    the r_fit series of that sensitized lattice simulated on its own."""
    w = Waveform(amplitude=6.0, frequency=1.0, cycles=1)
    result = run_sensitization(P, 0.06, 3, w, CFG, 0.01)
    assert result.flags.any()
    cfg = measurement_settings(CFG, w, 0.06)
    for label, row in zip(result.labels, result.matrix):
        network = sensitized_network(result.baseline.network, label, 0.06)
        points = remnant_series(simulate(network, w, cfg), network, cfg)
        assert np.array_equal(row, [p.r_fit for p in points]), label


def test_exceedance_sets_trivial_thresholds(uniform_run):
    trace = uniform_run.trace
    sets = exceedance_sets(trace, v_threshold=20.0)  # above the amplitude
    assert all(s == set() for s in sets)
    sets = exceedance_sets(trace, v_threshold=0.0)
    assert all(s == set(range(24)) for s in sets)
    assert len(sets) == 10


def test_sensitization_csv_schemas(tmp_path):
    w = Waveform(amplitude=4.0, frequency=1.0, cycles=1)
    result = run_sensitization(P, 0.3, 2, w, CFG, 0.01)
    spath = tmp_path / "sensitization.csv"
    fpath = tmp_path / "flags.csv"
    sensitization_to_csv(result, spath)
    flags_to_csv(result, fpath)
    with open(spath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "cond_0", "cond_1", "cond_2"]
    assert rows[1][0] == "-1"  # baseline row
    assert len(rows) == 6
    assert float(rows[1][1]) == result.baseline.remnants[0].r_fit
    with open(fpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "cond_0", "cond_1", "cond_2"]
    assert len(rows) == 5
    assert set(v for row in rows[1:] for v in row[1:]) <= {"0", "1"}
