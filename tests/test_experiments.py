import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from memgrid import experiments
from memgrid.device import DeviceParams, InvalidValue
from memgrid.engine import SimConfig, Waveform, simulate, step_count
from memgrid.experiments import (
    check_sensitized_threshold,
    exceedance_sets,
    flags_to_csv,
    measurement_settings,
    run_device_sweep,
    run_sensitization,
    run_single_device,
    run_uniform_array,
    sensitization_to_csv,
)
from memgrid.measure import (
    InsufficientSamplesError,
    RemnantPoint,
    check_fit_window,
    remnant_series,
    resistance_map,
)
from memgrid.solver import NodalStamper
from memgrid.spice import export_spice
from memgrid.topology import NodeId, build_grid, check_lattice
from oracles import (
    same_bits,
    semicycle_state_increment,
    sensitized_network,
    stepwise_run,
    without_banded_kernel,
)

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


@pytest.mark.parametrize("stride", [1, 3])
def test_device_sweep_matches_single_runs(stride):
    # mixed betas and amplitudes, 0.7 V below threshold, a switch that
    # completes (beta 5e7) and one that does not
    fast = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e7, r_init=2e5)
    pairs = [(P, 0.7), (fast, 2.0), (P, 4.0), (fast, 0.7), (P, 1.0)]
    w = Waveform(amplitude=12.0, frequency=1.0, cycles=2, phase=0.3)
    cfg = SimConfig(dt=1e-3, record_stride=stride)
    runs = run_device_sweep([p for p, _ in pairs], [a for _, a in pairs], w, cfg)
    assert len(runs) == len(pairs)
    for (p, amplitude), run in zip(pairs, runs):
        single = replace(w, amplitude=amplitude)
        assert run.params == p and run.waveform == single
        # the per-step march of one scalar state, its voltage v and its current v / x
        t, v, v_m, i_src, x, _ = stepwise_run(np.float64(p.r_init), p, lambda x, v: (v, v),
                                           (None, lambda v, _, x: v / x), single, cfg)
        trace = run.trace
        assert same_bits([trace.t, trace.v_src, trace.i_src, trace.v_m[:, 0], trace.x[:, 0]],
                         [t, v, i_src, v_m, x])


def test_uniform_array_shapes(uniform_run):
    assert len(uniform_run.remnants) == 11
    assert len(uniform_run.maps) == 11
    assert uniform_run.trace.n_devices == 24


def test_uniform_array_deadband():
    run = run_uniform_array(4, P, Waveform(amplitude=0.5, cycles=1), CFG)
    values = [p.r_fit for p in run.remnants]
    assert values == pytest.approx([values[0]] * len(values), rel=1e-12)


def test_studies_reject_a_stimulus_without_zero_crossings():
    # at zero amplitude the trace has none, so only the initial remnant exists
    silent = Waveform(amplitude=0.0, cycles=1)
    for study in (lambda: run_uniform_array(3, P, silent, CFG),
                  lambda: run_sensitization(P, 0.06, 2, silent, CFG, 0.01)):
        with pytest.raises(InsufficientSamplesError, match="2 x 1 cycles"):
            study()


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


def test_measurement_settings_refuse_a_raster_of_more_than_2_20_steps():
    # checked on the settings alone: the march at such a threshold would
    # record a row-0 trace of some 33 GB
    w, cfg = Waveform(), SimConfig()
    assert step_count(w, measurement_settings(cfg, w, 1e-3)) == 640_000
    for v_t_s, steps in ((1e-4, "10240000"), (1e-5, "81920000")):
        with pytest.raises(InvalidValue, match=f"^v_t_s {v_t_s!r} needs {steps} steps "):
            measurement_settings(cfg, w, v_t_s)
    # the bound is on the step count, so a gentler sine admits a lower threshold
    with pytest.raises(InvalidValue, match="needs 5120000 steps "):
        measurement_settings(cfg, w, 2e-4)
    gentle = Waveform(amplitude=1.0)
    assert step_count(gentle, measurement_settings(cfg, gentle, 2e-4)) == 320_000


def test_measurement_settings_samples_every_step():
    # the raster writes no trace, so it fits at every step whatever the stride
    w = Waveform(amplitude=12.0, frequency=1.0, cycles=5)
    strided = SimConfig(dt=1e-3, record_stride=3, fit_window=0.1)
    assert measurement_settings(strided, w, v_t_s=0.5) == SimConfig(dt=1e-3, fit_window=0.1)
    assert measurement_settings(strided, w, v_t_s=0.06) == SimConfig(dt=5e-4, fit_window=0.048)
    result = run_sensitization(P, 0.3, 2, W1, strided, 0.01)
    assert result.baseline.cfg.record_stride == 1
    assert result.baseline.trace.n_samples == 1001


# 7 free nodes (kd = 3) and 34 (kd = 6) on the band path; 7 on the dense
# fallback of a LAPACK without dpbsv
@pytest.mark.parametrize("n, dense", [(3, False), (6, False), (3, True)],
                         ids=["3", "6", "3, dense fallback"])
def test_raster_baseline_row_matches_standalone_run(n, dense, monkeypatch):
    """The baseline is row 0 of the raster's batch; its trace, remnants and
    maps equal, bit for bit, those of the uniform lattice simulated alone."""
    if dense:
        without_banded_kernel(monkeypatch)
    w = Waveform(amplitude=6.0, frequency=1.0, cycles=1)
    result = run_sensitization(P, 0.3, n, w, CFG, 0.01)
    cfg = measurement_settings(CFG, w, 0.3)
    network = build_grid(n, 0.0, 0.0, 0, P)
    assert NodalStamper(network).banded is not dense
    trace = simulate(network, w, cfg)
    assert np.ptp(trace.x) > 0  # the states move
    for field in ("t", "v_src", "i_src", "v_m", "x"):
        got, want = getattr(result.baseline.trace, field), getattr(trace, field)
        assert got.shape == want.shape and np.array_equal(got, want), field
    points = remnant_series(trace, network, cfg)
    assert result.baseline.remnants == tuple(points)
    assert result.baseline.cfg == cfg
    for rmap, point in zip(result.baseline.maps, points, strict=True):
        assert np.array_equal(rmap.x, resistance_map(trace, network, point.t).x)


def test_sensitization_noop_reproduces_baseline_bit_exactly():
    w = Waveform(amplitude=4.0, frequency=1.0, cycles=2)
    result = run_sensitization(P, P.v_t, 2, w, CFG, deviation_threshold=0.01)
    base = np.array([p.r_thevenin for p in result.baseline.remnants])
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


# 7 free nodes (kd = 3) and 23 (kd = 5) on the band path; 7 on the dense
# fallback of a LAPACK without dpbsv; and a stimulus shifted by pi/3
@pytest.mark.parametrize("n, dense, phase", [(3, False, 0.0), (5, False, 0.0), (3, True, 0.0),
                                             (3, False, np.pi / 3)],
                         ids=["3", "5", "3, dense fallback", "3, phase pi/3"])
def test_batched_raster_matches_per_label_runs(n, dense, phase, monkeypatch):
    """The sensitized runs step as one batch; every row equals, bit for bit,
    the r_thevenin series of that sensitized lattice simulated on its own,
    and lies within 1e-12 (relative) of its fitted r_fit series."""
    if dense:
        without_banded_kernel(monkeypatch)
    w = Waveform(amplitude=6.0, frequency=1.0, cycles=1, phase=phase)
    result = run_sensitization(P, 0.06, n, w, CFG, 0.01)
    assert NodalStamper(result.baseline.network).banded is not dense
    assert result.flags.any()
    cfg = measurement_settings(CFG, w, 0.06)
    for label, row in zip(result.labels, result.matrix):
        network = sensitized_network(result.baseline.network, label, 0.06)
        points = remnant_series(simulate(network, w, cfg), network, cfg)
        assert np.array_equal(row, [p.r_thevenin for p in points]), label
        assert np.allclose(row, [p.r_fit for p in points], rtol=1e-12, atol=0), label


def test_thevenin_readouts_solve_once_per_stack_and_per_held_step(monkeypatch):
    """``remnant_series`` reads the states at step 0 and at every crossing
    in one ``solve_raw`` call at 1 V on a 2-D stack of them. The raster
    reads the states its batch holds at each of those steps in one such
    call per held step, each of the march's (E + 1, E) shape, so that the
    readout builds no stamp tables beyond those the march has built."""
    solve_raw, march = NodalStamper.solve_raw, experiments._run
    solves, marching, tables = [], [False], []

    def counted(stamper, x, v_src):
        if not marching[0]:
            solves.append((x.shape, v_src))
        return solve_raw(stamper, x, v_src)

    def marched(x, params, solve, *args, **kwargs):
        marching[0] = True
        try:
            return march(x, params, solve, *args, **kwargs)
        finally:
            marching[0] = False
            tables.append((solve.__self__, set(solve.__self__._flat)))

    monkeypatch.setattr(NodalStamper, "solve_raw", counted)
    monkeypatch.setattr(experiments, "_run", marched)
    w = Waveform(amplitude=8.0, frequency=1.0, cycles=2)
    network = build_grid(3, 0.0, 0.0, 0, P)
    n_edges, crossings = len(network.edges), 2 * w.cycles
    trace = simulate(network, w, CFG)
    solves.clear()
    assert len(remnant_series(trace, network, CFG)) == crossings + 1
    assert solves == [((crossings + 1, n_edges), 1.0)]
    solves.clear()
    _, matrix = experiments._raster_job(network, 0.3, w, measurement_settings(CFG, w, 0.3))
    assert matrix.shape == (n_edges, crossings + 1)
    assert solves == [((n_edges + 1, n_edges), 1.0)] * (crossings + 1)
    (stamper, marched_tables), = tables
    assert set(stamper._flat) == marched_tables and ((n_edges + 1, n_edges), None) in marched_tables


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
    assert float(rows[1][1]) == result.baseline.remnants[0].r_thevenin
    with open(fpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "cond_0", "cond_1", "cond_2"]
    assert len(rows) == 5
    assert set(v for row in rows[1:] for v in row[1:]) <= {"0", "1"}
    # crafted values: numpy and Python floats, a signed zero, inf, an inexact
    # sum, numpy and Python integer labels
    baseline = replace(result.baseline, remnants=(RemnantPoint(0, 0.0, 2e5, np.float64(2e5), 0),
                                                  RemnantPoint(1, 0.5, 0.3, 0.1 + 0.2, 5)))
    crafted = replace(result, labels=(np.int64(0), 7), conditions=(0, 1), baseline=baseline,
                      matrix=np.array([[2e5, -0.0], [math.inf, 0.1 + 0.2]]),
                      flags=np.array([[False, True], [True, False]]))
    with np.printoptions(legacy="1.13"):  # str(np.float64(0.1 + 0.2)) is "0.3"
        sensitization_to_csv(crafted, spath)
        flags_to_csv(crafted, fpath)
    assert spath.read_bytes() == (b"label,cond_0,cond_1\r\n"
                                  b"-1,200000.0,0.30000000000000004\r\n"
                                  b"0,200000.0,-0.0\r\n"
                                  b"7,inf,0.30000000000000004\r\n")
    assert fpath.read_bytes() == b"label,cond_0,cond_1\r\n0,0,1\r\n7,1,0\r\n"


NAN = float("nan")
INF = float("inf")
DEVICE = dict(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
LATTICE = dict(n=4, p_r=0.0, p_i=0.0, seed=0, source=None, ground=None)
CHECKS = [
    ("r_on", lambda: DeviceParams(**{**DEVICE, "r_on": 0.0})),
    ("r_off", lambda: DeviceParams(**{**DEVICE, "r_off": 1e3})),
    ("r_off", lambda: DeviceParams(**{**DEVICE, "r_off": float("inf")})),
    ("r_init", lambda: DeviceParams(**{**DEVICE, "r_init": 1e3})),
    ("v_t", lambda: DeviceParams(**{**DEVICE, "v_t": NAN})),
    ("beta", lambda: DeviceParams(**{**DEVICE, "beta": NAN})),
    ("kind", lambda: Waveform(kind="square")),
    ("amplitude", lambda: Waveform(amplitude=NAN)),
    ("frequency", lambda: Waveform(frequency=NAN)),
    ("frequency", lambda: Waveform(frequency=1e-320)),
    ("cycles", lambda: Waveform(cycles=1.5)),
    ("cycles", lambda: Waveform(cycles=float("inf"))),
    ("dt", lambda: SimConfig(dt=NAN)),
    ("record_stride", lambda: SimConfig(record_stride=0)),
    ("fit_window", lambda: SimConfig(fit_window=NAN)),
    ("dt", lambda: step_count(Waveform(), SimConfig(dt=6e-4))),
    ("dt", lambda: export_spice(build_grid(2, 0.0, 0.0, 0, P), W1, dt=NAN)),
    ("n", lambda: check_lattice(**{**LATTICE, "n": 1})),
    ("p_r", lambda: check_lattice(**{**LATTICE, "p_r": NAN})),
    ("p_i", lambda: build_grid(4, 0.0, 1.5, 0, P)),
    ("seed", lambda: build_grid(4, 0.0, 0.0, -1, P)),
    ("source", lambda: check_lattice(**{**LATTICE, "source": NodeId(4, 0)})),
    ("ground", lambda: check_lattice(**{**LATTICE, "ground": NodeId(0, -1)})),
    ("ground", lambda: build_grid(4, 0.0, 0.0, 0, P, ground=NodeId(0, 0))),
    ("fit_window", lambda: check_fit_window(NAN, 0.6)),
    ("fit_window", lambda: check_fit_window(0.6, 0.6)),
    ("v_t_s", lambda: check_sensitized_threshold(NAN, 0.6)),
    ("v_t_s", lambda: check_sensitized_threshold(0.0, 0.6)),
    ("v_t_s", lambda: run_sensitization(P, 0.7, 2, W1, CFG, 0.01)),
    # beta, amplitude, frequency, phase and dt each once gave NaN states or
    # a run of one sample, without an error
    ("v_t", lambda: DeviceParams(**{**DEVICE, "v_t": INF})),
    ("beta", lambda: DeviceParams(**{**DEVICE, "beta": INF})),
    ("amplitude", lambda: Waveform(amplitude=INF)),
    ("frequency", lambda: Waveform(frequency=INF)),
    ("phase", lambda: Waveform(phase=NAN)),
    ("phase", lambda: Waveform(phase=INF)),
    ("phase", lambda: Waveform(phase=-INF)),
    ("dt", lambda: SimConfig(dt=INF)),
    ("fit_window", lambda: SimConfig(fit_window=INF)),
    # a raster once flagged 0, 0, 12 and 4 of a 2x2 lattice's 12 cells here
    ("deviation_threshold", lambda: run_sensitization(P, 0.3, 2, W1, CFG, NAN)),
    ("deviation_threshold", lambda: run_sensitization(P, 0.3, 2, W1, CFG, INF)),
    ("deviation_threshold", lambda: run_sensitization(P, 0.3, 2, W1, CFG, -1.0)),
    ("deviation_threshold", lambda: run_sensitization(P, 0.3, 2, W1, CFG, 0.0)),
]


@pytest.mark.parametrize("name, check", CHECKS,
                         ids=[f"{name}-{k}" for k, (name, _) in enumerate(CHECKS)])
def test_every_check_names_its_argument(name, check):
    with pytest.raises(InvalidValue) as info:
        check()
    assert isinstance(info.value, ValueError)
    assert info.value.args[0] == name
    assert str(info.value).startswith(f"{name} ")


def test_device_sweep_rejects_lists_of_unequal_length_or_none():
    # an empty sweep once divided by its batch size of zero in the march
    q = DeviceParams(**{**DEVICE, "beta": 5e7})
    for params_list, amplitudes in (([P, q], [2.0]), ([P], [2.0, 4.0]), ([], [])):
        with pytest.raises(InvalidValue) as info:
            run_device_sweep(params_list, amplitudes, W1, CFG)
        assert info.value.args[0] == "amplitudes"


def test_device_sweep_checks_each_amplitude_before_the_march():
    # an infinite amplitude once marched NaN states, with numpy warnings,
    # before the record of the point rejected it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidValue) as info:
            run_device_sweep([P, P], [2.0, INF], W1, CFG)
    assert info.value.args[0] == "amplitude"


def test_library_runs_reject_a_dt_that_does_not_divide_the_duration():
    # 6e-4 s steps would stop the 5 s stimulus at 4.9998 s, one remnant short
    cfg = SimConfig(dt=6e-4)
    for run in (lambda: simulate(build_grid(4, 0.0, 0.0, 0, P), Waveform(), cfg),
                lambda: run_uniform_array(4, P, Waveform(), cfg),
                lambda: run_single_device(P, Waveform(), cfg),
                lambda: run_device_sweep([P], [12.0], Waveform(), cfg)):
        with pytest.raises(InvalidValue) as info:
            run()
        assert info.value.args[0] == "dt"
    assert step_count(Waveform(), SimConfig(dt=4e-4)) == 12500
