import csv
from contextlib import ExitStack
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memgrid import engine, experiments, solver
from memgrid.device import DeviceParams, ParamTable, Polarity
from memgrid.engine import SimConfig, Trace, Waveform, simulate, waveform_sample
from memgrid.experiments import _raster_job, run_device_sweep, run_single_device
from memgrid.solver import DisconnectedNetworkError, NodalStamper
from memgrid.topology import (
    HORIZONTAL,
    VERTICAL,
    EdgeDescriptor,
    GridNetwork,
    NodeId,
    build_grid,
    is_connected,
)
from oracles import (
    ReferenceStamper,
    chain_reference_trace,
    csv_writer_trace,
    loop_zero_crossings,
    pinv_effective_resistance,
    reference_step_resistance,
    same_bits,
    stepwise_run,
    without_banded_kernel,
)

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)


def one_edge_network(params=P):
    a, b = NodeId(0, 0), NodeId(0, 1)
    return GridNetwork(
        n=2,
        present=frozenset({a, b}),
        edges=(EdgeDescriptor(0, a, b, HORIZONTAL, Polarity.FORWARD, params),),
        source=a,
        ground=b,
        seed=0,
    )


def column_chain_network(params_list):
    """n x 1 series chain down column 0 of an n=4 lattice."""
    nodes = [NodeId(r, 0) for r in range(4)]
    edges = tuple(
        EdgeDescriptor(i, nodes[i], nodes[i + 1], VERTICAL, Polarity.FORWARD, p)
        for i, p in enumerate(params_list)
    )
    return GridNetwork(n=4, present=frozenset(nodes), edges=edges,
                       source=nodes[0], ground=nodes[-1], seed=0)


def test_waveform_sample_examples():
    assert waveform_sample(Waveform(amplitude=12, frequency=1, cycles=1), 0.25) == pytest.approx(12.0)
    assert waveform_sample(Waveform(amplitude=3, frequency=1, cycles=1), 0.0) == 0.0
    w = Waveform(amplitude=1, frequency=1, cycles=1)
    assert waveform_sample(w, 1.0 / 12.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("amplitude", [12.0, 0.0])
@pytest.mark.parametrize("phase", [0.0, -0.001, 0.3, np.pi / 2, -2.5])
def test_waveform_sample_of_an_array_equals_its_scalar_calls_bit_for_bit(phase, amplitude):
    """``_run`` takes its whole schedule in one ``waveform_sample`` call on
    the array of step times, and every trace of the suite is compared with
    references that sample step by step. The array must give each sample
    the bits of its scalar call, at a numpy float time and at a Python
    float one, zero signs included: a numpy whose array ``sin`` differs from
    its scalar one fails here."""
    for frequency in (1.0, 3.0, 0.37):
        for dt in (1e-3, 5e-4, 1e-4):
            w = Waveform(amplitude=amplitude, frequency=frequency, cycles=2, phase=phase)
            n_steps = int(w.duration / dt)
            ts = np.arange(n_steps + 1) * dt
            got = waveform_sample(w, ts)
            assert same_bits(got, np.array([waveform_sample(w, t) for t in ts])), (frequency, dt)
            assert same_bits(got, np.array([waveform_sample(w, k * dt)
                                            for k in range(n_steps + 1)])), (frequency, dt)
            if amplitude == 0.0:
                assert not np.any(got) and np.any(np.signbit(got)) and not np.all(np.signbit(got))


def test_a_lone_march_takes_its_voltage_terms_in_bounded_blocks(monkeypatch):
    """Lone devices take their voltage terms ahead in stretches of at most
    ``_STRETCH_VALUES`` voltages, never for the whole march at once: under
    ``tracemalloc``, a sweep of 32 devices recorded every 10th step peaks
    below one block of a double per device and step, a block that the
    same march with every step's terms taken at once exceeds."""
    import tracemalloc

    params, amplitudes = [P, FAST] * 16, [0.7, 1.0, 2.0, 4.0] * 8
    w, cfg = Waveform(amplitude=1.0, cycles=5), SimConfig(record_stride=10)
    whole = (round(w.duration / cfg.dt) + 1) * len(params) * np.dtype(float).itemsize

    def peak():
        run_device_sweep(params, amplitudes, w, cfg)  # first-call allocations aside
        tracemalloc.start()
        try:
            run_device_sweep(params, amplitudes, w, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < whole
    monkeypatch.setattr(engine, "_STRETCH_VALUES", 10 ** 9)
    assert peak() > whole


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(kind="square")
    with pytest.raises(ValueError):
        Waveform(amplitude=-1)
    with pytest.raises(ValueError):
        Waveform(frequency=0)
    with pytest.raises(ValueError):
        Waveform(cycles=0)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0)
    with pytest.raises(ValueError):
        SimConfig(record_stride=0)
    with pytest.raises(ValueError):
        SimConfig(fit_window=0)


def test_subthreshold_drive_leaves_states_unchanged():
    net = build_grid(4, 0.0, 0.0, 0, P)
    trace = simulate(net, Waveform(amplitude=0.5, cycles=1), SimConfig())
    assert np.array_equal(trace.x[0], trace.x[-1])
    assert np.all(trace.x == P.r_init)


def test_determinism_bitwise():
    net = build_grid(4, 0.0, 0.0, 5, P)
    w = Waveform(amplitude=12, cycles=2)
    cfg = SimConfig()
    a = simulate(net, w, cfg)
    b = simulate(net, w, cfg)
    for field in ("t", "v_src", "i_src", "v_m", "x"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_passive_network_absorbs_power():
    net = build_grid(4, 0.0, 0.0, 0, P)
    trace = simulate(net, Waveform(amplitude=12, cycles=2), SimConfig())
    assert np.all(trace.v_src * trace.i_src >= 0.0)


def test_bounds_hold_in_every_trace_sample():
    net = build_grid(3, 0.0, 0.0, 0, P)
    trace = simulate(net, Waveform(amplitude=12, cycles=3), SimConfig())
    assert np.all(trace.x >= P.r_on)
    assert np.all(trace.x <= P.r_off)


def test_initial_current_follows_frozen_effective_resistance():
    net = build_grid(4, 0.0, 0.0, 0, P)
    trace = simulate(net, Waveform(amplitude=12, cycles=1), SimConfig())
    r_eff = pinv_effective_resistance(net, [P.r_init] * 24)
    # below-threshold start: every |v_m| < v_t, so states stay frozen and the
    # source sees the all-r_init Thevenin resistance
    for k in range(1, 20):
        assert np.all(np.abs(trace.v_m[k]) < P.v_t)
        assert trace.i_src[k] == pytest.approx(trace.v_src[k] / r_eff, rel=1e-9)


@pytest.mark.parametrize("amplitude", [2.0, 0.0])
def test_one_edge_array_reduces_to_single_device_bit_exactly(amplitude):
    """Zero signs included: at zero amplitude the negative half cycles
    carry -0.0 volts and currents, on the lattice as on the device."""
    w = Waveform(amplitude=amplitude, frequency=1.0, cycles=1)
    cfg = SimConfig(dt=1e-3)
    array_trace = simulate(one_edge_network(), w, cfg)
    device_trace = run_single_device(P, w, cfg).trace
    for field in ("t", "v_src", "i_src", "v_m", "x"):
        assert same_bits(getattr(array_trace, field), getattr(device_trace, field)), field
    if not amplitude:
        assert not np.any(array_trace.i_src) and np.any(np.signbit(array_trace.i_src))


def test_series_chain_matches_independent_scalar_integrator():
    params = [
        DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=1.5e5),
        DeviceParams(r_on=1e3, r_off=1e5, v_t=0.4, beta=8e5, r_init=9e4),
        DeviceParams(r_on=3e3, r_off=3e5, v_t=0.8, beta=3e5, r_init=2.5e5),
    ]
    net = column_chain_network(params)
    w = Waveform(amplitude=6.0, frequency=1.0, cycles=2)
    cfg = SimConfig(dt=1e-3)
    trace = simulate(net, w, cfg)
    _, vs, cur, vms, xs = chain_reference_trace(
        [p.r_init for p in params], params, w.amplitude, w.frequency, w.cycles, cfg.dt
    )
    assert trace.i_src == pytest.approx(np.array(cur), rel=1e-9, abs=1e-18)
    assert trace.v_m == pytest.approx(np.array(vms), rel=1e-9, abs=1e-12)
    assert trace.x == pytest.approx(np.array(xs), rel=1e-9)


@pytest.mark.parametrize("stride", [7, 8])  # 7 does not divide the 1,000 steps, 8 does
def test_record_stride_keeps_first_and_last(stride):
    net = build_grid(2, 0.0, 0.0, 0, P)
    cfg = SimConfig(dt=1e-3, record_stride=stride)
    trace = simulate(net, Waveform(amplitude=1.0, cycles=1), cfg)
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(1.0)
    full = simulate(net, Waveform(amplitude=1.0, cycles=1), SimConfig(dt=1e-3))
    # steps 0, s, 2s, ... and the last step, recorded once
    steps = sorted(set(range(0, full.n_samples, stride)) | {full.n_samples - 1})
    assert trace.n_samples == len(steps)
    for field in ("t", "v_src", "i_src", "v_m", "x"):
        assert np.array_equal(getattr(trace, field), getattr(full, field)[steps]), field


def test_simulate_rejects_disconnected_network():
    net = build_grid(4, 1.0, 0.0, 3, P)
    with pytest.raises(DisconnectedNetworkError):
        simulate(net, Waveform(amplitude=1.0, cycles=1), SimConfig())


def test_trace_requires_increasing_time():
    with pytest.raises(ValueError):
        Trace(t=np.array([0.0, 0.0]), v_src=np.zeros(2), i_src=np.zeros(2),
              v_m=np.zeros((2, 1)), x=np.ones((2, 1)))


def test_trace_csv_schema_and_values(tmp_path):
    net = build_grid(2, 0.0, 0.0, 0, P)
    trace = simulate(net, Waveform(amplitude=2.0, cycles=1), SimConfig(dt=1e-2))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "v_src", "i_src",
                       "v_m[0]", "x[0]", "v_m[1]", "x[1]",
                       "v_m[2]", "x[2]", "v_m[3]", "x[3]"]
    assert len(rows) == trace.n_samples + 1
    # values round-trip exactly through repr
    k = 37
    assert float(rows[k + 1][0]) == trace.t[k]
    assert float(rows[k + 1][2]) == trace.i_src[k]
    assert float(rows[k + 1][4]) == trace.x[k, 0]


def test_trace_csv_bytes_match_csv_writer(tmp_path, uniform_run):
    w = Waveform(amplitude=2.0, cycles=1)
    traces = {
        "4x4": uniform_run.trace,
        "one device": run_single_device(P, w, SimConfig(dt=1e-3)).trace,
        "swept device": run_device_sweep([P, P], [0.7, 2.0], w, SimConfig(dt=1e-3))[1].trace,
        "strided": simulate(build_grid(3, 0.0, 0.0, 0, P), Waveform(amplitude=4.0, cycles=1),
                            SimConfig(dt=1e-3, record_stride=7)),
    }
    for name, trace in traces.items():
        path, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
        trace.to_csv(path)
        csv_writer_trace(trace, reference)
        assert path.read_bytes() == reference.read_bytes(), name
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(table[:, 0], trace.t), name
        assert np.array_equal(table[:, 1], trace.v_src), name
        assert np.array_equal(table[:, 2], trace.i_src), name
        assert np.array_equal(table[:, 3::2], trace.v_m), name
        assert np.array_equal(table[:, 4::2], trace.x), name


@pytest.mark.parametrize("devices", [1, 24])
def test_trace_csv_blocks_end_anywhere(tmp_path, devices):
    """Traces one sample short of, at, and one past a whole number of write
    blocks, and one inside the first block, give ``csv.writer``'s bytes."""
    w = Waveform(amplitude=2.0, cycles=2)
    if devices == 1:
        full = run_single_device(P, w, SimConfig(dt=1e-3)).trace
    else:
        full = simulate(build_grid(4, 0.0, 0.0, 0, P), replace(w, amplitude=12.0), SimConfig())
    step = engine._CSV_VALUES // (3 + 2 * devices)
    for n in (7, step - 1, step, step + 1, 2 * step + 1):
        trace = Trace(t=full.t[:n], v_src=full.v_src[:n], i_src=full.i_src[:n],
                      v_m=full.v_m[:n], x=full.x[:n])
        path, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
        trace.to_csv(path)
        csv_writer_trace(trace, reference)
        assert path.read_bytes() == reference.read_bytes(), n


def assert_written_like_csv_writer(traces, tmp_path):
    """``write_csv`` of all ``traces`` in one call gives, file by file,
    ``csv.writer``'s bytes for each trace on its own."""
    paths = [tmp_path / f"trace_{k}.csv" for k in range(len(traces))]
    engine.write_csv(traces, paths)
    for k, (trace, path) in enumerate(zip(traces, paths)):
        reference = tmp_path / "reference.csv"
        csv_writer_trace(trace, reference)
        assert path.read_bytes() == reference.read_bytes(), k


def test_write_csv_writes_a_device_sweep_in_one_call(tmp_path):
    amplitudes, betas = (0.7, 1.0, 2.0, 4.0), (5e5, 5e7)
    pairs = [(beta, a) for beta in betas for a in amplitudes]
    runs = run_device_sweep([replace(P, beta=beta) for beta, _ in pairs], [a for _, a in pairs],
                            Waveform(cycles=2), SimConfig(dt=1e-3))
    assert_written_like_csv_writer([run.trace for run in runs], tmp_path)


def test_write_csv_keys_values_on_their_bits(tmp_path):
    """+0.0 and -0.0 are equal floats with different reprs; a value repeated
    within a block and across traces is written wherever it occurs."""
    n = 6
    t = np.arange(n) * 0.1
    v_src = np.array([0.0, -0.0, 0.3, 0.3, -0.0, 0.0])
    first = Trace(t=t, v_src=v_src, i_src=-v_src, v_m=np.column_stack([v_src, -v_src]),
                  x=np.full((n, 2), 0.3))
    second = Trace(t=t, v_src=v_src[::-1].copy(), i_src=np.full(n, -0.0),
                   v_m=np.full((n, 1), 0.0), x=np.full((n, 1), 2e5))
    assert_written_like_csv_writer([first, second], tmp_path)
    assert (tmp_path / "trace_1.csv").read_text().splitlines()[1] == "0.0,0.0,-0.0,0.0,200000.0"


def test_write_csv_holds_a_bounded_number_of_files_open(tmp_path, monkeypatch):
    runs = run_device_sweep([P] * 7, [0.5 + 0.25 * k for k in range(7)],
                            Waveform(cycles=1), SimConfig(dt=1e-2))
    opened, most = [], []

    def counted_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        most.append(sum(not fh.closed for fh in opened))
        return opened[-1]

    monkeypatch.setattr(engine, "_CSV_FILES", 3)
    monkeypatch.setattr(engine, "open", counted_open, raising=False)
    assert_written_like_csv_writer([run.trace for run in runs], tmp_path)
    assert len(opened) == 7 and max(most) == 3


def test_write_csv_blocks_end_anywhere(tmp_path):
    """Traces one sample short of, at, and one past a whole block of rows
    over three files give ``csv.writer``'s bytes."""
    runs = run_device_sweep([P] * 3, [0.7, 2.0, 4.0], Waveform(cycles=1), SimConfig(dt=1e-3))
    step = engine._CSV_VALUES // (3 * 5)
    for n in (step - 1, step, step + 1):
        traces = [Trace(t=tr.t[:n], v_src=tr.v_src[:n], i_src=tr.i_src[:n],
                        v_m=tr.v_m[:n], x=tr.x[:n]) for tr in (run.trace for run in runs)]
        assert_written_like_csv_writer(traces, tmp_path)


def test_write_csv_rejects_unequal_lengths(tmp_path):
    trace = run_single_device(P, Waveform(cycles=1), SimConfig(dt=1e-2)).trace
    short = Trace(t=trace.t[:-1], v_src=trace.v_src[:-1], i_src=trace.i_src[:-1],
                  v_m=trace.v_m[:-1], x=trace.x[:-1])
    with pytest.raises(ValueError, match="equally long"):
        engine.write_csv([trace, short], [tmp_path / "a.csv", tmp_path / "b.csv"])
    with pytest.raises(ValueError, match="2 traces for 1 paths"):
        engine.write_csv([trace, trace], [tmp_path / "a.csv"])
    assert not list(tmp_path.iterdir())


def distorted_lattice(n):
    seed = 0
    while not is_connected(net := build_grid(n, 0.05, 0.1, seed, P)):
        seed += 1
    return net


FAST = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e7, r_init=2e5)
# v_t = 0 and a cosine drive that no sample hits at exactly 0 V: every unit
# moves on every step, and never reaches a bound
RESTLESS = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.0, beta=1e5, r_init=1e5)
W12 = Waveform(amplitude=12.0, frequency=1.0, cycles=2)


def dense_if_named(case, monkeypatch):
    """Send a case named "..., dense fallback" down the dense path of a
    LAPACK without ``dpbsv``; every other lattice takes the band path."""
    if case.endswith("dense fallback"):
        without_banded_kernel(monkeypatch)


# case -> (the run, the largest chunk of source voltages one solve may get:
# 1 where nothing is solved ahead, 64 // rows where a stretch outlasts the
# cap; None for lone devices, which solve nothing)
LOOKAHEAD_CASES = {
    "4x4 banded, stride 1": (lambda: simulate(build_grid(4, 0.0, 0.0, 0, P), W12, SimConfig()), 64),
    "4x4 banded, stride 7": (lambda: simulate(build_grid(4, 0.0, 0.0, 0, P), W12,
                                              SimConfig(record_stride=7)), 64),
    "4x4, dense fallback": (lambda: simulate(build_grid(4, 0.0, 0.0, 0, P), W12, SimConfig()), 64),
    "distorted 16x16, banded": (lambda: simulate(distorted_lattice(16), Waveform(amplitude=60.0, cycles=1),
                                                 SimConfig()), 64),
    "distorted 8x8, banded, stride 7": (lambda: simulate(
        distorted_lattice(8), Waveform(amplitude=28.0, cycles=1), SimConfig(record_stride=7)), 64),
    "8-point device sweep": (lambda: run_device_sweep([P, FAST] * 4, [0.7, 0.7, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0],
                                                      W12, SimConfig()), None),
    "single device": (lambda: run_single_device(P, replace(W12, amplitude=2.0), SimConfig()), None),
    "raster n=3, 13 rows": (lambda: _raster_job(build_grid(3, 0.0, 0.0, 0, P), 0.06,
                                                replace(W12, cycles=1), SimConfig()), 4),
    "raster n=5, 41 rows": (lambda: _raster_job(build_grid(5, 0.0, 0.0, 0, P), 0.06,
                                                replace(W12, cycles=1), SimConfig()), 1),
    "sub-threshold, frozen throughout": (lambda: simulate(build_grid(4, 0.0, 0.0, 0, P),
                                                          Waveform(amplitude=0.5, cycles=1),
                                                          SimConfig(record_stride=3)), 64),
    "every step moves": (lambda: run_single_device(RESTLESS, Waveform(amplitude=1.0, cycles=1,
                                                                      phase=np.pi / 2),
                                                   SimConfig()), None),
    "device sweep, stride 3": (lambda: run_device_sweep([P, FAST] * 2, [0.7, 1.0, 2.0, 4.0], W12,
                                                        SimConfig(record_stride=3)), None),
    "device sweep, stride 7": (lambda: run_device_sweep([P, FAST] * 2, [0.7, 1.0, 2.0, 4.0], W12,
                                                        SimConfig(record_stride=7)), None),
    "device sweep, phase -0.001, step 0 held twice": (lambda: run_device_sweep(
        [P, FAST], [2.0, 4.0], replace(W12, phase=-0.001), SimConfig()), None),
    "device sweep at zero amplitude": (lambda: run_device_sweep(
        [P, FAST], [0.0, 0.0], W12, SimConfig(record_stride=3)), None),
}


def lone(solve) -> bool:
    """Whether ``_run`` got lone devices' gains in place of a solve."""
    return isinstance(solve, np.ndarray)


def stretch_passes(xs, params, length):
    """The passes a lone march of the per-step states ``xs``, (steps, B),
    should take with stretches of ``length`` steps: each unit's stretch
    runs from its own next step to its first step whose state lands at
    another place (at r_on, inside, at r_off) than the state it starts
    from, or for ``length`` steps, and a pass advances every unit by one
    stretch. A stretch the last step ends counts like any other, so that
    step's own landing place, which ``xs`` does not hold, does not matter."""
    place = (xs > params.r_on).astype(int) + (xs >= params.r_off)
    events = place[1:] != place[:-1]
    passes = 0
    for unit in range(xs.shape[1]):
        k = count = 0
        while k < len(xs):
            moves = np.flatnonzero(events[k:k + length, unit])
            k, count = k + (moves[0] + 1 if len(moves) else length), count + 1
        passes = max(passes, count)
    return passes


@pytest.mark.parametrize("case", list(LOOKAHEAD_CASES))
def test_frozen_stretch_lookahead_matches_stepwise_run_bit_for_bit(case, monkeypatch):
    """Every engine run of the case also runs through the per-step reference
    loop, which must give every recorded array, and the states held at step
    0 and at the step nearest each crossing, bit for bit, zero signs
    included. The solve calls are counted, so a lookahead that never
    engages fails the case too, and so are the device steps: a chunk only
    reads ahead, so every step is either solved alone and stepped once, or
    read ahead in a chunk. Lone devices solve nothing: their passes are
    counted at ``voltage_terms``, each of ``_STRETCH_VALUES // B`` steps
    of every unit (the march's, if fewer), and must be exactly as many as
    the stretches of the busiest unit, which the reference's states at
    every step imply."""
    run, largest = LOOKAHEAD_CASES[case]
    marched, step, terms = engine._run, engine.step_resistance, engine.voltage_terms
    runs, steps, passes = [], [0], []

    def checked(x, params, solve, source, w, cfg, row=None):
        voltages = []

        def counted(states, v_src):
            voltages.append(v_src)
            return solve(states, v_src)

        got = marched(x, params, solve if lone(solve) else counted, source, w, cfg, row)
        want = stepwise_run(x, params, solve, source, w, cfg, row)
        assert len(got) == len(want) == 6
        for name, a, b in zip(("t", "v_src", "v_m", "i_src", "x", "held x"), got, want):
            assert same_bits(a, b), name
        every = stepwise_run(x, params, solve, source, w, replace(cfg, record_stride=1))[4]
        runs.append((voltages, round(w.duration / cfg.dt), got, every, params))
        return got

    def stepped(*args):
        steps[0] += 1
        return step(*args)

    def passed(v_m, params):
        passes.append(v_m.shape)
        return terms(v_m, params)

    monkeypatch.setattr(engine, "_run", checked)
    monkeypatch.setattr(experiments, "_run", checked)
    monkeypatch.setattr(engine, "step_resistance", stepped)
    monkeypatch.setattr(engine, "voltage_terms", passed)
    dense_if_named(case, monkeypatch)
    run()
    (voltages, n_steps, got, every, params), = runs
    if largest is None:
        # no solve and no step alone: one pass per stretch of the busiest unit
        length = min(n_steps + 1, max(1, engine._STRETCH_VALUES // got[4].shape[1]))
        assert not voltages and not steps[0]
        assert passes == [(length, got[4].shape[1])] * stretch_passes(every, params, length)
        # bound events add passes to those that cover the march, and only they do
        covering = -(-(n_steps + 1) // length)
        assert (len(passes) == covering) is (case == "every step moves" or "zero amplitude" in case)
        assert len(passes) >= covering
        if "step 0 held twice" in case:
            assert len(got[5]) == 2 * W12.cycles + 1 and same_bits(got[5][1], got[5][0])
        if "zero amplitude" in case:
            assert not np.any(got[3]) and np.any(np.signbit(got[3]))
            assert not np.all(np.signbit(got[3]))
        return
    # a chunk gets an array of source voltages, a step solved alone a scalar
    assert not passes
    assert steps[0] == sum(not isinstance(v, np.ndarray) for v in voltages) > 0
    sizes = [np.size(v) for v in voltages]
    assert max(sizes) == largest
    # one solve per step, or fewer calls that still cover every step
    assert (len(sizes) == n_steps + 1) if largest == 1 else (len(sizes) < n_steps + 1 <= sum(sizes))
    if case.startswith("sub-threshold"):
        # step 0, then chunks of 2, 4, ..., 64 that waste no solve
        assert sizes[:7] == [1, 2, 4, 8, 16, 32, 64] and sum(sizes) == n_steps + 1


# One lone unit: (r_init, v_t, beta, amplitude). A beta of 1e-9 moves a unit
# at r_off inward by less than half an ulp of r_off, so the increment rounds
# away and the unit stays there with a nonzero rate; one of 1e12 crosses
# from one bound to the other in a single step.
LONE_UNIT = st.tuples(
    st.sampled_from([P.r_on, P.r_off]) | st.floats(P.r_on, P.r_off),
    st.sampled_from([0.0, 0.6]) | st.floats(0.0, 2.0),
    st.sampled_from([1e-9, 5e5, 5e7, 1e12]) | st.floats(1e3, 1e9),
    st.just(0.0) | st.floats(0.0, 6.0),
)


@settings(max_examples=60, deadline=None)
@given(units=st.lists(LONE_UNIT, min_size=1, max_size=6), frequency=st.sampled_from([1.0, 2.5]),
       cycles=st.integers(1, 2), dt=st.sampled_from([1e-2, 4e-3, 2e-3]),
       stride=st.integers(1, 7), phase=st.floats(-4.0, 4.0),
       zero_at=st.none() | st.integers(0, 1000), values=st.sampled_from([1, 7, 64, 4096]))
@example(units=[(P.r_off, 0.6, 1e12, 4.0), (P.r_off, 0.0, 1e-9, 1.0), (1e5, 0.6, 5e5, 2.0),
                (P.r_on, 0.0, 5e7, 3.0), (P.r_on, 0.6, 5e5, 0.0)],
         frequency=1.0, cycles=2, dt=2e-3, stride=3, phase=0.0, zero_at=250, values=7)
@example(units=[(P.r_on, 0.0, 1e12, 1.0), (P.r_off, 0.0, 1e12, 0.5)],
         frequency=2.5, cycles=1, dt=1e-2, stride=1, phase=0.0, zero_at=None, values=4096)
def test_a_lone_march_equals_the_per_step_march_bit_for_bit(units, frequency, cycles, dt, stride,
                                                            phase, zero_at, values):
    """A lone march in stretches gives the six outputs of the per-step
    march, zero signs included, for any batch: units starting at r_on, at
    r_off or inside, thresholds of 0, increments that round away at a bound
    or jump across from one bound to the other, zero amplitudes, a sample
    on an exact zero of the sine (``zero_at``), any stride, and stretches
    of any length, so units meet their bounds at different steps, in the
    middle of a stretch and at its end."""
    n_steps = round(cycles / frequency / dt)
    if zero_at is not None:  # the sine's argument at step zero_at is x + -x == +0.0
        phase = -(engine.TWO_PI * frequency * (min(zero_at, n_steps) * dt))
    w = Waveform(amplitude=1.0, frequency=frequency, cycles=cycles, phase=phase)
    cfg = SimConfig(dt=dt, record_stride=stride)
    table = ParamTable.from_params([DeviceParams(P.r_on, P.r_off, v_t, beta, r_init)
                                    for r_init, v_t, beta, _ in units])
    gains = np.array([amplitude for *_, amplitude in units])
    source = (slice(None), lambda _, v_m, x: v_m / x)  # run_device_sweep's
    with patch.object(engine, "_STRETCH_VALUES", values):
        got = engine._run(table.r_init, table, gains, source, w, cfg)
    assert same_bits(list(got), stepwise_run(table.r_init, table, gains, source, w, cfg))


@settings(max_examples=100, deadline=None)
@given(lattice=st.tuples(st.integers(2, 5), st.sampled_from([0.0, 0.1, 0.3]),
                         st.sampled_from([0.0, 0.2, 0.5]), st.integers(0, 50)),
       rows=st.none() | st.lists(st.sampled_from([0.0, 0.06, 0.6]), min_size=1, max_size=5),
       row=st.none() | st.just(0), amplitude=st.just(0.0) | st.floats(0.0, 20.0),
       phase=st.sampled_from([0.0, -0.001, np.pi / 2, np.pi, 1.0]),
       dt=st.sampled_from([1e-3, 2e-3, 4e-3, 5e-3, 1e-2]), stride=st.integers(1, 7),
       beta=st.floats(3.0, 12.0).map(lambda e: 10.0 ** e),
       ahead=st.sampled_from([(64, 4), (8, 1), (256, 2), (2, 1)]), dense=st.booleans())
@example(lattice=(4, 0.0, 0.0, 0), rows=[0.6, 0.06, 0.0], row=0, amplitude=8.0, phase=-0.001,
         dt=2e-3, stride=3, beta=5e5, ahead=(8, 1), dense=False)
@example(lattice=(3, 0.1, 0.5, 7), rows=None, row=None, amplitude=0.5, phase=0.0, dt=1e-3,
         stride=7, beta=5e7, ahead=(64, 4), dense=True)
def test_a_network_march_equals_the_per_step_march_bit_for_bit(lattice, rows, row, amplitude,
                                                                phase, dt, stride, beta, ahead,
                                                                dense):
    """The network march, frozen-stretch chunks included, gives the six
    outputs of the per-step march, zero signs included, for distorted
    lattices with inverted units, one network or a batch with a threshold
    per row, recorded whole or by row 0, with step 0 held twice (a phase of
    -0.001), strides that hold steps they do not record, and chunk caps
    from 2 to 256 systems, on the band path and the dense fallback."""
    n, p_r, p_i, seed = lattice
    network = build_grid(n, p_r, p_i, seed, replace(P, beta=beta))
    assume(is_connected(network))
    table = ParamTable.from_params([e.params for e in network.edges])
    x = table.r_init
    if rows is not None:
        x = np.tile(x, (len(rows), 1))
        table = ParamTable(*(np.broadcast_to(getattr(table, f.name), x.shape).copy()
                             for f in fields(table)))
        table.v_t[...] = np.array(rows)[:, None]
    else:
        row = None
    # one 0.5 s cycle: 51 to 501 steps, so that 100 examples take a few seconds
    w = Waveform(amplitude=amplitude, frequency=2.0, cycles=1, phase=phase)
    cfg = SimConfig(dt=dt, record_stride=stride)
    with ExitStack() as patches:
        patches.enter_context(patch.object(engine, "_AHEAD_SYSTEMS", ahead[0]))
        patches.enter_context(patch.object(engine, "_AHEAD_MIN", ahead[1]))
        if dense:
            patches.enter_context(patch.object(solver, "_band_cholesky", lambda: None))
        stamper = NodalStamper(network)
        assert stamper.banded is not dense
        source = (stamper.near, stamper.source_current)
        got = engine._run(x, table, stamper.solve_raw, source, w, cfg, row)
        want = stepwise_run(x, table, stamper.solve_raw, source, w, cfg, row)
    assert same_bits(list(got), want)


@pytest.mark.parametrize("phase", [0.0, -0.001])
def test_a_row_march_holds_every_rows_states_at_the_crossings(phase, monkeypatch):
    """With ``row`` set, ``_run`` records that batch row alone, and holds
    every row's states at step 0 and at the step nearest each zero crossing,
    those read ahead in chunks included, whatever the stride: the same bits
    as the same batch marched with ``row=None`` records at those steps.
    Under a phase of -0.001 the first crossing's nearest step is step 0,
    which is then held twice."""
    marched, calls, chunks = engine._run, [], []

    def spied(x, params, solve, source, w, cfg, row=None):
        def seen(states, v_src):
            if isinstance(v_src, np.ndarray):
                chunks.append(v_src.ravel())
            return solve(states, v_src)

        calls.append((x, params, seen, source, w, cfg))
        return marched(x, params, seen, source, w, cfg, row)

    monkeypatch.setattr(experiments, "_run", spied)
    _raster_job(build_grid(3, 0.0, 0.0, 0, P), 0.06, replace(W12, cycles=1, phase=phase),
                SimConfig())
    (x, params, solve, source, w, cfg), = calls
    t, v_src, v_m, i_src, xs, held = marched(x, params, solve, source, w, cfg, row=0)
    full = marched(x, params, solve, source, w, cfg)
    assert len(full[0]) == round(w.duration / cfg.dt) + 1  # stride 1: sample k is step k
    schedule = SimpleNamespace(t=full[0], v_src=full[1])
    steps = [0] + [int(np.argmin(np.abs(full[0] - c.t))) for c in loop_zero_crossings(schedule)]
    assert steps == ([0, 0, 500] if phase else [0, 500, 1000])
    # the 13-row batch reads ahead, and some chunk holds a crossing's step
    assert any(np.isin(full[1][steps[1:]], v).any() for v in chunks)
    assert held.shape == (3,) + x.shape
    assert same_bits(held, full[4][steps]) and same_bits(full[5], held)
    assert same_bits([t, v_src, v_m, i_src, xs],
                     [full[0], full[1], full[2][:, 0], full[3][:, 0], full[4][:, 0]])
    strided = marched(x, params, solve, source, w, replace(cfg, record_stride=7), row=0)
    assert len(strided[0]) < len(t) and same_bits(strided[5], held)


# case -> a run on which every solve and device step is checked against the
# verbatim references
REFERENCE_CASES = {
    "4x4 banded": lambda: simulate(build_grid(4, 0.0, 0.0, 0, P), W12, SimConfig()),
    "4x4, dense fallback": LOOKAHEAD_CASES["4x4, dense fallback"][0],
    "raster n=4, 25 rows, per-row v_t": lambda: _raster_job(
        build_grid(4, 0.0, 0.0, 0, P), 0.06, replace(W12, cycles=1), SimConfig(dt=5e-4)),
    "distorted 8x8, banded, inverted units": lambda: simulate(
        distorted_lattice(8), Waveform(amplitude=28.0, cycles=1), SimConfig()),
    "8-point device sweep": LOOKAHEAD_CASES["8-point device sweep"][0],
    "single device": LOOKAHEAD_CASES["single device"][0],
    **{case: LOOKAHEAD_CASES[case][0] for case in LOOKAHEAD_CASES
       if case.startswith("device sweep")},
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_every_solve_and_step_of_a_run_matches_the_verbatim_references(case, monkeypatch):
    """``stepwise_run`` reuses the package's own solve and device step, so it
    cannot see a change in their arithmetic. Here every ``solve_raw`` call
    of a run, K-voltage chunks included, is redone by ``ReferenceStamper``
    and every ``step_resistance`` call by ``reference_step_resistance``, and
    each result must equal the reference's in type, value and zero sign: the
    solution and device voltages of each solve, and the source current that
    ``source_current`` reads from that solve alone. Lone devices solve
    nothing and march their states in stretches, each a running sum of
    increments taken ahead, so each of their marches must equal, in the
    same way, the per-step march whose every step is
    ``reference_step_resistance``, in fewer passes than it has steps."""
    marched, solve_raw = engine._run, NodalStamper.solve_raw
    step, terms = engine.step_resistance, engine.voltage_terms
    references = {}
    calls = {"solve": 0, "chunk": 0, "step": 0, "pass": 0, "reference step": 0,
             "lone steps": 0}

    def checked_solve(stamper, x, v_src):
        got = solve_raw(stamper, x, v_src)
        reference = references.setdefault(stamper, ReferenceStamper(stamper.network))
        padded, v_m, i_src = reference.solve_raw(x, v_src)
        assert same_bits(got, (padded, v_m))
        current = stamper.source_current(v_src, got[0][..., stamper.near], x)
        assert same_bits(current if current.ndim else float(current), i_src)
        calls["chunk" if isinstance(v_src, np.ndarray) else "solve"] += 1
        return got

    def checked_step(x, v_m, dt, params, rate_prev):
        got = step(x, v_m, dt, params, rate_prev)
        assert same_bits(got, reference_step_resistance(x, v_m, dt, params, rate_prev))
        calls["step"] += 1
        return got

    def counted_pass(*args):
        calls["pass"] += 1
        return terms(*args)

    def reference_step(*args):
        calls["reference step"] += 1
        return reference_step_resistance(*args)

    def checked_run(x, params, solve, source, w, cfg, row=None):
        got = marched(x, params, solve, source, w, cfg, row)
        if lone(solve):
            calls["lone steps"] += round(w.duration / cfg.dt) + 1
            want = stepwise_run(x, params, solve, source, w, cfg, row, step=reference_step)
            assert same_bits(list(got), want)
        return got

    monkeypatch.setattr(NodalStamper, "solve_raw", checked_solve)
    monkeypatch.setattr(engine, "step_resistance", checked_step)
    monkeypatch.setattr(engine, "voltage_terms", counted_pass)
    monkeypatch.setattr(experiments, "_run", checked_run)
    dense_if_named(case, monkeypatch)
    REFERENCE_CASES[case]()
    if "banded" in case or "dense" in case:
        (stamper,) = references
        assert stamper.banded is ("banded" in case)
    if "inverted units" in case:
        assert any(e.polarity < 0 for e in stamper.network.edges)
    if calls["lone steps"]:
        # one reference step per step of the march; fewer passes
        assert calls["reference step"] == calls["lone steps"] > calls["pass"] > 0
        assert calls["solve"] == calls["chunk"] == calls["step"] == 0
        return
    assert calls["step"] > 0 and calls["solve"] > 0 and calls["pass"] == 0
    # every run that looks ahead solves chunks of voltages; the raster never does
    assert (calls["chunk"] > 0) is not case.startswith("raster")


@pytest.mark.parametrize("case", ["4x4 banded", "4x4, dense fallback",
                                  "raster n=4, 25 rows, per-row v_t",
                                  "distorted 8x8, banded, inverted units"])
def test_every_solve_of_a_run_stamps_once_through_build_system(case, monkeypatch):
    """``solve_raw`` stamps through ``build_system`` exactly once per call,
    at a single source voltage, for a batch and for a chunk of voltages, so
    that wrapping ``build_system`` sees every stamp of a run."""
    solve_raw, build_system = NodalStamper.solve_raw, NodalStamper.build_system
    stamps, kinds = [0], []

    def counted_build(stamper, x, v_src):
        stamps[0] += 1
        return build_system(stamper, x, v_src)

    def counted_solve(stamper, x, v_src):
        before = stamps[0]
        got = solve_raw(stamper, x, v_src)
        assert stamps[0] == before + 1
        kinds.append("chunk" if isinstance(v_src, np.ndarray) else
                     "batch" if x.ndim == 2 else "scalar")
        return got

    monkeypatch.setattr(NodalStamper, "build_system", counted_build)
    monkeypatch.setattr(NodalStamper, "solve_raw", counted_solve)
    dense_if_named(case, monkeypatch)
    REFERENCE_CASES[case]()
    assert stamps[0] == len(kinds) > 0
    assert set(kinds) == ({"batch"} if case.startswith("raster") else {"scalar", "chunk"})


def corner_source_lattice(inverted=False):
    """A 4x4 lattice sourced at (3, 3), the node_b end of both its edges,
    and grounded at (0, 0); with ``inverted``, both of those units are
    inverted."""
    net = build_grid(4, 0.0, 0.0, 0, P, source=NodeId(3, 3), ground=NodeId(0, 0))
    at_source = [e for e in net.edges if net.source in (e.node_a, e.node_b)]
    assert len(at_source) == 2 and all(e.node_b == net.source for e in at_source)
    if not inverted:
        return net
    return replace(net, edges=tuple(replace(e, polarity=Polarity.INVERTED) if e in at_source
                                    else e for e in net.edges))


SWEEP_AMPLITUDES = [0.7, 0.7, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0]

# case -> (network, run) of a march whose recorded source currents are checked
# against the per-step reference; a network of None is the device sweep
CURRENT_CASES = {
    "source at 3,3, the node_b end of both its edges": lambda: (
        corner_source_lattice(), lambda net: simulate(net, W12, SimConfig())),
    "inverted units on the source's edges": lambda: (
        corner_source_lattice(inverted=True), lambda net: simulate(net, W12, SimConfig())),
    "zero amplitude, sources at +0.0 and -0.0": lambda: (
        corner_source_lattice(inverted=True),
        lambda net: simulate(net, Waveform(amplitude=0.0, cycles=1), SimConfig())),
    "stride 7, lookahead chunks": lambda: (
        build_grid(4, 0.0, 0.0, 0, P), lambda net: simulate(net, W12, SimConfig(record_stride=7))),
    "raster row 0": lambda: (
        build_grid(3, 0.0, 0.0, 0, P),
        lambda net: _raster_job(net, 0.06, replace(W12, cycles=1), SimConfig())[0]),
    "8-point device sweep": lambda: (
        None, lambda _: run_device_sweep([P, FAST] * 4, SWEEP_AMPLITUDES, W12, SimConfig())),
    "device sweep at zero amplitude, voltages at +0.0 and -0.0": lambda: (
        None, lambda _: run_device_sweep([P, FAST], [0.0, 0.0], W12, SimConfig())),
}


@pytest.mark.parametrize("case", list(CURRENT_CASES))
def test_recorded_source_currents_match_the_per_step_reference(case, monkeypatch):
    """``_run`` records the source-neighbour voltages of each sample and
    computes every recorded source current in one pass after its loop. Each
    recorded current must equal, in type, value and zero sign, the one the
    per-step formula gives at that sample's states and source voltage:
    ``ReferenceStamper``'s for a lattice, and for a lone device the sweep's
    former amps * v / x, its recorded voltage over its state."""
    network, run = CURRENT_CASES[case]()
    solve_raw, chunks = NodalStamper.solve_raw, [0]

    def seen(stamper, x, v_src):
        chunks[0] += isinstance(v_src, np.ndarray)
        return solve_raw(stamper, x, v_src)

    monkeypatch.setattr(NodalStamper, "solve_raw", seen)
    got = run(network)
    if network is None:
        for device in got:
            trace = device.trace
            want = [v / x for v, x in zip(trace.v_src.tolist(), trace.x[:, 0].tolist())]
            assert same_bits(trace.i_src, np.array(want))
        if case.startswith("device sweep at zero amplitude"):
            assert np.any(np.signbit(got[0].trace.i_src)) and not np.any(got[0].trace.i_src)
        return
    reference = ReferenceStamper(network)
    want = [reference.solve_raw(x, v)[2] for x, v in zip(got.x, got.v_src)]
    assert same_bits(got.i_src, np.array(want))
    if case.startswith("zero amplitude"):
        assert not np.any(got.v_src) and np.any(np.signbit(got.v_src))
        assert not np.all(np.signbit(got.v_src))
    if case.startswith("stride 7"):
        assert chunks[0] > 0 and len(got.t) < round(W12.duration / 1e-3)


@pytest.mark.parametrize("case", ["4x4 banded", "raster n=4, 25 rows, per-row v_t",
                                  "8-point device sweep"])
def test_a_march_computes_its_source_currents_once_after_its_loop(case, monkeypatch):
    """``_run`` calls its source's ``current`` once, after its last device
    step or pass of stretches, for every recorded sample at once, not once
    per step."""
    marched = engine._run
    events = []

    def counted_run(x, params, solve, source, w, cfg, row=None):
        near, current = source

        def counted_current(*args):
            events.append("current")
            return current(*args)

        return marched(x, params, solve, (near, counted_current), w, cfg, row)

    def counted(step):
        def counted_step(*args):
            events.append("step")
            return step(*args)
        return counted_step

    monkeypatch.setattr(engine, "_run", counted_run)
    monkeypatch.setattr(experiments, "_run", counted_run)
    # a network steps through step_resistance, lone devices' passes take voltage_terms
    monkeypatch.setattr(engine, "step_resistance", counted(engine.step_resistance))
    monkeypatch.setattr(engine, "voltage_terms", counted(engine.voltage_terms))
    REFERENCE_CASES[case]()
    assert events.count("step") > 1
    assert events.count("current") == 1 and events[-1] == "current"
