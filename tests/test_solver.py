import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memgrid import solver
from memgrid.device import DeviceParams, Polarity
from memgrid.engine import SimConfig, Waveform, simulate
from memgrid.measure import remnant_series
from memgrid.solver import (
    DisconnectedNetworkError,
    NodalStamper,
    SingularSystemError,
    effective_resistance,
    states_to_array,
)
from memgrid.topology import (
    HORIZONTAL,
    EdgeDescriptor,
    GridNetwork,
    NodeId,
    build_grid,
    canonical_labels,
    is_connected,
)
from oracles import (
    ReferenceStamper,
    exact_effective_resistance,
    max_kcl_residual,
    node_voltages,
    pinv_effective_resistance,
    same_bits,
    solve_with_current,
    without_banded_kernel,
)

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)


def single_edge_network():
    a, b = NodeId(0, 0), NodeId(0, 1)
    return GridNetwork(
        n=2,
        present=frozenset({a, b}),
        edges=(EdgeDescriptor(0, a, b, HORIZONTAL, Polarity.FORWARD, P),),
        source=a,
        ground=b,
        seed=0,
    )


def random_states(net, rng):
    return rng.uniform(2e3, 2e5, size=len(net.edges))


def solve_nodes(net, x, v_src):
    """Every present node's potential, and the source current, of one solve."""
    stamper = NodalStamper(net)
    padded, _, i_src = solve_with_current(stamper, np.asarray(x, dtype=float), v_src)
    return node_voltages(stamper, padded), i_src


# the fallback of a LAPACK without ``dpbsv`` stamps the same band
layouts = pytest.mark.parametrize("fallback", [False, True], ids=["dpbsv", "fallback"])


@layouts
def test_single_edge_free_system_is_empty(fallback, monkeypatch):
    if fallback:
        without_banded_kernel(monkeypatch)
    net = single_edge_network()
    stamper = NodalStamper(net)
    matrix, rhs = stamper.build_system(np.array([2000.0]), 1.0)
    assert stamper.kd == 0
    assert matrix.shape == (0, 1) and rhs.shape == (0,)
    voltages, i_src = solve_nodes(net, [2000.0], v_src=1.0)
    assert i_src == pytest.approx(5.0e-4)
    assert voltages[NodeId(0, 0)] == 1.0
    assert voltages[NodeId(0, 1)] == 0.0


@layouts
def test_full_4x4_has_14_free_nodes(fallback, monkeypatch):
    if fallback:
        without_banded_kernel(monkeypatch)
    net = build_grid(4, 0.0, 0.0, 0, P)
    stamper = NodalStamper(net)
    matrix, _ = stamper.build_system(np.full(24, 2e5), 1.0)
    assert stamper.kd == 4
    assert matrix.shape == (14, 5)
    assert len(stamper.index_map) == 14


def test_island_nodes_are_dropped_and_reported_at_zero():
    # remove the node bridging an appendage so (0,3),(1,3) become an island
    full = build_grid(4, 0.0, 0.0, 0, P)
    keep = frozenset(n for n in full.present if n not in {NodeId(2, 3), NodeId(0, 2), NodeId(1, 2)})
    edges = tuple(e for e in full.edges if e.node_a in keep and e.node_b in keep)
    net = canonical_labels(GridNetwork(n=4, present=keep, edges=edges,
                                       source=full.source, ground=full.ground, seed=0))
    # (0,3)-(1,3) survive only through each other: an island
    assert NodeId(0, 3) not in NodalStamper(net).index_map
    voltages, _ = solve_nodes(net, [1e4] * len(net.edges), v_src=2.0)
    assert voltages[NodeId(0, 3)] == 0.0
    assert voltages[NodeId(1, 3)] == 0.0
    assert max_kcl_residual(net, [1e4] * len(net.edges), voltages) <= 1e-9 * (2.0 / 1e4)


def test_solve_matches_ohm_on_two_by_two():
    # uniform 2x2 with terminals on adjacent corners: direct edge in parallel
    # with the three-edge path, R_eff = 0.75 R
    net = build_grid(2, 0.0, 0.0, 0, P, source=NodeId(0, 0), ground=NodeId(1, 0))
    r = 1.7e4
    assert effective_resistance(net, [r] * 4) == pytest.approx(0.75 * r, rel=1e-12)


def test_symmetric_network_voltage_symmetry():
    net = build_grid(4, 0.0, 0.0, 0, P)
    voltages, _ = solve_nodes(net, [5e4] * 24, v_src=3.0)
    # reflection r -> 3 - r swaps the terminals: v(r,c) + v(3-r,c) = v_src
    for r in range(4):
        for c in range(4):
            v1 = voltages[NodeId(r, c)]
            v2 = voltages[NodeId(3 - r, c)]
            assert v1 + v2 == pytest.approx(3.0, rel=1e-9)


def test_effective_resistance_examples():
    net = single_edge_network()
    assert effective_resistance(net, [2e5]) == pytest.approx(2e5)
    full = build_grid(4, 0.0, 0.0, 0, P)
    r = 2e5
    k = pinv_effective_resistance(full, [1.0] * 24)
    assert effective_resistance(full, [r] * 24) == pytest.approx(k * r, rel=1e-9)
    # linearity in a common scale factor
    a = effective_resistance(full, [r] * 24)
    b = effective_resistance(full, [10 * r] * 24)
    assert b == pytest.approx(10 * a, rel=1e-12)


def test_disconnected_reports_infinite_sentinel_and_assemble_raises():
    net = build_grid(4, 1.0, 0.0, 3, P)
    assert effective_resistance(net, []) == math.inf
    with pytest.raises(DisconnectedNetworkError):
        NodalStamper(net)


def test_states_to_array_rejects_bad_states():
    net = single_edge_network()
    assert effective_resistance(net, [4e4]) == pytest.approx(4e4)
    with pytest.raises(ValueError):
        states_to_array(net, [1.0, 2.0])
    with pytest.raises(ValueError):
        states_to_array(net, [-5.0])


def test_solver_against_pinv_oracle_on_random_small_networks():
    rng = np.random.default_rng(42)
    checked = 0
    seed = 0
    while checked < 50:
        n = 2 if seed % 2 == 0 else 3  # at most 9 nodes
        net = build_grid(n, 0.35, 0.5, seed, P)
        seed += 1
        if not is_connected(net):
            continue
        x = random_states(net, rng)
        expected = pinv_effective_resistance(net, x)
        assert effective_resistance(net, x) == pytest.approx(expected, rel=1e-9)
        voltages, _ = solve_nodes(net, x, v_src=1.0)
        scale = 1.0 / float(np.min(x))
        assert max_kcl_residual(net, x, voltages) <= 1e-9 * scale
        checked += 1


def test_reciprocity_and_linearity():
    rng = np.random.default_rng(7)
    net = build_grid(4, 0.2, 0.5, 21, P)
    assert is_connected(net)
    x = random_states(net, rng)
    forward = effective_resistance(net, x)
    swapped = replace(net, source=net.ground, ground=net.source)
    assert effective_resistance(swapped, x) == pytest.approx(forward, rel=1e-12)

    v1, i1 = solve_nodes(net, x, v_src=1.0)
    v2, i2 = solve_nodes(net, x, v_src=2.0)
    assert i2 == pytest.approx(2 * i1, rel=1e-12)
    for node, v in v1.items():
        assert v2[node] == pytest.approx(2 * v, rel=1e-12, abs=1e-15)


def test_rayleigh_monotonicity_against_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    seed = 100
    while checked < 20:
        net = build_grid(3, 0.3, 0.5, seed, P)
        seed += 1
        if not is_connected(net) or not net.edges:
            continue
        x = random_states(net, rng)
        base = effective_resistance(net, x)
        target = rng.integers(0, len(net.edges))
        lowered = x.copy()
        lowered[target] *= 0.5
        after = effective_resistance(net, lowered)
        assert after <= base * (1 + 1e-12)
        assert after == pytest.approx(pinv_effective_resistance(net, lowered), rel=1e-9)
        checked += 1


def test_stamper_reuse_matches_one_shot_assembly():
    net = build_grid(4, 0.0, 0.0, 0, P)
    stamper = NodalStamper(net)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = random_states(net, rng)
        _, _, i_src = solve_with_current(stamper, x, 1.0)
        assert 1.0 / i_src == pytest.approx(effective_resistance(net, x), rel=1e-14)


def distorted_lattice(n, seed=0):
    """The first connected lattice with 5% of nodes removed and 10% of the
    units inverted, drawn from ``seed`` upward."""
    while True:
        net = build_grid(n, 0.05, 0.1, seed, P)
        if is_connected(net):
            return net
        seed += 1


banded_kernel = pytest.mark.skipif(solver._band_cholesky() is None,
                                   reason="numpy's LAPACK exports no ILP64 dpbsv")


def band_to_dense(stamper, band):
    """The full symmetric matrix of one system stamped in LAPACK lower band
    storage: entry (r, c), r >= c, sits in column c at row r - c."""
    nf, kd = stamper.n_free, stamper.kd
    full = np.zeros((nf, nf))
    for d in range(kd + 1):
        i = np.arange(nf - d)
        full[i + d, i] = full[i, i + d] = band[i, d]
    return full


@banded_kernel
@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_banded_path_matches_dense_path_and_oracle(n, monkeypatch):
    net = distorted_lattice(n, seed=10 * n)
    x = random_states(net, np.random.default_rng(n))
    banded = NodalStamper(net)
    assert banded.banded and banded.kd <= n
    band_v, band_i = solve_nodes(net, x, v_src=1.0)
    without_banded_kernel(monkeypatch)
    dense = NodalStamper(net)
    assert not dense.banded
    dense_v, dense_i = solve_nodes(net, x, v_src=1.0)
    # both stamp the same band and right-hand side; only the factorization differs
    assert same_bits(banded.build_system(x, 1.0), dense.build_system(x, 1.0))
    assert band_i == pytest.approx(dense_i, rel=1e-12)
    nodes = sorted(dense_v)
    v_band = np.array([band_v[v] for v in nodes])
    v_dense = np.array([dense_v[v] for v in nodes])
    assert np.max(np.abs(v_band - v_dense)) <= 1e-12  # relative to v_src = 1 V
    assert 1.0 / band_i == pytest.approx(pinv_effective_resistance(net, x), rel=1e-9)
    assert max_kcl_residual(net, x, band_v) <= 1e-9 / float(np.min(x))


# lattice -> (network, batch rows): kd from 3 to 32, on either side of the
# 16-term dot products that OpenBLAS sums in SIMD lanes
BATCH_LATTICES = {
    "complete 3x3": (lambda: build_grid(3, 0.0, 0.0, 0, P), 2),
    "complete 4x4": (lambda: build_grid(4, 0.0, 0.0, 0, P), 5),
    "distorted 8x8": (lambda: distorted_lattice(8), 3),
    "distorted 16x16": (lambda: distorted_lattice(16), 5),
    "distorted 32x32": (lambda: distorted_lattice(32), 2),
}


@banded_kernel
@pytest.mark.parametrize("lattice", list(BATCH_LATTICES))
def test_banded_batch_rows_match_single_solves_bit_for_bit(lattice):
    """Every row of a batch, solved in one block-diagonal ``dpbsv`` call, is
    bit-identical to the same system solved alone, at every source voltage
    and chunk of them: the kd identity rows after the last system give every
    row of the band the same reach in the batch as alone."""
    build, rows = BATCH_LATTICES[lattice]
    net = build()
    stamper = NodalStamper(net)
    assert stamper.banded and 3 <= stamper.kd <= 32
    x = np.random.default_rng(5).uniform(2e3, 2e5, size=(rows, len(net.edges)))
    for v_src in EDGE_SOURCES + [CHUNK]:
        padded, v_m, i_src = solve_with_current(stamper, x, v_src)
        for row in range(rows):
            at_row = (padded[..., row, :], v_m[..., row, :],
                      i_src[..., row] if v_src is CHUNK else float(i_src[row]))
            assert same_bits(at_row, solve_with_current(stamper, x[row], v_src)), (v_src, row)


# lattice -> (network, whether it is solved on the band path): kd = 16 on the
# distorted 16x16 lattice, where its kd trailing rows keep a batch row's bits
READOUT_LATTICES = {
    "complete 4x4, banded": (lambda: build_grid(4, 0.0, 0.0, 0, P), True),
    "distorted 16x16, banded": (lambda: distorted_lattice(16), True),
    "complete 4x4, dense fallback": (lambda: build_grid(4, 0.0, 0.0, 0, P), False),
}


@pytest.mark.parametrize("lattice", [
    pytest.param(name, marks=banded_kernel) if banded else name
    for name, (_, banded) in READOUT_LATTICES.items()])
def test_stacked_readout_rows_match_one_state_readouts_bit_for_bit(lattice, monkeypatch):
    """``NodalStamper.resistance`` of a batch gives each row the bits of
    that row read alone, by ``effective_resistance`` and by ``resistance``
    of one state, and ``effective_resistance`` of a stack gives the same
    bits in the stack's leading shape, an empty one included."""
    build, banded = READOUT_LATTICES[lattice]
    if not banded:
        monkeypatch.setattr(solver, "_band_cholesky", lambda: None)
    net = build()
    stamper = NodalStamper(net)
    assert stamper.banded is banded
    assert stamper.kd == 16 or "16x16" not in lattice
    x = np.random.default_rng(11).uniform(2e3, 2e5, size=(6, len(net.edges)))
    r = stamper.resistance(x)
    assert r.shape == (6,)
    for row in range(6):
        assert same_bits(float(r[row]), effective_resistance(net, x[row])), row
        assert same_bits(r[row], stamper.resistance(x[row])), row
    assert same_bits(effective_resistance(net, x), r)
    assert same_bits(effective_resistance(net, x.reshape(2, 3, -1)), r.reshape(2, 3))
    assert same_bits(effective_resistance(net, x[:0]), r[:0])
    assert same_bits(effective_resistance(net, x.reshape(2, 3, -1)[:, :0]), r.reshape(2, 3)[:, :0])


@settings(max_examples=100, deadline=None)
@given(lattice=st.tuples(st.integers(2, 5), st.sampled_from([0.0, 0.1, 0.3, 0.5]),
                         st.integers(0, 50)),
       rows=st.integers(1, 6), spread=st.sampled_from([0.0, 2.0, 4.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_stacked_readout_matches_the_exact_readout_row_by_row(lattice, rows, spread, seed):
    """``effective_resistance`` of a (B, E) stack gives each row its exact
    two-terminal resistance, an elimination in rational numbers, to 1e-9
    relative, on connected lattices up to 5x5 with half their nodes erased,
    with states from 1e-3 to 1e11 ohms: each row at one level, or spread
    over two or four decades above it. The spread is capped by the
    readout's own limit: its error grows with the spread, to 1e-7 at ten
    decades and 3e-3 at fourteen. The exact side takes about 20 ms a row at
    5x5, so the lattices stop there."""
    n, p_r, seed = lattice
    net = build_grid(n, p_r, 0.0, seed, P)
    assume(is_connected(net))
    rng = np.random.default_rng(seed)
    low = rng.uniform(-3.0, 11.0 - spread, size=(rows, 1))
    x = 10.0 ** (low + rng.uniform(0.0, spread, size=(rows, len(net.edges))))
    r = effective_resistance(net, x)
    assert r.shape == (rows,)
    for row, states in enumerate(x):
        assert r[row] == pytest.approx(float(exact_effective_resistance(net, states)),
                                       rel=1e-9), row


def test_effective_resistance_of_one_state_is_a_float():
    net = build_grid(3, 0.0, 0.0, 0, P)
    assert type(effective_resistance(net, [1e4] * len(net.edges))) is float
    assert type(effective_resistance(net, np.full(len(net.edges), 1e4))) is float


def test_disconnected_readout_is_infinite_in_the_shape_of_the_states():
    net = build_grid(3, 0.4, 0.0, 0, P)
    assert not is_connected(net) and len(net.edges) == 4
    assert effective_resistance(net, [1e4] * 4) == math.inf
    stack = effective_resistance(net, np.full((2, 3, 4), 1e4))
    assert isinstance(stack, np.ndarray) and stack.shape == (2, 3)
    assert np.all(stack == math.inf)


def test_readout_rejects_states_of_the_wrong_edge_count():
    net = build_grid(4, 0.0, 0.0, 0, P)
    for shape in [(23,), (3, 25), (2, 3, 23), ()]:
        with pytest.raises(ValueError, match="expected 24 states"):
            effective_resistance(net, np.full(shape, 1e4))


@banded_kernel
def test_dense_fallback_reproduces_a_banded_16x16_run(monkeypatch):
    net = distorted_lattice(16)
    w = Waveform(amplitude=60.0, frequency=1.0, cycles=1)
    cfg = SimConfig(dt=1e-3, fit_window=0.5)
    runs = []
    for fallback in (False, True):
        if fallback:
            without_banded_kernel(monkeypatch)
        assert NodalStamper(net).banded is not fallback
        trace = simulate(net, w, cfg)
        runs.append((trace, remnant_series(trace, net, cfg)))
    (banded, band_points), (dense, dense_points) = runs
    assert np.any(banded.x[-1] != banded.x[0])  # devices switched along the way
    assert np.allclose(banded.x, dense.x, rtol=1e-12, atol=0.0)
    i_scale = float(np.max(np.abs(dense.i_src)))
    assert np.allclose(banded.i_src, dense.i_src, rtol=1e-12, atol=1e-12 * i_scale)
    assert len(band_points) == len(dense_points) == 3
    for b, d in zip(band_points, dense_points):
        assert b.n_samples == d.n_samples
        assert b.r_fit == pytest.approx(d.r_fit, rel=1e-12)
        assert b.r_thevenin == pytest.approx(d.r_thevenin, rel=1e-12)


@banded_kernel
def test_band_that_is_not_positive_definite_raises():
    net = distorted_lattice(8)
    stamper = NodalStamper(net)
    assert stamper.banded
    x = random_states(net, np.random.default_rng(2))
    x[::3] *= -1.0  # negative conductances make the reduced Laplacian indefinite
    with pytest.raises(SingularSystemError, match="not positive definite"):
        stamper.solve_raw(x, 1.0)
    # the same factorization failing under a chunk of source voltages
    with pytest.raises(SingularSystemError, match="not positive definite"):
        stamper.solve_raw(x, np.array([0.5, 1.0, 2.0]))


def indefinite_batch():
    """A stamper of a distorted 8x8 lattice and a 3-row batch of states on
    it of which only row 1 has negative conductances."""
    net = distorted_lattice(8)
    x = np.stack([random_states(net, np.random.default_rng(seed)) for seed in (2, 3, 4)])
    x[1, ::3] *= -1.0
    return NodalStamper(net), x


@banded_kernel
def test_a_failed_band_solve_names_its_batch_row():
    """One ``dpbsv`` call solves the whole batch, and its failing row of the
    block-diagonal band is mapped back to the batch row it belongs to."""
    stamper, x = indefinite_batch()
    assert stamper.banded
    for v_src in (1.0, np.array([0.5, 1.0, 2.0])):
        with pytest.raises(SingularSystemError, match="batch row 1 is not positive definite"):
            stamper.solve_raw(x, v_src)
    assert np.all(np.isfinite(stamper.solve_raw(x[::2], 1.0)[1]))


@banded_kernel
@pytest.mark.parametrize("states", ["(E,)", "(B, E)"])
def test_every_solve_makes_one_dpbsv_call(states, monkeypatch):
    """One ``dpbsv`` call per ``solve_raw``, whether it solves one system, a
    batch or a chunk of source voltages, on the lower band: N = B (nf + 2) +
    kd band rows, with one right-hand side of N rows per voltage."""
    dpbsv, threads = solver._band_cholesky()
    calls = []

    def counted(*args):
        calls.append((args[0], args[1].value, args[3].value, args[7].value))  # UPLO, N, NRHS, LDB
        return dpbsv(*args)

    monkeypatch.setattr(solver, "_band_cholesky", lambda: (counted, threads))
    net = build_grid(4, 0.0, 0.0, 0, P)
    stamper = NodalStamper(net)
    x = random_states(net, np.random.default_rng(1))
    if states == "(B, E)":
        x = np.stack([x, 2.0 * x, 0.5 * x])
    rows = len(x) if x.ndim == 2 else 1
    for v_src in (1.5, -0.0, CHUNK):
        before = len(calls)
        stamper.solve_raw(x, v_src)
        n = rows * (stamper.n_free + 2) + stamper.kd
        assert calls[before:] == [(b"L", n, CHUNK.size if v_src is CHUNK else 1, n)]


@pytest.mark.parametrize("states", ["(E,)", "(B, E)"])
def test_every_fallback_solve_makes_one_linalg_solve_call(states, monkeypatch):
    """Without ``dpbsv``, one ``np.linalg.solve`` call per ``solve_raw``,
    whether it solves one system, a batch or a chunk of source voltages: the
    B full matrices expanded from the band, broadcast over the right-hand
    sides of the K voltages, and no loop over systems or voltages."""
    without_banded_kernel(monkeypatch)
    linalg_solve, calls = np.linalg.solve, []

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return linalg_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    net = build_grid(4, 0.0, 0.0, 0, P)
    stamper = NodalStamper(net)
    x = random_states(net, np.random.default_rng(1))
    if states == "(B, E)":
        x = np.stack([x, 2.0 * x, 0.5 * x])
    nf, batch = stamper.n_free, x.shape[:-1]
    for v_src in (1.5, -0.0, CHUNK):
        before = len(calls)
        stamper.solve_raw(x, v_src)
        lead = (CHUNK.size,) if v_src is CHUNK else ()
        assert calls[before:] == [(batch + (nf, nf), lead + batch + (nf, 1))]


blas_threads = pytest.mark.skipif((solver._band_cholesky() or (None, None))[1] is None,
                                  reason="numpy's OpenBLAS exports no thread-count setter")


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test, its count restored after;
    yields the (getter, setter) pair."""
    get, put = solver._band_cholesky()[1]
    before = get()
    put(2)
    try:
        yield get, put
    finally:
        put(before)


@banded_kernel
@blas_threads
def test_banded_run_is_bit_identical_at_one_and_two_blas_threads(two_blas_threads, monkeypatch):
    """Every ``dpbsv`` call runs on one OpenBLAS thread, whatever count the
    process is set to, and a run gives the same bits at 1 and at 2."""
    get, put = two_blas_threads
    dpbsv, threads = solver._band_cholesky()
    seen = []

    def counted(*args):
        seen.append(get())
        return dpbsv(*args)

    monkeypatch.setattr(solver, "_band_cholesky", lambda: (counted, threads))
    net = distorted_lattice(12)
    w, cfg = Waveform(amplitude=44.0, frequency=1.0, cycles=1), SimConfig(dt=1e-3, fit_window=0.5)
    runs = []
    for count in (2, 1):
        put(count)
        trace = simulate(net, w, cfg)
        assert get() == count
        runs.append([trace.t, trace.v_src, trace.i_src, trace.v_m, trace.x])
    assert seen and set(seen) == {1}
    assert np.any(runs[0][4][-1] != runs[0][4][0])  # devices switched along the way
    assert same_bits(runs[0], runs[1])


@banded_kernel
@blas_threads
def test_blas_thread_count_is_restored_after_a_band_solve_and_a_failed_one(two_blas_threads):
    get, put = two_blas_threads
    net = distorted_lattice(8)
    stamper = NodalStamper(net)
    x = random_states(net, np.random.default_rng(2))
    for threads in (2, 1):
        put(threads)
        stamper.solve_raw(x, 1.0)
        stamper.solve_raw(np.stack([x, x]), np.array([0.5, 1.0]))
        assert get() == threads
        with pytest.raises(SingularSystemError, match="not positive definite"):
            stamper.solve_raw(-x, 1.0)
        assert get() == threads
    batch_stamper, batch = indefinite_batch()
    for threads in (2, 1):
        put(threads)
        for v_src in (1.0, np.array([0.5, 1.0, 2.0])):
            with pytest.raises(SingularSystemError, match="batch row 1 "):
                batch_stamper.solve_raw(batch, v_src)
            assert get() == threads


def test_singular_dense_system_raises(monkeypatch):
    """The dense counterpart of the banded check above: a free node whose
    every unit has infinite resistance leaves a zero row in the matrix."""
    without_banded_kernel(monkeypatch)
    net = build_grid(4, 0.0, 0.0, 0, P)
    stamper = NodalStamper(net)
    assert not stamper.banded
    x = np.full(len(net.edges), 2e5)
    x[[e.label for e in net.edges if NodeId(1, 1) in (e.node_a, e.node_b)]] = np.inf
    with pytest.raises(SingularSystemError, match="batch row 0 is singular"):
        stamper.solve_raw(x, 1.0)
    # one singular system in a batch, and under a chunk of source voltages,
    # named by its batch row as the banded path names it
    batch = np.stack([np.full(len(net.edges), 2e5), x, np.full(len(net.edges), 2e3)])
    with pytest.raises(SingularSystemError, match="batch row 1 is singular"):
        stamper.solve_raw(batch, 1.0)
    with pytest.raises(SingularSystemError, match="batch row 1 is singular"):
        stamper.solve_raw(batch, np.array([0.5, 1.0, 2.0]))
    assert np.all(np.isfinite(stamper.solve_raw(batch[::2], 1.0)[1]))


# Source voltages that reach every sign case: at 0 V every node sits at a
# signed zero, so inverted units read -1.0 * (+-0.0).
EDGE_SOURCES = [1.5, -2.0, 0.0, -0.0]
CHUNK = np.array([-3.0, -0.0, 0.0, 0.25, 12.0])


@pytest.mark.parametrize("case", ["4x4 fallback", "4x4 banded", "25-row batch",
                                  "banded, inverted units", "banded batch, inverted units",
                                  "one edge, no free nodes"])
def test_stamp_solve_and_read_back_match_the_verbatim_reference_bit_for_bit(case, monkeypatch):
    """The stamp, solve and read-back against their verbatim earlier form,
    single voltages and K-voltage chunks, with states at and between the
    bounds: every result equal in type, shape, value and zero sign. The
    reference solves each system of a batch alone; the 4x4 fallback case
    takes a LAPACK without ``dpbsv``, where the reference stamps the full
    matrix that the fallback expands from its band, and the one-edge
    lattice's band holds identity rows only."""
    fallback = case == "4x4 fallback"
    if fallback:
        without_banded_kernel(monkeypatch)
    net = (distorted_lattice(8) if "inverted" in case else
           single_edge_network() if case == "one edge, no free nodes" else
           build_grid(4, 0.0, 0.0, 0, P))
    stamper, reference = NodalStamper(net), ReferenceStamper(net)
    assert stamper.banded == reference.banded == (not fallback)
    assert ("inverted" in case) <= any(e.polarity < 0 for e in net.edges)
    rows = {"25-row batch": (25,), "banded batch, inverted units": (4,)}.get(case, ())
    rng = np.random.default_rng(7)
    x = rng.uniform(P.r_on, P.r_off, size=rows + (len(net.edges),))
    x.flat[::5], x.flat[1::7] = P.r_on, P.r_off
    for v_src in EDGE_SOURCES + [CHUNK, CHUNK.reshape((-1,) + (1,) * x.ndim)]:
        if stamper.n_free:  # the reference stamps no terms as integers
            matrix, rhs = stamper.build_system(x, v_src)
            if fallback:
                matrix = band_to_dense(stamper, matrix)
            assert same_bits((matrix, rhs), reference.build_system(x, v_src))
        assert same_bits(solve_with_current(stamper, x, v_src), reference.solve_raw(x, v_src))


def test_banded_path_is_active_on_openblas_ilp64():
    """A numpy whose LAPACK is an ILP64 OpenBLAS exports dpbsv; if its name
    moves, large lattices would fall back to the dense solve, several times
    slower, without any other test noticing."""
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    ilp64_openblas = ("openblas" in str(lapack.get("name", "")).lower()
                      and "USE64BITINT" in str(lapack.get("openblas configuration", "")))
    assert NodalStamper(distorted_lattice(16)).banded or not ilp64_openblas
