"""Acceptance suite: one test per criterion arm, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Two arms
are checked against quantities derived from the model rather than fixed
guesses:

* criterion 2, transition-time arm: the full R_OFF -> R_ON transition must
  complete within 2*dt of the closed-form switch time (5.19% of a semicycle
  after the threshold crossing for beta = 5e7, A = 2.0);
* criterion 6, dt-halving arm: remnants move by < 1% when dt is halved. The
  late high-resistance remnants sit next to RESET races between series
  devices; the engine's second-order step resolves them, where explicit Euler
  moved crossings 7 and 9 by 4.8% and 10.5% and sat 43% from the converged
  value.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from memgrid.device import DeviceParams, Polarity
from memgrid.engine import SimConfig, Waveform, simulate
from memgrid.experiments import (
    exceedance_sets,
    run_sensitization,
    run_single_device,
    run_uniform_array,
)
from memgrid.solver import NodalStamper, effective_resistance
from memgrid.spice import export_spice
from memgrid.topology import (
    HORIZONTAL,
    EdgeDescriptor,
    GridNetwork,
    NodeId,
    build_grid,
    is_connected,
)
from oracles import (
    max_kcl_residual,
    node_voltages,
    pinv_effective_resistance,
    semicycle_state_increment,
    threshold_drive_increment,
    threshold_switch_time,
)

REF = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
SPAN = REF.r_off - REF.r_on
GOLDEN = Path(__file__).parent / "data" / "golden_reference_netlist.cir"

# shared measurement settings for the sensitization rasters: the window must
# sit below the smallest sensitized threshold (0.06 V) and dt must keep at
# least two fit samples inside it
SENSE_CFG = SimConfig(dt=5e-4, record_stride=1, fit_window=0.048)
SENSE_WAVEFORM = Waveform(amplitude=12.0, frequency=1.0, cycles=5)


def report(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def reference_run():
    return run_uniform_array(4, REF, SENSE_WAVEFORM, SimConfig(dt=1e-3))


@pytest.fixture(scope="module")
def sense_results():
    results = {}
    t0 = time.perf_counter()
    results[10.0] = run_sensitization(REF, 0.06, 4, SENSE_WAVEFORM, SENSE_CFG, 0.01)
    results["raster_seconds"] = time.perf_counter() - t0
    results[5.0] = run_sensitization(REF, 0.12, 4, SENSE_WAVEFORM, SENSE_CFG, 0.01)
    results[1.2] = run_sensitization(REF, 0.5, 4, SENSE_WAVEFORM, SENSE_CFG, 0.01)
    return results


def test_criterion_1_single_device_amplitude_study():
    """Per-semicycle state increments match the closed-form integral at
    dt = 1e-4 within 0.5%; only A = 4.0 completes the switch."""
    cfg = SimConfig(dt=1e-4)
    t0 = time.perf_counter()
    worst = 0.0
    completed = {}
    for amplitude in (0.7, 1.0, 2.0, 4.0):
        run = run_single_device(REF, Waveform(amplitude=amplitude, cycles=1), cfg)
        half = run.trace.nearest_index(0.5)
        assert run.x[half] == REF.r_off  # RESET semicycle blocked at the bound
        dx_set = abs(float(run.x[-1] - run.x[half]))
        expected = min(semicycle_state_increment(amplitude, REF.v_t, REF.beta, 1.0), SPAN)
        worst = max(worst, abs(dx_set - expected) / expected)
        completed[amplitude] = float(run.x[-1]) == REF.r_on
    elapsed = time.perf_counter() - t0

    oracle_4 = semicycle_state_increment(4.0, REF.v_t, REF.beta, 1.0)
    oracle_2 = semicycle_state_increment(2.0, REF.v_t, REF.beta, 1.0)
    report("1a", worst <= 5e-3,
           f"worst semicycle-increment deviation from oracle {worst:.2e} (tol 5e-3)")
    report("1b", completed == {0.7: False, 1.0: False, 2.0: False, 4.0: True},
           f"complete switch only at A=4.0: {completed}")
    report("1c", oracle_4 >= SPAN > oracle_2
           and abs(oracle_4 - 4.94e5) / 4.94e5 < 0.01
           and abs(oracle_2 - 1.83e5) / 1.83e5 < 0.01,
           f"oracle dX(4.0)={oracle_4:.3e} >= span {SPAN:.3e} > dX(2.0)={oracle_2:.3e}")
    report("1d", elapsed < 1.0, f"runtime {elapsed:.2f}s (< 1 s)")


def test_criterion_2_threshold_regime_full_ratio():
    t0 = time.perf_counter()
    fast = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e7, r_init=2e5)
    run = run_single_device(fast, Waveform(amplitude=2.0, cycles=1), SimConfig(dt=1e-4))
    elapsed = time.perf_counter() - t0
    r_eff = float(np.max(run.x) / np.min(run.x))
    report("2b", abs(r_eff - 100.0) < 1e-6,
           f"state-voltage loop spans the full programmed ratio, r_eff={r_eff:.6f}")
    report("2c", elapsed < 1.0, f"runtime {elapsed:.2f}s (< 1 s)")


def test_criterion_2_threshold_regime_transition_time():
    """The R_OFF -> R_ON transition starts at the first |V| = V_t crossing of
    the SET semicycle and completes when the closed-form switch time says.

    No state moves before the crossing. Integrating beta*(|V| - V_t) from the
    crossing gives the full 1.98e5 ohm span after tau = 25.96 ms, 5.19% of
    the 0.5 s semicycle, for beta = 5e7, A = 2.0. An earlier target of 2% of
    a semicycle contradicted this rate law and had no source. The first sample
    at r_on must lie within 2*dt of the crossing plus tau (the simulation hits
    it within about 0.5*dt at dt = 1e-4 and 1e-3).
    """
    fast = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e7, r_init=2e5)
    amplitude, dt, semicycle = 2.0, 1e-4, 0.5
    tau = threshold_switch_time(amplitude, fast.v_t, fast.beta, 1.0, SPAN)
    # the oracle's increment over the whole supra-threshold part is the
    # semicycle integral, and the switch takes about 5.19% of a semicycle
    supra = semicycle - 2.0 * math.asin(fast.v_t / amplitude) / (2 * math.pi)
    assert threshold_drive_increment(amplitude, fast.v_t, fast.beta, 1.0, supra) == \
        pytest.approx(semicycle_state_increment(amplitude, fast.v_t, fast.beta, 1.0), rel=1e-12)
    assert tau / semicycle == pytest.approx(0.0519, abs=5e-4)

    run = run_single_device(fast, Waveform(amplitude=amplitude, cycles=1), SimConfig(dt=dt))
    # SET starts at the first |V| = V_t crossing of the negative semicycle
    t_cross = semicycle + math.asin(fast.v_t / amplitude) / (2 * math.pi)
    parked = bool(np.all(run.x[run.trace.t <= t_cross] == fast.r_off))
    done = np.nonzero(run.x <= fast.r_on)[0]
    assert len(done), "switch never completed"
    t_done = float(run.trace.t[done[0]])
    miss = abs(t_done - (t_cross + tau))
    report("2a", parked and miss <= 2 * dt,
           f"x stays at r_off up to the threshold crossing: {parked}; transition "
           f"completes {(t_done - t_cross) / semicycle * 100:.2f}% of a semicycle after "
           f"it, {miss / dt:.2f} dt from the closed-form "
           f"{tau / semicycle * 100:.2f}% (tol 2 dt)")


def test_criterion_3_solver_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    worst_rel = 0.0
    worst_kcl = 0.0
    while checked < 50:
        n = 2 if seed % 2 == 0 else 3
        net = build_grid(n, 0.35, 0.5, seed, REF)
        seed += 1
        if not is_connected(net):
            continue
        x = rng.uniform(2e3, 2e5, size=len(net.edges))
        expected = pinv_effective_resistance(net, x)
        got = effective_resistance(net, x)
        worst_rel = max(worst_rel, abs(got - expected) / expected)
        stamper = NodalStamper(net)
        voltages = node_voltages(stamper, stamper.solve_raw(x, 1.0)[0])
        scale = 1.0 / float(np.min(x))
        worst_kcl = max(worst_kcl, max_kcl_residual(net, x, voltages) / scale)
        checked += 1
    elapsed = time.perf_counter() - t0
    report("3a", worst_rel <= 1e-9,
           f"50 random networks: worst oracle deviation {worst_rel:.2e} (tol 1e-9)")
    report("3b", worst_kcl <= 1e-9,
           f"worst scaled KCL residual {worst_kcl:.2e} (tol 1e-9)")
    report("3c", elapsed < 5.0, f"runtime {elapsed:.2f}s (< 5 s)")


def test_criterion_4_uniform_reference_run():
    t0 = time.perf_counter()
    run = run_uniform_array(4, REF, SENSE_WAVEFORM, SimConfig(dt=1e-3))
    elapsed = time.perf_counter() - t0
    points = run.remnants
    r = [p.r_fit for p in points]

    k = pinv_effective_resistance(run.network, [1.0] * 24)
    report("4a", abs(r[0] - k * REF.r_off) / (k * REF.r_off) <= 5e-3,
           f"initial remnant {r[0]:.6g} vs pseudoinverse oracle {k * REF.r_off:.6g}")

    # the SET-direction semicycle is the source-negative one, ending at the
    # second crossing
    report("4b", r[2] < r[0],
           f"remnant after the first SET-direction semicycle {r[2]:.6g} < initial {r[0]:.6g}")

    never_recovered = all(rv < r[0] for rv in r[1:])
    highs = [r[i] for i in (1, 3, 5, 7, 9)]
    gaps = [abs(a - b) / a for a, b in zip(highs, highs[1:])]
    report("4c", never_recovered and all(g > 1e-3 for g in gaps),
           f"initial value never recovered; successive high-resistance remnants "
           f"differ by {['%.2e' % g for g in gaps]} (> 1e-3)")

    fit_thev = max(abs(p.r_fit - p.r_thevenin) / p.r_thevenin for p in points[1:])
    report("4d", fit_thev <= 1e-3,
           f"worst fit-vs-Thevenin deviation {fit_thev:.2e} (tol 1e-3)")
    report("4e", elapsed < 10.0, f"runtime {elapsed:.2f}s (< 10 s)")


def max_relative_deviation(res) -> float:
    """The largest |r_fit - baseline r_fit| / baseline r_fit over a raster's
    cells."""
    base = np.array([p.r_fit for p in res.baseline.remnants])
    return float(np.max(np.abs(res.matrix - base) / base))


def test_criterion_5_sensitization_raster(sense_results):
    res = sense_results[10.0]
    base = np.array([p.r_fit for p in res.baseline.remnants])

    report("5a", bool(np.all(res.matrix[:, 0] == base[0])),
           "initial condition identical across all 24 sensitized runs")

    flagged_first = [int(l) for l in np.nonzero(res.flags[:, 1])[0]]
    labels_first = [res.labels[i] for i in flagged_first]
    report("5b", len(labels_first) == 2,
           f"exactly 2 units distort the remnant after the first RESET-direction "
           f"semicycle at the 1% threshold: labels {labels_first}")

    exceed = exceedance_sets(res.baseline.trace, res.v_t_s)
    ok_subset = True
    for c in range(1, res.matrix.shape[1]):
        allowed = set().union(*exceed[:c])
        flagged = {res.labels[i] for i in np.nonzero(res.flags[:, c])[0]}
        if not flagged <= allowed:
            ok_subset = False
    report("5c", ok_subset,
           "flagged sets are subsets of the uniform-run exceedance sets at v_t_s")

    dev = {ratio: max_relative_deviation(sense_results[ratio]) for ratio in (1.2, 5.0, 10.0)}
    report("5d", dev[10.0] > dev[5.0] >= dev[1.2],
           f"max relative deviation grows with v_t/v_t_s: "
           f"{dev[1.2]:.6f} (1.2) <= {dev[5.0]:.6f} (5) < {dev[10.0]:.6f} (10)")

    report("5e", sense_results["raster_seconds"] < 120.0,
           f"24-run raster in {sense_results['raster_seconds']:.1f}s, "
           "one batch of 25 (baseline + 24) (< 2 min)")


def _one_edge_network():
    a, b = NodeId(0, 0), NodeId(0, 1)
    return GridNetwork(
        n=2, present=frozenset({a, b}),
        edges=(EdgeDescriptor(0, a, b, HORIZONTAL, Polarity.FORWARD, REF),),
        source=a, ground=b, seed=0,
    )


def test_criterion_6_reduction_and_determinism():
    w = Waveform(amplitude=2.0, cycles=1)
    cfg = SimConfig(dt=1e-3)
    array_trace = simulate(_one_edge_network(), w, cfg)
    device_trace = run_single_device(REF, w, cfg).trace
    bit_equal = all(
        np.array_equal(getattr(array_trace, f), getattr(device_trace, f))
        for f in ("t", "v_src", "i_src", "v_m", "x")
    )
    report("6a", bit_equal, "one-edge array trace equals the standalone device trace bit for bit")

    net1 = build_grid(4, 0.3, 0.5, 17, REF)
    net2 = build_grid(4, 0.3, 0.5, 17, REF)
    assert is_connected(net1)
    tr1 = simulate(net1, w, cfg)
    tr2 = simulate(net2, w, cfg)
    same = net1 == net2 and all(
        np.array_equal(getattr(tr1, f), getattr(tr2, f))
        for f in ("t", "v_src", "i_src", "v_m", "x")
    )
    report("6b", same, "fixed seed reproduces the network and its trace bit for bit")


def test_criterion_6_dt_refinement():
    """Target: halving dt changes every remnant value by < 1% at the default
    dt = 1e-3.

    The high-resistance remnants of the late cycles follow RESET races
    between the two units next to the source (labels 0 and 3). With explicit
    Euler, whose device voltages lag the states by one step, the winner
    depended on dt: remnant 7 read 239.5, 228.0, 177.5, 170.6, 168.8, 167.9,
    167.5 kOhm and remnant 9 read 138.6, 153.1, 173.2, 149.9, 136.8, 136.4,
    136.3 kOhm for dt = 1e-3 halved down to 1.5625e-5. Heun and the
    restarted Adams-Bashforth 2 step both converge to about 167.0 and
    136.2 kOhm; the engine uses the latter, which keeps one network solve per
    step.
    """
    coarse = run_uniform_array(4, REF, SENSE_WAVEFORM, SimConfig(dt=1e-3))
    fine = run_uniform_array(4, REF, SENSE_WAVEFORM, SimConfig(dt=5e-4))
    r_coarse = np.array([p.r_fit for p in coarse.remnants])
    r_fine = np.array([p.r_fit for p in fine.remnants])
    rel = np.abs(r_fine - r_coarse) / r_coarse
    worst = float(np.max(rel))
    report("6c", worst < 0.01,
           f"dt halving moves remnants by up to {worst * 100:.1f}% "
           f"(target 1%; per-crossing: {['%.4f' % v for v in rel]})")


def test_criterion_7_netlist_golden_file():
    net = build_grid(4, 0.0, 0.0, 0, REF)
    text = export_spice(net, SENSE_WAVEFORM, dt=1e-3)
    golden = GOLDEN.read_text()
    report("7a", text == golden, "reference netlist matches the frozen golden file byte for byte")
    count = sum(1 for line in text.splitlines() if line.startswith("X"))
    report("7b", count == 24, f"netlist instantiates {count} units")
