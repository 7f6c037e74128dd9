import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memgrid.device import (
    DeviceParams,
    Polarity,
    clipped_drive,
    state_rate,
    step_resistance,
)
from memgrid.engine import SimConfig, Waveform
from memgrid.experiments import run_single_device
from oracles import semicycle_state_increment

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)


def euler_step(x, v_m, dt, p):
    """One explicit Euler step: the restarted AB2 step with no previous rate."""
    return step_resistance(x, v_m, dt, p, 0.0)[0]


def test_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(r_on=0, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
    with pytest.raises(ValueError):
        DeviceParams(r_on=2e5, r_off=2e3, v_t=0.6, beta=5e5, r_init=2e4)
    with pytest.raises(ValueError):
        DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=1e3)
    with pytest.raises(ValueError):
        DeviceParams(r_on=2e3, r_off=2e5, v_t=-0.1, beta=5e5, r_init=2e5)
    with pytest.raises(ValueError):
        DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=0, r_init=2e5)
    assert P.ratio == 100.0


def test_polarity_signs():
    assert int(Polarity.FORWARD) == 1
    assert int(Polarity.INVERTED) == -1


def test_clipped_drive_examples():
    assert clipped_drive(0.3, 0.6) == 0.0
    assert clipped_drive(1.0, 0.6) == pytest.approx(0.4, abs=1e-15)
    assert clipped_drive(-1.0, 0.6) == pytest.approx(-0.4, abs=1e-15)
    # exactly at threshold: closed dead band
    assert clipped_drive(0.6, 0.6) == 0.0
    assert clipped_drive(-0.6, 0.6) == 0.0


@given(v=st.floats(-50, 50), vt=st.floats(0, 10))
def test_clipped_drive_is_odd_and_dead(v, vt):
    assert clipped_drive(-v, vt) == pytest.approx(-clipped_drive(v, vt), abs=1e-12)
    if abs(v) <= vt:
        assert clipped_drive(v, vt) == pytest.approx(0.0, abs=1e-12)
    else:
        expected = v - vt if v > 0 else v + vt
        assert clipped_drive(v, vt) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_state_rate_examples():
    # RESET blocked at the upper bound
    assert state_rate(2e5, 1.0, P) == 0.0
    # SET blocked at the lower bound
    assert state_rate(2e3, -1.0, P) == 0.0
    # mid-range RESET: 5e5 * (1.0 - 0.6)
    assert state_rate(1e5, 1.0, P) == pytest.approx(2.0e5, rel=1e-12)


def test_advance_examples():
    assert euler_step(1e5, v_m=1.0, dt=1e-3, p=P) == pytest.approx(100200.0, rel=1e-12)

    fast = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e7, r_init=2e5)
    assert euler_step(199900.0, v_m=4.0, dt=1e-3, p=fast) == 2e5  # clamp absorbs the overshoot

    assert euler_step(12345.0, v_m=0.0, dt=1e-3, p=P) == 12345.0


def test_current_examples():
    # a lone device sampled at t = 0, 1, 2, 3 s of a 0.25 Hz, 2 V sine: it
    # starts at r_on, and the +2 V sample RESETs it to r_off in one 1 s step
    p = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e3)
    run = run_single_device(p, Waveform(amplitude=2.0, frequency=0.25, cycles=1), SimConfig(dt=1.0))
    assert np.array_equal(run.i, run.v / run.x)  # Ohmic at the recorded state
    assert run.v[0] == run.i[0] == 0.0
    assert run.x[1] == 2e3 and run.i[1] == pytest.approx(1.0e-3)
    assert run.x[3] == 2e5 and run.i[3] == pytest.approx(-1.0e-5)


@settings(max_examples=200, deadline=None)
@given(
    x0=st.floats(2e3, 2e5),
    vms=st.lists(st.floats(-20, 20), min_size=1, max_size=50),
)
def test_bounds_preserved_for_any_voltage_sequence(x0, vms):
    x = x0
    for vm in vms:
        x = euler_step(x, vm, 1e-3, P)
        assert P.r_on <= x <= P.r_off


@settings(max_examples=100, deadline=None)
@given(
    x0=st.floats(2e3, 2e5),
    vms=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=30),
)
def test_threshold_deadband(x0, vms):
    x = x0
    for vm in vms:
        x = euler_step(x, vm, 1e-3, P)
    assert x == x0


def _euler_steps(x0, vms):
    x = x0
    for vm in vms:
        x = euler_step(x, vm, 1e-3, P)
        yield x


def _ab2_steps(x0, vms):
    x, rate = np.float64(x0), np.float64(0.0)
    for vm in vms:
        x, rate = step_resistance(x, vm, 1e-3, P, rate)
        yield x


@settings(max_examples=100, deadline=None)
@given(
    x0=st.floats(2e3, 2e5),
    vms=st.lists(st.floats(0, 20), min_size=1, max_size=30),
)
def test_direction_law(x0, vms):
    # A positive voltage never lowers x and a negative one never raises it,
    # for the Euler step and for the restarted AB2 step (rate threaded
    # through the sequence). The ID stays unparametrized: both steps run on
    # every drawn sequence.
    for steps in (_euler_steps, _ab2_steps):
        xs = [x0, *steps(x0, vms)]
        assert all(b >= a for a, b in zip(xs, xs[1:])), steps.__name__
        xs = [x0, *steps(x0, [-vm for vm in vms])]
        assert all(b <= a for a, b in zip(xs, xs[1:])), steps.__name__


def _euler_semicycle_dx(amplitude, beta, dt, x0):
    """Euler increment over the positive semicycle of a 1 Hz sine."""
    p = DeviceParams(r_on=2e3, r_off=2e6, v_t=0.6, beta=beta, r_init=x0)
    x = np.float64(x0)
    n = round(0.5 / dt)
    for k in range(n):
        v = amplitude * np.sin(2 * np.pi * (k * dt))
        x = euler_step(x, v, dt, p)
    return float(x - x0)


def test_semicycle_increment_matches_closed_form():
    # x far from both bounds; RESET semicycle of A*sin(2*pi*t)
    oracle = semicycle_state_increment(1.0, 0.6, 5e5, 1.0)
    assert oracle == pytest.approx(3.88e4, rel=5e-3)  # sanity anchor
    dx = _euler_semicycle_dx(amplitude=1.0, beta=5e5, dt=1e-4, x0=1e5)
    assert dx == pytest.approx(oracle, rel=5e-3)


def test_euler_convergence_is_first_order():
    oracle = semicycle_state_increment(1.0, 0.6, 5e5, 1.0)
    dts = (8e-4, 4e-4, 2e-4, 1e-4)
    err = [abs(_euler_semicycle_dx(1.0, 5e5, dt, 1e5) - oracle) for dt in dts]
    # deviation from the dt->0 limit shrinks monotonically and at least as
    # fast as first order over the ladder (per-halving ratios are noisy
    # because the threshold-crossing instants move relative to the grid)
    assert err[1] < err[0] and err[2] < err[1] and err[3] < err[2]
    assert err[3] <= err[0] / 8.0
    assert all(e <= 500.0 * dt for e, dt in zip(err, dts))
