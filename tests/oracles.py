"""Independent oracles used to verify the simulator.

These deliberately avoid the package's solver and engine code paths: the
effective resistance comes from a full-Laplacian pseudoinverse, the semicycle
state increment and the threshold-regime switch time from closed-form
integrals, and the series-chain reference from a plain-Python integrator.
"""

import math

import numpy as np


def pinv_effective_resistance(network, x) -> float:
    """Two-terminal resistance via the Moore-Penrose pseudoinverse of the full
    (unreduced) graph Laplacian over the present nodes."""
    nodes = sorted(network.present)
    index = {node: i for i, node in enumerate(nodes)}
    lap = np.zeros((len(nodes), len(nodes)))
    for e, xe in zip(network.edges, np.asarray(x, dtype=float)):
        ia, ib = index[e.node_a], index[e.node_b]
        g = 1.0 / xe
        lap[ia, ia] += g
        lap[ib, ib] += g
        lap[ia, ib] -= g
        lap[ib, ia] -= g
    lp = np.linalg.pinv(lap)
    s, g_ = index[network.source], index[network.ground]
    return float(lp[s, s] - 2.0 * lp[s, g_] + lp[g_, g_])


def semicycle_state_increment(amplitude: float, v_t: float, beta: float,
                              frequency: float) -> float:
    """Closed-form |dX| over one semicycle of A*sin(2*pi*f*t) for a device far
    from both bounds: integral of beta*(|v| - v_t) over the supra-threshold
    portion of the half period."""
    if amplitude <= v_t:
        return 0.0
    omega = 2.0 * math.pi * frequency
    t1 = math.asin(v_t / amplitude) / omega
    half = 0.5 / frequency
    return beta * ((2.0 * amplitude / omega) * math.cos(math.asin(v_t / amplitude))
                   - v_t * (half - 2.0 * t1))


def threshold_drive_increment(amplitude: float, v_t: float, beta: float,
                              frequency: float, tau: float) -> float:
    """Closed-form |dX| accumulated during the first ``tau`` seconds after the
    |v| = v_t crossing of a semicycle of A*sin(2*pi*f*t), for a device far from
    both bounds: beta times the integral of (|v| - v_t) from the crossing."""
    omega = 2.0 * math.pi * frequency
    s1 = math.asin(v_t / amplitude) / omega
    return beta * ((amplitude / omega) * (math.cos(omega * s1) - math.cos(omega * (s1 + tau)))
                   - v_t * tau)


def threshold_switch_time(amplitude: float, v_t: float, beta: float,
                          frequency: float, span: float) -> float:
    """Time from the |v| = v_t crossing of a semicycle until the closed-form
    increment reaches ``span`` (a full bound-to-bound switch).

    The increment grows monotonically over the supra-threshold part of the
    semicycle, so plain bisection on it finds the time. Raises ValueError when
    the semicycle cannot deliver ``span``.
    """
    if amplitude <= v_t:
        raise ValueError(f"amplitude {amplitude} does not exceed v_t {v_t}")
    omega = 2.0 * math.pi * frequency
    lo, hi = 0.0, 0.5 / frequency - 2.0 * math.asin(v_t / amplitude) / omega
    if threshold_drive_increment(amplitude, v_t, beta, frequency, hi) < span:
        raise ValueError(f"a semicycle moves the state by less than {span}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if threshold_drive_increment(amplitude, v_t, beta, frequency, mid) < span:
            lo = mid
        else:
            hi = mid
    return hi


def chain_reference_trace(resist_init, params_list, amplitude, frequency, cycles, dt):
    """Plain-Python integration of devices in a series chain driven by a sine
    source; every device carries the source current and sees a voltage share
    proportional to its resistance.

    Each device takes the restarted Adams-Bashforth 2 step: with its rate
    nonzero and of the same sign as on the previous step, and with
    3/2*rate - 1/2*previous rate of that sign too, the increment is
    dt*(3/2*rate - 1/2*previous rate); otherwise it is the Euler increment
    dt*rate. The dead band is evaluated piecewise, so a sub-threshold voltage
    gives an exactly zero rate.

    Returns (t, v_src, i_src, v_m, x) lists; x is recorded before each step,
    mirroring the engine's sampling convention.
    """
    x = [float(v) for v in resist_init]
    prev = [0.0] * len(x)
    n_steps = round(cycles / frequency / dt)
    ts, vs, cur, vms, xs = [], [], [], [], []
    for k in range(n_steps + 1):
        t = k * dt
        v = amplitude * math.sin(2.0 * math.pi * frequency * t)
        total = sum(x)
        i = v / total
        vm = [i * xj for xj in x]
        ts.append(t)
        vs.append(v)
        cur.append(i)
        vms.append(list(vm))
        xs.append(list(x))
        for j, p in enumerate(params_list):
            if vm[j] > p.v_t:
                drive = vm[j] - p.v_t
            elif vm[j] < -p.v_t:
                drive = vm[j] + p.v_t
            else:
                drive = 0.0
            gate = 1.0 if ((vm[j] > 0 and x[j] < p.r_off) or (vm[j] < 0 and x[j] > p.r_on)) else 0.0
            rate = p.beta * drive * gate
            ab2 = 1.5 * rate - 0.5 * prev[j]
            slope = ab2 if rate * prev[j] > 0 and rate * ab2 > 0 else rate
            x[j] = min(max(x[j] + slope * dt, p.r_on), p.r_off)
            prev[j] = rate
    return ts, vs, cur, vms, xs
