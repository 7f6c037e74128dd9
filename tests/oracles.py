"""Independent oracles and references used to verify the simulator.

The oracles deliberately avoid the package's solver and engine code paths:
the effective resistance comes from a full-Laplacian pseudoinverse, the KCL
residual from summing each edge's Ohmic current into its endpoints, the
semicycle state increment and the threshold-regime switch time from
closed-form integrals, the series-chain reference from a plain-Python
integrator, and the reference trace CSV from ``csv.writer`` cell by cell.

Two references reuse package code on purpose: ``stepwise_run`` is the engine
loop without its frozen-stretch lookahead, one solve and one device step per
time step, and ``sensitized_network`` builds, one network per label, what the
batched raster steps as rows.
"""

import csv
import math
from dataclasses import replace

import numpy as np

from memgrid.device import step_resistance
from memgrid.engine import waveform_sample


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


def max_kcl_residual(network, states, voltages: dict) -> float:
    """Largest absolute current imbalance over the free nodes; ``voltages``
    maps each node to its potential, as ``NodalStamper.node_voltages`` gives."""
    residual = {node: 0.0 for node in network.present}
    for e, xe in zip(network.edges, np.asarray(states, dtype=float)):
        flow = (voltages[e.node_a] - voltages[e.node_b]) / xe
        residual[e.node_a] -= flow
        residual[e.node_b] += flow
    free = set(network.present) - {network.source, network.ground}
    return max((abs(residual[node]) for node in free), default=0.0)


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


def stepwise_run(x, params, solve, w, cfg, row=None):
    """The engine loop as a plain per-step march, with the arguments and
    results of ``engine._run``: every step samples the stimulus, solves at
    the current states, records every ``record_stride``-th and the last
    step, then takes the package's own ``step_resistance``. Nothing is
    solved ahead, so each call to ``solve`` gets one source voltage."""
    n_steps = round(w.duration / cfg.dt)
    rate = 0.0 * x
    samples = []
    for k in range(n_steps + 1):
        t = k * cfg.dt
        v = waveform_sample(w, t)
        v_m, i_src = solve(x, v)
        if k % cfg.record_stride == 0 or k == n_steps:
            samples.append((t, v, v_m, i_src, x) if row is None
                           else (t, v, v_m[row], i_src, x[row]))
        x, rate = step_resistance(x, v_m, cfg.dt, params, rate)
    return [np.array(column, dtype=float) for column in zip(*samples)]


def sensitized_network(network, label: int, v_t_s: float):
    """Copy of the network with one unit's threshold replaced by v_t_s."""
    if all(e.label != label for e in network.edges):
        raise ValueError(f"no edge with label {label}")
    edges = tuple(
        replace(e, params=replace(e.params, v_t=v_t_s)) if e.label == label else e
        for e in network.edges
    )
    return replace(network, edges=edges)


def csv_writer_trace(trace, path) -> None:
    """Reference trace writer: one ``csv.writer`` row per sample, each cell
    ``repr(float(value))``, columns t, v_src, i_src, then v_m and x per label."""
    header = ["t", "v_src", "i_src"]
    for label in range(trace.x.shape[1]):
        header += [f"v_m[{label}]", f"x[{label}]"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(trace.t)):
            row = [repr(float(trace.t[k])), repr(float(trace.v_src[k])),
                   repr(float(trace.i_src[k]))]
            for e in range(trace.x.shape[1]):
                row.append(repr(float(trace.v_m[k, e])))
                row.append(repr(float(trace.x[k, e])))
            writer.writerow(row)
