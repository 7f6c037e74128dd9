"""Independent oracles and references used to verify the simulator.

The oracles deliberately avoid the package's solver and engine code paths:
the effective resistance comes from a full-Laplacian pseudoinverse, the KCL
residual from summing each edge's Ohmic current into its endpoints, the
semicycle state increment and the threshold-regime switch time from
closed-form integrals, the series-chain reference from a plain-Python
integrator, and the reference trace CSV from ``csv.writer`` cell by cell.

Two references reuse package code on purpose: ``stepwise_run`` is the engine
loop without its frozen-stretch lookahead, one solve (for lone devices, their
gains times the source voltage) and one whole device step per time step, and ``sensitized_network`` builds, one network per label, what the
batched raster steps as rows.

Because ``stepwise_run`` calls the package's own solve and device step, it
cannot see a change to their arithmetic. ``ReferenceStamper`` and
``reference_step_resistance`` pin that arithmetic: they are the stamp, solve,
read-back and device step as they stood before the per-step calls were
trimmed, kept verbatim, and the trimmed code must match them bit for bit,
zero signs included. ``ReferenceStamper`` looks up its own band routines,
``dpbtrf`` then ``dpbtrs``, and calls them system by system, so it also
checks the package's one block-diagonal ``dpbsv`` call against the pair that
routine is made of. ``without_banded_kernel`` sends both stampers down the
fallback of a LAPACK without ``dpbsv``, where the reference stamps the full
matrix that the package writes out of its band.
"""

import csv
import ctypes
import functools
import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from memgrid import solver
from memgrid.device import DeviceParams, step_resistance
from memgrid.engine import waveform_sample
from memgrid.measure import Crossing
from memgrid.solver import (
    _GND,
    _SRC,
    DisconnectedNetworkError,
    SingularSystemError,
)
from memgrid.topology import GridNetwork, NodeId, reachable_from


@functools.cache
def reference_band_routines():
    """LAPACK's banded Cholesky factorization ``dpbtrf`` and the triangular
    solves ``dpbtrs`` that reuse its factor, the pair that ``dpbsv`` calls,
    from the library numpy's linalg extension links, or None when it does
    not export ILP64 builds of both. This is the solver's own lookup as it
    stood before it took ``dpbsv``, kept so that ``ReferenceStamper`` solves
    with the pair: numpy >= 2 wheels export ``scipy_dpbtrf_64_``, numpy 1.x
    wheels ``dpbtrf_64_``."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    int_p = ctypes.POINTER(ctypes.c_int64)
    for scheme in ("scipy_{}_64_", "{}_64_"):
        trf = getattr(lib, scheme.format("dpbtrf"), None)
        trs = getattr(lib, scheme.format("dpbtrs"), None)
        if trf is not None and trs is not None:
            # uplo, n, kd, ab, ldab, info, len(uplo)
            trf.argtypes = [ctypes.c_char_p, int_p, int_p, ctypes.c_void_p, int_p, int_p,
                            ctypes.c_size_t]
            # uplo, n, kd, nrhs, ab, ldab, b, ldb, info, len(uplo)
            trs.argtypes = [ctypes.c_char_p, int_p, int_p, int_p, ctypes.c_void_p, int_p,
                            ctypes.c_void_p, int_p, int_p, ctypes.c_size_t]
            trf.restype = trs.restype = None
            return trf, trs
    return None


def without_banded_kernel(monkeypatch):
    """``NodalStamper`` and ``ReferenceStamper`` built from here on find no
    band routines: the LU fallback, as on a LAPACK without ``dpbsv``."""
    monkeypatch.setattr(solver, "_band_cholesky", lambda: None)
    monkeypatch.setattr(sys.modules[__name__], "reference_band_routines", lambda: None)


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


def node_voltages(stamper, padded) -> dict:
    """Each present node's potential in a padded solution vector [free
    nodes..., 0 V ground, v_src] of ``stamper.solve_raw``; a node off the
    terminals' component reads the ground pad, 0 V."""
    network, nf = stamper.network, stamper.n_free
    index = {network.source: nf + 1, **stamper.index_map}
    return {node: float(padded[index.get(node, nf)]) for node in sorted(network.present)}


def solve_with_current(stamper, x, v_src):
    """``stamper.solve_raw`` with the source current of its solution, from
    ``stamper.source_current``: (padded, v_m, i_src), the form of
    ``ReferenceStamper.solve_raw``, a single solve's current a float."""
    padded, v_m = stamper.solve_raw(x, v_src)
    i_src = stamper.source_current(v_src, padded[..., stamper.near], x)
    return padded, v_m, i_src if i_src.ndim else float(i_src)


def max_kcl_residual(network, states, voltages: dict) -> float:
    """Largest absolute current imbalance over the free nodes; ``voltages``
    maps each node to its potential, as ``node_voltages`` gives."""
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


def stepwise_run(x, params, solve, source, w, cfg, row=None, step=step_resistance):
    """The engine loop as a plain per-step march, with the arguments and
    results of ``engine._run``: every step samples the stimulus, solves at
    the current states, records every ``record_stride``-th and the last
    step, its source current computed from that one solve by ``source``'s
    ``current``, and holds a copy of every row's states at step 0 and at
    the step nearest each zero crossing of the whole schedule, found by
    ``loop_zero_crossings``, then takes one device ``step``, the package's
    own ``step_resistance`` unless another is given. Nothing is solved
    ahead, so each call to ``solve`` gets one source voltage. A ``solve``
    that is an array holds the gains of lone devices, as ``_run`` takes
    them: each step's device voltages, and its solution, are then those
    gains times the source voltage."""
    near, current = source
    n_steps = round(w.duration / cfg.dt)
    ts = [k * cfg.dt for k in range(n_steps + 1)]
    vs = [waveform_sample(w, t) for t in ts]
    schedule = SimpleNamespace(t=np.array(ts), v_src=np.array(vs))
    held = [0] + [int(np.argmin(np.abs(schedule.t - c.t)))
                  for c in loop_zero_crossings(schedule)]
    if isinstance(solve, np.ndarray):
        gains = solve

        def solve(_, v):
            return (gains * v,) * 2

    rate = 0.0 * x
    samples, states = [], []
    for k, (t, v) in enumerate(zip(ts, vs)):
        solution, v_m = solve(x, v)
        if k % cfg.record_stride == 0 or k == n_steps:
            if row is None:
                samples.append((t, v, v_m, current(v, solution[..., near], x), x))
            else:
                samples.append((t, v, v_m[row], current(v, solution[row, near], x[row]), x[row]))
        states += [x] * held.count(k)
        x, rate = step(x, v_m, cfg.dt, params, rate)
    hold = np.array(states, dtype=float).reshape((len(states),) + np.shape(x))
    return [np.array(column, dtype=float) for column in zip(*samples)] + [hold]


def loop_zero_crossings(trace):
    """``measure.find_zero_crossings`` as a loop over the samples, as it
    stood before it was written with array operations, kept verbatim."""
    v = trace.v_src
    tol = 1e-9 * float(np.max(np.abs(v))) if len(v) else 0.0
    crossings = []
    prev_sign = 0
    prev_k = -1
    for k in range(len(v)):
        vk = float(v[k])
        sign = 0 if abs(vk) <= tol else (1 if vk > 0 else -1)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            t1, t2 = float(trace.t[prev_k]), float(trace.t[k])
            v1, v2 = float(v[prev_k]), vk
            t_star = t1 + v1 * (t2 - t1) / (v1 - v2)
            crossings.append(Crossing(t=t_star, left=prev_k, right=k))
        prev_sign, prev_k = sign, k
    if len(v) and abs(float(v[-1])) <= tol and prev_sign != 0:
        last = len(v) - 1
        crossings.append(Crossing(t=float(trace.t[last]), left=last, right=last))
    return crossings


def same_bits(got, want) -> bool:
    """Equal type, shape and values, NaN included, with equal zero signs; a
    tuple or list compares item by item."""
    if isinstance(want, (tuple, list)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(same_bits(a, b) for a, b in zip(got, want)))
    a, b = np.asarray(got), np.asarray(want)
    return (type(got) is type(want) and a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


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


class ReferenceStamper:
    """``NodalStamper``'s stamp, solve and read-back as they stood before
    they were trimmed to one ``np.bincount`` pass, a solve in place and a
    conditional polarity product, kept verbatim: a bincount of the matrix
    and one of the right-hand side, each weight a signed product, the
    solution copied into a fresh padded vector, and every device voltage
    multiplied by its polarity. Compared with ``np.array_equal`` and
    ``np.signbit``, it pins the arithmetic of the trimmed code.
    """

    def __init__(self, network: GridNetwork):
        self.network = network
        component = reachable_from(network, network.source)
        if network.ground not in component:
            raise DisconnectedNetworkError(
                f"no path between {network.source} and {network.ground}"
            )
        self.free_nodes = tuple(
            sorted(component - {network.source, network.ground})
        )
        self.index_map = {node: i for i, node in enumerate(self.free_nodes)}
        nf = len(self.free_nodes)
        self.n_free = nf

        def slot(node: NodeId) -> int | None:
            if node == network.source:
                return _SRC
            if node == network.ground:
                return _GND
            return self.index_map.get(node)  # None for island nodes

        slots = [(slot(e.node_a), slot(e.node_b)) for e in network.edges]
        self.kd = kd = max((abs(sa - sb) for sa, sb in slots
                            if None not in (sa, sb) and min(sa, sb) >= 0), default=0)
        self._cholesky = reference_band_routines()
        self.banded = self._cholesky is not None
        if self.banded:
            # LAPACK lower band storage, column-major with leading dimension
            # kd + 1: entry (r, c), r >= c, of column c at row r - c.
            self._shape = (nf, kd + 1)

            def at(r: int, c: int) -> int:
                return c * (kd + 1) + r - c
        else:
            self._shape = (nf, nf)

            def at(r: int, c: int) -> int:
                return r * nf + c

        # Flattened-matrix contribution lists: for edge conductance g, the
        # diagonal of each free endpoint gains +g and the symmetric
        # off-diagonal pair gains -g (band storage keeps the lower one).
        mat_pos, mat_edge, mat_sign = [], [], []
        rhs_pos, rhs_edge = [], []
        src_edge, src_other = [], []
        for k, (sa, sb) in enumerate(slots):
            if sa is None or sb is None:
                continue  # island edge: no current can flow
            for mine, other in ((sa, sb), (sb, sa)):
                if mine < 0:
                    continue
                mat_pos.append(at(mine, mine))
                mat_edge.append(k)
                mat_sign.append(1.0)
                if other >= 0:
                    if self.banded and mine < other:
                        continue
                    mat_pos.append(at(mine, other))
                    mat_edge.append(k)
                    mat_sign.append(-1.0)
                elif other == _SRC:
                    rhs_pos.append(mine)
                    rhs_edge.append(k)
            if _SRC in (sa, sb):
                src_edge.append(k)
                src_other.append(sb if sa == _SRC else sa)

        # Gather tables for reading node voltages back out. The padded
        # solution vector carries [free..., ground=0, source=v_src].
        pad = {_GND: nf, _SRC: nf + 1}

        def gather_index(node: NodeId) -> int:
            s = slot(node)
            return nf if s is None else pad.get(s, s)  # islands read the 0 V pad

        # Every index list with the length of the array it indexes, so that it
        # can be shifted onto any row of a batch flattened row-major.
        n_edges = len(network.edges)
        self._index_strides = (
            (mat_pos, math.prod(self._shape)), (mat_edge, n_edges),
            (rhs_pos, nf), (rhs_edge, n_edges),
            ([gather_index(e.node_a) for e in network.edges], nf + 2),
            ([gather_index(e.node_b) for e in network.edges], nf + 2),
            ([pad.get(s, s) for s in src_other], nf + 2), (src_edge, n_edges),
        )
        self._mat_sign = np.array(mat_sign)
        self._flat = {}
        self._polarity = np.array([int(e.polarity) for e in network.edges], dtype=float)
        self.present_nodes = tuple(sorted(network.present))
        self._present_idx = np.array([gather_index(v) for v in self.present_nodes], dtype=np.intp)

    def _flat_index(self, rows: int) -> tuple:
        """Indices into the flattened arrays of ``rows`` stacked systems, so
        each stamp and gather is one 1-D index operation at any batch size."""
        index = self._flat.get(rows)
        if index is None:
            offsets = np.arange(rows)[:, None]
            index = self._flat[rows] = tuple(
                (np.array(idx, dtype=np.intp) + stride * offsets).ravel()
                for idx, stride in self._index_strides
            ) + (np.tile(self._mat_sign, rows),)
        return index

    def build_system(self, x: np.ndarray, v_src):
        """Stamp the reduced conductance matrix and Dirichlet right-hand side.

        ``x`` holds one network's states (E,) or a batch on this topology
        (B, E), giving (B, nf, nf) matrices, or (B, nf, kd + 1) lower bands
        on the banded path, and (B, nf) right-hand sides. An array of K
        source voltages stamps the matrix once and K right-hand sides, on a
        leading axis: (K, B, nf). ``np.bincount`` sums each entry in stamp
        order, so a row of a batch, or of a chunk of voltages, is
        bit-identical to the same states stamped alone.
        """
        nf = self.n_free
        rows = 1 if x.ndim == 1 else len(x)
        mat_pos, mat_edge, rhs_pos, rhs_edge, *_, mat_sign = self._flat_index(rows)
        g = (1.0 / x).ravel()
        matrix = np.bincount(mat_pos, weights=mat_sign * g[mat_edge],
                             minlength=rows * math.prod(self._shape))
        lead = x.shape[:-1]
        if isinstance(v_src, np.ndarray):  # right-hand side k sits k * rows * nf further on
            v_col = v_src.reshape(-1, 1)
            lead = (len(v_col),) + lead
            rhs_pos = (rhs_pos + rows * nf * np.arange(len(v_col))[:, None]).ravel()
            weights = (g[rhs_edge] * v_col).ravel()
        else:
            weights = g[rhs_edge] * v_src
        rhs = np.bincount(rhs_pos, weights=weights, minlength=math.prod(lead) * nf)
        return matrix.reshape(x.shape[:-1] + self._shape), rhs.reshape(lead + (nf,))

    def _band_solve(self, band: np.ndarray, rhs: np.ndarray) -> None:
        """Solve the stacked band systems in place. Each system is factorized
        once by ``dpbtrf`` and its factor serves all of its right-hand sides
        in one ``dpbtrs`` call, with no identity block: a block-diagonal call over
        a whole batch is bit-identical to its rows solved alone only with
        the kd identity rows after every system that ``NodalStamper`` puts
        there. ``band``
        (B, nf, kd + 1) and ``rhs`` ([K,] B, nf) are the fresh C-contiguous
        float64 arrays ``build_system`` returns; the band is overwritten by
        its Cholesky factor, ``rhs`` by the solutions."""
        factor, solve = self._cholesky
        nf, kd = self.n_free, self.kd
        if nf == 0:  # a one-edge lattice: nothing to solve
            return
        systems = band.size // (nf * (kd + 1))
        # right-hand side k of system r starts at (k * systems + r) * nf
        n, kd_, ldab, nrhs, ldb, info = (ctypes.c_int64(v) for v in (
            nf, kd, kd + 1, rhs.size // (systems * nf), systems * nf, 0))
        band_at, rhs_at = band.ctypes.data, rhs.ctypes.data
        band_step, rhs_step = nf * (kd + 1) * band.itemsize, nf * rhs.itemsize
        for r in range(systems):
            factor(b"L", n, kd_, band_at + r * band_step, ldab, info, 1)
            if info.value:
                raise SingularSystemError(
                    f"dpbtrf info={info.value}: the reduced conductance matrix "
                    "is not positive definite"
                )
            solve(b"L", n, kd_, nrhs, band_at + r * band_step, ldab,
                  rhs_at + r * rhs_step, ldb, info, 1)

    def solve_raw(self, x: np.ndarray, v_src):
        """Solve for (padded node voltages, per-device voltages, source current).

        The padded vector is ordered [free nodes..., 0.0, v_src]; use the
        precomputed gather indices to read voltages per edge or per node. A
        (B, E) batch of states gives a leading batch axis on every result.
        ``v_src`` may also be an array of K source voltages, (K,) or
        (K,) + (1,) * x.ndim: the same states are then solved at each of
        them, with one stamp per system (and on the banded path one
        factorization), and every result gains a further leading axis of K.
        """
        chunk = isinstance(v_src, np.ndarray)
        if chunk:
            v_src = v_src.reshape((-1,) + (1,) * x.ndim)
        matrix, rhs = self.build_system(x, v_src)
        try:
            if self.banded:
                self._band_solve(matrix, rhs)
                sol = rhs
            else:
                sol = np.linalg.solve(matrix, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as err:
            raise SingularSystemError(str(err)) from err
        nf, lead = self.n_free, rhs.shape[:-1]
        padded = np.empty(lead + (nf + 2,))
        padded[..., :nf] = sol
        padded[..., nf] = 0.0
        padded[..., nf + 1:] = v_src
        a_idx, b_idx, other_idx, src_idx, _ = self._flat_index(len(x) if x.ndim == 2 else 1)[4:]
        flat = padded.ravel()
        v_col = v_src
        if chunk:  # right-hand side k reads k * rows * (nf + 2) further on
            v_col = v_src.reshape(-1, 1)
            shift = flat.size // len(v_col) * np.arange(len(v_col))[:, None]
            a_idx, b_idx, other_idx = a_idx + shift, b_idx + shift, other_idx + shift
        v_m = self._polarity * (flat[a_idx] - flat[b_idx]).reshape(lead + x.shape[-1:])
        currents = (v_col - flat[other_idx]) / x.ravel()[src_idx]
        currents = currents.reshape(lead + (-1,))
        # a lone source edge's current is the sum, zero sign kept: a sum adds from +0.0
        i_src = currents[..., 0] if currents.shape[-1] == 1 else currents.sum(axis=-1)
        return padded, v_m, i_src if lead else float(i_src)


# The device step as it stood before its ufunc calls were trimmed, verbatim.
def reference_clipped_drive(v_m, v_t):
    """Dead-band clip of the device voltage.

    Exactly zero for |v_m| <= v_t, v_m - v_t above, v_m + v_t below; odd in
    v_m and continuous at the threshold. Equivalent to
    v_m - 0.5*(|v_m + v_t| - |v_m - v_t|) but evaluated as v_m minus its clamp
    to [-v_t, v_t], so the dead band is v_m - v_m and carries no rounding
    residue.
    """
    return v_m - np.minimum(np.maximum(v_m, -v_t), v_t)


def reference_state_rate(x, v_m, p: DeviceParams):
    """Rate of change of the resistance, in ohm per second.

    The clipped drive is gated so a positive voltage can only raise x while
    x < r_off and a negative voltage can only lower it while x > r_on; the
    step functions are closed at zero, so a device parked at a bound stays put.
    """
    window = ((v_m > 0) & (x < p.r_off)) | ((v_m < 0) & (x > p.r_on))
    return p.beta * reference_clipped_drive(v_m, p.v_t) * window


def reference_step_resistance(x, v_m, dt, p: DeviceParams, rate_prev):
    """One integration step of the resistance with a hard clamp to the bounds.

    ``rate_prev`` is the state rate of each unit on the previous step: zero
    before the first step, which makes that step explicit Euler. This is one
    restarted second-order Adams-Bashforth step and returns ``(x_next,
    rate)``, with ``rate`` to be passed back on the next step. A unit moves by
    dt*(3/2*rate - 1/2*rate_prev) when rate_prev and that increment share the
    sign of its nonzero rate, and by the Euler increment dt*rate otherwise, so
    a parked unit never moves and no unit moves against its own rate.
    """
    rate = reference_state_rate(x, v_m, p)
    ab2 = 1.5 * rate - 0.5 * rate_prev
    slope = np.where((rate * rate_prev > 0.0) & (rate * ab2 > 0.0), ab2, rate)
    return np.minimum(np.maximum(x + slope * dt, p.r_on), p.r_off), rate
