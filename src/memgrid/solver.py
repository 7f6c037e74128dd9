"""Nodal analysis of the frozen resistor network.

At each instant the lattice is a linear resistor network: device conductances
1/x are stamped into a reduced Laplacian over the free nodes, the source and
ground potentials are eliminated Dirichlet-style into the right-hand side, and
the system is solved. Nodes unreachable from the terminals are excluded and
reported at 0 V.

The reduced Laplacian of a connected network is symmetric positive definite,
and with the free nodes sorted by (row, col) its bandwidth kd is at most the
lattice width n. Two paths solve it, chosen once per topology from the free
node count it observes (``_BANDED_MIN_FREE``):

* small systems, every 4x4 study among them, stamp the dense matrix and solve
  it by LU, with the gufunc and floating-point error state behind
  ``np.linalg.solve`` called directly;
* larger ones stamp only the upper band, in LAPACK band storage of
  (kd + 1) x N doubles, factorize it with the banded Cholesky routine
  ``dpbtrf`` and solve with that factor by ``dpbtrs``, both from the LAPACK
  that numpy's own linalg extension links, called through ``ctypes``:
  O(N kd^2) instead of O(N^3), with no further import. The pair replaces
  ``dpbsv``, which is the same two steps, and gives its results bit for bit.

A solve may take a chunk of source voltages for one set of states, as the
engine's frozen-stretch lookahead asks for: the matrix is stamped once, and
on the banded path its one factor serves the whole chunk in a single
``dpbtrs`` call (the dense path broadcasts the one matrix over the stack, as
``np.linalg.solve`` does). Each voltage's result is bit-identical to a solve
at that voltage alone.

Where that LAPACK lacks either routine every system takes the dense path. The
two paths agree to rounding (1e-13 relative on a 16x16 lattice), not bit for
bit.

Every step pays a fixed number of numpy calls besides LAPACK: one
``np.bincount`` stamps matrix and right-hand side together into one buffer,
whose right-hand-side rows are laid out as the padded solution vector
[free nodes..., 0 V ground, v_src], so the solve writes its solution in
place and the device voltages are read straight out of it. On a 2-core
x86-64 host (numpy 2.4.6, OpenBLAS 0.3.31, one thread) a 4x4 solve with its
stamping takes about 20 us, of which the LU is 5 us, and a batch of 25 such
systems 80-110 us, of which the LU is about 60%.

:class:`NodalStamper` precompiles the index structure of a network once so the
time-marching engine can re-solve with updated resistances at full speed.
"""

import ctypes
import functools
import math

import numpy as np

try:  # the LU gufunc behind np.linalg.solve; a private numpy module
    from numpy.linalg._umath_linalg import solve as _lu_gufunc
except ImportError:
    _lu_gufunc = None

from .topology import GridNetwork, NodeId, reachable_from


class DisconnectedNetworkError(Exception):
    """Source and ground are not in one connected component."""


class SingularSystemError(Exception):
    """The reduced conductance matrix could not be factorized; this signals a
    bug or degenerate conductances, not a legitimate network state."""


def _singular(err, flag):
    """The floating-point error callback of the dense solve: LAPACK found a
    zero pivot."""
    raise SingularSystemError("Singular matrix")


def states_to_array(network: GridNetwork, states) -> np.ndarray:
    """Per-device resistances ordered by label, checked, as a float array."""
    x = np.asarray(states, dtype=float)
    if x.shape != (len(network.edges),):
        raise ValueError(
            f"expected {len(network.edges)} states, got shape {x.shape}"
        )
    if not np.all(x > 0):
        raise ValueError("device resistances must be strictly positive")
    return x


_SRC = -1
_GND = -2

# Free nodes from which the banded path is taken. One solve with its stamping,
# banded vs dense (2-core x86-64 host, numpy 2.4.6, OpenBLAS 0.3.31 on one
# thread): 4x4 lattice (14 free nodes) 41 vs 40 us, 5x5 (23) 44 vs 50 us,
# 8x8 (62) 56 vs 95 us, 16x16 (254) 141 vs 2,257 us; a batch of 25 systems
# 165 vs 134 us at 4x4, 157 vs 182 us at 5x5. The bandwidth need not enter:
# it is at most the lattice width, and a banded Cholesky solve never takes
# more flops than a dense LU of the same matrix.
_BANDED_MIN_FREE = 20


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lu_solve(matrix: np.ndarray, rhs: np.ndarray) -> None:
    """Overwrite the stacked (..., nf, 1) right-hand sides with the solutions
    of the (..., nf, nf) matrices: the LU gufunc and error state of
    ``np.linalg.solve``, whose results it gives bit for bit, without that
    function's argument checks and copies; through ``np.linalg.solve``
    itself where numpy does not provide that gufunc. A singular matrix raises
    SingularSystemError."""
    if _lu_gufunc is not None:
        _lu_gufunc(matrix, rhs, out=rhs)
        return
    try:
        rhs[...] = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError("Singular matrix") from None


@functools.cache
def _band_cholesky():
    """LAPACK's banded Cholesky factorization ``dpbtrf`` and the triangular
    solves ``dpbtrs`` that reuse its factor, from the library numpy's linalg
    extension links, or None when it does not export ILP64 builds of both.

    Symbols resolve through that extension's own dependencies, so this loads
    no library that numpy has not already loaded. numpy >= 2 wheels export
    ``scipy_dpbtrf_64_``, numpy 1.x wheels ``dpbtrf_64_``; both schemes take
    64-bit integers and, Fortran style, the hidden length of ``uplo`` last.
    """
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


class NodalStamper:
    """Precompiled stamping structure for one network topology.

    Raises DisconnectedNetworkError on construction when the terminals do not
    share a component. ``banded`` tells which solve path the topology takes.
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
        self._cholesky = _band_cholesky() if nf >= _BANDED_MIN_FREE else None
        self.banded = self._cholesky is not None
        if self.banded:
            # LAPACK upper band storage, column-major with leading dimension
            # kd + 1: entry (r, c), r <= c, of column c at row kd + r - c.
            self._shape = (nf, kd + 1)

            def at(r: int, c: int) -> int:
                return c * (kd + 1) + kd + r - c
        else:
            self._shape = (nf, nf)

            def at(r: int, c: int) -> int:
                return r * nf + c

        # Contribution lists of one system, grouped in the order of the one
        # ``np.bincount`` that stamps it: for edge conductance g, the diagonal
        # of each free endpoint gains +g, the symmetric off-diagonal pair -g
        # (band storage keeps the upper one), and the right-hand side of a
        # free node beside the source g * v_src. Every bin takes terms of one
        # group only, so the grouping keeps each bin's summation order. The
        # right-hand side is laid out as the padded solution vector [free...,
        # ground=0, source=v_src].
        diag, off, rhs = ([], []), ([], []), ([], [])  # (positions, edges)
        src_edge, src_other = [], []
        for k, (sa, sb) in enumerate(slots):
            if sa is None or sb is None:
                continue  # island edge: no current can flow
            for mine, other in ((sa, sb), (sb, sa)):
                if mine < 0:
                    continue
                diag[0].append(at(mine, mine))
                diag[1].append(k)
                if other >= 0:
                    if not (self.banded and mine > other):
                        off[0].append(at(mine, other))
                        off[1].append(k)
                elif other == _SRC:
                    rhs[0].append(mine)
                    rhs[1].append(k)
            if _SRC in (sa, sb):
                src_edge.append(k)
                src_other.append(sb if sa == _SRC else sa)

        # Gather tables for reading node voltages back out of the padded
        # solution vector.
        pad = {_GND: nf, _SRC: nf + 1}

        def gather_index(node: NodeId) -> int:
            s = slot(node)
            return nf if s is None else pad.get(s, s)  # islands read the 0 V pad

        self._stamp_lists = diag, off, rhs
        self._gather_lists = ([gather_index(e.node_a) for e in network.edges],
                              [gather_index(e.node_b) for e in network.edges],
                              [pad.get(s, s) for s in src_other])
        self._src_edge = src_edge
        self._flat = {}
        self._polarity = np.array([int(e.polarity) for e in network.edges], dtype=float)
        self._inverted = bool(np.any(self._polarity < 0))

    def _tables(self, shape: tuple, chunk: int) -> tuple:
        """Stamp tables for states of ``shape`` solved at ``chunk`` source
        voltages, and read-back tables for the first voltage: 1-D indices
        into flattened arrays, so each stamp and gather is one index
        operation at any batch size. One buffer holds the B stacked
        matrices, then ``chunk`` blocks of B padded solution rows."""
        tables = self._flat.get((shape, chunk))
        if tables is None:
            rows = math.prod(shape[:-1])
            size, width, n_edges = math.prod(self._shape), self.n_free + 2, shape[-1]
            mat_size = rows * size
            row = np.arange(rows)[:, None]
            system = np.arange(chunk * rows)[:, None]  # padded row k * rows + r

            def flat(idx, step, at=row, offset=0):
                return (np.array(idx, dtype=np.intp) + offset + step * at).ravel()

            (diag_pos, diag_edge), (off_pos, off_edge), (rhs_pos, rhs_edge) = self._stamp_lists
            a_idx, b_idx, other_idx = (flat(idx, width, offset=mat_size)
                                       for idx in self._gather_lists)
            tables = self._flat[(shape, chunk)] = (
                np.concatenate([flat(diag_pos, size), flat(off_pos, size),
                                flat(rhs_pos, width, system, mat_size)]),
                np.concatenate([flat(diag_edge, n_edges), flat(off_edge, n_edges),
                                np.tile(flat(rhs_edge, n_edges), chunk)]),
                rows * len(diag_pos), rows * (len(diag_pos) + len(off_pos)),
                mat_size, mat_size + chunk * rows * width,
                a_idx, b_idx, other_idx, flat(self._src_edge, n_edges),
            )
        return tables

    def build_system(self, x: np.ndarray, v_src):
        """Stamp the reduced conductance matrix and Dirichlet right-hand side.

        ``x`` holds one network's states (E,) or a batch on this topology
        (B, E), giving (B, nf, nf) matrices, or (B, nf, kd + 1) upper bands
        on the banded path, and (B, nf) right-hand sides. An array of K
        source voltages stamps the matrix once and K right-hand sides, on a
        leading axis: (K, B, nf). Both results are views into one buffer;
        each right-hand side is the head of a padded solution vector [free
        nodes..., 0.0, v_src], which ``solve_raw`` solves in place. One
        ``np.bincount`` sums each entry in stamp order, so a row of a batch,
        or of a chunk of voltages, is bit-identical to the same states
        stamped alone. The source slot is written, not summed: a sum from
        0.0 would turn a source at -0.0 into +0.0.
        """
        chunk = isinstance(v_src, np.ndarray)
        k = v_src.size if chunk else 1
        pos, edge, diag_end, mat_end, mat_size, size, *_ = self._tables(x.shape, k)
        weights = (1.0 / x).ravel()[edge]
        off, rhs = weights[diag_end:mat_end], weights[mat_end:].reshape(k, -1)
        np.negative(off, out=off)  # the bits of -1.0 * g
        np.multiply(rhs, v_src.reshape(k, 1) if chunk else v_src, out=rhs)
        # (with no free nodes and so no terms, bincount returns integers)
        stamped = np.bincount(pos, weights=weights, minlength=size).astype(float, copy=False)
        padded = stamped[mat_size:].reshape(((k,) if chunk else ()) + x.shape[:-1]
                                            + (self.n_free + 2,))
        padded[..., -1:] = v_src.reshape((k,) + (1,) * x.ndim) if chunk else v_src
        return stamped[:mat_size].reshape(x.shape[:-1] + self._shape), padded[..., :-2]

    def _band_solve(self, band: np.ndarray, rhs: np.ndarray) -> None:
        """Solve the stacked band systems in place. Each system is factorized
        once by ``dpbtrf`` and its factor serves all of its right-hand sides
        in one ``dpbtrs`` call. A block-diagonal call over a whole batch
        would not be bit-identical to its rows solved alone. ``band``
        (B, nf, kd + 1) and ``rhs`` ([K,] B, nf) are the views
        ``build_system`` returns, ``rhs`` with rows nf + 2 apart; the band is
        overwritten by its Cholesky factor, ``rhs`` by the solutions."""
        factor, solve = self._cholesky
        nf, kd = self.n_free, self.kd
        systems = band.size // (nf * (kd + 1))
        # right-hand side k of system r starts at (k * systems + r) * (nf + 2)
        n, kd_, ldab, nrhs, ldb, info = (ctypes.c_int64(v) for v in (
            nf, kd, kd + 1, rhs.size // (systems * nf), systems * (nf + 2), 0))
        band_at, rhs_at = band.ctypes.data, rhs.ctypes.data
        band_step, rhs_step = nf * (kd + 1) * band.itemsize, (nf + 2) * rhs.itemsize
        for r in range(systems):
            factor(b"U", n, kd_, band_at + r * band_step, ldab, info, 1)
            if info.value:
                raise SingularSystemError(
                    f"dpbtrf info={info.value}: the reduced conductance matrix "
                    "is not positive definite"
                )
            solve(b"U", n, kd_, nrhs, band_at + r * band_step, ldab,
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
            v_src = v_src.reshape(-1, 1)
        matrix, rhs = self.build_system(x, v_src)
        if self.banded:
            self._band_solve(matrix, rhs)
        else:
            _lu_solve(matrix, rhs[..., None])
        stamped, lead = rhs.base, rhs.shape[:-1]  # the buffer build_system stamped
        *_, mat_size, _, a_idx, b_idx, other_idx, src_idx = self._tables(
            x.shape, len(v_src) if chunk else 1)
        if chunk:  # the solution at voltage k sits k * rows * (nf + 2) further on
            shift = (stamped.size - mat_size) // len(v_src) * np.arange(len(v_src))[:, None]
            a_idx, b_idx, other_idx = a_idx + shift, b_idx + shift, other_idx + shift
        v_m = (stamped[a_idx] - stamped[b_idx]).reshape(lead + x.shape[-1:])
        if self._inverted:  # x 1.0 is exact, so forward units skip it
            v_m *= self._polarity
        currents = (v_src - stamped[other_idx]) / x.ravel()[src_idx]
        i_src = np.add.reduce(currents.reshape(lead + (-1,)), axis=-1)
        padded = stamped[mat_size:].reshape(lead + (self.n_free + 2,))
        return padded, v_m, i_src if lead else float(i_src)


def effective_resistance(network: GridNetwork, states,
                         stamper: NodalStamper | None = None) -> float:
    """Two-terminal resistance between source and ground with edge weights 1/x.

    ``stamper``, when given, is the network's own and saves rebuilding its
    index tables on every call. Returns math.inf for a disconnected network.
    """
    x = states_to_array(network, states)
    try:
        stamper = stamper or NodalStamper(network)
    except DisconnectedNetworkError:
        return math.inf
    return 1.0 / stamper.solve_raw(x, 1.0)[2]

