"""Nodal analysis of the frozen resistor network.

At each instant the lattice is a linear resistor network: device conductances
1/x are stamped into a reduced Laplacian over the free nodes, the source and
ground potentials are eliminated Dirichlet-style into the right-hand side, and
the system is solved. Nodes unreachable from the terminals are excluded and
reported at 0 V.

The reduced Laplacian of a connected network is symmetric positive definite,
and with the free nodes sorted by (row, col) its bandwidth kd is at most the
lattice width n. Every system stamps only its lower band, in LAPACK band
storage, and is solved by the banded Cholesky routine ``dpbsv``, which
factorizes it once and solves with that factor, from the LAPACK that numpy's
own linalg extension links, called through ``ctypes``: O(N kd^2) instead of
O(N^3), with no further import. The call runs on one OpenBLAS thread,
whatever count the process is set to. Lower storage because OpenBLAS
factors it faster: each column's rank-1 update gets a contiguous vector,
where in upper storage it gets one strided by kd.

Each stamp, one system, a batch of systems on one topology or a chunk of
source voltages for one set of states, is solved by one ``dpbsv`` call on
one block-diagonal band. Each system is its free nodes and two identity
rows for ground and source, so its right-hand side is its padded solution
vector [free nodes..., 0 V ground, v_src] and solves in place; kd identity
rows trail the last system, with zero right-hand sides. A chunk's K
voltages are K right-hand sides of the one factorization, as the engine's
frozen-stretch lookahead asks for.

The trailing block makes every batch row bit-identical to its system solved
alone. The factorization updates entry by entry, and the entries a batch
adds are exact zeros, so each system's factor is its own. But the
transposed triangular solve of lower storage takes a dot product over the
kd rows below each row, and without the trailing block a system's last rows
would reach kd rows into the next system in a batch and fewer alone.
OpenBLAS sums a dot product of 16 terms or more in SIMD lanes, so at
kd >= 16 the two sums would differ in order. With kd rows after every
system, alone or batched, every row's sums run over the same terms in the
same order. (Upper storage reaches the other way, over the kd rows above,
and needed the block to lead; a lower band with the block leading differs
from its rows alone on 16x16 and 32x32 lattices.)

Where numpy's LAPACK exports no ``dpbsv`` every system is stamped in the
same band and only the factorization differs: each band entry and its
mirror are written into a zeroed full matrix, which ``np.linalg.solve``
factors by LU, broadcast over a chunk's voltages. The two factorizations
agree to rounding (1e-13 relative on a 16x16 lattice), not bit for bit.

Every step pays a fixed number of numpy calls besides LAPACK: one
``np.bincount`` stamps matrix and right-hand sides together into one buffer,
the identity diagonals and source slots are written into it, and the device
voltages are read straight out of the solved buffer. A solve computes no
source current: the engine keeps the voltages beside the source of each
recorded sample, and ``source_current`` turns a whole march of them into
currents in one pass. ``resistance``, the package's one two-terminal
readout, is a solve at 1 V and its current, for one network's states or a
batch. Every index, view shape and ``dpbsv`` argument is built once per
stamper and shape of states and voltages. On a 2-core x86-64 host (numpy
2.4.6, OpenBLAS 0.3.31, one thread), whose speed varied by up to 1.7x from
run to run, a 4x4 solve with its stamping takes 10-16 us; the raster's
batch of 25 such systems 34-58 us, of which ``dpbsv`` is about 24 us and
the stamp 10-17 us; a 16x16 lattice solve (242 free nodes, kd = 16) 46-50
us, of which the stamp is about 9 us.

:class:`NodalStamper` precompiles the index structure of a network once so the
time-marching engine can re-solve with updated resistances at full speed.
"""

import ctypes
import functools
import math

import numpy as np

from .topology import GridNetwork, NodeId, reachable_from


class DisconnectedNetworkError(Exception):
    """Source and ground are not in one connected component."""


class SingularSystemError(Exception):
    """The reduced conductance matrix could not be factorized; this signals a
    bug or degenerate conductances, not a legitimate network state."""


def states_to_array(network: GridNetwork, states) -> np.ndarray:
    """Per-device resistances (..., E) ordered by label, checked, as floats."""
    x = np.asarray(states, dtype=float)
    if x.shape[-1:] != (len(network.edges),):
        raise ValueError(
            f"expected {len(network.edges)} states on the last axis, got shape {x.shape}"
        )
    if not np.all(x > 0):
        raise ValueError("device resistances must be strictly positive")
    return x


_SRC = -1
_GND = -2


@functools.cache
def _band_cholesky():
    """LAPACK's banded Cholesky solve ``dpbsv``, which factorizes a system
    once for all of its right-hand sides, from the library numpy's linalg
    extension links, or None when the library exports no ILP64 build of it;
    paired with OpenBLAS's thread-count getter and setter from the same
    library, or None where it exports no pair of them.

    Symbols resolve through that extension's own dependencies, so this loads
    no library that numpy has not already loaded. numpy >= 2 wheels export
    ``scipy_dpbsv_64_`` and ``scipy_openblas_get_num_threads64_``, numpy 1.x
    wheels the same names without ``scipy_``. ``dpbsv`` takes 64-bit
    integers and, Fortran style, the hidden length of ``uplo`` last.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    int_p = ctypes.POINTER(ctypes.c_int64)
    for prefix in ("scipy_", ""):
        dpbsv = getattr(lib, f"{prefix}dpbsv_64_", None)
        if dpbsv is not None:
            # uplo, n, kd, nrhs, ab, ldab, b, ldb, info, len(uplo)
            dpbsv.argtypes = [ctypes.c_char_p, int_p, int_p, int_p, ctypes.c_void_p, int_p,
                              ctypes.c_void_p, int_p, int_p, ctypes.c_size_t]
            dpbsv.restype = None
            get, put = (getattr(lib, f"{prefix}openblas_{verb}_num_threads64_", None)
                        for verb in ("get", "set"))
            if get is None or put is None:
                return dpbsv, None
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return dpbsv, (get, put)
    return None


class NodalStamper:
    """Precompiled stamping structure for one network topology.

    Raises DisconnectedNetworkError on construction when the terminals do not
    share a component. ``banded`` tells whether it factors with ``dpbsv``,
    as it does wherever numpy's LAPACK exports it.
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
        self._cholesky, self._threads = _band_cholesky() or (None, None)
        self.banded = self._cholesky is not None
        # LAPACK lower band storage, column-major with leading dimension
        # kd + 1: entry (r, c), r >= c, of column c at row r - c, counted
        # from the system's first column.
        def at(r: int, c: int) -> int:
            return c * (kd + 1) + r - c

        # Contribution lists of one system, grouped in the order of the one
        # ``np.bincount`` that stamps it: for edge conductance g, the diagonal
        # of each free endpoint gains +g, the symmetric off-diagonal pair -g
        # (band storage keeps the lower one), and the right-hand side of a
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
                if 0 <= other < mine:
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
                              [gather_index(e.node_b) for e in network.edges])
        # each source edge's far end in a padded solution, and the edge
        self.near = np.array([pad.get(s, s) for s in src_other], dtype=np.intp)
        self.src_edges = np.array(src_edge, dtype=np.intp)
        self._flat = {}
        self._stamped = None  # the latest stamp's tables, buffer and padded rows, for solve_raw
        self._polarity = np.array([int(e.polarity) for e in network.edges], dtype=float)
        self._inverted = bool(np.any(self._polarity < 0))

    def _tables(self, shape: tuple, chunk: int | None) -> tuple:
        """Build and keep the tables for states of ``shape`` solved at
        ``chunk`` source voltages, None for a single one: (stamp, read-back,
        solve). Indices address the flattened buffer of one stamp: the B
        systems' matrices as one block-diagonal band, then K columns of
        right-hand sides of it, one per voltage, each holding per system its
        free nodes and its ground and source rows, then kd trailing rows
        (see ``build_system``). A read-back index has the shape of the
        result it gathers at the first voltage, and ``shift`` moves it onto
        each voltage of a chunk, so each stamp and gather is one index
        operation at any batch size. ``solve`` holds the ``dpbsv``
        arguments as ``ctypes`` integers and the byte offset of the
        right-hand sides; without ``dpbsv`` it holds the indices that write
        each band entry (r, c) of the B systems, and its mirror (c, r),
        into their (B, nf, nf) full matrices, and their shape."""
        batch, k = shape[:-1], chunk or 1
        lead = batch if chunk is None else (chunk,) + batch
        rows, nf, kd, n_edges = math.prod(batch), self.n_free, self.kd, shape[-1]
        width = nf + 2
        used = rows * width  # the padded rows of each right-hand side
        # each system is nf + 2 rows of the band, its ground and source rows
        # identity rows; kd identity rows trail
        step, stored = width * (kd + 1), (width, kd + 1)
        column = used + kd  # rows of the band and of each right-hand side
        mat_size = column * (kd + 1)
        pads = nf + width * np.arange(rows)[:, None] + np.arange(2)
        ones = np.concatenate([pads.ravel(), used + np.arange(kd)]) * (kd + 1)  # diagonals
        # padded row j * rows + r, at voltage j, starts at systems[j * rows + r]
        systems = mat_size + (column * np.arange(k)[:, None] + width * np.arange(rows)).ravel()
        matrices, edges = step * np.arange(rows), n_edges * np.arange(rows)

        def flat(idx, at):
            return (np.array(idx, dtype=np.intp) + at[:, None]).ravel()

        (diag_pos, diag_edge), (off_pos, off_edge), (rhs_pos, rhs_edge) = self._stamp_lists
        sources = systems + nf + 1  # each padded row's v_src slot
        stamp = (
            np.concatenate([flat(diag_pos, matrices), flat(off_pos, matrices),
                            flat(rhs_pos, systems)]),
            np.concatenate([flat(diag_edge, edges), flat(off_edge, edges),
                            np.tile(flat(rhs_edge, edges), k)]),
            rows * len(diag_pos), rows * (len(diag_pos) + len(off_pos)),
            mat_size + k * column, ones,
            sources.reshape(k, rows) if chunk else sources.reshape(batch),
            (rows * step, mat_size, batch + stored, used, (k, column) if chunk else None,
             lead + (width,)),
        )
        a_idx, b_idx = (flat(idx, systems[:rows]).reshape(batch + (-1,))
                        for idx in self._gather_lists)
        # the solution at voltage j sits j columns further on
        shift = None if chunk is None else (column * np.arange(k)).reshape(
            (k,) + (1,) * len(shape))
        read = a_idx, b_idx, shift
        if self.banded:
            solve = tuple(ctypes.c_int64(v) for v in (column, kd, k, kd + 1, column, 0)) + (
                mat_size * np.dtype(float).itemsize,)
        else:  # each band entry and its mirror, written into zeroed full matrices
            slot = np.flatnonzero(np.arange(nf)[:, None] + np.arange(kd + 1) < nf)
            c, d = np.divmod(slot, kd + 1)  # the band's entry (c + d, c)
            squares = nf * nf * np.arange(rows)
            solve = (flat(slot, matrices), flat((c + d) * nf + c, squares),
                     flat(c * nf + c + d, squares), batch + (nf, nf))
        tables = self._flat[(shape, chunk)] = stamp, read, solve
        return tables

    def build_system(self, x: np.ndarray, v_src):
        """Stamp the reduced conductance matrix and Dirichlet right-hand side.

        ``x`` holds one network's states (E,) or a batch on this topology
        (B, E), giving (B, nf, kd + 1) lower bands and (B, nf) right-hand
        sides. An array of K source voltages stamps the matrix once and K
        right-hand sides, on a leading axis: (K, B, nf). Both results are
        views into one buffer; each right-hand side is the head of a padded
        solution vector [free nodes..., 0.0, v_src], which ``solve_raw``
        solves in place. One ``np.bincount`` sums each entry in stamp order,
        so a row of a batch, or of a chunk of voltages, is bit-identical to
        the same states stamped alone. The source slot is written, not
        summed: a sum from 0.0 would turn a source at -0.0 into +0.0.

        The buffer holds one block-diagonal band of all B systems and its K
        right-hand sides, ``dpbsv``'s layout for one call: each system's
        free nodes and its ground and source slots, which are identity rows
        with diagonal 1.0 and no coupling, so each padded vector solves in
        place, then kd trailing identity rows, whose right-hand sides stay
        0.0. The layout is the same where numpy's LAPACK has no ``dpbsv``.
        """
        chunk = isinstance(v_src, np.ndarray)
        key = (x.shape, v_src.size if chunk else None)
        tables = self._flat.get(key) or self._tables(*key)
        pos, edge, diag_end, mat_end, size, ones, sources, views = tables[0]
        weights = (1.0 / x).ravel()[edge]
        off, rhs = weights[diag_end:mat_end], weights[mat_end:]
        np.negative(off, out=off)  # the bits of -1.0 * g
        if chunk:
            v_src = v_src.reshape(-1, 1)
            rhs = rhs.reshape(len(v_src), -1)
        np.multiply(rhs, v_src, out=rhs)
        # (with no free nodes and so no terms, bincount returns integers)
        stamped = np.bincount(pos, weights=weights, minlength=size).astype(float, copy=False)
        stamped[ones] = 1.0
        stamped[sources] = v_src
        mat_used, mat_size, stored, used, columns, padded_shape = views
        if columns is None:
            padded = stamped[mat_size:mat_size + used].reshape(padded_shape)
        else:  # K right-hand sides, each before its own trailing rows
            padded = stamped[mat_size:].reshape(columns)[:, :used].reshape(padded_shape)
        self._stamped = tables, stamped, padded
        nf = self.n_free
        return stamped[:mat_used].reshape(stored)[..., :nf, :], padded[..., :nf]

    def _band_solve(self, stamped: np.ndarray, band: tuple) -> None:
        """Solve the block-diagonal band of one stamped buffer and all of its
        right-hand sides in place in one ``dpbsv`` call, which factorizes it
        once. ``band`` holds the call's arguments from ``_tables``; the band
        is overwritten by its Cholesky factor, each right-hand side by its
        solution. Both are passed as offsets into one ``ctypes`` view of the
        buffer. A system that is not positive definite raises
        SingularSystemError naming its batch row.

        OpenBLAS runs the call on one thread: set to its default thread
        count, a band solve takes the same bits several times slower (3.2
        against 0.73 ms at 32x32 on a 2-core host). Where the count is not 1
        it is set to 1 for the duration of the call and restored afterwards,
        a setting of the whole process while a band solve runs."""
        n, kd, nrhs, ldab, ldb, info, rhs_at = band
        buf = ctypes.c_char.from_buffer(stamped)
        threads = 1 if self._threads is None else self._threads[0]()
        if threads != 1:
            self._threads[1](1)
        try:
            self._cholesky(b"L", n, kd, nrhs, ctypes.byref(buf), ldab,
                           ctypes.byref(buf, rhs_at), ldb, info, 1)
        finally:
            if threads != 1:
                self._threads[1](threads)
        if info.value:  # the trailing rows are identity rows and cannot fail
            row = (info.value - 1) // (self.n_free + 2)
            raise SingularSystemError(
                f"dpbsv info={info.value}: the reduced conductance matrix of batch row "
                f"{row} is not positive definite"
            )

    def solve_raw(self, x: np.ndarray, v_src):
        """Solve for (padded node voltages, per-device voltages).

        The padded vector is ordered [free nodes..., 0.0, v_src]; use the
        precomputed gather indices to read voltages per edge or per node, and
        ``near`` and ``source_current`` for the source current. A (B, E)
        batch of states gives a leading batch axis on both results.
        ``v_src`` may also be an array of K source voltages, (K,) or
        (K,) + (1,) * x.ndim: the same states are then solved at each of
        them, with one stamp per system (and on the banded path one
        factorization), and both results gain a further leading axis of K.
        """
        if isinstance(v_src, np.ndarray):
            v_src = v_src.reshape((-1,) + (1,) * x.ndim)
        _, rhs = self.build_system(x, v_src)
        (_, (a_idx, b_idx, shift), solve), stamped, padded = self._stamped
        if self.banded:
            self._band_solve(stamped, solve)
        else:  # LU of each system's full matrix, broadcast over a chunk's voltages
            band, lower, upper, square = solve
            matrix = np.zeros(square)
            full = matrix.ravel()
            full[lower] = full[upper] = stamped[band]
            try:
                rhs[...] = np.linalg.solve(matrix, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise SingularSystemError(
                    f"np.linalg.solve: the reduced conductance matrix of batch row "
                    f"{_singular_row(matrix)} is singular") from None
        if shift is not None:
            a_idx, b_idx = a_idx + shift, b_idx + shift
        v_m = stamped[a_idx] - stamped[b_idx]
        if self._inverted:  # x 1.0 is exact, so forward units skip it
            v_m *= self._polarity
        return padded, v_m

    def resistance(self, x: np.ndarray):
        """The two-terminal resistance of one network's states (E,) or of a
        batch (B, E): one solve at 1 V, over the current it draws. Each row
        keeps the bits it has solved alone: on the band path every system has
        kd rows after it, and the fallback factors each matrix by its own LU."""
        padded, _ = self.solve_raw(x, 1.0)
        return 1.0 / self.source_current(1.0, padded[..., self.near], x)

    def source_current(self, v_src, v_near, x):
        """The current drawn from the source by solves at ``v_src``: per
        source edge (v_src - v_near) / x, from the voltage ``v_near`` at its
        far end, ``padded[..., self.near]`` of a solution, and the edge's
        state in ``x``, summed over the source's edges. ``v_src`` is a scalar
        or has the leading axes alone, those of one solve or of a stack of
        recorded ones, and a stack gives each solve's bits as it would
        alone, zero sign included."""
        v_src = np.reshape(v_src, np.shape(v_src) + (1,) * (np.ndim(v_near) - np.ndim(v_src)))
        drop = v_src - v_near
        for column, edge in enumerate(self.src_edges.tolist()):
            # in place, by the edge's strided view: no gathered copy of x
            drop[..., column] /= x[..., edge]
        if drop.shape[-1] == 1:  # np.add.reduce adds from +0.0, which drops a -0.0's sign
            return drop[..., 0][()]
        return np.add.reduce(drop, axis=-1)


def _singular_row(matrix: np.ndarray) -> int:
    """The first system of a stack of full matrices that ``np.linalg.solve``
    cannot factorize."""
    for row, system in enumerate(matrix.reshape((-1,) + matrix.shape[-2:])):
        try:
            np.linalg.solve(system, system[0])
        except np.linalg.LinAlgError:
            return row


def effective_resistance(network: GridNetwork, states):
    """Two-terminal resistance between source and ground with edge weights 1/x,
    math.inf where they are disconnected: a float for one network's states
    (E,), an array of the leading shape for a stack (..., E), which one
    ``NodalStamper.resistance`` call reads; an empty stack solves nothing."""
    x = states_to_array(network, states)
    if 0 in x.shape[:-1]:
        return np.empty(x.shape[:-1])
    try:
        r = NodalStamper(network).resistance(x.reshape(-1, x.shape[-1])).reshape(x.shape[:-1])
    except DisconnectedNetworkError:
        r = np.full(x.shape[:-1], math.inf)
    return float(r) if x.ndim == 1 else r
