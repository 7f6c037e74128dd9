"""Nodal analysis of the frozen resistor network.

At each instant the lattice is a linear resistor network: device conductances
1/x are stamped into a reduced Laplacian over the free nodes, the source and
ground potentials are eliminated Dirichlet-style into the right-hand side, and
the dense system is solved by LU. Nodes unreachable from the terminals are
excluded and reported at 0 V.

:class:`NodalStamper` precompiles the index structure of a network once so the
time-marching engine can re-solve with updated resistances at full speed; the
``assemble``/``solve`` pair wraps the same kernel for one-shot use.
"""

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .topology import GridNetwork, NodeId, reachable_from


class DisconnectedNetworkError(Exception):
    """Source and ground are not in one connected component."""


class SingularSystemError(Exception):
    """The reduced conductance matrix could not be factorized; this signals a
    bug or degenerate conductances, not a legitimate network state."""


def states_to_array(network: GridNetwork, states) -> np.ndarray:
    """Normalize per-device states (label -> DeviceState mapping, or an array
    ordered by label) into a resistance array."""
    if isinstance(states, Mapping):
        x = np.array([float(states[e.label].x) for e in network.edges])
    else:
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


class NodalStamper:
    """Precompiled stamping structure for one network topology.

    Raises DisconnectedNetworkError on construction when the terminals do not
    share a component.
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

        # Flattened-matrix contribution lists: for edge conductance g, the
        # diagonal of each free endpoint gains +g and the symmetric
        # off-diagonal pair gains -g.
        mat_pos, mat_edge, mat_sign = [], [], []
        rhs_pos, rhs_edge = [], []
        src_edge, src_other = [], []
        for k, e in enumerate(network.edges):
            sa, sb = slot(e.node_a), slot(e.node_b)
            if sa is None or sb is None:
                continue  # island edge: no current can flow
            for mine, other in ((sa, sb), (sb, sa)):
                if mine < 0:
                    continue
                mat_pos.append(mine * nf + mine)
                mat_edge.append(k)
                mat_sign.append(1.0)
                if other >= 0:
                    mat_pos.append(mine * nf + other)
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
            (mat_pos, nf * nf), (mat_edge, n_edges), (rhs_pos, nf), (rhs_edge, n_edges),
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

    def build_system(self, x: np.ndarray, v_src: float):
        """Stamp the reduced conductance matrix and Dirichlet right-hand side.

        ``x`` holds one network's states (E,) or a batch on this topology
        (B, E), giving (B, nf, nf) matrices and (B, nf) right-hand sides.
        ``np.bincount`` sums each entry in stamp order, so a row of a batch is
        bit-identical to the same states stamped alone.
        """
        nf = self.n_free
        rows = 1 if x.ndim == 1 else len(x)
        mat_pos, mat_edge, rhs_pos, rhs_edge, *_, mat_sign = self._flat_index(rows)
        g = (1.0 / x).ravel()
        matrix = np.bincount(mat_pos, weights=mat_sign * g[mat_edge], minlength=rows * nf * nf)
        rhs = np.bincount(rhs_pos, weights=g[rhs_edge] * v_src, minlength=rows * nf)
        return matrix.reshape(x.shape[:-1] + (nf, nf)), rhs.reshape(x.shape[:-1] + (nf,))

    def solve_raw(self, x: np.ndarray, v_src: float):
        """Solve for (padded node voltages, per-device voltages, source current).

        The padded vector is ordered [free nodes..., 0.0, v_src]; use the
        precomputed gather indices to read voltages per edge or per node. A
        (B, E) batch of states gives a leading batch axis on every result.
        """
        matrix, rhs = self.build_system(x, v_src)
        batched = x.ndim == 2
        try:
            if batched:
                sol = np.linalg.solve(matrix, rhs[..., None])[..., 0]
            else:
                sol = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as err:
            raise SingularSystemError(str(err)) from err
        padded = np.empty(x.shape[:-1] + (self.n_free + 2,))
        padded[..., :self.n_free] = sol
        padded[..., self.n_free:] = (0.0, v_src)
        a_idx, b_idx, other_idx, src_idx, _ = self._flat_index(len(x) if batched else 1)[4:]
        flat = padded.ravel()
        v_m = self._polarity * (flat[a_idx] - flat[b_idx]).reshape(x.shape)
        currents = (v_src - flat[other_idx]) / x.ravel()[src_idx]
        i_src = currents.reshape(len(x), -1).sum(axis=1) if batched else float(np.sum(currents))
        return padded, v_m, i_src

    def node_voltages(self, padded: np.ndarray) -> dict:
        return {
            node: float(padded[i])
            for node, i in zip(self.present_nodes, self._present_idx)
        }


@dataclass(frozen=True)
class NodalSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    index_map: dict
    v_src: float
    stamper: NodalStamper
    x: np.ndarray


@dataclass(frozen=True)
class Solution:
    voltages: dict
    source_current: float


def assemble(network: GridNetwork, states, v_src: float) -> NodalSystem:
    """Laplacian stamping of 1/x per edge with source/ground eliminated.

    Raises DisconnectedNetworkError when no source-ground path exists.
    """
    x = states_to_array(network, states)
    stamper = NodalStamper(network)
    matrix, rhs = stamper.build_system(x, v_src)
    return NodalSystem(
        matrix=matrix,
        rhs=rhs,
        index_map=dict(stamper.index_map),
        v_src=v_src,
        stamper=stamper,
        x=x,
    )


def solve(system: NodalSystem) -> Solution:
    """Node voltages plus the current delivered by the source into the network."""
    padded, _, i_src = system.stamper.solve_raw(system.x, system.v_src)
    return Solution(
        voltages=system.stamper.node_voltages(padded),
        source_current=i_src,
    )


def effective_resistance(network: GridNetwork, states) -> float:
    """Two-terminal resistance between source and ground with edge weights 1/x.

    Returns math.inf for a disconnected network.
    """
    try:
        system = assemble(network, states, v_src=1.0)
    except DisconnectedNetworkError:
        return math.inf
    return 1.0 / solve(system).source_current


def max_kcl_residual(network: GridNetwork, states, solution: Solution) -> float:
    """Largest absolute current imbalance over the free nodes, for verification."""
    x = states_to_array(network, states)
    v = solution.voltages
    residual = {node: 0.0 for node in network.present}
    for e, xe in zip(network.edges, x):
        flow = (v[e.node_a] - v[e.node_b]) / xe
        residual[e.node_a] -= flow
        residual[e.node_b] += flow
    free = set(network.present) - {network.source, network.ground}
    return max((abs(residual[node]) for node in free), default=0.0)
