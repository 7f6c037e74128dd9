"""Square-lattice network construction: node removal, polarity inversion, labeling.

Nodes live at integer (row, col) positions with (0, 0) the upper-left corner.
Each edge between lattice-adjacent nodes carries one memristive unit. The
edge's ``node_a`` is always the up/left endpoint; the unit voltage is
``polarity * (v(node_a) - v(node_b))``, so with the default FORWARD polarity a
positive source at the upper-left corner drives the direct source-to-ground
paths in the RESET direction.
"""

import json
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .device import DeviceParams, InvalidValue, Polarity

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class NodeId(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class EdgeDescriptor:
    label: int
    node_a: NodeId
    node_b: NodeId
    orientation: str
    polarity: Polarity
    params: DeviceParams


@dataclass(frozen=True)
class GridNetwork:
    n: int
    present: frozenset
    edges: tuple
    source: NodeId
    ground: NodeId
    seed: int

    def __post_init__(self):
        if self.source == self.ground:
            raise ValueError("source and ground must differ")
        for terminal in (self.source, self.ground):
            if terminal not in self.present:
                raise ValueError(f"terminal {terminal} not in present set")
        for e in self.edges:
            if e.node_a not in self.present or e.node_b not in self.present:
                raise ValueError(f"edge {e.label} has a removed endpoint")

    @property
    def labels(self) -> list[int]:
        return [e.label for e in self.edges]


def _lattice_scan(n: int):
    """Yield (node_a, node_b, orientation) in the canonical label order:
    rows top to bottom; within a row, horizontals left to right, then the
    verticals hanging below it."""
    for r in range(n):
        for c in range(n - 1):
            yield NodeId(r, c), NodeId(r, c + 1), HORIZONTAL
        if r < n - 1:
            for c in range(n):
                yield NodeId(r, c), NodeId(r + 1, c), VERTICAL


def check_lattice(n: int, p_r: float, p_i: float, seed: int, source, ground) -> tuple:
    """Check ``build_grid``'s lattice arguments and return (source, ground),
    a terminal left None taking its default: (0, 0) and (n - 1, 0)."""
    if not n >= 2:
        raise InvalidValue("n", f"must be >= 2, got {n}")
    for name, p in (("p_r", p_r), ("p_i", p_i)):
        if not 0 <= p <= 1:
            raise InvalidValue(name, f"must lie in [0, 1], got {p}")
    if not seed >= 0:
        raise InvalidValue("seed", f"must be >= 0, got {seed}")
    source = NodeId(0, 0) if source is None else NodeId(*source)
    ground = NodeId(n - 1, 0) if ground is None else NodeId(*ground)
    for name, terminal in (("source", source), ("ground", ground)):
        if not (0 <= terminal.row < n and 0 <= terminal.col < n):
            raise InvalidValue(name, f"{tuple(terminal)} lies outside the {n}x{n} lattice")
    if source == ground:
        raise InvalidValue("ground", f"must differ from source {tuple(source)}")
    return source, ground


def build_grid(
    n: int,
    p_r: float,
    p_i: float,
    seed: int,
    params: DeviceParams,
    source: NodeId | None = None,
    ground: NodeId | None = None,
) -> GridNetwork:
    """Build an n x n lattice with random node removal and polarity inversion.

    Every non-terminal node is erased with independent probability ``p_r``
    (erasing a node takes all its incident edges with it); each surviving
    edge's polarity is flipped with independent probability ``p_i``. The
    source and ground nodes are never removed. Fixed arguments give an
    identical network edge for edge.

    A disconnected result is valid; use :func:`is_connected` to detect it.
    """
    source, ground = check_lattice(n, p_r, p_i, seed, source, ground)
    # A draw against probability 0 changes nothing, so a complete, uninverted
    # lattice skips the generator (and importing numpy.random); otherwise
    # every draw is made, which keeps the seeded stream.
    rng = np.random.default_rng(seed) if p_r or p_i else None
    present = set()
    for r in range(n):
        for c in range(n):
            node = NodeId(r, c)
            if node in (source, ground):
                present.add(node)
            elif rng is None or rng.random() >= p_r:
                present.add(node)

    edges = []
    label = 0
    for a, b, orientation in _lattice_scan(n):
        if a not in present or b not in present:
            continue
        polarity = (Polarity.INVERTED if rng is not None and rng.random() < p_i
                    else Polarity.FORWARD)
        edges.append(EdgeDescriptor(label, a, b, orientation, polarity, params))
        label += 1

    return GridNetwork(
        n=n,
        present=frozenset(present),
        edges=tuple(edges),
        source=source,
        ground=ground,
        seed=seed,
    )


def canonical_labels(network: GridNetwork) -> GridNetwork:
    """Relabel edges by the canonical row scan; idempotent and stable."""
    order = {(a, b): i for i, (a, b, _) in enumerate(_lattice_scan(network.n))}
    ranked = sorted(network.edges, key=lambda e: order[(e.node_a, e.node_b)])
    relabeled = tuple(replace(e, label=i) for i, e in enumerate(ranked))
    return replace(network, edges=relabeled)


def adjacency(network: GridNetwork) -> dict:
    adj: dict = {node: [] for node in network.present}
    for e in network.edges:
        adj[e.node_a].append((e.node_b, e.label))
        adj[e.node_b].append((e.node_a, e.label))
    return adj


def reachable_from(network: GridNetwork, start: NodeId) -> set:
    """Breadth-first set of nodes reachable from ``start`` over surviving edges."""
    adj = adjacency(network)
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor, _ in adj[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def is_connected(network: GridNetwork) -> bool:
    """True iff source and ground share a connected component."""
    return network.ground in reachable_from(network, network.source)


def network_to_json(network: GridNetwork) -> str:
    """Serialize a network (nodes, edges, labels, polarities, seed) for
    reproducibility: every field of it and of its edges and their params,
    a node as its [row, col] and a polarity as its int."""
    payload = {**asdict(network), "present": sorted(list(node) for node in network.present)}
    return json.dumps(payload, indent=2, sort_keys=True)


def network_from_json(text: str) -> GridNetwork:
    payload = json.loads(text)
    edges = tuple(
        EdgeDescriptor(
            label=e["label"],
            node_a=NodeId(*e["node_a"]),
            node_b=NodeId(*e["node_b"]),
            orientation=e["orientation"],
            polarity=Polarity(e["polarity"]),
            params=DeviceParams(**e["params"]),
        )
        for e in payload["edges"]
    )
    return GridNetwork(
        n=payload["n"],
        present=frozenset(NodeId(*node) for node in payload["present"]),
        edges=edges,
        source=NodeId(*payload["source"]),
        ground=NodeId(*payload["ground"]),
        seed=payload["seed"],
    )
