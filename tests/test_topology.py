from pathlib import Path

import numpy as np
import pytest

from memgrid.device import DeviceParams, Polarity
from memgrid.topology import (
    HORIZONTAL,
    VERTICAL,
    GridNetwork,
    NodeId,
    build_grid,
    canonical_labels,
    is_connected,
    network_from_json,
    network_to_json,
)

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)


def test_full_grid_edge_counts():
    assert len(build_grid(4, 0.0, 0.0, 0, P).edges) == 24
    assert len(build_grid(2, 0.0, 0.0, 0, P).edges) == 4
    for n in (3, 5, 7):
        assert len(build_grid(n, 0.0, 0.0, 0, P).edges) == 2 * n * (n - 1)


def test_full_grid_default_polarity():
    net = build_grid(4, 0.0, 0.0, 0, P)
    assert all(e.polarity == Polarity.FORWARD for e in net.edges)


def test_no_removal_and_no_inversion_keeps_every_node_forward():
    for n, seed in [(2, 0), (4, 1), (4, 7), (5, 123), (6, 2**40)]:
        net = build_grid(n, 0.0, 0.0, seed, P)
        assert net.present == frozenset(NodeId(r, c) for r in range(n) for c in range(n))
        assert len(net.edges) == 2 * n * (n - 1)
        assert all(e.polarity == Polarity.FORWARD for e in net.edges)
        assert net.seed == seed


def test_either_probability_keeps_every_draw():
    """With p_r or p_i above 0, every node draw and every polarity draw is
    taken from the seeded generator in scan order, even against a
    probability of 0."""
    for p_r, p_i, seed in [(0.0, 0.5, 3), (0.3, 0.0, 4), (0.3, 0.5, 5)]:
        net = build_grid(5, p_r, p_i, seed, P)
        draws = np.random.default_rng(seed).random(25 - 2 + len(net.edges))
        drawn = [node for node in (NodeId(r, c) for r in range(5) for c in range(5))
                   if node not in (net.source, net.ground)]
        assert [node not in net.present for node in drawn] == list(draws[:23] < p_r)
        assert ([e.polarity == Polarity.INVERTED for e in net.edges]
                == list(draws[23:] < p_i))


def test_p_r_one_removes_everything_but_terminals():
    net = build_grid(4, 1.0, 0.0, 7, P, source=NodeId(0, 0), ground=NodeId(3, 0))
    assert net.present == frozenset({NodeId(0, 0), NodeId(3, 0)})
    assert net.edges == ()
    assert not is_connected(net)


def test_canonical_label_order_4x4():
    net = build_grid(4, 0.0, 0.0, 0, P)
    assert [e.label for e in net.edges] == list(range(24))
    e0 = net.edges[0]
    assert (e0.node_a, e0.node_b, e0.orientation) == (NodeId(0, 0), NodeId(0, 1), HORIZONTAL)
    # bottom row carries only horizontals
    for label in (21, 22, 23):
        e = net.edges[label]
        assert e.orientation == HORIZONTAL and e.node_a.row == 3


def test_canonical_label_order_2x2():
    net = build_grid(2, 0.0, 0.0, 0, P)
    expected = [
        (NodeId(0, 0), NodeId(0, 1), HORIZONTAL),
        (NodeId(0, 0), NodeId(1, 0), VERTICAL),
        (NodeId(0, 1), NodeId(1, 1), VERTICAL),
        (NodeId(1, 0), NodeId(1, 1), HORIZONTAL),
    ]
    assert [(e.node_a, e.node_b, e.orientation) for e in net.edges] == expected
    assert [e.label for e in net.edges] == [0, 1, 2, 3]


def test_canonical_labels_idempotent_and_repairs_permutations():
    net = build_grid(3, 0.3, 0.5, 11, P)
    assert canonical_labels(net) == net
    scrambled = GridNetwork(
        n=net.n,
        present=net.present,
        edges=tuple(reversed([e for e in canonical_labels(net).edges])),
        source=net.source,
        ground=net.ground,
        seed=net.seed,
    )
    assert canonical_labels(scrambled) == net


def test_labels_are_contiguous_for_random_networks():
    for seed in range(40):
        net = build_grid(5, 0.35, 0.5, seed, P)
        assert [e.label for e in net.edges] == list(range(len(net.edges)))


def test_seed_determinism():
    a = build_grid(5, 0.4, 0.5, 123, P)
    b = build_grid(5, 0.4, 0.5, 123, P)
    assert a == b
    c = build_grid(5, 0.4, 0.5, 124, P)
    assert a != c


def test_terminals_always_present():
    for seed in range(50):
        net = build_grid(4, 0.9, 0.0, seed, P)
        assert net.source in net.present
        assert net.ground in net.present


def test_removal_probability_monotone_in_expectation():
    seeds = range(200)
    means = []
    for p_r in (0.0, 0.2, 0.5, 0.8):
        counts = [len(build_grid(4, p_r, 0.0, s, P).edges) for s in seeds]
        means.append(np.mean(counts))
    assert means[0] == 24.0
    assert means[0] >= means[1] >= means[2] >= means[3]


def test_inversion_probability_flips_polarity():
    net = build_grid(4, 0.0, 1.0, 3, P)
    assert all(e.polarity == Polarity.INVERTED for e in net.edges)
    counts = [
        sum(1 for e in build_grid(4, 0.0, 0.5, s, P).edges if e.polarity == Polarity.INVERTED)
        for s in range(100)
    ]
    assert 0.3 < np.mean(counts) / 24.0 < 0.7


def test_connectivity_detection():
    assert is_connected(build_grid(4, 0.0, 0.0, 0, P))
    # removing all of column 1 leaves the column-0 chain between the terminals
    full = build_grid(4, 0.0, 0.0, 0, P)
    keep = frozenset(n for n in full.present if n.col != 1)
    edges = tuple(e for e in full.edges if e.node_a in keep and e.node_b in keep)
    cut = canonical_labels(
        GridNetwork(n=4, present=keep, edges=edges, source=full.source,
                    ground=full.ground, seed=0)
    )
    assert is_connected(cut)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_grid(1, 0.0, 0.0, 0, P)
    with pytest.raises(ValueError):
        build_grid(4, -0.1, 0.0, 0, P)
    with pytest.raises(ValueError):
        build_grid(4, 0.0, 1.5, 0, P)
    for p_i in (0.0, 0.5):  # with or without a draw
        with pytest.raises(ValueError, match="seed"):
            build_grid(4, 0.0, p_i, -1, P)
    with pytest.raises(ValueError):
        build_grid(4, 0.0, 0.0, 0, P, source=NodeId(0, 0), ground=NodeId(0, 0))
    with pytest.raises(ValueError):
        build_grid(4, 0.0, 0.0, 0, P, source=NodeId(5, 0))


def test_json_round_trip():
    for seed in (0, 5, 9):
        net = build_grid(4, 0.3, 0.4, seed, P)
        assert network_from_json(network_to_json(net)) == net


def test_network_json_matches_its_golden_file_byte_for_byte():
    """A seeded, distorted 3x3 lattice: one node removed, three units
    inverted, a non-default r_init. Round trips cannot see key order or
    number formatting; the frozen file pins both."""
    p = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=1.5e5)
    net = build_grid(3, 0.2, 0.3, 5, p)
    golden = (Path(__file__).parent / "data" / "golden_network_3x3.json").read_text()
    assert network_to_json(net) == golden
