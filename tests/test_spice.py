from pathlib import Path

import pytest

from memgrid.device import DeviceParams, Polarity
from memgrid.engine import Waveform
from memgrid.spice import export_spice
from memgrid.topology import HORIZONTAL, EdgeDescriptor, GridNetwork, NodeId, build_grid
from oracles import sensitized_network

P = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
GOLDEN = Path(__file__).parent / "data" / "golden_reference_netlist.cir"


def reference_netlist() -> str:
    net = build_grid(4, 0.0, 0.0, 0, P)
    return export_spice(net, Waveform(amplitude=12.0, frequency=1.0, cycles=5), dt=1e-3)


def one_edge(polarity):
    a, b = NodeId(0, 0), NodeId(0, 1)
    return GridNetwork(
        n=2, present=frozenset({a, b}),
        edges=(EdgeDescriptor(0, a, b, HORIZONTAL, polarity, P),),
        source=a, ground=b, seed=0,
    )


def test_reference_netlist_matches_golden_byte_for_byte():
    assert reference_netlist() == GOLDEN.read_text()


def test_instance_counts():
    text = reference_netlist()
    instances = [line for line in text.splitlines() if line.startswith("X")]
    assert len(instances) == 24
    single = export_spice(one_edge(Polarity.FORWARD), Waveform(amplitude=1, cycles=1))
    assert sum(1 for line in single.splitlines() if line.startswith("X")) == 1


def test_export_is_deterministic():
    assert reference_netlist() == reference_netlist()


def test_polarity_orders_the_pins():
    fwd = export_spice(one_edge(Polarity.FORWARD), Waveform(amplitude=1, cycles=1))
    inv = export_spice(one_edge(Polarity.INVERTED), Waveform(amplitude=1, cycles=1))
    assert "X0 n0_0 n0_1 memunit" in fwd
    assert "X0 n0_1 n0_0 memunit" in inv


def test_transient_directive_and_source():
    text = export_spice(one_edge(Polarity.FORWARD),
                        Waveform(amplitude=2.5, frequency=2.0, cycles=3), dt=5e-4)
    assert ".tran 0.0005 1.5 uic" in text
    assert "Vsrc n0_0 n0_1 SIN(0 2.5 2.0 0 0 0.0)" in text
    assert "Vgnd n0_1 0 DC 0" in text
    assert text.splitlines()[-1] == ".end"


def test_per_edge_parameters_are_emitted():
    net = build_grid(2, 0.0, 0.0, 0, P)
    sens = sensitized_network(net, 2, 0.06)
    text = export_spice(sens, Waveform(amplitude=1, cycles=1))
    lines = [line for line in text.splitlines() if line.startswith("X2 ")]
    assert len(lines) == 1 and "vt=0.06" in lines[0]
    others = [line for line in text.splitlines()
              if line.startswith("X") and not line.startswith("X2 ")]
    assert all("vt=0.6" in line for line in others)


def test_rejects_bad_dt():
    with pytest.raises(ValueError):
        export_spice(one_edge(Polarity.FORWARD), Waveform(amplitude=1, cycles=1), dt=0)
