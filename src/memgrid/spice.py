"""NGSPICE netlist export for external cross-validation.

Each unit becomes one subcircuit instance: a behavioral current source
implements the conduction law through the state-valued resistance, a 1 F
capacitor integrates the windowed state drive (1 V of state per ohm), and
diode-clamped voltage sources pin the state inside [r_on, r_off]. Pins are
ordered by polarity so V(p,n) inside the subcircuit equals the unit voltage
used by the in-memory engine. Output is byte-for-byte deterministic for fixed
inputs.
"""

from .engine import SimConfig, Waveform
from .topology import GridNetwork


def _num(x: float) -> str:
    return repr(float(x))


def _node_name(node) -> str:
    return f"n{node.row}_{node.col}"


_SUBCKT = """\
.subckt memunit p n PARAMS: ron={ron} roff={roff} rinit={rinit} vt={vt} beta={beta}
* state capacitor: V(xs) holds the device resistance in ohms
Cx xs 0 1 IC={{rinit}}
* windowed drive: clip(v,vt) = v - 0.5*(abs(v+vt) - abs(v-vt)) is zero for
* |v| <= vt and linear beyond; step windows block growth past the bounds
Bx 0 xs I={{beta*(V(p,n) - 0.5*(abs(V(p,n)+vt) - abs(V(p,n)-vt)))*(u(V(p,n))*u(roff-V(xs)) + u(-V(p,n))*u(V(xs)-ron))}}
* opposed diode clamps hold the state between the programmed bounds
Dhi xs bhi dclamp
Vhi bhi 0 DC {{roff}}
Dlo blo xs dclamp
Vlo blo 0 DC {{ron}}
* conduction through the state-valued resistance
Bm p n I={{V(p,n)/V(xs)}}
.model dclamp D(is=1e-9 n=0.01)
.ends memunit"""


def export_spice(network: GridNetwork, w: Waveform, dt: float = SimConfig.dt) -> str:
    """Render the network as an NGSPICE deck with a transient directive
    matching (dt, cycles/frequency)."""
    SimConfig(dt=dt)  # raises InvalidValue naming dt, as a run's SimConfig does
    if not network.edges:
        raise ValueError("the lattice has no memristive units to export")
    first = network.edges[0].params
    lines = [
        f"memgrid lattice: {network.n}x{network.n}, {len(network.edges)} memristive units",
        "* nodes are named n<row>_<col>; instance X<label> maps to edge <label>",
        _SUBCKT.format(ron=_num(first.r_on), roff=_num(first.r_off),
                       rinit=_num(first.r_init), vt=_num(first.v_t),
                       beta=_num(first.beta)),
        "",
    ]
    for e in network.edges:
        plus, minus = (e.node_a, e.node_b) if int(e.polarity) > 0 else (e.node_b, e.node_a)
        lines.append(
            f"X{e.label} {_node_name(plus)} {_node_name(minus)} memunit "
            f"PARAMS: ron={_num(e.params.r_on)} roff={_num(e.params.r_off)} "
            f"rinit={_num(e.params.r_init)} vt={_num(e.params.v_t)} "
            f"beta={_num(e.params.beta)}"
        )
    phase_deg = w.phase * 180.0 / 3.141592653589793
    lines += [
        "",
        f"Vsrc {_node_name(network.source)} {_node_name(network.ground)} "
        f"SIN(0 {_num(w.amplitude)} {_num(w.frequency)} 0 0 {_num(phase_deg)})",
        f"Vgnd {_node_name(network.ground)} 0 DC 0",
        f".tran {_num(dt)} {_num(w.duration)} uic",
        ".end",
        "",
    ]
    return "\n".join(lines)
