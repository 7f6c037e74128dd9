"""memgrid: transient simulation of lattices of threshold-type bipolar
memristive devices, with global-resistance readout, per-unit sensitization
experiments and NGSPICE netlist export."""

from .device import DeviceParams, Polarity, clipped_drive, state_rate
from .engine import SimConfig, Trace, Waveform, simulate, waveform_sample
from .experiments import (
    SensitizationResult,
    SingleDeviceRun,
    UniformArrayRun,
    exceedance_sets,
    run_sensitization,
    run_single_device,
    run_uniform_array,
)
from .measure import (
    InsufficientSamplesError,
    RemnantPoint,
    ResistanceMap,
    find_zero_crossings,
    fit_global_resistance,
    remnant_series,
    resistance_map,
)
from .solver import (
    DisconnectedNetworkError,
    NodalStamper,
    SingularSystemError,
    effective_resistance,
)
from .spice import export_spice
from .topology import (
    EdgeDescriptor,
    GridNetwork,
    NodeId,
    build_grid,
    canonical_labels,
    is_connected,
    network_from_json,
    network_to_json,
)

__version__ = "0.2.0"

__all__ = [
    "DeviceParams", "Polarity", "clipped_drive", "state_rate",
    "SimConfig", "Trace", "Waveform", "simulate", "waveform_sample",
    "SensitizationResult", "SingleDeviceRun", "UniformArrayRun",
    "exceedance_sets", "run_sensitization", "run_single_device",
    "run_uniform_array",
    "InsufficientSamplesError", "RemnantPoint", "ResistanceMap",
    "find_zero_crossings", "fit_global_resistance", "remnant_series",
    "resistance_map",
    "DisconnectedNetworkError", "NodalStamper", "SingularSystemError",
    "effective_resistance",
    "export_spice",
    "EdgeDescriptor", "GridNetwork", "NodeId", "build_grid",
    "canonical_labels", "is_connected", "network_from_json", "network_to_json",
]
