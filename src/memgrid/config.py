"""INI-style run configuration.

Sections and keys (all physical quantities in plain SI units: ohm, volt,
hertz, second):

  [device]      r_on, r_off | ratio (exactly one of the two with r_on),
                v_t, beta, r_init (defaults to r_off)
  [array]       n, p_r, p_i, seed, source "row,col", ground "row,col"
  [source]      kind (sine), amplitude, frequency, cycles, phase
  [run]         dt, record_stride, fit_window, deviation_threshold
  [experiment]  kind (device|run|sense), vts, ratios, amplitudes, betas
                (the last three are comma-separated sweep lists; empty means
                use the single configured value)

Omitted keys fall back to the 4x4 reference defaults. Validation errors name
the offending section and key.
"""

import configparser
import math
from dataclasses import dataclass

from .device import DeviceParams
from .engine import SimConfig, Waveform
from .topology import NodeId


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    device: DeviceParams
    n: int
    p_r: float
    p_i: float
    seed: int
    source: NodeId
    ground: NodeId
    waveform: Waveform
    sim: SimConfig
    deviation_threshold: float
    experiment: str
    v_t_s: float
    ratios: tuple
    amplitudes: tuple
    betas: tuple


_SECTIONS = {
    "device": {"r_on", "r_off", "ratio", "v_t", "beta", "r_init"},
    "array": {"n", "p_r", "p_i", "seed", "source", "ground"},
    "source": {"kind", "amplitude", "frequency", "cycles", "phase"},
    "run": {"dt", "record_stride", "fit_window", "deviation_threshold"},
    "experiment": {"kind", "vts", "ratios", "amplitudes", "betas"},
}


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}].{key}: {message}")


def _float(raw: dict, section: str, key: str, default: float) -> float:
    if key not in raw[section]:
        return default
    try:
        return float(raw[section][key])
    except ValueError:
        _fail(section, key, f"not a number: {raw[section][key]!r}")


def _int(raw: dict, section: str, key: str, default: int) -> int:
    if key not in raw[section]:
        return default
    try:
        return int(raw[section][key])
    except ValueError:
        _fail(section, key, f"not an integer: {raw[section][key]!r}")


def _node(raw: dict, section: str, key: str, default: NodeId | None) -> NodeId | None:
    if key not in raw[section]:
        return default
    text = raw[section][key]
    parts = text.split(",")
    if len(parts) != 2:
        _fail(section, key, f"expected 'row,col', got {text!r}")
    try:
        return NodeId(int(parts[0]), int(parts[1]))
    except ValueError:
        _fail(section, key, f"expected integer 'row,col', got {text!r}")


def _float_list(raw: dict, section: str, key: str, ok, requirement: str) -> tuple:
    text = raw[section].get(key, "").strip()
    if not text:
        return ()
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        _fail(section, key, f"expected comma-separated numbers, got {text!r}")
    named = {}  # sweep outputs are named after each value's {:g} text
    for value in values:
        if not ok(value):
            _fail(section, key, f"each value must be {requirement}, got {value}")
        other = named.setdefault(f"{value:g}", value)
        if other != value:
            _fail(section, key, f"{other!r} and {value!r} would both write the files "
                                f"named after {value:g}")
    return tuple(named.values())  # each distinct value once, in first-seen order


def _check_dt(waveform: Waveform, dt: float) -> None:
    """The run takes round(duration / dt) steps, so a dt that does not divide
    the duration would silently shorten or stretch it."""
    steps = waveform.duration / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        _fail("run", "dt", f"{dt!r} does not divide the stimulus duration "
                           f"{waveform.duration!r} s ({steps:.6g} steps)")


def check_fit_sampling(waveform: Waveform, sim: SimConfig) -> None:
    """Require at least two recorded samples inside the fit window
    |v_src| <= fit_window around every zero crossing of the stimulus. Between
    samples h = dt * record_stride apart the sine moves by at most
    amplitude * sin(2*pi*frequency*h) near a crossing, as long as h spans at
    most a quarter period; a window of half-width fit_window then holds two
    samples whatever the phase."""
    step = 2.0 * math.pi * waveform.frequency * sim.dt * sim.record_stride
    if step > math.pi / 2 or waveform.amplitude * math.sin(step) > sim.fit_window:
        _fail("run", "dt", f"{sim.dt!r} (record_stride {sim.record_stride}) undersamples "
                           f"the stimulus: a semicycle at {waveform.frequency!r} Hz and "
                           f"{waveform.amplitude!r} V cannot hold two samples inside the "
                           f"fit window {sim.fit_window!r} V")


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate sectioned key-value text into a RunConfig.

    ``overrides`` maps (section, key) to value text that replaces the key's
    value in ``text`` before validation, so an override passes exactly the
    checks of its key."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(str(err)) from err

    raw: dict = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
        for key, value in parser.items(section):
            if key not in _SECTIONS[section]:
                _fail(section, key, "unknown key")
            raw[section][key] = value
    for (section, key), value in (overrides or {}).items():
        raw[section][key] = value

    r_on = _float(raw, "device", "r_on", 2000.0)
    if "r_off" in raw["device"] and "ratio" in raw["device"]:
        _fail("device", "ratio", "give either r_off or ratio, not both")
    if "ratio" in raw["device"]:
        r_off = r_on * _float(raw, "device", "ratio", 0.0)
    else:
        r_off = _float(raw, "device", "r_off", 200000.0)
    v_t = _float(raw, "device", "v_t", 0.6)
    beta = _float(raw, "device", "beta", 5e5)
    r_init = _float(raw, "device", "r_init", r_off)
    try:
        device = DeviceParams(r_on=r_on, r_off=r_off, v_t=v_t, beta=beta, r_init=r_init)
    except ValueError as err:
        raise ConfigError(f"[device]: {err}") from err

    n = _int(raw, "array", "n", 4)
    if n < 2:
        _fail("array", "n", f"must be >= 2, got {n}")
    p_r = _float(raw, "array", "p_r", 0.0)
    if not 0 <= p_r <= 1:
        _fail("array", "p_r", f"must lie in [0, 1], got {p_r}")
    p_i = _float(raw, "array", "p_i", 0.0)
    if not 0 <= p_i <= 1:
        _fail("array", "p_i", f"must lie in [0, 1], got {p_i}")
    seed = _int(raw, "array", "seed", 0)
    if seed < 0:
        _fail("array", "seed", f"must be >= 0, got {seed}")
    source = _node(raw, "array", "source", NodeId(0, 0))
    ground = _node(raw, "array", "ground", NodeId(n - 1, 0))
    for key, terminal in (("source", source), ("ground", ground)):
        if not (0 <= terminal.row < n and 0 <= terminal.col < n):
            _fail("array", key, f"{tuple(terminal)} outside the {n}x{n} lattice")
    if source == ground:
        _fail("array", "ground", "source and ground must differ")

    kind = raw["source"].get("kind", "sine")
    if kind != "sine":
        _fail("source", "kind", f"unsupported kind {kind!r}")
    amplitude = _float(raw, "source", "amplitude", 12.0)
    if amplitude < 0:
        _fail("source", "amplitude", f"must be >= 0, got {amplitude}")
    frequency = _float(raw, "source", "frequency", 1.0)
    if frequency <= 0:
        _fail("source", "frequency", f"must be > 0, got {frequency}")
    cycles = _int(raw, "source", "cycles", 5)
    if cycles < 1:
        _fail("source", "cycles", f"must be >= 1, got {cycles}")
    phase = _float(raw, "source", "phase", 0.0)
    waveform = Waveform(kind=kind, amplitude=amplitude, frequency=frequency,
                        cycles=cycles, phase=phase)

    dt = _float(raw, "run", "dt", 1e-3)
    if dt <= 0:
        _fail("run", "dt", f"must be > 0, got {dt}")
    record_stride = _int(raw, "run", "record_stride", 1)
    if record_stride < 1:
        _fail("run", "record_stride", f"must be >= 1, got {record_stride}")
    fit_window = _float(raw, "run", "fit_window", 0.1)
    if fit_window <= 0:
        _fail("run", "fit_window", f"must be > 0, got {fit_window}")
    if fit_window >= v_t:
        _fail("run", "fit_window", f"must be below the device threshold {v_t}")
    deviation_threshold = _float(raw, "run", "deviation_threshold", 0.01)
    if deviation_threshold <= 0:
        _fail("run", "deviation_threshold", f"must be > 0, got {deviation_threshold}")
    _check_dt(waveform, dt)
    sim = SimConfig(dt=dt, record_stride=record_stride, fit_window=fit_window)

    experiment = raw["experiment"].get("kind", "run")
    if experiment not in ("device", "run", "sense"):
        _fail("experiment", "kind", f"must be device, run or sense, got {experiment!r}")
    v_t_s = _float(raw, "experiment", "vts", 0.06)
    if v_t_s <= 0:
        _fail("experiment", "vts", f"must be > 0, got {v_t_s}")
    ratios = _float_list(raw, "experiment", "ratios", lambda r: r >= 1, ">= 1")
    if experiment == "sense" and not ratios and v_t_s > v_t:
        _fail("experiment", "vts", f"must not exceed [device].v_t {v_t}, got {v_t_s}")
    amplitudes = _float_list(raw, "experiment", "amplitudes", lambda a: a >= 0, ">= 0")
    betas = _float_list(raw, "experiment", "betas", lambda b: b > 0, "> 0")

    return RunConfig(
        device=device, n=n, p_r=p_r, p_i=p_i, seed=seed, source=source,
        ground=ground, waveform=waveform, sim=sim,
        deviation_threshold=deviation_threshold, experiment=experiment,
        v_t_s=v_t_s, ratios=ratios, amplitudes=amplitudes, betas=betas,
    )


def ini_value(value) -> str:
    """The INI text of one value: a float by repr, which parses back to the
    same double; a sequence as comma-joined floats; anything else by str."""
    if isinstance(value, (tuple, list)):
        return ",".join(repr(float(v)) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Resolved INI snapshot; parse_config(serialize_config(cfg)) == cfg."""
    d, w, sim = cfg.device, cfg.waveform, cfg.sim
    sections = {
        "device": {"r_on": d.r_on, "r_off": d.r_off, "v_t": d.v_t, "beta": d.beta,
                   "r_init": d.r_init},
        "array": {"n": cfg.n, "p_r": cfg.p_r, "p_i": cfg.p_i, "seed": cfg.seed,
                  "source": f"{cfg.source.row},{cfg.source.col}",
                  "ground": f"{cfg.ground.row},{cfg.ground.col}"},
        "source": {"kind": w.kind, "amplitude": w.amplitude, "frequency": w.frequency,
                   "cycles": w.cycles, "phase": w.phase},
        "run": {"dt": sim.dt, "record_stride": sim.record_stride, "fit_window": sim.fit_window,
                "deviation_threshold": cfg.deviation_threshold},
        "experiment": {"kind": cfg.experiment, "vts": cfg.v_t_s, "ratios": cfg.ratios,
                       "amplitudes": cfg.amplitudes, "betas": cfg.betas},
    }
    return "\n".join(f"[{section}]\n" + "".join(f"{key} = {ini_value(value)}\n"
                                                 for key, value in items.items())
                     for section, items in sections.items())


def default_config() -> RunConfig:
    return parse_config("")
