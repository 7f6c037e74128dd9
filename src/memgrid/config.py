"""INI-style run configuration.

Sections and keys (all physical quantities in plain SI units: ohm, volt,
hertz, second):

  [device]      r_on, r_off | ratio (exactly one of the two with r_on),
                v_t, beta, r_init (defaults to r_off)
  [array]       n, p_r, p_i, seed, source "row,col", ground "row,col"
  [source]      the fields of ``Waveform``: kind (sine), amplitude,
                frequency, cycles, phase
  [run]         the fields of ``SimConfig``: dt, record_stride, fit_window;
                and deviation_threshold
  [experiment]  kind (device|run|sense), vts, ratios, amplitudes, betas
                (the last three are comma-separated sweep lists; empty means
                use the single configured value)

Omitted keys fall back to the 4x4 reference defaults: in [source] and [run]
those of ``Waveform`` and ``SimConfig``, elsewhere ``parse_config``'s own.
Every error names its section and key, and every number must be finite. A
range rule is checked once, by the library object or function that owns it
(``DeviceParams``, ``check_lattice``, ``step_count`` and its step bound,
...), and ``parse_config`` maps the argument its ``InvalidValue`` names to
the key; it checks by itself only what no library code owns. A rule that
depends on [experiment].kind, such as run's fit window below v_t, is
``check_experiment``'s, which the commands that run the experiment call.
"""

import configparser
import math
from dataclasses import asdict, dataclass, fields

from .device import DeviceParams, InvalidValue
from .engine import SimConfig, Waveform, step_count
from .experiments import (
    check_deviation_threshold,
    check_sensitized_threshold,
    measurement_settings,
)
from .measure import check_fit_window, fit_sampled
from .topology import NodeId, check_lattice


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
    "device": {f.name for f in fields(DeviceParams)} | {"ratio"},
    "array": {"n", "p_r", "p_i", "seed", "source", "ground"},
    "source": {f.name for f in fields(Waveform)},
    "run": {f.name for f in fields(SimConfig)} | {"deviation_threshold"},
    "experiment": {"kind", "vts", "ratios", "amplitudes", "betas"},
}


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}].{key}: {message}")


def _checked(section: str, check, *args, keys=None, **kwargs):
    """``check(*args, **kwargs)``, an ``InvalidValue`` raised as the ConfigError
    of ``[section].key``: the argument it names, or ``keys[name]``."""
    try:
        return check(*args, **kwargs)
    except InvalidValue as err:
        name, reason = err.args
        key = (keys or {}).get(name, name)
        _fail(section, key, reason if key == name else str(err))


def _float(raw: dict, section: str, key: str, default, kind=float):
    """The key's value as a finite ``kind`` (float or int), or ``default``."""
    if key not in raw[section]:
        return default
    text = raw[section][key]
    try:
        value = kind(text)
    except ValueError:
        _fail(section, key, f"not {'an integer' if kind is int else 'a number'}: {text!r}")
    if kind is float and not math.isfinite(value):
        _fail(section, key, f"must be finite, got {text!r}")
    return value


def _given(raw: dict, section: str, record) -> dict:
    """The keys of [section] that name fields of the dataclass ``record``,
    each parsed as its field's type; a key left out takes the field's
    default when ``record`` is built from them."""
    given = raw[section]
    return {f.name: given[f.name] if f.type is str else _float(raw, section, f.name, None, f.type)
            for f in fields(record) if f.name in given}


def _node(raw: dict, section: str, key: str) -> NodeId | None:
    text = raw[section].get(key)
    try:
        return None if text is None else NodeId(*map(int, text.split(",")))
    except (TypeError, ValueError):
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
        if not (math.isfinite(value) and ok(value)):
            _fail(section, key, f"each value must be finite and {requirement}, got {value}")
        other = named.setdefault(f"{value:g}", value)
        if other != value:
            _fail(section, key, f"{other!r} and {value!r} would both write the files "
                                f"named after {value:g}")
    return tuple(named.values())  # each distinct value once, in first-seen order


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse sectioned key-value text into a RunConfig, validating each key
    on its own; ``check_experiment`` adds the rules of the experiment.

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

    dev = raw["device"]
    r_on = _float(raw, "device", "r_on", 2000.0)
    if "r_off" in dev and "ratio" in dev:
        _fail("device", "ratio", "give either r_off or ratio, not both")
    r_off = (r_on * _float(raw, "device", "ratio", 0.0) if "ratio" in dev
             else _float(raw, "device", "r_off", 200000.0))
    device = _checked("device", DeviceParams, r_on=r_on, r_off=r_off,
                      v_t=_float(raw, "device", "v_t", 0.6),
                      beta=_float(raw, "device", "beta", 5e5),
                      r_init=_float(raw, "device", "r_init", r_off),
                      keys={"r_off": "ratio"} if "ratio" in dev else None)

    n = _float(raw, "array", "n", 4, int)
    p_r = _float(raw, "array", "p_r", 0.0)
    p_i = _float(raw, "array", "p_i", 0.0)
    seed = _float(raw, "array", "seed", 0, int)
    source, ground = _checked("array", check_lattice, n, p_r, p_i, seed,
                              _node(raw, "array", "source"), _node(raw, "array", "ground"))

    waveform = _checked("source", Waveform, **_given(raw, "source", Waveform))
    sim = _checked("run", SimConfig, **_given(raw, "run", SimConfig))
    _checked("run", step_count, waveform, sim)
    deviation_threshold = _float(raw, "run", "deviation_threshold", 0.01)
    _checked("run", check_deviation_threshold, deviation_threshold)

    experiment = raw["experiment"].get("kind", "run")
    if experiment not in ("device", "run", "sense"):
        _fail("experiment", "kind", f"must be device, run or sense, got {experiment!r}")
    ratios = _float_list(raw, "experiment", "ratios", lambda r: r >= 1, ">= 1")
    v_t_s = _float(raw, "experiment", "vts", 0.06)
    _checked("experiment", check_sensitized_threshold, v_t_s, math.inf, keys={"v_t_s": "vts"})
    amplitudes = _float_list(raw, "experiment", "amplitudes", lambda a: a >= 0, ">= 0")
    betas = _float_list(raw, "experiment", "betas", lambda b: b > 0, "> 0")

    return RunConfig(
        device=device, n=n, p_r=p_r, p_i=p_i, seed=seed, source=source,
        ground=ground, waveform=waveform, sim=sim,
        deviation_threshold=deviation_threshold, experiment=experiment,
        v_t_s=v_t_s, ratios=ratios, amplitudes=amplitudes, betas=betas,
    )


def check_experiment(cfg: RunConfig) -> None:
    """The rules of the experiment ``cfg.experiment`` names, beyond those of
    each key: run fits at the configured window, which must lie below v_t and
    hold two recorded samples, ``dt * record_stride`` apart, around every zero
    crossing of the stimulus (``measure.fit_sampled``); sense lowers one
    threshold per raster, vts or v_t / ratio per swept ratio, which must lie
    in (0, v_t] and fit its window samples into ``engine.MAX_STEPS`` steps,
    and rasters the complete lattice. Device fits nothing. Each keeps the
    largest rate it marches, beta times amplitude, below 1e308: an infinite
    rate gates to NaN, inf * 0."""
    device, sim, waveform = cfg.device, cfg.sim, cfg.waveform
    swept = cfg.experiment == "device"  # a sweep marches every pair of betas and amplitudes
    beta, beta_key = ((max(cfg.betas), "[experiment].betas") if swept and cfg.betas
                      else (device.beta, "[device].beta"))
    amplitude, amplitude_key = ((max(cfg.amplitudes), "[experiment].amplitudes")
                                if swept and cfg.amplitudes
                                else (waveform.amplitude, "[source].amplitude"))
    if not beta * amplitude < 1e308:
        raise ConfigError(f"{beta_key} = {beta!r}, {amplitude_key} = {amplitude!r}: the state "
                          "rate, beta times the amplitude, must stay below 1e308")
    if cfg.experiment == "run":
        _checked("run", check_fit_window, sim.fit_window, device.v_t)
        if not fit_sampled(waveform, sim.dt * sim.record_stride, sim.fit_window):
            _fail("run", "dt", f"{sim.dt!r} (record_stride {sim.record_stride}) puts fewer than "
                               f"two samples inside the fit window {sim.fit_window!r} V of a "
                               f"{waveform.amplitude!r} V, {waveform.frequency!r} Hz sine")
    elif cfg.experiment == "sense":
        section, key = ("device", "v_t") if cfg.ratios else ("experiment", "vts")
        thresholds = [device.v_t / ratio for ratio in cfg.ratios] or [cfg.v_t_s]
        for threshold in thresholds:
            _checked(section, check_sensitized_threshold, threshold, device.v_t,
                     keys={"v_t_s": key})
        for threshold in thresholds:
            _checked(section, measurement_settings, sim, waveform, threshold, keys={"v_t_s": key})
        if cfg.p_r or cfg.p_i:
            raise ConfigError(f"[array].p_r = {cfg.p_r!r}, [array].p_i = {cfg.p_i!r}: "
                              "sense rasters the complete lattice, so both must be 0")


def ini_value(value) -> str:
    """The INI text of one value: a float by repr, which parses back to the
    same double; a sequence as comma-joined floats; anything else by str."""
    if isinstance(value, (tuple, list)):
        return ",".join(repr(float(v)) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Resolved INI snapshot; parse_config(serialize_config(cfg)) == cfg."""
    sections = {
        "device": asdict(cfg.device),
        "array": {"n": cfg.n, "p_r": cfg.p_r, "p_i": cfg.p_i, "seed": cfg.seed,
                  "source": f"{cfg.source.row},{cfg.source.col}",
                  "ground": f"{cfg.ground.row},{cfg.ground.col}"},
        "source": asdict(cfg.waveform),
        "run": {**asdict(cfg.sim), "deviation_threshold": cfg.deviation_threshold},
        "experiment": {"kind": cfg.experiment, "vts": cfg.v_t_s, "ratios": cfg.ratios,
                       "amplitudes": cfg.amplitudes, "betas": cfg.betas},
    }
    return "\n".join(f"[{section}]\n" + "".join(f"{key} = {ini_value(value)}\n"
                                                 for key, value in items.items())
                     for section, items in sections.items())
