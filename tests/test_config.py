import re
from pathlib import Path

import pytest

from memgrid.config import (
    ConfigError,
    check_experiment,
    ini_value,
    parse_config,
    serialize_config,
)
from memgrid.topology import NodeId

DATA = Path(__file__).parent / "data"


def checked(text: str, overrides: dict | None = None):
    """The parsed configuration, once it passes its experiment's rules."""
    cfg = parse_config(text, overrides)
    check_experiment(cfg)
    return cfg


def test_empty_text_yields_reference_defaults():
    cfg = parse_config("")
    assert cfg.device.r_on == 2000.0
    assert cfg.device.r_off == 200000.0
    assert cfg.device.ratio == 100.0
    assert cfg.device.v_t == 0.6
    assert cfg.device.beta == 5e5
    assert cfg.device.r_init == 200000.0
    assert cfg.n == 4
    assert cfg.p_r == 0.0 and cfg.p_i == 0.0
    assert cfg.source == NodeId(0, 0)
    assert cfg.ground == NodeId(3, 0)
    assert cfg.waveform.amplitude == 12.0
    assert cfg.waveform.frequency == 1.0
    assert cfg.waveform.cycles == 5
    assert cfg.sim.dt == 1e-3
    assert cfg.sim.fit_window == 0.1
    assert cfg.deviation_threshold == 0.01
    assert cfg.experiment == "run"


def test_ratio_derives_r_off():
    cfg = parse_config("[device]\nr_on = 2000\nratio = 100\n")
    assert cfg.device.r_off == 200000.0


def test_ratio_and_r_off_are_exclusive():
    with pytest.raises(ConfigError, match=r"\[device\]\.ratio"):
        parse_config("[device]\nr_off = 1e5\nratio = 50\n")


# The keys that take floats, the last three of [experiment] as lists.
FLOAT_KEYS = {
    "device": ("r_on", "r_off", "ratio", "v_t", "beta", "r_init"),
    "array": ("p_r", "p_i"),
    "source": ("amplitude", "frequency", "phase"),
    "run": ("dt", "fit_window", "deviation_threshold"),
    "experiment": ("vts", "ratios", "amplitudes", "betas"),
}


def test_range_errors_name_section_and_key():
    for section, key, value in (
        ("device", "r_on", "0"),
        ("device", "r_off", "1000"),  # below the default r_on
        ("device", "ratio", "0.5"),
        ("device", "ratio", "1e306"),  # r_off = r_on * ratio overflows to inf
        ("device", "r_init", "1e6"),
        ("device", "v_t", "-0.1"),
        ("device", "beta", "0"),
        ("array", "n", "1"),
        ("array", "p_r", "1.5"),
        ("array", "p_i", "-0.5"),
        ("array", "seed", "-3"),
        ("array", "source", "4,0"),
        ("array", "ground", "0,-1"),
        ("array", "ground", "0,0"),  # the default source
        ("source", "kind", "square"),
        ("source", "amplitude", "-1"),
        ("source", "frequency", "0"),
        ("source", "frequency", "1e-320"),  # the duration cycles / frequency is inf
        ("source", "cycles", "0"),
        ("run", "dt", "-1"),
        ("run", "record_stride", "0"),
        ("run", "fit_window", "0"),
        ("run", "deviation_threshold", "0"),
        ("experiment", "kind", "dance"),
        ("experiment", "vts", "0"),
    ):
        with pytest.raises(ConfigError, match=rf"^\[{section}\]\.{key}: "):
            parse_config(f"[{section}]\n{key} = {value}\n")
    # above the default v_t: a rule of run, which fits at the window
    with pytest.raises(ConfigError, match=r"^\[run\]\.fit_window: "):
        checked("[run]\nfit_window = 0.8\n")


def test_non_finite_numbers_are_rejected_by_key():
    # a nan deviation_threshold would flag no cell, and a nan dt or
    # frequency would fail converting to a step count, naming no key
    for section, keys in FLOAT_KEYS.items():
        for key in keys:
            for value in ("nan", "inf", "-inf", "1e400"):
                with pytest.raises(ConfigError, match=rf"^\[{section}\]\.{key}: "):
                    parse_config(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=r"^\[experiment\]\.vts: "):
        parse_config("[experiment]\nkind = sense\nvts = nan\n")


def test_sweep_lists_and_seed_are_checked_like_their_scalar_keys():
    for text, key in (
        ("[experiment]\nratios = 2,0.5\n", r"\[experiment\]\.ratios"),
        ("[experiment]\namplitudes = 1,-1\n", r"\[experiment\]\.amplitudes"),
        ("[experiment]\nbetas = 5e5,0\n", r"\[experiment\]\.betas"),
        ("[experiment]\nbetas = -5e5\n", r"\[experiment\]\.betas"),
        ("[array]\nseed = -1\n", r"\[array\]\.seed"),
        # both values format as 1 under {:g}, which names each sweep point's files
        ("[experiment]\nratios = 1.0000001,1.0000002\n", r"\[experiment\]\.ratios"),
        ("[experiment]\namplitudes = 1.0000001,1.0000002\n", r"\[experiment\]\.amplitudes"),
        ("[experiment]\nbetas = 1.0000001,1.0000002\n", r"\[experiment\]\.betas"),
    ):
        with pytest.raises(ConfigError, match=key):
            parse_config(text)
    cfg = parse_config("[array]\nseed = 0\n[experiment]\namplitudes = 0,1,0.0\nbetas = 1e-3\n")
    assert (cfg.seed, cfg.amplitudes, cfg.betas) == (0, (0.0, 1.0), (1e-3,))


def test_the_largest_state_rate_must_stay_below_1e308():
    # beta * drive past the doubles is inf, and the gate's inf * 0 marched NaN states
    for text, named in (
        ("[device]\nbeta = 1e300\n[experiment]\nkind = device\namplitudes = 1e300\n",
         "[device].beta = 1e+300, [experiment].amplitudes = 1e+300: "),
        ("[source]\namplitude = 1e300\n[experiment]\nkind = device\nbetas = 5e5,1e8\n",
         "[experiment].betas = 100000000.0, [source].amplitude = 1e+300: "),
        ("[device]\nbeta = 1e307\n", "[device].beta = 1e+307, [source].amplitude = 12.0: "),
    ):
        with pytest.raises(ConfigError, match="^" + re.escape(named)):
            checked(text)
    assert checked("[source]\namplitude = 1e300\n[experiment]\nkind = device\n"
                   "betas = 9.9e7\n").betas == (9.9e7,)
    # only a device sweep marches its lists
    for kind in ("run", "sense"):
        assert checked(f"[experiment]\nkind = {kind}\namplitudes = 1e300\nbetas = 1e300\n"
                       ).betas == (1e300,)


def test_sense_threshold_must_not_exceed_v_t():
    with pytest.raises(ConfigError, match=r"\[experiment\]\.vts"):
        checked("[experiment]\nkind = sense\nvts = 0.7\n")
    assert checked("[experiment]\nkind = sense\nvts = 0.6\n").v_t_s == 0.6
    # a ratio sweep ignores vts, and only sense lowers a threshold
    assert checked("[experiment]\nkind = sense\nvts = 0.7\nratios = 2\n").v_t_s == 0.7
    assert checked("[experiment]\nkind = run\nvts = 0.7\n").v_t_s == 0.7


def test_a_ratio_sweep_needs_a_threshold_to_lower():
    # under a sweep each sensitized threshold is v_t / ratio, which is 0 for v_t = 0
    for ratios in ("2", "1,5"):
        with pytest.raises(ConfigError, match=r"^\[device\]\.v_t: "):
            checked(f"[device]\nv_t = 0\n[experiment]\nkind = sense\nratios = {ratios}\n")
    # without a sweep vts names the rule, and a sweep only binds sense
    with pytest.raises(ConfigError, match=r"^\[experiment\]\.vts: "):
        checked("[device]\nv_t = 0\n[experiment]\nkind = sense\n")
    cfg = checked("[device]\nv_t = 0\n[experiment]\nkind = device\nratios = 2\n")
    assert cfg.ratios == (2.0,)
    # (at amplitude 1 V the raster at v_t / 5 = 2e-4 V takes 640,000 steps, at
    # the default 12 V 5,120,000, more than a raster may take)
    assert checked("[device]\nv_t = 1e-3\n[source]\namplitude = 1\n"
                   "[experiment]\nkind = sense\nratios = 5\n"
                   "[run]\nfit_window = 1e-4\n").device.v_t == 1e-3


def test_a_raster_needing_more_than_2_20_steps_is_refused():
    # the default raster at vts = 1e-5 would take 81,920,000 steps and a
    # row-0 trace of some 33 GB
    with pytest.raises(ConfigError, match=r"^\[experiment\]\.vts: .* 81920000 steps"):
        checked("[experiment]\nkind = sense\nvts = 1e-5\n")
    assert checked("[experiment]\nkind = sense\nvts = 1e-3\n").v_t_s == 1e-3  # 640,000
    # only sense steps a raster
    for kind in ("run", "device"):
        assert checked(f"[experiment]\nkind = {kind}\nvts = 1e-5\n").v_t_s == 1e-5
    # under a ratio sweep every threshold v_t / ratio is checked, and v_t named
    with pytest.raises(ConfigError, match=r"^\[device\]\.v_t: .* 81920000 steps"):
        checked("[experiment]\nkind = sense\nratios = 2, 60000\n")
    assert checked("[experiment]\nkind = sense\nvts = 1e-5\nratios = 2, 600\n"
                   ).ratios == (2.0, 600.0)
    with pytest.raises(ConfigError, match=r"^\[experiment\]\.vts: .* steps"):
        checked("[experiment]\nkind = sense\nvts = 1e-5\n", {("experiment", "vts"): "1e-4"})
    with pytest.raises(ConfigError, match=r"^\[experiment\]\.vts: .* inf steps"):
        checked("[experiment]\nkind = sense\nvts = 5e-324\n")


def test_fit_window_is_checked_only_where_run_fits_at_it():
    # run fits at the configured window, which must stay below v_t
    for text in ("[run]\nfit_window = 0.7\n", "[experiment]\nkind = run\n[run]\nfit_window = 0.7\n",
                 "[device]\nv_t = 0\n"):
        with pytest.raises(ConfigError, match=r"\[run\]\.fit_window"):
            checked(text)
    # a rule of the experiment, not of the key: parse_config alone accepts it
    assert parse_config("[run]\nfit_window = 0.7\n").sim.fit_window == 0.7
    # sense shrinks its window to 0.8 vts, and device fits nothing
    for kind in ("sense", "device"):
        cfg = checked(f"[experiment]\nkind = {kind}\n[run]\nfit_window = 0.7\n")
        assert cfg.sim.fit_window == 0.7
    # a thresholdless unit can be swept; sense still needs vts <= v_t
    assert checked("[device]\nv_t = 0\n[experiment]\nkind = device\n").device.v_t == 0.0
    with pytest.raises(ConfigError, match=r"\[experiment\]\.vts"):
        checked("[device]\nv_t = 0\n[experiment]\nkind = sense\n")


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match=r"\[mystery\]"):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"\[device\]\.colour"):
        parse_config("[device]\ncolour = blue\n")
    with pytest.raises(ConfigError, match=r"\[array\]\.seed"):
        parse_config("[array]\nseed = pi\n")


def test_terminal_validation():
    with pytest.raises(ConfigError, match=r"\[array\]\.source"):
        parse_config("[array]\nsource = 9,0\n")
    with pytest.raises(ConfigError, match=r"\[array\]\.ground"):
        parse_config("[array]\nn = 4\nsource = 0,0\nground = 0,0\n")
    with pytest.raises(ConfigError, match=r"\[array\]\.ground"):
        parse_config("[array]\nground = 0\n")


def test_device_invariants_surface_as_config_errors():
    with pytest.raises(ConfigError, match=r"\[device\]"):
        parse_config("[device]\nr_on = 5e5\n")  # r_on above default r_off


def test_round_trip_defaults():
    cfg = parse_config("")
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("name, text", [
    ("default", ""),
    ("custom", (DATA / "config_custom_input.ini").read_text()),  # ratio, sweeps, terminals
])
def test_snapshot_matches_its_golden_file_byte_for_byte(name, text):
    """Round trips cannot see key order or number formatting; the frozen
    snapshots pin both."""
    golden = (DATA / f"golden_config_{name}.ini").read_text()
    assert serialize_config(parse_config(text)) == golden


def test_round_trip_custom():
    text = """
[device]
r_on = 1500
ratio = 80
v_t = 0.45
beta = 7.5e5
r_init = 90000

[array]
n = 5
p_r = 0.125
p_i = 0.3
seed = 99
source = 0,1
ground = 4,3

[source]
amplitude = 7.25
frequency = 2.0
cycles = 3
phase = 0.1

[run]
dt = 0.0005
record_stride = 2
fit_window = 0.07
deviation_threshold = 0.02

[experiment]
kind = sense
vts = 0.045
ratios = 1.2,5.0,10.0
"""
    cfg = parse_config(text)
    assert cfg.device.r_off == 120000.0
    assert cfg.ratios == (1.2, 5.0, 10.0)
    assert parse_config(serialize_config(cfg)) == cfg


def test_overrides():
    cfg = parse_config("")
    out = parse_config("[array]\nseed = 3\n", {("array", "seed"): ini_value(7),
                                              ("run", "dt"): ini_value(5e-4),
                                              ("experiment", "vts"): ini_value(0.12)})
    assert out.seed == 7
    assert out.sim.dt == 5e-4
    assert out.v_t_s == 0.12
    assert out.waveform == cfg.waveform
    with pytest.raises(ConfigError, match=r"\[run\]\.dt"):
        parse_config("", {("run", "dt"): ini_value(-1.0)})


def test_dt_must_divide_the_stimulus_duration():
    # 5 cycles at 1 Hz: 0.0006 s would stop the run at 4.9998 s
    with pytest.raises(ConfigError, match=r"\[run\]\.dt"):
        parse_config("[run]\ndt = 0.0006\n")
    with pytest.raises(ConfigError, match=r"\[run\]\.dt"):
        parse_config("[source]\nfrequency = 3.0\n")  # 5/3 s at dt = 1e-3
    with pytest.raises(ConfigError, match=r"\[run\]\.dt"):
        parse_config("", {("run", "dt"): ini_value(0.0006)})
    assert parse_config("[run]\ndt = 0.0004\n").sim.dt == 0.0004
    assert parse_config("[source]\nfrequency = 3.0\ncycles = 3\n").waveform.duration == 1.0
    assert parse_config("", {("run", "dt"): ini_value(1e-4)}).sim.dt == 1e-4


def test_fit_sampling_needs_two_samples_per_crossing_window():
    checked("[run]\ndt = 1e-3\nfit_window = 0.1\n")  # 0.075 V per step of a 12 V, 1 Hz sine
    for rejected in (
        "[run]\ndt = 2e-3\nfit_window = 0.1\n",  # 0.15 V per step
        "[run]\ndt = 1e-3\nrecord_stride = 2\nfit_window = 0.1\n",  # recorded 2e-3 apart
        "[source]\nfrequency = 1000\n",  # every sample on a zero
        "[source]\nfrequency = 400\ncycles = 4\n",  # 1.25 samples per semicycle
    ):
        with pytest.raises(ConfigError, match=r"^\[run\]\.dt: .* fewer than two samples"):
            checked(rejected)
