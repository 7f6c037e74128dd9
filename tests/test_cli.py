import csv
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from memgrid.cli import main
from memgrid.config import parse_config
from memgrid.experiments import run_uniform_array
from memgrid.solver import effective_resistance
from memgrid.topology import build_grid

FAST_RUN = """
[source]
amplitude = 12
cycles = 1
"""

SMALL_SENSE = """
[array]
n = 2

[source]
amplitude = 4
cycles = 1

[experiment]
kind = sense
vts = 0.3
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_validate_config_defaults(capsys):
    assert main(["validate-config"]) == 0
    out = capsys.readouterr().out
    assert "[device]" in out and "r_off = 200000.0" in out


def test_validate_config_rejects_bad_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "[array]\np_r = 2\n")
    assert main(["validate-config", "--config", str(cfg)]) == 1
    assert "[array].p_r" in capsys.readouterr().err


def test_missing_config_file_is_a_validation_error(tmp_path, capsys):
    assert main(["validate-config", "--config", str(tmp_path / "nope.ini")]) == 1


def test_run_writes_expected_files(tmp_path):
    cfg = write_config(tmp_path, FAST_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "config.ini").exists()
    assert (out / "network.json").exists()
    assert (out / "trace.csv").exists()
    remnant = read_csv(out / "remnant.csv")
    assert remnant[0] == ["crossing_index", "t", "r_fit", "r_thevenin", "n_samples"]
    assert len(remnant) == 4  # initial + 2 crossings + header
    for k in range(3):
        assert (out / f"map_{k}.csv").exists()
    assert not (out / "map_3.csv").exists()


def test_run_outputs_are_reproducible(tmp_path):
    cfg = write_config(tmp_path, FAST_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("config.ini", "network.json", "trace.csv", "remnant.csv", "map_1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def bits(values):
    return np.array(values, dtype=float).view(np.int64)


def test_run_reads_out_what_the_library_run_measures(tmp_path):
    text = "[array]\nn = 3\n\n[source]\namplitude = 8.0\ncycles = 1\n"
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    cfg = parse_config(text)
    run = run_uniform_array(cfg.n, cfg.device, cfg.waveform, cfg.sim, source=cfg.source,
                            ground=cfg.ground, seed=cfg.seed)
    remnants = [[float(v) for v in row] for row in read_csv(out / "remnant.csv")[1:]]
    assert np.array_equal(bits(remnants), bits([astuple(p) for p in run.remnants]))
    assert len(list(out.glob("map_*.csv"))) == len(run.maps) == 3
    for point, rmap in zip(run.remnants, run.maps):
        rows = read_csv(out / f"map_{point.crossing_index}.csv")[1:]
        assert [int(row[0]) for row in rows] == [e.label for e in rmap.edges]
        assert np.array_equal(bits([float(row[-1]) for row in rows]), bits(rmap.x))


def test_run_at_stride_2_reads_out_the_nearest_recorded_rows(tmp_path):
    """At record_stride 2 every remnant's r_thevenin is the readout of the
    trace row nearest its time, and its map holds that row's states."""
    text = ("[array]\nn = 3\n\n[source]\namplitude = 8.0\ncycles = 1\n\n"
            "[run]\ndt = 0.0005\nrecord_stride = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    cfg = parse_config(text)
    network = build_grid(cfg.n, cfg.p_r, cfg.p_i, cfg.seed, cfg.device,
                         source=cfg.source, ground=cfg.ground)
    trace = np.array([[float(v) for v in row] for row in read_csv(out / "trace.csv")[1:]])
    assert len(trace) == 1001  # 2,000 steps: every second one and step 0
    t, x = trace[:, 0], trace[:, 4::2]
    remnants = read_csv(out / "remnant.csv")[1:]
    assert len(remnants) == 3
    for row in remnants:
        k = int(np.argmin(np.abs(t - float(row[1]))))
        assert float(row[3]) == effective_resistance(network, x[k]), row
        states = [float(r[-1]) for r in read_csv(out / f"map_{row[0]}.csv")[1:]]
        assert np.array_equal(bits(states), bits(x[k])), row


def test_run_disconnected_exit_codes(tmp_path):
    cfg = write_config(tmp_path, "[array]\np_r = 1.0\n" + FAST_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--allow-disconnected"]) == 0
    remnant = read_csv(out / "remnant.csv")
    assert remnant[1][2] == "inf"


def test_run_rejects_dt_that_does_not_divide_the_duration(tmp_path, capsys):
    # 0.0006 s would stop the 5 s reference run at 4.9998 s, one remnant short
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--dt", "0.0006"]) == 1
    assert "[run].dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate-config", "run", "device"])
def test_a_step_count_that_is_not_finite_names_dt(tmp_path, capsys, command):
    # 5e300 s of stimulus at dt = 1e-9: round(inf) overflowed before any check
    cfg = write_config(tmp_path, "[source]\nfrequency = 1e-300\n\n[run]\ndt = 1e-9\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "[run].dt" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_undersampled_stimulus(tmp_path, capsys, monkeypatch):
    # at 1 kHz and dt = 1 ms every sample lands on a zero of the sine
    cfg = write_config(tmp_path, "[source]\nfrequency = 1000\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "[run].dt" in capsys.readouterr().err
    assert not out.exists()
    # past the up-front check, the crossing count stops the run before
    # remnant.csv is written
    monkeypatch.setattr("memgrid.cli.check_experiment", lambda cfg: None)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "expected 2 x 5 cycles" in capsys.readouterr().err
    assert not out.exists()


def test_validate_config_rejects_the_undersampled_run_that_run_rejects(tmp_path, capsys):
    cfg = write_config(tmp_path, "[source]\nfrequency = 1000\n")
    assert main(["validate-config", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [run].dt: ") and captured.out == ""
    # a netlist fits nothing, a sweep and a raster are not run configurations
    out = tmp_path / "spice"
    assert main(["export-spice", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "netlist.cir").exists()
    for kind in ("device", "sense"):
        cfg = write_config(tmp_path, f"[source]\nfrequency = 1000\n[experiment]\nkind = {kind}\n",
                           name=f"{kind}.ini")
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert f"kind = {kind}\n" in capsys.readouterr().out


def test_run_without_stimulus_exits_2(tmp_path, capsys):
    # a zero amplitude has no crossings to read remnants at
    cfg = write_config(tmp_path, "[source]\namplitude = 0\ncycles = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "0 stimulus zero crossings" in capsys.readouterr().err
    assert not out.exists()


def test_sense_without_stimulus_exits_2(tmp_path, capsys):
    # the raster reads its remnants at the same crossings as run does
    cfg = write_config(tmp_path, SMALL_SENSE.replace("amplitude = 4", "amplitude = 0"))
    out = tmp_path / "out"
    assert main(["sense", "--config", str(cfg), "--out", str(out)]) == 2
    assert "0 stimulus zero crossings in the trace, expected 2 x 1 cycles" in capsys.readouterr().err
    assert not out.exists()  # no sensitization.csv, and no snapshot of a raster never read


FLAG_REJECTIONS = [
    (["run", "--dt", "0"], "[run].dt"),
    (["run", "--dt", "0.0006"], "[run].dt"),
    (["sense", "--vts", "0"], "[experiment].vts"),
    (["sense", "--ratio-sweep", "0"], "[experiment].ratios"),
    (["sense", "--ratio-sweep", "0.5"], "[experiment].ratios"),
    (["run", "--seed", "-1"], "[array].seed"),
    (["device", "--amplitude", "-1"], "[experiment].amplitudes"),
    (["device", "--beta", "0"], "[experiment].betas"),
    (["sense", "--vts", "nan"], "[experiment].vts"),
    (["run", "--dt", "inf"], "[run].dt"),
]


@pytest.mark.parametrize("argv, key", FLAG_REJECTIONS,
                         ids=[" ".join(argv) for argv, _ in FLAG_REJECTIONS])
def test_flags_fail_the_checks_of_their_ini_keys(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_sense_rejects_a_raised_threshold_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sense", "--config", str(write_config(tmp_path, SMALL_SENSE)),
                 "--out", str(out), "--vts", "5"]) == 1
    assert "[experiment].vts" in capsys.readouterr().err
    assert not out.exists()


def test_device_amplitude_sweep(tmp_path):
    out = tmp_path / "out"
    code = main(["device", "--out", str(out),
                 "--amplitude", "0.7", "--amplitude", "1", "--amplitude", "2",
                 "--amplitude", "4"])
    assert code == 0
    files = sorted(p.name for p in out.glob("device_*.csv"))
    assert files == [
        "device_A0.7_beta500000.csv",
        "device_A1_beta500000.csv",
        "device_A2_beta500000.csv",
        "device_A4_beta500000.csv",
    ]
    rows = read_csv(out / "device_A4_beta500000.csv")
    assert rows[0][:5] == ["t", "v_src", "i_src", "v_m[0]", "x[0]"]
    assert float(rows[-1][4]) == 2000.0  # complete switch at the highest amplitude


@pytest.mark.parametrize("flag, key", [("--amplitude", "amplitudes"), ("--beta", "betas")])
def test_device_sweep_rejects_points_that_share_a_file_name(tmp_path, capsys, flag, key):
    # both values format as 1 under {:g}: one file would overwrite the other
    out = tmp_path / "out"
    assert main(["device", "--out", str(out), flag, "1.0000001", flag, "1.0000002"]) == 1
    assert f"[experiment].{key}" in capsys.readouterr().err
    assert not out.exists()
    # a repeated identical point is one point
    assert main(["device", "--out", str(out), flag, "1", flag, "1.0"]) == 0
    assert len(list(out.glob("device_*.csv"))) == 1


def test_sense_ratio_sweep_rejects_ratios_that_share_a_file_name(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_SENSE)
    out = tmp_path / "out"
    assert main(["sense", "--config", str(cfg), "--out", str(out),
                 "--ratio-sweep", "1.0000001", "--ratio-sweep", "1.0000002"]) == 1
    assert "[experiment].ratios" in capsys.readouterr().err
    assert not out.exists()
    # a repeated identical ratio is one raster
    assert main(["sense", "--config", str(cfg), "--out", str(out),
                 "--ratio-sweep", "2", "--ratio-sweep", "2.0"]) == 0
    assert "ratios = 2.0\n" in (out / "config.ini").read_text()
    assert len(list(out.glob("sensitization_*.csv"))) == 1


def test_device_runs_each_distinct_sweep_value_once(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["device", "--out", str(out), "--amplitude", "2", "--amplitude", "1",
                 "--amplitude", "2", "--beta", "5e5", "--beta", "5e5"]) == 0
    wrote = [Path(line.split()[-1]).name for line in capsys.readouterr().out.splitlines()]
    assert wrote == ["device_A2_beta500000.csv", "device_A1_beta500000.csv"]
    snapshot = (out / "config.ini").read_text()
    assert "amplitudes = 2.0,1.0\n" in snapshot
    assert "betas = 500000.0\n" in snapshot


def test_sense_writes_raster_and_flags(tmp_path):
    cfg = write_config(tmp_path, SMALL_SENSE)
    out = tmp_path / "out"
    assert main(["sense", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "sensitization.csv")
    assert rows[0][0] == "label"
    assert rows[1][0] == "-1"
    assert [r[0] for r in rows[2:]] == ["0", "1", "2", "3"]
    flags = read_csv(out / "flags.csv")
    assert len(flags) == 5
    assert (out / "network.json").exists()


def test_sense_rejects_distorted_lattice(tmp_path, capsys):
    # the raster runs on the complete lattice, so a distorted one is refused
    # before anything is written
    cfg = write_config(tmp_path, SMALL_SENSE.replace(
        "n = 2", "n = 4\np_r = 0.3\np_i = 0.5\nseed = 17"))
    out = tmp_path / "out"
    assert main(["sense", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[array].p_r" in err and "[array].p_i" in err
    assert not out.exists()
    # --workers is still accepted, and ignored
    cfg = write_config(tmp_path, SMALL_SENSE, name="complete.ini")
    assert main(["sense", "--config", str(cfg), "--out", str(out), "--workers", "3"]) == 0
    assert len(read_csv(out / "sensitization.csv")) == 6


def test_sense_ratio_sweep_files(tmp_path):
    cfg = write_config(tmp_path, SMALL_SENSE)
    out = tmp_path / "out"
    assert main(["sense", "--config", str(cfg), "--out", str(out),
                 "--ratio-sweep", "1.2", "--ratio-sweep", "2"]) == 0
    assert (out / "sensitization_ratio_1.2.csv").exists()
    assert (out / "flags_ratio_1.2.csv").exists()
    assert (out / "sensitization_ratio_2.csv").exists()
    assert not (out / "sensitization.csv").exists()


def test_sense_outputs_do_not_depend_on_record_stride(tmp_path):
    # the raster writes no trace and samples every step, so a coarser
    # record_stride neither starves the fit window nor changes a byte
    text = SMALL_SENSE.replace("amplitude = 4", "amplitude = 12").replace("vts = 0.3", "vts = 0.06")
    outputs = {}
    for stride in (1, 2, 3):
        cfg = write_config(tmp_path, text + f"\n[run]\nrecord_stride = {stride}\n",
                           name=f"stride_{stride}.ini")
        out = tmp_path / f"out_{stride}"
        assert main(["sense", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[stride] = [(out / name).read_bytes() for name in ("sensitization.csv", "flags.csv")]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def test_sense_and_device_ignore_a_fit_window_they_never_fit_at(tmp_path, capsys):
    # the raster fits at 0.8 vts = 0.048 V whatever the configured window
    text = SMALL_SENSE.replace("amplitude = 4", "amplitude = 12").replace("vts = 0.3", "vts = 0.06")
    outputs = {}
    for window in ("0.1", "0.7"):
        cfg = write_config(tmp_path, text + f"\n[run]\nfit_window = {window}\n",
                           name=f"window_{window}.ini")
        out = tmp_path / f"out_{window}"
        assert main(["sense", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[window] = [(out / name).read_bytes() for name in ("sensitization.csv", "flags.csv")]
    assert outputs["0.7"] == outputs["0.1"]
    # run fits at the configured window, so it still refuses one above v_t
    cfg = write_config(tmp_path, FAST_RUN + "\n[run]\nfit_window = 0.7\n", name="run.ini")
    for command in ("run", "validate-config"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "[run].fit_window" in capsys.readouterr().err
    # a thresholdless unit moves on every step, and fits nothing
    cfg = write_config(tmp_path, FAST_RUN + "\n[device]\nv_t = 0\n", name="device.ini")
    assert main(["device", "--config", str(cfg), "--out", str(tmp_path / "device")]) == 0
    assert len(list((tmp_path / "device").glob("device_*.csv"))) == 1


DISTORTED = """
[array]
n = 5
p_r = 0.1
p_i = 0.3

[source]
amplitude = 16
cycles = 1
"""

SNAPSHOT_RERUNS = [
    # seed 5 draws a connected lattice with 4 nodes removed and 10 units inverted
    (DISTORTED, ["run", "--seed", "5", "--dt", "0.0005"]),
    (FAST_RUN, ["device", "--amplitude", "1", "--amplitude", "2", "--beta", "5e5",
                "--beta", "5e7"]),
    (SMALL_SENSE, ["sense", "--ratio-sweep", "1.2", "--ratio-sweep", "2"]),
    (DISTORTED, ["export-spice", "--seed", "2", "--dt", "0.0005"]),
]


@pytest.mark.parametrize("text, argv", SNAPSHOT_RERUNS,
                         ids=[argv[0] for _, argv in SNAPSHOT_RERUNS])
def test_outputs_rerun_bit_identically_from_their_snapshot(tmp_path, text, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--config", str(write_config(tmp_path, text)), "--out", str(first)]) == 0
    assert main([argv[0], "--config", str(first / "config.ini"), "--out", str(second)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert len(names) > 1
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_export_spice_writes_netlist(tmp_path):
    out = tmp_path / "out"
    assert main(["export-spice", "--out", str(out)]) == 0
    text = (out / "netlist.cir").read_text()
    assert sum(1 for line in text.splitlines() if line.startswith("X")) == 24
    assert ".tran 0.001 5.0 uic" in text


def test_export_spice_rejects_an_edgeless_lattice(tmp_path, capsys):
    cfg = write_config(tmp_path, "[array]\np_r = 1.0\n")
    out = tmp_path / "out"
    assert main(["export-spice", "--config", str(cfg), "--out", str(out)]) == 1
    assert "no memristive units" in capsys.readouterr().err
    assert not out.exists()


def test_export_spice_accepts_a_fit_window_it_never_fits_at(tmp_path, capsys):
    # a netlist fits nothing, so a run config's window may exceed v_t
    outputs = {}
    for window in ("0.1", "0.7"):
        cfg = write_config(tmp_path, FAST_RUN + f"\n[run]\nfit_window = {window}\n",
                           name=f"window_{window}.ini")
        out = tmp_path / f"out_{window}"
        assert main(["export-spice", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[window] = (out / "netlist.cir").read_bytes()
    assert outputs["0.7"] == outputs["0.1"]
    snapshot = (tmp_path / "out_0.7" / "config.ini").read_text()
    assert "kind = run\n" in snapshot and "fit_window = 0.7\n" in snapshot
    rerun = tmp_path / "rerun"
    assert main(["export-spice", "--config", str(tmp_path / "out_0.7" / "config.ini"),
                 "--out", str(rerun)]) == 0
    assert (rerun / "netlist.cir").read_bytes() == outputs["0.7"]
    assert (rerun / "config.ini").read_text() == snapshot
    # run and validate-config still refuse it, and export-spice still checks
    # every key, but no rule of the configured experiment
    for command in ("run", "validate-config"):
        assert main([command, "--config", str(tmp_path / "window_0.7.ini"),
                     "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err.startswith("error: [run].fit_window: ")
    for text, key in (("[experiment]\nkind = sense\nvts = 0\n", "[experiment].vts"),
                      ("[experiment]\nkind = sweep\n", "[experiment].kind"),
                      ("[run]\nfit_window = 0.7\n[experiment]\nbetas = 0\n",
                       "[experiment].betas"),
                      ("[run]\nfit_window = -0.1\n", "[run].fit_window")):
        cfg = write_config(tmp_path, text, name="bad.ini")
        assert main(["export-spice", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "bad").exists()
    cfg = write_config(tmp_path, "[experiment]\nkind = sense\nvts = 0.7\n", name="sense.ini")
    assert main(["export-spice", "--config", str(cfg), "--out", str(tmp_path / "sense")]) == 0
    assert (tmp_path / "sense" / "netlist.cir").exists()


# configurations whose only fault is a rule of their experiment, by command
EXPERIMENT_FAULTS = {
    "distorted sense": ("sense", "[array]\np_r = 0.2\n[experiment]\nkind = sense\n"),
    "vts above v_t": ("sense", "[experiment]\nkind = sense\nvts = 0.7\n"),
    "raster over 2**20 steps": ("sense", "[experiment]\nkind = sense\nvts = 1e-5\n"),
    "ratio sweep at v_t = 0": ("sense", "[device]\nv_t = 0\n[experiment]\nkind = sense\n"
                                        "ratios = 2\n"),
    "undersampled run": ("run", "[source]\nfrequency = 1000\n"),
    "fit window above v_t": ("run", "[run]\nfit_window = 0.7\n"),
}


@pytest.mark.parametrize("command, text", EXPERIMENT_FAULTS.values(), ids=list(EXPERIMENT_FAULTS))
def test_validate_config_checks_what_its_command_checks(tmp_path, capsys, command, text):
    """validate-config refuses exactly what the configured experiment's
    command refuses, with the same error; export-spice runs no experiment,
    so it checks each key only."""
    cfg = write_config(tmp_path, text)
    errors = []
    for argv in ([command], ["validate-config"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        errors.append(captured.err)
    assert errors[0] == errors[1] and errors[0].startswith("error: [")
    out = tmp_path / "spice"
    assert main(["export-spice", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "netlist.cir").exists()


def test_seed_and_dt_overrides_land_in_snapshot(tmp_path):
    out = tmp_path / "out"
    assert main(["export-spice", "--out", str(out), "--seed", "9", "--dt", "0.0005"]) == 0
    snapshot = (out / "config.ini").read_text()
    assert "seed = 9" in snapshot
    assert "dt = 0.0005" in snapshot
