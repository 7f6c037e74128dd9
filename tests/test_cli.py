import csv

import pytest

from memgrid.cli import main

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


def test_run_disconnected_exit_codes(tmp_path):
    cfg = write_config(tmp_path, "[array]\np_r = 1.0\n" + FAST_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--allow-disconnected"]) == 0
    remnant = read_csv(out / "remnant.csv")
    assert remnant[1][2] == "inf"


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


def test_export_spice_writes_netlist(tmp_path):
    out = tmp_path / "out"
    assert main(["export-spice", "--out", str(out)]) == 0
    text = (out / "netlist.cir").read_text()
    assert sum(1 for line in text.splitlines() if line.startswith("X")) == 24
    assert ".tran 0.001 5.0 uic" in text


def test_seed_and_dt_overrides_land_in_snapshot(tmp_path):
    out = tmp_path / "out"
    assert main(["export-spice", "--out", str(out), "--seed", "9", "--dt", "0.0005"]) == 0
    snapshot = (out / "config.ini").read_text()
    assert "seed = 9" in snapshot
    assert "dt = 0.0005" in snapshot
