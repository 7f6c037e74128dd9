import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402

TRACE = "t,v_src,x[0]\r\n0.0,0.0,200000.0\r\n0.001,0.0753,199999.5\r\n0.002,0.1506,199998.25\r\n"


def side(tmp_path, name, files, exit=0, stderr=""):
    """A command's result as ``run_side`` reports it, and its output directory."""
    out = tmp_path / name
    out.mkdir(parents=True)
    for file, text in files.items():
        (out / file).write_text(text, newline="")
    return {"exit": exit, "stdout": "", "stderr": stderr, "rerun_identical": True}, out


def compared(tmp_path, parent_files, change_files, **change):
    parent, parent_out = side(tmp_path, "parent", parent_files)
    result, change_out = side(tmp_path, "change", change_files, **change)
    return compare_outputs.compare_command(parent, result, parent_out, change_out)


def test_identical_outputs_report_nothing(tmp_path):
    files = {"trace.csv": TRACE, "config.ini": "[run]\ndt = 0.001\n"}
    got = compared(tmp_path, files, files)
    assert got["identical"]
    assert got["files"] == {"trace.csv": "identical", "config.ini": "identical"}
    assert not got["parent_only"] and not got["change_only"]
    assert not (got["exit_changed"] or got["stderr_changed"] or got["stdout_changed"])
    summary = compare_outputs.summarize({"run": got})
    assert summary["files"] == 2 and not summary["files_changed"]
    assert not summary["exit_codes_changed"] and not summary["reruns_not_identical"]


def test_a_rounding_level_difference_names_its_column_and_cell(tmp_path):
    got = compared(tmp_path, {"trace.csv": TRACE},
                   {"trace.csv": TRACE.replace("199998.25", "199998.25000000003")})
    assert not got["identical"]
    (column, diff), = got["files"]["trace.csv"]["columns"].items()
    assert column == "x[0]" and diff["cells"] == 1
    assert diff["max_rel"] == pytest.approx(2.9e-11 / 200000.0, rel=0.05)
    assert compare_outputs.summarize({"run": got})["files_changed"] == ["run/trace.csv"]


def test_a_changed_column_counts_every_cell_and_leaves_the_others_out(tmp_path):
    changed = TRACE.replace("0.0753", "0.0754").replace("0.1506", "0.1508")
    got = compared(tmp_path, {"trace.csv": TRACE}, {"trace.csv": changed})
    assert got["files"]["trace.csv"]["columns"] == {
        "v_src": {"cells": 2, "max_rel": pytest.approx(0.0002 / 0.1506)}}
    # a cell that is not a number on both sides has no relative size
    got = compared(tmp_path / "nan", {"trace.csv": TRACE},
                   {"trace.csv": changed.replace("0.1508", "nan")})
    assert got["files"]["trace.csv"]["columns"]["v_src"] == {"cells": 2, "max_rel": None}


def test_a_reshaped_or_plain_text_file_counts_its_differing_lines(tmp_path):
    got = compared(tmp_path, {"trace.csv": TRACE, "netlist.cir": "R1 1 2 1k\n.end\n"},
                   {"trace.csv": TRACE + "0.003,0.2259,199997.0\r\n",
                    "netlist.cir": "R1 1 2 2k\n.end\n"})
    assert got["files"]["trace.csv"] == {"parent_lines": 4, "change_lines": 5, "lines_differing": 1}
    assert got["files"]["netlist.cir"] == {"parent_lines": 2, "change_lines": 2,
                                           "lines_differing": 1}


def test_a_file_written_on_one_side_only_is_listed(tmp_path):
    got = compared(tmp_path, {"trace.csv": TRACE, "map_1.csv": TRACE}, {"trace.csv": TRACE})
    assert got["parent_only"] == ["map_1.csv"] and not got["change_only"]
    assert not got["identical"] and got["files"] == {"trace.csv": "identical"}
    assert compare_outputs.summarize({"run": got})["files_one_side_only"] == ["run/map_1.csv"]


def test_a_changed_exit_code_and_message_are_flagged(tmp_path):
    got = compared(tmp_path, {}, {}, exit=1, stderr="error: [run].dt: no finite number of steps\n")
    assert got["exit"] == [0, 1] and got["exit_changed"] and got["stderr_changed"]
    assert got["identical"]  # neither side wrote a file
    summary = compare_outputs.summarize({"run-dt-inf": got})
    assert summary["exit_codes_changed"] == summary["stderr_changed"] == ["run-dt-inf"]


def test_a_traceback_changes_only_with_its_exception(tmp_path):
    def crash(line):
        return (f'Traceback (most recent call last):\n  File "<tree>/src/memgrid/engine.py", '
                f'line {line}, in step_count\nOverflowError: cannot convert float infinity\n')

    parent, parent_out = side(tmp_path, "parent", {}, exit=1, stderr=crash(112))
    moved, change_out = side(tmp_path, "change", {}, exit=1, stderr=crash(113))
    got = compare_outputs.compare_command(parent, moved, parent_out, change_out)
    assert not got["stderr_changed"] and got["stderr"] == [crash(112), crash(113)]
    named = dict(moved, stderr="error: [run].dt: no finite number of steps\n")
    assert compare_outputs.compare_command(parent, named, parent_out, change_out)["stderr_changed"]


def test_the_matrix_names_a_config_for_every_config_it_reads():
    read = {argv[argv.index("--config") + 1] for argv in compare_outputs.MATRIX.values()
            if "--config" in argv}
    assert read == {f"configs/{name}.ini" for name in compare_outputs.CONFIGS}
    assert {f"spice-{name}" for name in compare_outputs.CONFIGS} <= set(compare_outputs.MATRIX)
