"""A fuzz of the configuration space: each of the five commands on a 2x2 or
3x3 lattice with one to five keys set to edge values. Each example runs in
a fresh process whose address space is capped, so a config that asks for
unbounded memory fails fast as a traceback instead of paging the host."""

import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from memgrid.config import _SECTIONS

COMMANDS = ["validate-config", "run", "device", "sense", "export-spice"]
KEYS = sorted((section, key) for section, keys in _SECTIONS.items() for key in keys)
EDGE_VALUES = ["0", "-0.0", "-1", "1", "0.5", "2.5", "1e-300", "-1e-300", "1e300", "-1e300",
               "inf", "-inf", "nan"]
NODES = ["-1,0", "0,3", "9,9", "0.5,1", "1"]  # outside the lattice, or not 'row,col' integers
ADDRESS_SPACE = 2 << 30  # bytes: numpy and a 3x3 march need under 1 GiB
CHILD = ("import resource, sys\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
         "from memgrid.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n")
SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(*argv) -> subprocess.CompletedProcess:
    """``memgrid.cli.main(argv)`` in a fresh process under the address-space cap."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@st.composite
def configs(draw):
    n = draw(st.sampled_from([2, 3]))
    chosen = {("array", "n"): str(n), ("source", "amplitude"): "4.0" if n == 2 else "8.0",
              ("source", "cycles"): "1"}
    for section, key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=5,
                                      unique=True)):
        values = NODES if key in ("source", "ground") else EDGE_VALUES
        chosen[section, key] = draw(st.sampled_from(values))
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                              for (s, key), value in chosen.items() if s == section)
                   for section in _SECTIONS)


@settings(max_examples=20, deadline=None)
@given(text=configs(), command=st.sampled_from(COMMANDS))
# a 5e9-step schedule of 37 GiB, a 5e303-step one, a lattice left no units, and
# a state rate past the doubles, whose gated inf * 0 wrote NaN states
@example(text="[run]\ndt = 1e-9\n", command="run")
@example(text="[array]\nn = 3\n[source]\nfrequency = 1e-300\n", command="device")
@example(text="[array]\nn = 3\np_r = 1\n", command="export-spice")
@example(text="[device]\nbeta = 1e300\n[experiment]\namplitudes = 1e300\n", command="device")
def test_every_command_exits_0_1_or_2_and_names_the_key(text, command):
    """Exit 0, 1 or 2, never through a traceback, and nothing written unless
    0; exit 1 names a [section].key of the configuration. An exit 0 of a
    command that marches writes no NaN and reruns from its own config.ini
    to the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.ini").write_text(text)
        out = tmp / "out"
        done = _cli(command, "--config", tmp / "config.ini", "--out", out)
        assert done.returncode in (0, 1, 2) and "Traceback" not in done.stderr, done.stderr
        if done.returncode:
            assert not out.exists()
        if done.returncode == 1:
            named = re.search(r"\[(\w+)\]\.(\w+)", done.stderr)
            assert named and named[2] in _SECTIONS.get(named[1], ()), done.stderr
        if done.returncode or command not in ("run", "device", "sense"):
            return
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                cells = [cell.lower() for row in csv.reader(fh) for cell in row]
            assert "nan" not in cells, path
        again = tmp / "again"
        assert _cli(command, "--config", out / "config.ini", "--out", again).returncode == 0
        assert _files(again) == _files(out)
