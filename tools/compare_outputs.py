"""Whether two commits write the same outputs: one fixed command matrix on each.

    python3 tools/compare_outputs.py --parent HEAD~1 --change HEAD --tag mychange

Each commit is cloned fresh from this repository (``bench_pairs.clone``) into
a temporary directory. Every command of ``MATRIX`` runs in each clone as
``PYTHONPATH=src python -m memgrid.cli ARGS``, from a work directory that
holds the matrix's configs under ``configs/`` and the outputs under
``out/NAME``, so that paths in stdout and stderr read the same on both sides.
Each process may map at most ``ADDRESS_SPACE`` bytes (``RLIMIT_AS``, set in
the child before it imports memgrid), so a side that allocates without
bound fails fast with ``MemoryError`` instead of paging the host.
A command that writes a ``config.ini`` snapshot is run again from it, its
subcommand and ``--config`` alone, and its two output directories must be
byte-identical. The two sides run side by side, one process each.

It writes ``OUTPUTS_<tag>.json`` at the repository root (or ``--out``): the
commits, a summary (the changed files, exit codes, stderr and stdout, the
files one side alone wrote, the reruns that were not identical) and, per
command, each side's exit code, stderr and rerun verdict, and per output file
``identical`` or its differences: per CSV column whose cells differ, the
number of differing cells and the largest |change - parent| over the
column's largest |parent| (``null`` where a differing cell is not a finite
number on both sides, or the parent's column is all zeros); for a CSV whose
header or row count changed, or another file, the lines of each side and the
number that differ. The clone's path reads ``<tree>`` in stdout and stderr.
Both sides' stderr is kept whole, but a traceback counts as changed only if
its last line, the exception, changed: its frames move with any edit.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pairs import ROOT, clone

DEVICE = """[device]
r_on = 2000.0
r_off = 200000.0
v_t = 0.6
beta = 500000.0
r_init = 200000.0
"""


def reference(kind: str, extra: str = "") -> str:
    """The benchmark's seed-1 4x4 config of ``kind``."""
    return DEVICE + ("\n[array]\nn = 4\np_r = 0.0\np_i = 0.0\nseed = 1\n\n[source]\n"
                     "amplitude = 12.0\nfrequency = 1.0\ncycles = 5\n\n[run]\ndt = 0.001\n\n"
                     f"[experiment]\nkind = {kind}\n{extra}")


SMALL = "[array]\nn = 3\n\n[source]\namplitude = 8.0\ncycles = 1\n"
CONFIGS = {
    # the benchmark's four workloads at seed 1; lattice-16x16's first connected draw is 1000
    "run-4x4": reference("run"),
    "sense-4x4": reference("sense", "vts = 0.06\n"),
    "device-sweep": reference("device", "amplitudes = 0.7,1.0,2.0,4.0\n"
                                        "betas = 500000.0,50000000.0\n"),
    "lattice-16x16": DEVICE + "\n[array]\nn = 16\np_r = 0.05\np_i = 0.1\nseed = 1000\n\n"
                              "[source]\namplitude = 60.0\nfrequency = 1.0\ncycles = 1\n\n"
                              "[run]\ndt = 0.0005\nfit_window = 0.5\n",
    # CI's configs
    "dev-stride": "[run]\nrecord_stride = 3\n",
    "small": SMALL,
    "stride": SMALL + "\n[run]\nrecord_stride = 3\n",
    "window": SMALL + "\n[run]\nfit_window = 0.7\n",
    "band": "[array]\nn = 6\n\n[source]\namplitude = 20.0\ncycles = 1\n\n[run]\ndt = 0.0005\n",
    "corner": "[array]\nn = 3\np_i = 0.3\nsource = 2,2\nground = 0,0\n\n"
              "[source]\namplitude = 8.0\ncycles = 1\n",
    "stride2": SMALL + "\n[run]\ndt = 0.0005\nrecord_stride = 2\n",
    "distorted": "[array]\nn = 3\np_r = 0.2\n\n[source]\namplitude = 8.0\ncycles = 1\n\n"
                 "[experiment]\nkind = sense\n",
    "tiny": SMALL + "\n[experiment]\nkind = sense\nvts = 1e-5\n",
    # the 2x2 raster, step 0 held twice, and a step count that is not finite
    "raster-2x2": "[array]\nn = 2\n\n[source]\namplitude = 4.0\ncycles = 1\n",
    "phase": "[source]\nphase = -0.001\ncycles = 2\n",
    "dt-inf": "[source]\nfrequency = 1e-300\n\n[run]\ndt = 1e-9\n",
    # over 2**20 steps: 5e9 and 5e303; a lattice left no units; a rate past the doubles
    "dt-1e-9": "[run]\ndt = 1e-9\n",
    "frequency-1e-300": "[array]\nn = 3\n\n[source]\nfrequency = 1e-300\n",
    "no-units": "[array]\nn = 3\np_r = 1.0\n",
    "rate-1e600": "[device]\nbeta = 1e300\n\n[experiment]\nkind = device\namplitudes = 1e300\n",
}


def _with(config):
    return ["--config", f"configs/{config}.ini"]


SWEEP = ["--amplitude", "1", "--amplitude", "4", "--beta", "5e5", "--beta", "5e7"]
# name -> argv of memgrid.cli; "--out out/NAME" is added to every command but validate-config
MATRIX = {
    "run-4x4": ["run", *_with("run-4x4")],
    "sense-4x4": ["sense", *_with("sense-4x4")],
    "device-sweep": ["device", *_with("device-sweep")],
    "lattice-16x16": ["run", *_with("lattice-16x16")],
    "ratio-sweep": ["sense", *_with("sense-4x4"), "--ratio-sweep", "1.2", "--ratio-sweep", "5",
                    "--ratio-sweep", "10"],
    "ci-validate": ["validate-config"],
    "ci-dev": ["device", "--amplitude", "2"],
    "ci-dev4": ["device", *SWEEP],
    "ci-dev4-stride": ["device", *_with("dev-stride"), *SWEEP],
    "ci-dev1": ["device", "--amplitude", "4", "--beta", "5e7"],
    "ci-run-small": ["run", *_with("small")],
    "ci-sense-small": ["sense", *_with("small")],
    "ci-sense-stride": ["sense", *_with("stride")],
    "ci-ratios": ["sense", *_with("small"), "--ratio-sweep", "2", "--ratio-sweep", "5"],
    "ci-run-band": ["run", *_with("band")],
    "ci-run-corner": ["run", *_with("corner")],
    "ci-run-stride2": ["run", *_with("stride2")],
    "ci-sense-tiny": ["sense", *_with("small"), "--vts", "1e-5"],
    "sense-2x2": ["sense", *_with("raster-2x2")],
    "device-zero-amplitude": ["device", "--amplitude", "0"],
    "device-phase": ["device", *_with("phase"), "--amplitude", "2", "--amplitude", "4"],
    **{f"{command}-{name}": [command, *_with(name)]
       for name in ("dt-inf", "dt-1e-9", "frequency-1e-300")
       for command in ("run", "device", "sense")},
    "device-rate-1e600": ["device", *_with("rate-1e600")],
    **{f"validate-{name}": ["validate-config", *_with(name)] for name in CONFIGS},
    **{f"spice-{name}": ["export-spice", *_with(name)] for name in CONFIGS},
}


ADDRESS_SPACE = 4 << 30  # bytes; the largest command of the matrix maps under 1 GiB
# ``python -c CHILD ARGS``: ``python -m memgrid.cli ARGS`` under the address-space limit,
# set in the child itself (a ``preexec_fn`` is not safe beside the two side threads)
CHILD = ("import resource, runpy\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
         "runpy.run_module('memgrid.cli', run_name='__main__', alter_sys=True)\n")


def run_side(tree: Path, work: Path) -> dict:
    """Every command of the matrix in ``tree``, from ``work``: per name its
    exit code, stdout, stderr and whether the rerun from its snapshot wrote
    the same bytes (``None`` where it wrote no snapshot)."""
    (work / "configs").mkdir(parents=True)
    for name, text in CONFIGS.items():
        (work / "configs" / f"{name}.ini").write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}

    def cli(argv):
        return subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=work, env=env,
                              capture_output=True, text=True)

    results = {}
    for name, argv in MATRIX.items():
        out = f"out/{name}"
        done = cli(argv if argv[0] == "validate-config" else [*argv, "--out", out])
        rerun = None
        if (work / out / "config.ini").exists():
            cli([argv[0], "--config", f"{out}/config.ini", "--out", f"rerun/{name}"])
            rerun = compare_dirs(work / out, work / "rerun" / name)["identical"]
        results[name] = {"exit": done.returncode, "rerun_identical": rerun,
                         **{key: text.replace(str(tree), "<tree>")
                            for key, text in (("stdout", done.stdout), ("stderr", done.stderr))}}
    return results


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare_file(name: str, parent: bytes, change: bytes):
    """``"identical"``, or the differences of ``change`` from ``parent``,
    by column if ``name`` is a CSV file of one header and shape."""
    if parent == change:
        return "identical"
    a, b = parent.decode(errors="replace"), change.decode(errors="replace")
    rows_a, rows_b = (list(csv.reader(io.StringIO(text))) for text in (a, b))
    if (name.endswith(".csv") and len(rows_a) == len(rows_b) > 1 and rows_a[0] == rows_b[0]
            and all(len(r) == len(s) == len(rows_a[0]) for r, s in zip(rows_a, rows_b))):
        columns = {}
        for j, column in enumerate(rows_a[0]):
            pairs = [(r[j], s[j]) for r, s in zip(rows_a[1:], rows_b[1:])]
            cells = sum(p != c for p, c in pairs)
            if not cells:
                continue
            numbers = [(_number(p), _number(c)) for p, c in pairs]
            if any((p is None or c is None) for (p, c), (x, y) in zip(numbers, pairs) if x != y):
                columns[column] = {"cells": cells, "max_rel": None}
                continue
            scale = max((abs(p) for p, _ in numbers if p is not None), default=0.0)
            worst = max(abs(c - p) for p, c in numbers if p is not None and c is not None)
            columns[column] = {"cells": cells, "max_rel": worst / scale if scale else None}
        return {"columns": columns}
    lines_a, lines_b = a.splitlines(), b.splitlines()
    differing = sum(x != y for x, y in zip(lines_a, lines_b)) + abs(len(lines_a) - len(lines_b))
    return {"parent_lines": len(lines_a), "change_lines": len(lines_b),
            "lines_differing": differing}


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} \
        if root.is_dir() else set()


def compare_dirs(parent: Path, change: Path) -> dict:
    """Each file both directories hold, compared; the files one alone holds."""
    a, b = _files(parent), _files(change)
    files = {name: compare_file(name, (parent / name).read_bytes(), (change / name).read_bytes())
             for name in sorted(a & b)}
    return {"files": files, "parent_only": sorted(a - b), "change_only": sorted(b - a),
            "identical": a == b and all(v == "identical" for v in files.values())}


def _message(stderr: str) -> str:
    """What a stderr says: a traceback's last line, else all of it."""
    if "Traceback (most recent call last):" not in stderr:
        return stderr
    return stderr.rstrip().splitlines()[-1]


def compare_command(parent: dict, change: dict, parent_out: Path, change_out: Path) -> dict:
    """One command's two sides, as ``run_side`` reports them, and its outputs."""
    return {"exit": [parent["exit"], change["exit"]],
            "exit_changed": parent["exit"] != change["exit"],
            "stderr": [parent["stderr"], change["stderr"]],
            "stderr_changed": _message(parent["stderr"]) != _message(change["stderr"]),
            "stdout_changed": parent["stdout"] != change["stdout"],
            "rerun_identical": [parent["rerun_identical"], change["rerun_identical"]],
            **compare_dirs(parent_out, change_out)}


def summarize(commands: dict) -> dict:
    """The matrix's changes, by command name (``name/file`` for a file)."""
    def named(test):
        return sorted(name for name, c in commands.items() if test(c))

    return {
        "commands": len(commands),
        "files": sum(len(c["files"]) + len(c["parent_only"]) + len(c["change_only"])
                     for c in commands.values()),
        "files_changed": sorted(f"{name}/{file}" for name, c in commands.items()
                                for file, verdict in c["files"].items() if verdict != "identical"),
        "files_one_side_only": sorted(f"{name}/{file}" for name, c in commands.items()
                                      for file in c["parent_only"] + c["change_only"]),
        "exit_codes_changed": named(lambda c: c["exit_changed"]),
        "stderr_changed": named(lambda c: c["stderr_changed"]),
        "stdout_changed": named(lambda c: c["stdout_changed"]),
        "reruns_not_identical": named(lambda c: False in c["rerun_identical"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--tag", required=True, help="names the output OUTPUTS_<tag>.json")
    parser.add_argument("--out", type=Path, help="default: OUTPUTS_<tag>.json at the root")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"OUTPUTS_{args.tag}.json"
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        sides = ("parent", "change")
        trees = {side: Path(tmp) / side / "tree" for side in sides}
        works = {side: Path(tmp) / side / "work" for side in sides}
        commits = {side: clone(rev, trees[side])
                   for side, rev in zip(sides, (args.parent, args.change))}
        with ThreadPoolExecutor(2) as pool:
            results = dict(zip(sides, pool.map(lambda s: run_side(trees[s], works[s]), sides)))
        commands = {name: compare_command(results["parent"][name], results["change"][name],
                                          works["parent"] / "out" / name,
                                          works["change"] / "out" / name)
                    for name in MATRIX}
    report = {"command": "PYTHONPATH=src python -m memgrid.cli ARGS under RLIMIT_AS "
                         f"{ADDRESS_SPACE} (python -c CHILD ARGS), per MATRIX entry",
              "commits": commits, "summary": summarize(commands),
              "matrix": MATRIX, "commands": commands}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["summary"], indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
