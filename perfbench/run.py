"""memgrid benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload run-4x4 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; memgrid is imported from the
checkout's ``src``. The invocations are a closed loop: one caller, one study
at a time, in this process. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics. Human-readable lines come first; the last line of standard
output is the JSON result.
"""

import argparse
import contextlib
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread for this process and every probe: the closed loop runs one
# study on one core, and a threaded LU would time whatever else occupies the
# other cores as much as memgrid. Set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from calibrate import SpeedTrack, rescale  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 9
MIN_INVOCATIONS = 2  # the rerun-from-snapshot check needs a second invocation
PROBE_TIMEOUT_S = 30


def _units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
    }
    return facts


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def measure_setup(workload) -> tuple[list[float], list[float]]:
    """Set-up seconds from fresh interpreters, raw and rescaled by the speed
    sample each probe takes of itself. The first probe also compiles
    bytecode and is discarded."""
    probe = Path(__file__).with_name("setup_probe.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        argv = [sys.executable, str(probe), str(workload.config), *workload.probe_flags]
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=PROBE_TIMEOUT_S, check=True)
        setup_s, kernel_s = map(float, done.stdout.split())
        raw.append(setup_s)
        scaled.append(rescale(setup_s, kernel_s))
    return raw[1:], scaled[1:]


class Runner:
    """Times invocations of one workload and checks each one."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.bytes: list[int] = []
        self.speed = SpeedTrack()

    def once(self, tracer=None, timed=True) -> None:
        out = self.work / f"out-{self.attempted}"
        self.attempted += 1
        scope = tracer.active() if tracer is not None else contextlib.nullcontext()
        try:
            with scope:
                result, wall, scaled = self.speed.measure(lambda: self.workload.invoke(out),
                                                          inner=tracer is None)
            self.workload.check(result)
        except Exception as err:  # a failed invocation is counted, not fatal
            self.failed += 1
            print(f"invocation {self.attempted} failed: {type(err).__name__}: {err}",
                  file=sys.stderr)
        else:
            if timed and tracer is not None:
                self.traced_walls.append(scaled)
            elif timed:
                self.walls.append(wall)
                self.scaled_walls.append(scaled)
            self.bytes.append(self.workload.bytes_written(result))
        if out.exists() and out != getattr(self.workload, "reference", None):
            shutil.rmtree(out)


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run(args) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        setup_raw, setup = measure_setup(workload) if not args.trace else ([], [])
        runner = Runner(workload, work)
        if workload.full_warmup:
            runner.once(timed=False)
        else:
            workload.warm()

        tracer = Tracer() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < MIN_INVOCATIONS or time.perf_counter() < deadline:
            runner.once(tracer=tracer if tracer is not None and k % 2 else None)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": workload.inputs(), "machine": machine_facts(),
              "invocations": {"attempted": runner.attempted, "failed": runner.failed,
                              "untraced": len(runner.walls),
                              "traced": len(runner.traced_walls)}}
    if runner.walls:
        report["wall_s_tail"] = tail(runner.scaled_walls)
        report["wall_s_range"] = (min(runner.scaled_walls), max(runner.scaled_walls))
    if args.trace:
        metrics = tracer.per_layer()
        metrics["cli.bytes_written"] = statistics.median(runner.bytes) if runner.bytes else 0
        if runner.walls and runner.traced_walls:
            metrics["trace.overhead_s"] = (statistics.median(runner.traced_walls)
                                           - statistics.median(runner.scaled_walls))
        units = _units("per_layer")
        report["layers"] = {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in tracer.layer_totals().items()}
        spans = STATE / f"spans-{args.workload}.npz"  # the latest traced run
        np.savez_compressed(spans, **tracer.spans())
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": statistics.median(runner.scaled_walls) if runner.walls else None,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = _units("end_to_end")
        report["raw"] = {"wall_s": statistics.median(runner.walls) if runner.walls else None,
                         "setup_s": statistics.median(setup_raw)}
    report["metrics"] = {name: {"value": metrics.get(name), "unit": unit}
                         for name, unit in units.items()}
    return report


def print_report(report: dict) -> None:
    inv = report["invocations"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"  inputs  {json.dumps(report['inputs'])}")
    print(f"  machine {json.dumps(report['machine'])}")
    print(f"  invocations {inv['attempted']} attempted, {inv['failed']} failed, "
          f"fail_ratio {inv['failed'] / inv['attempted']:.4g} "
          f"({inv['untraced']} untraced and {inv['traced']} traced timed)")
    if report.get("wall_s_tail"):
        p, value = report["wall_s_tail"]
        print(f"  wall_s p{p:.0f} {value:.6g} s over {inv['untraced']} samples")
    elif inv["untraced"]:
        print(f"  wall_s tail: {inv['untraced']} samples, fewer than 11, so no percentile")
    if "wall_s_range" in report:
        print("  wall_s range {:.6g} .. {:.6g} s".format(*report["wall_s_range"]))
    for name, layer in sorted(report.get("layers", {}).items()):
        if not layer["calls"]:
            continue
        print(f"  span {name:30s} {layer['calls']:9d} calls  "
              f"{layer['total_s']:10.4f} s total  {layer['self_s']:10.4f} s self")
    for name, value in report.get("raw", {}).items():
        print(f"  raw {name:26s} {value!r} s (host seconds, not rescaled)")
    if "spans_file" in report:
        print(f"  spans written to {report['spans_file']}")
    for name, m in report["metrics"].items():
        print(f"  {name:30s} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memgrid" / "__init__.py").is_file():
        print(f"perfbench: no memgrid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = run(args)
    print_report(report)
    metrics = report["metrics"]
    inv = report["invocations"]
    if any(m["value"] is None for m in metrics.values()):
        print("perfbench: a metric has no samples", file=sys.stderr)
        return 1
    print(json.dumps({"correct": inv["failed"] == 0, "attempted": inv["attempted"],
                      "failed": inv["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
