"""Paired benchmark of two commits: the parent and the change, alternated.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --tag mychange \\
        --pairs sense-4x4=10 --pairs run-4x4=3 --pairs lattice-16x16=3 --pairs device-sweep=3

Each commit is cloned fresh from this repository into a temporary directory.
For every workload the script runs ``perfbench/run.py --workload W --seconds S
--trace 0``, S being BENCHMARK.json's ``run_seconds``, in the two clones as
alternating pairs: odd pairs run the parent first, even pairs the change
first, each run in a fresh process. It writes
``BENCH_<tag>.json`` at the repository root (or ``--out``): per workload and
end-to-end metric the median and quartiles of either side, the pairs the
change won and tied, the median of the per-pair ratios change/parent and the
parent's interquartile spread; then every run's result and the machine facts
``run.py`` prints. A benchmark result is comparable only with one from the
same host.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MACHINE_PREFIX = "  machine "


def clone(rev: str, into: Path) -> str:
    """A fresh clone of this repository at ``rev``; returns the full hash."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)],
                   check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", rev], check=True)
    return subprocess.run(["git", "-C", str(into), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: (its JSON result, machine facts)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    machine = next(json.loads(line[len(MACHINE_PREFIX):]) for line in lines
                   if line.startswith(MACHINE_PREFIX))
    return json.loads(lines[-1]), machine


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both sides' median and
    quartiles, pairs won by the change (better by the metric's direction),
    ties, the median per-pair ratio change/parent and the parent's spread."""
    pairs = sorted({run["pair"] for run in runs})
    side = {(run["pair"], run["side"]): run["result"]["metrics"] for run in runs}
    summary = {}
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [side[(p, "parent")][name]["value"] for p in pairs]
        change = [side[(p, "change")][name]["value"] for p in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        spread = quartiles(parent)
        summary[name] = {
            "unit": metric["unit"], "parent": spread, "change": quartiles(change),
            "pairs": len(pairs), "pairs_won_by_change": won, "ties": ties,
            "median_change_ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "parent_iqr": spread["q3"] - spread["q1"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="run N alternating pairs of WORKLOAD; repeat per workload")
    parser.add_argument("--out", type=Path, help="default: BENCH_<tag>.json at the root")
    args = parser.parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in {w["name"] for w in SPEC["workloads"]} or not count.isdigit() \
                or int(count) < 2:
            parser.error(f"--pairs {item!r}: want WORKLOAD=N with a benchmark workload, N >= 2")
        plan.append((workload, int(count)))
    out = args.out or ROOT / f"BENCH_{args.tag}.json"

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        commits = {side: clone(rev, trees[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        machine, workloads = None, {}
        for workload, count in plan:
            runs = []
            for pair in range(1, count + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result, facts = run_once(trees[side], workload)
                    machine = machine or {k: v for k, v in facts.items() if k != "git_commit"}
                    runs.append({"pair": pair, "side": side, "git_commit": facts["git_commit"],
                                 "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} {side}: wall_s {wall:.4f}", flush=True)
            workloads[workload] = {
                "summary": summarize(runs),
                "all_correct": all(run["result"]["correct"] for run in runs),
                "failed": sum(run["result"]["failed"] for run in runs),
                "attempted": sum(run["result"]["attempted"] for run in runs),
                "runs": runs,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "command": f"python3 perfbench/run.py --workload W --seconds {SPEC['run_seconds']} --trace 0",
        "design": "alternating pairs: odd pairs run the parent first, even pairs the change "
                  "first; each run is a fresh process in a fresh clone of its commit; values "
                  "are the metrics of the JSON last line run.py prints; quartiles by "
                  "statistics.quantiles(n=4, method='inclusive')",
        "commits": commits,
        "machine": machine,
        "workloads": workloads,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
