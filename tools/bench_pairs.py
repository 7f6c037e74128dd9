"""Paired benchmark of two commits: the parent and the change, alternated.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --tag mychange \\
        --pairs sense-4x4=10 --pairs run-4x4=3 --pairs lattice-16x16=3 --pairs device-sweep=3

Each commit is cloned fresh from this repository into a temporary directory.
Both clones run the change's benchmark: the parent clone's BENCHMARK.json and
the directories it lists as ``paths`` (``perfbench/``) are replaced by the
change's, so that a change to the benchmark times both sides with one script,
and ``run_seconds``, the bounds and the workloads are the change's. For every
workload the script runs ``perfbench/run.py --workload W --seconds S --trace
0``, S being ``run_seconds``, in the two clones as alternating pairs: odd
pairs run the parent first, even pairs the change first, each run in a fresh
process. It writes ``BENCH_<tag>.json`` at the repository root (or
``--out``): per workload and end-to-end metric the median and quartiles of
either side, the pairs the change won and tied, the median of the per-pair
ratios change/parent, the parent's interquartile spread, the metric's
relative ``bound``, the no-regression ``verdict`` (see ``verdict``) and
whether a gain showed, ``improved`` (see ``improved``); per side, whether
every run was correct and the operations failed and attempted (see
``outcomes``); then every run's result and the machine facts ``run.py``
prints. A benchmark result is comparable only with one from the same host.
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
SPEC_FILE = "BENCHMARK.json"
MACHINE_PREFIX = "  machine "


def benchmark_spec(rev: str) -> dict:
    """``BENCHMARK.json`` of this repository at ``rev``."""
    return json.loads(subprocess.run(["git", "-C", str(ROOT), "show", f"{rev}:{SPEC_FILE}"],
                                     check=True, capture_output=True, text=True).stdout)


def clone(rev: str, into: Path) -> str:
    """A fresh clone of this repository at ``rev``; returns the full hash."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)],
                   check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", rev], check=True)
    return subprocess.run(["git", "-C", str(into), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def use_benchmark(tree: Path, bench: Path, spec: dict) -> None:
    """Replace ``tree``'s benchmark, its spec file and the directories the
    spec lists as ``paths``, by ``bench``'s."""
    for path in [SPEC_FILE, *spec["paths"]]:
        target = tree / path
        if target.is_dir():
            shutil.rmtree(target)
            shutil.copytree(bench / path, target)
        else:
            shutil.copy2(bench / path, target)


def run_once(tree: Path, workload: str, seconds) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: (its JSON result, machine facts)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", "0"],
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


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """Whether the change is worse than the parent on one metric, ``bound``
    being relative to the parent's median:

    * ``unresolved`` when the parent's interquartile range over its median
      exceeds the bound, unless every change run beats every parent run;
    * else ``worse`` when the change's median is worse than the parent's by
      more than the bound;
    * else ``no worse``.
    """
    spread, median = quartiles(parent), statistics.median(change)
    beats = max(change) < min(parent) if lower else min(change) > max(parent)
    if (spread["q3"] - spread["q1"]) / spread["median"] > bound and not beats:
        return "unresolved"
    worse_by = (median - spread["median"]) if lower else (spread["median"] - median)
    return "worse" if worse_by / spread["median"] > bound else "no worse"


def pairs_won(parent: list[float], change: list[float], lower: bool) -> int:
    """The pairs (parent[i], change[i]) in which the change is better."""
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def improved(parent: list[float], change: list[float], lower: bool) -> bool:
    """Whether a gain showed on one metric, ``parent[i]`` and ``change[i]``
    being pair i: the change wins at least 9 of every 10 pairs, a tie
    counting for neither side, and its median beats the parent's by more
    than the parent's interquartile range."""
    spread, median = quartiles(parent), statistics.median(change)
    gain = (spread["median"] - median) if lower else (median - spread["median"])
    won = pairs_won(parent, change, lower)
    return gain > spread["q3"] - spread["q1"] and 10 * won >= 9 * len(parent)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of a benchmark spec: both sides' median and
    quartiles, pairs won by the change (better by the metric's direction),
    ties, the median per-pair ratio change/parent, the parent's spread, the
    metric's bound, the verdict and whether a gain showed."""
    pairs = sorted({run["pair"] for run in runs})
    side = {(run["pair"], run["side"]): run["result"]["metrics"] for run in runs}
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [side[(p, "parent")][name]["value"] for p in pairs]
        change = [side[(p, "change")][name]["value"] for p in pairs]
        won = pairs_won(parent, change, lower)
        ties = sum(c == p for p, c in zip(parent, change))
        spread = quartiles(parent)
        summary[name] = {
            "unit": metric["unit"], "parent": spread, "change": quartiles(change),
            "pairs": len(pairs), "pairs_won_by_change": won, "ties": ties,
            "median_change_ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "parent_iqr": spread["q3"] - spread["q1"],
            "bound": metric["bound"], "verdict": verdict(parent, change, lower, metric["bound"]),
            "improved": improved(parent, change, lower),
        }
    return summary


def outcomes(runs: list[dict]) -> dict:
    """Per side, ``parent`` and ``change``: whether every run was correct,
    and the operations failed and attempted, summed over that side's runs."""
    report = {}
    for side in ("parent", "change"):
        results = [run["result"] for run in runs if run["side"] == side]
        report[side] = {"all_correct": all(result["correct"] for result in results),
                        "failed": sum(result["failed"] for result in results),
                        "attempted": sum(result["attempted"] for result in results)}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="run N alternating pairs of WORKLOAD; repeat per workload")
    parser.add_argument("--out", type=Path, help="default: BENCH_<tag>.json at the root")
    args = parser.parse_args(argv)
    spec = benchmark_spec(args.change)
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in {w["name"] for w in spec["workloads"]} or not count.isdigit() \
                or int(count) < 2:
            parser.error(f"--pairs {item!r}: want WORKLOAD=N with a benchmark workload, N >= 2")
        plan.append((workload, int(count)))
    out = args.out or ROOT / f"BENCH_{args.tag}.json"

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        commits = {side: clone(rev, trees[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        use_benchmark(trees["parent"], trees["change"], spec)
        commits["bench"] = commits["change"]
        machine, workloads = None, {}
        for workload, count in plan:
            runs = []
            for pair in range(1, count + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result, facts = run_once(trees[side], workload, spec["run_seconds"])
                    machine = machine or {k: v for k, v in facts.items() if k != "git_commit"}
                    runs.append({"pair": pair, "side": side, "git_commit": facts["git_commit"],
                                 "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} {side}: wall_s {wall:.4f}", flush=True)
            workloads[workload] = {"summary": summarize(runs, spec["end_to_end"]),
                                   "outcomes": outcomes(runs), "runs": runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "command": f"python3 perfbench/run.py --workload W --seconds {spec['run_seconds']} --trace 0",
        "design": "alternating pairs: odd pairs run the parent first, even pairs the change "
                  "first; each run is a fresh process in a fresh clone of its commit, both "
                  "running the benchmark of commits.bench, the change's; values "
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
