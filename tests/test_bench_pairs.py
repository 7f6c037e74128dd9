import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
END_TO_END = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run(pair, side, wall, setup=0.2, rss=50.0, failed=0):
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return {"pair": pair, "side": side,
            "result": {"metrics": {k: {"value": v} for k, v in metrics.items()},
                       "correct": not failed, "failed": failed, "attempted": 10}}


def test_summary_counts_pairs_won_by_each_metric_direction():
    runs = [run(1, "parent", 2.0), run(1, "change", 1.8),
            run(2, "change", 2.2), run(2, "parent", 2.1),
            run(3, "parent", 2.4), run(3, "change", 2.0, rss=50.0),
            run(4, "change", 1.9, setup=0.1), run(4, "parent", 2.2)]
    summary = bench_pairs.summarize(runs, END_TO_END)
    wall = summary["wall_s"]
    assert wall["pairs"] == 4 and wall["pairs_won_by_change"] == 3 and wall["ties"] == 0
    assert wall["parent"]["median"] == pytest.approx(2.15)
    assert wall["parent"]["q1"] == pytest.approx(2.075) and wall["parent"]["q3"] == pytest.approx(2.25)
    assert wall["parent_iqr"] == pytest.approx(0.175)
    ratios = sorted([1.8 / 2.0, 2.2 / 2.1, 2.0 / 2.4, 1.9 / 2.2])
    assert wall["median_change_ratio"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    assert summary["setup_s"]["pairs_won_by_change"] == 1 and summary["setup_s"]["ties"] == 3
    assert summary["peak_rss_mb"]["ties"] == 4 and summary["peak_rss_mb"]["unit"] == "MB"
    assert wall["bound"] == 0.22 and wall["verdict"] == "no worse"
    assert summary["setup_s"]["bound"] == 0.25 and summary["peak_rss_mb"]["bound"] == 0.1
    # wall: median 2.15 -> 1.95 s beats the 0.175 s IQR, but 3 of 4 pairs
    # won is short of 9 in 10
    assert wall["improved"] is False
    assert summary["setup_s"]["improved"] is False and summary["peak_rss_mb"]["improved"] is False


def test_outcomes_are_reported_per_side():
    # only the change fails: a sum over both sides would not say whose runs failed
    runs = [run(1, "parent", 2.0), run(1, "change", 2.0, failed=3),
            run(2, "change", 2.0), run(2, "parent", 2.0)]
    assert bench_pairs.outcomes(runs) == {
        "parent": {"all_correct": True, "failed": 0, "attempted": 20},
        "change": {"all_correct": False, "failed": 3, "attempted": 20},
    }


WIDE = [0.13, 0.15, 0.15, 0.20, 0.20, 0.21]  # quartiles 0.15-0.20 s: IQR/median 0.29
VERDICTS = [
    ("wide parent spread", WIDE, [0.14, 0.15, 0.16, 0.17, 0.18, 0.19], True, "unresolved"),
    ("wide spread, every change run better", WIDE, [0.10, 0.11, 0.11, 0.12, 0.12, 0.12],
     True, "no worse"),
    ("wide spread, every change run worse", WIDE, [0.30] * 6, True, "unresolved"),
    ("worse by more than the bound", [0.20] * 6, [0.26] * 6, True, "worse"),
    ("worse within the bound", [0.20, 0.21, 0.20, 0.21, 0.20, 0.21], [0.24] * 6, True,
     "no worse"),
    ("better", [0.20] * 6, [0.10] * 6, True, "no worse"),
    ("higher is better, fell", [0.20] * 6, [0.14] * 6, False, "worse"),
    ("higher is better, rose", [0.20] * 6, [0.26] * 6, False, "no worse"),
    ("higher is better, wide spread, every change run better", WIDE, [0.30] * 6, False,
     "no worse"),
]


@pytest.mark.parametrize("parent, change, lower, expected", [case[1:] for case in VERDICTS],
                         ids=[case[0] for case in VERDICTS])
def test_verdict_against_a_relative_bound(parent, change, lower, expected):
    assert bench_pairs.verdict(parent, change, lower, bound=0.25) == expected


# parent quartiles 1.0, 1.5, 2.0 (IQR 1.0); reversed for a metric where higher is better
GAINS = [
    ("gain beyond the IQR, every pair won", [1.0, 1.0, 2.0, 2.0], [0.4] * 4, True, True),
    ("gain equal to the IQR", [1.0, 1.0, 2.0, 2.0], [0.5] * 4, True, False),
    ("gain within the IQR", [1.0, 1.0, 2.0, 2.0], [1.0] * 4, True, False),
    ("gain beyond the IQR, half the pairs won", [1.0] * 6, [0.5, 0.5, 0.5, 1.1, 1.1, 1.1],
     True, False),
    ("gain beyond the IQR, 9 of 10 pairs won", [1.0] * 10, [0.5] * 9 + [1.1], True, True),
    ("gain beyond the IQR, 8 of 10 pairs won", [1.0] * 10, [0.5] * 8 + [1.1] * 2, True, False),
    ("gain beyond the IQR, 9 of 10 pairs won, one tie", [1.0] * 10, [0.5] * 9 + [1.0], True,
     True),
    ("gain beyond the IQR, 8 of 10 pairs won, one tie", [1.0] * 10, [0.5] * 8 + [1.0, 1.1],
     True, False),
    ("worse", [1.0, 1.0, 2.0, 2.0], [2.5] * 4, True, False),
    ("higher is better, gain beyond the IQR", [1.0, 1.0, 2.0, 2.0], [2.6] * 4, False, True),
    ("higher is better, gain within the IQR", [1.0, 1.0, 2.0, 2.0], [2.0] * 4, False, False),
    ("higher is better, gain beyond the IQR, half the pairs won", [1.0] * 6,
     [1.5, 1.5, 1.5, 0.9, 0.9, 0.9], False, False),
    ("higher is better, fell", [1.0, 1.0, 2.0, 2.0], [0.4] * 4, False, False),
]


@pytest.mark.parametrize("parent, change, lower, expected", [case[1:] for case in GAINS],
                         ids=[case[0] for case in GAINS])
def test_improved_needs_a_gain_beyond_the_parent_iqr_in_most_pairs(parent, change, lower,
                                                                    expected):
    assert bench_pairs.improved(parent, change, lower) is expected


def test_pairs_must_name_a_benchmark_workload(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--tag", "x",
                          "--pairs", "no-such-workload=3"])
    assert "no-such-workload" in capsys.readouterr().err


FAKE_RUN = '''import argparse, json, subprocess
from pathlib import Path
root = Path(__file__).resolve().parent.parent
args = argparse.ArgumentParser()
for flag in ("--workload", "--seconds", "--trace"):
    args.add_argument(flag)
args = args.parse_args()
commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                        text=True).stdout.strip()
print("  machine " + json.dumps({"git_commit": commit}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0}},
                  "script": SCRIPT, "source": (root / "src.txt").read_text(),
                  "workload": args.workload, "seconds": args.seconds}))
'''


def commit_side(repo, side, workload, seconds):
    spec = {"paths": ["perfbench"], "run_seconds": seconds, "workloads": [{"name": workload}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.22}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    (repo / "perfbench" / "run.py").write_text(f"SCRIPT = {side!r}\n" + FAKE_RUN)
    (repo / "src.txt").write_text(side)
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "--quiet", "-m", side], check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()


def test_both_sides_run_the_benchmark_of_the_change(tmp_path, monkeypatch, capsys):
    """Each clone keeps its own sources but runs the change's ``perfbench/``
    with the change's ``run_seconds`` and workloads, so that a change to the
    benchmark times its parent with the same script."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    subprocess.run(["git", "init", "--quiet", str(repo)], check=True)
    parent = commit_side(repo, "parent", "old-workload", 1)
    change = commit_side(repo, "change", "new-workload", 7)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", parent, "--change", change, "--tag", "x",
                             "--pairs", "new-workload=2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["commits"] == {"parent": parent, "change": change, "bench": change}
    runs = report["workloads"]["new-workload"]["runs"]
    assert sorted(run["side"] for run in runs) == ["change", "change", "parent", "parent"]
    for run in runs:
        assert run["git_commit"] == report["commits"][run["side"]]
        assert run["result"]["source"] == run["side"]
        assert run["result"]["script"] == "change"
        assert run["result"]["seconds"] == "7"
    with pytest.raises(SystemExit):  # the parent's workloads are not the change's
        bench_pairs.main(["--parent", parent, "--change", change, "--tag", "x",
                          "--pairs", "old-workload=2", "--out", str(out)])
    assert "old-workload" in capsys.readouterr().err
