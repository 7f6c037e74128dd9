import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(pair, side, wall, setup=0.2, rss=50.0):
    metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return {"pair": pair, "side": side,
            "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_summary_counts_pairs_won_by_each_metric_direction():
    runs = [run(1, "parent", 2.0), run(1, "change", 1.8),
            run(2, "change", 2.2), run(2, "parent", 2.1),
            run(3, "parent", 2.4), run(3, "change", 2.0, rss=50.0),
            run(4, "change", 1.9, setup=0.1), run(4, "parent", 2.2)]
    summary = bench_pairs.summarize(runs)
    wall = summary["wall_s"]
    assert wall["pairs"] == 4 and wall["pairs_won_by_change"] == 3 and wall["ties"] == 0
    assert wall["parent"]["median"] == pytest.approx(2.15)
    assert wall["parent"]["q1"] == pytest.approx(2.075) and wall["parent"]["q3"] == pytest.approx(2.25)
    assert wall["parent_iqr"] == pytest.approx(0.175)
    ratios = sorted([1.8 / 2.0, 2.2 / 2.1, 2.0 / 2.4, 1.9 / 2.2])
    assert wall["median_change_ratio"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    assert summary["setup_s"]["pairs_won_by_change"] == 1 and summary["setup_s"]["ties"] == 3
    assert summary["peak_rss_mb"]["ties"] == 4 and summary["peak_rss_mb"]["unit"] == "MB"


def test_pairs_must_name_a_benchmark_workload(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--tag", "x",
                          "--pairs", "no-such-workload=3"])
    assert "no-such-workload" in capsys.readouterr().err
