"""Verdicts of the paired A/B driver `tools/bench_ab.py`."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def _run(pair, side, ms, failed=0):
    metrics = {"ms_per_op": ms, "setup_s": 1.0, "peak_rss_mb": 50.0}
    return {"workload": "dataset", "pair": pair, "side": side, "digest": "d",
            "result": {"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def _pairs(change_failed_in_pair=None):
    runs = []
    for i in range(bench_ab.PAIRS):
        runs.append(_run(i, "parent", 27.0 + 0.1 * i))
        runs.append(_run(i, "change", 24.0 + 0.1 * i,
                         failed=int(i == change_failed_in_pair)))
    return runs


def test_clean_winning_change_is_better():
    s = bench_ab.summarize(_pairs())["dataset.ms_per_op"]
    assert (s["change_wins"], s["verdict"], s["change_fails_more"]) == (10, "better", False)
    assert s["failed_of_attempted"] == {"parent": [0, 1000], "change": [0, 1000]}


@pytest.mark.parametrize("pair", [0, 9])
def test_change_that_fails_a_check_is_never_better(pair):
    s = bench_ab.summarize(_pairs(change_failed_in_pair=pair))["dataset.ms_per_op"]
    assert s["change_wins"] == 10
    assert (s["verdict"], s["change_runs_incorrect"], s["change_fails_more"]) == (
        "unresolved", 1, True)
    assert s["failed_of_attempted"]["change"] == [1, 1000]
