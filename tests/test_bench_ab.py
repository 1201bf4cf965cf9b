"""Verdicts of the paired A/B driver `tools/bench_ab.py`."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BOUNDS = {"ms_per_op": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


def _run(pair, side, ms, failed=0):
    metrics = {"ms_per_op": ms, "setup_s": 1.0, "peak_rss_mb": 50.0}
    return {"workload": "dataset", "pair": pair, "side": side, "digest": "d",
            "result": {"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def _pairs(change_failed_in_pair=None, change_ms=24.0):
    runs = []
    for i in range(bench_ab.PAIRS):
        runs.append(_run(i, "parent", 27.0 + 0.1 * i))
        runs.append(_run(i, "change", change_ms + 0.1 * i,
                         failed=int(i == change_failed_in_pair)))
    return runs


def test_clean_winning_change_is_better():
    s = bench_ab.summarize(_pairs(), BOUNDS)["dataset.ms_per_op"]
    assert (s["change_wins"], s["verdict"], s["change_fails_more"]) == (10, "better", False)
    assert (s["bound_pct"], s["within_bound"]) == (25.0, True)
    assert s["failed_of_attempted"] == {"parent": [0, 1000], "change": [0, 1000]}


@pytest.mark.parametrize("pair", [0, 9])
def test_change_that_fails_a_check_is_never_better(pair):
    s = bench_ab.summarize(_pairs(change_failed_in_pair=pair), BOUNDS)["dataset.ms_per_op"]
    assert s["change_wins"] == 10
    assert (s["verdict"], s["change_runs_incorrect"], s["change_fails_more"]) == (
        "unresolved", 1, True)
    assert s["failed_of_attempted"]["change"] == [1, 1000]


def test_change_beyond_its_bound_is_flagged():
    """30% slower in the median, one pair of ten won: past the 25% bound."""
    runs = _pairs(change_ms=27.0 * 1.3)
    runs[1]["result"]["metrics"]["ms_per_op"]["value"] = 26.0   # the change wins pair 0
    s = bench_ab.summarize(runs, BOUNDS)["dataset.ms_per_op"]
    assert (s["change_wins"], s["verdict"]) == (1, "worse")
    assert s["median_change_pct"] > 25.0
    assert (s["bound_pct"], s["within_bound"]) == (25.0, False)


def test_rusage_medians_per_workload_and_side():
    runs = _pairs()
    for i, r in enumerate(runs):
        r["rusage"] = {"minflt": 1000 * (i % 2) + i, "utime_s": 0.5 * i, "stime_s": 0.1}
    runs += [{**runs[j], "workload": "train",
              "rusage": {"minflt": 7 + j, "utime_s": 1.0, "stime_s": 0.0}} for j in (0, 1)]
    medians = bench_ab.rusage_medians(runs)
    assert set(medians) == {"dataset", "train"}
    # parents are the even runs 0..18, changes the odd runs 1..19
    assert medians["dataset"]["parent"] == {"minflt": 9, "utime_s": 4.5, "stime_s": 0.1}
    assert medians["dataset"]["change"] == {"minflt": 1010, "utime_s": 5.0, "stime_s": 0.1}
    assert medians["train"]["change"] == {"minflt": 8, "utime_s": 1.0, "stime_s": 0.0}


STDOUT = """\
workload train  seed 3  trace 0  rounds 7  op = training epoch  gen_benchmark seed 3
machine {"nproc": 2, "seed": 3}
unscaled ms_per_op by round: 1.851 1.82; host speed factor by round: 1.040 1.083
  setup_s                      2.83283 s
  peak_rss_mb                  69.6875 MB
  metamarket_ms_per_epoch      36.3547 ms
digest sha256:2078edfc
{"correct": true, "attempted": 1277, "failed": 0, "metrics": {}}
"""


def test_parse_output_reads_rounds_and_detail_lines():
    out = bench_ab.parse_output(STDOUT)
    assert out["digest"] == "sha256:2078edfc" and out["rounds"] == 7
    assert out["detail"] == {"setup_s": 2.83283, "peak_rss_mb": 69.6875,
                             "metamarket_ms_per_epoch": 36.3547}
    assert out["result"]["attempted"] == 1277


def test_detail_medians_per_workload_and_side():
    """Each side's median rounds and detail values, beside the verdicts:
    a train run's peak RSS grows with the rounds it ran."""
    runs = _pairs()
    for i, r in enumerate(runs):
        r["rounds"] = 5 + i % 2 + (i >= 10)
        r["detail"] = {"peak_rss_mb": 70.0 + i, "metamarket_ms_per_epoch": 36.0}
    medians = bench_ab.detail_medians(runs)
    assert set(medians) == {"dataset"}
    # parents are the even runs 0..18, changes the odd runs 1..19
    assert medians["dataset"]["parent"] == {"rounds": 5.5, "peak_rss_mb": 79.0,
                                            "metamarket_ms_per_epoch": 36.0}
    assert medians["dataset"]["change"] == {"rounds": 6.5, "peak_rss_mb": 80.0,
                                            "metamarket_ms_per_epoch": 36.0}
