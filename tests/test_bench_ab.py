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
    assert out["host_factors"] == [1.040, 1.083]
    assert out["detail"] == {"setup_s": 2.83283, "peak_rss_mb": 69.6875,
                             "metamarket_ms_per_epoch": 36.3547}
    assert out["result"]["attempted"] == 1277


def test_detail_medians_per_workload_and_side():
    """Each side's median rounds and detail values, beside the verdicts:
    a train run's peak RSS grows with the rounds it ran."""
    runs = _pairs()
    for i, r in enumerate(runs):
        r["rounds"] = 5 + i % 2 + (i >= 10)
        r["host_factors"] = [1.0]
        r["detail"] = {"peak_rss_mb": 70.0 + i, "metamarket_ms_per_epoch": 36.0}
    medians = bench_ab.detail_medians(runs)
    assert set(medians) == {"dataset"}
    # parents are the even runs 0..18, changes the odd runs 1..19
    assert medians["dataset"]["parent"] == {"rounds": 5.5, "host_factor": 1.0,
                                            "peak_rss_mb": 79.0,
                                            "metamarket_ms_per_epoch": 36.0}
    assert medians["dataset"]["change"] == {"rounds": 6.5, "host_factor": 1.0,
                                            "peak_rss_mb": 80.0,
                                            "metamarket_ms_per_epoch": 36.0}


# the same calibrate seed at two revisions, one after the other on one host
PARENT_STDOUT = """\
workload calibrate  seed 1  trace 0  rounds 2  op = day calibrated by every method  gen_benchmark seed 1
machine {"nproc": 2, "cpu_model": "Intel(R) Xeon(R) Processor", "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "blas_threads": 1, "seed": 1}
unscaled ms_per_op by round: 801.6 811.1; host speed factor by round: 0.708 0.718; set-up scaled: 3.748 s
  setup_s                      5.22063 s
  peak_rss_mb                  77.7539 MB
  error_rate                   0 ratio
  sim_days_per_s               24.8033 1/s
  calisim_ms_per_day           10.4288 ms
  randsearch_ms_per_day        376.204 ms
  bayesopt_ms_per_day          419.738 ms
  recovery_calisim             1.62335 sq_norm
  recovery_randsearch          1.03193 sq_norm
  recovery_bayesopt            1.04001 sq_norm
digest sha256:7c3d7029ea94bba6b4b274cf3b3520295e9ca04c1afd475af0a6c04abd374ef7
{"correct": true, "attempted": 175, "failed": 0, "metrics": {"setup_s": {"value": 3.74782912367655, "unit": "s"}, "ms_per_op": {"value": 575.2218840372499, "unit": "ms"}, "peak_rss_mb": {"value": 77.75390625, "unit": "MB"}}}
"""
CHANGE_STDOUT = """\
workload calibrate  seed 1  trace 0  rounds 2  op = day calibrated by every method  gen_benchmark seed 1
machine {"nproc": 2, "cpu_model": "Intel(R) Xeon(R) Processor", "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "blas_threads": 1, "seed": 1}
unscaled ms_per_op by round: 932.9 745.5; host speed factor by round: 0.556 0.678; set-up scaled: 3.787 s
  setup_s                      6.67054 s
  peak_rss_mb                  65.918 MB
  error_rate                   0 ratio
  sim_days_per_s               24.1326 1/s
  calisim_ms_per_day           10.7709 ms
  randsearch_ms_per_day        414.144 ms
  bayesopt_ms_per_day          414.3 ms
  recovery_calisim             1.62335 sq_norm
  recovery_randsearch          1.03193 sq_norm
  recovery_bayesopt            1.04001 sq_norm
digest sha256:7c3d7029ea94bba6b4b274cf3b3520295e9ca04c1afd475af0a6c04abd374ef7
{"correct": true, "attempted": 175, "failed": 0, "metrics": {"setup_s": {"value": 3.7865076344869237, "unit": "s"}, "ms_per_op": {"value": 512.0046297759257, "unit": "ms"}, "peak_rss_mb": {"value": 65.91796875, "unit": "MB"}}}
"""


def test_detail_medians_give_the_host_factor_beside_raw_times():
    """Raw detail times next to the probe's factor: the change's run read
    slower per random-search day (414 against 376 ms) on a host the probe
    found slower (factor 0.617 against 0.713), while its scaled ms_per_op
    read faster."""
    runs = [{"workload": "calibrate", "pair": 0, "side": side, **bench_ab.parse_output(out)}
            for side, out in (("parent", PARENT_STDOUT), ("change", CHANGE_STDOUT))]
    assert runs[0]["host_factors"] == [0.708, 0.718]
    medians = bench_ab.detail_medians(runs)["calibrate"]
    assert medians["parent"]["host_factor"] == 0.713
    assert medians["change"]["host_factor"] == 0.617
    assert medians["parent"]["randsearch_ms_per_day"] == 376.204
    assert medians["change"]["randsearch_ms_per_day"] == 414.144
    scaled = {r["side"]: r["result"]["metrics"]["ms_per_op"]["value"] for r in runs}
    assert scaled["change"] < scaled["parent"]
