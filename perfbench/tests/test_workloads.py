"""A minimal run of each workload emits every named metric with its unit."""

import json
from pathlib import Path

import pytest

from calisim import benchmark
from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = workloads.Scale(profile="tiny", dataset_draws=1, setup_day_step=1,
                       surrogate_epochs=3, metamarket_epochs=2,
                       setup_surrogate_epochs=2, setup_metamarket_epochs=2,
                       calibrate_days=2)


@pytest.fixture
def tiny_profile(monkeypatch):
    monkeypatch.setitem(benchmark.PROFILES, "tiny", dict(
        n_train=8, n_test=3, n_agents=30, slots_per_day=1200,
        surrogate_per_day=1, surrogate_replicates=1))


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_run_emits_every_metric(tiny_profile, tmp_path, workload, trace):
    out = run.measure(workload, 3, 0.0, trace, scale=TINY, out_root=tmp_path)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == list(expected)
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    detail = workloads.WORKLOADS[workload].detail
    assert [(k, v["unit"]) for k, v in out["detail"].items()] == list(detail)
    assert out["failed_checks"] == []
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["benchmark.gen_benchmark.s"] > 0
        if workload == "train":
            assert m["simulator.run_day.calls"] == 0
        if workload == "calibrate":
            assert m["harness.sim_calls_per_day.calisim"] == 0
            assert m["harness.sim_calls_per_day.randsearch"] == 10
            assert m["harness.sim_calls_per_day.bayesopt"] == 10
        if workload == "dataset":
            assert m["simulator.run_day.calls"] == 8
        assert (tmp_path / f"trace-{workload}.npz").exists()


def test_digest_repeats_across_runs_of_one_seed(tiny_profile, tmp_path):
    a = run.measure("dataset", 5, 0.0, False, scale=TINY, out_root=tmp_path)
    b = run.measure("dataset", 5, 0.0, False, scale=TINY, out_root=tmp_path)
    c = run.measure("dataset", 6, 0.0, False, scale=TINY, out_root=tmp_path)
    assert a["digest"] == b["digest"] != c["digest"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_each_round_has_its_own_inputs(tiny_profile, tmp_path, workload):
    from time import perf_counter
    wl = workloads.WORKLOADS[workload]
    ctx = wl.setup(7, TINY, tmp_path, perf_counter)
    first, second, again = (wl.unit(ctx, r, 0).digest for r in (0, 1, 0))
    assert first != second and first == again


def test_calibrate_days_lie_in_the_test_window(tiny_profile, tmp_path):
    bench = benchmark.gen_benchmark("tiny", 3)
    ctx = workloads.Context(3, TINY, tmp_path, bench, None, blocks=2)
    test_days = {d.day for d in bench.test_days}
    for rnd in range(bench.n_test):
        days = [bench.days[workloads.calibrate_day(ctx, rnd, b)].day for b in range(2)]
        assert set(days) <= test_days and len(set(days)) == 2


def test_checks_count_failures_instead_of_raising(tiny_profile, tmp_path, monkeypatch):
    from calisim import simulator
    monkeypatch.setattr(simulator, "replay", lambda *a, **k: (_ for _ in ()).throw(
        AssertionError("replay diverged from recorded trades")))
    out = run.measure("dataset", 3, 0.0, False, scale=TINY, out_root=tmp_path)
    assert not out["result"]["correct"]
    assert out["failed_checks"] == ["stream_replay"]
    assert out["result"]["failed"] == 2 * workloads.SAMPLE_STREAMS


def test_runtime_warnings_are_counted_not_printed(capsys):
    import numpy as np
    with run.WarningCounter() as w:
        for _ in range(3):
            np.exp(np.array([1000.0]))
    assert w.count == 3
    assert "overflow" not in capsys.readouterr().err


def test_host_clock_excludes_probe_time():
    from time import perf_counter
    host = run.HostSpeed()
    t0, c0 = perf_counter(), host.clock()
    host.sample()
    host.sample()
    assert host.clock() - c0 < 0.1 * (perf_counter() - t0)
    assert len(host.samples) == 2
    assert host.scale(1, 0.5) == (run.PROBE_NOMINAL_S / host.samples[1]) ** 0.5
