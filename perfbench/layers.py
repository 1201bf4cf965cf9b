"""Which calls into calisim get a span or a counter, and the per-layer
metrics derived from them.

Every workload reports every metric in PER_LAYER; a layer a workload does
not exercise reads 0 (for example `simulator.run_day.calls` on `train`).
Counts are per traced round. Each round draws its inputs from the seed and
its number, so counts repeat exactly for a seed and a number of rounds.
"""

from __future__ import annotations

import numpy as np

from calisim import (agents, autodiff, baselines, benchmark, features, harness,
                     lob, metamarket, nn, simulator, surrogate)

from .tracer import Patcher, Tracer

METHODS = harness.METHODS

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("simulator.run_day.calls", "count"),
    ("simulator.run_day.ms_p50", "ms"),
    ("simulator.run_day.ms_p90", "ms"),
    ("simulator.run_day.self_ms", "ms"),
    ("simulator.run_day.coverage", "%"),
    ("simulator.events_per_day", "count"),
    ("agents.make_order.calls", "count"),
    ("agents.make_order.us_per_call", "us"),
    ("agents.orders_per_wake", "ratio"),
    ("agents.build_population.ms", "ms"),
    ("lob.place_limit.calls", "count"),
    ("lob.place_limit.us_per_call", "us"),
    ("lob.cancel.calls", "count"),
    ("lob.cancel.us_per_call", "us"),
    ("lob.order.calls", "count"),
    ("lob.trades_per_place", "ratio"),
    ("features.extract.calls", "count"),
    ("features.extract.ms_p50", "ms"),
    ("surrogate.build_dataset.s", "s"),
    ("surrogate.forward.calls", "count"),
    ("surrogate.forward.ms", "ms"),
    ("surrogate.predict.calls", "count"),
    ("metamarket.loss_repr.ms", "ms"),
    ("metamarket.loss_temp.ms", "ms"),
    ("metamarket.loss_stat.ms", "ms"),
    ("metamarket.infer.ms_p50", "ms"),
    ("nn.StackedLSTM.run.calls", "count"),
    ("nn.StackedLSTM.run.ms", "ms"),
    ("nn.Affine.calls", "count"),
    ("autodiff.backward.calls", "count"),
    ("autodiff.backward.ms", "ms"),
    ("autodiff.adam_step.calls", "count"),
    ("autodiff.adam_step.skipped", "count"),
    ("autodiff.runtime_warnings", "count"),
    ("baselines.random_search.ms_per_day", "ms"),
    ("baselines.bayes_opt.ms_per_day", "ms"),
    ("baselines.bayes_opt.self_ms", "ms"),
    ("baselines.gp_fit.calls", "count"),
    ("baselines.gp_fit.ms", "ms"),
    ("baselines.gp_posterior.ms", "ms"),
    ("benchmark.gen_benchmark.s", "s"),
    ("harness.stage_calibrate.s", "s"),
    *((f"harness.sim_calls_per_day.{m}", "count") for m in METHODS),
    ("trace.overhead", "%"),
)


def install(tracer: Tracer) -> Patcher:
    """Wrap the program's public calls in spans and counters; the returned
    Patcher restores the originals."""
    p = Patcher()
    counts = tracer.counts

    def span(name, on_result=None):
        return lambda fn: tracer.wrap(name, fn, on_result)

    def count(name):
        return lambda fn: tracer.counted(name, fn)

    def add(name, n):
        counts[name] += n

    p.function(simulator, "run_day", span(
        "simulator.run_day", lambda s: add("simulator.events", len(s.events))))
    p.function(agents, "make_order", span(
        "agents.make_order", lambda o: add("agents.orders", o is not None)))
    p.function(agents, "build_population", span("agents.build_population"))
    p.method(lob.Book, "place_limit", span(
        "lob.place_limit", lambda trades: add("lob.trades", len(trades))))
    p.method(lob.Book, "cancel", span("lob.cancel"))
    p.method(lob.Book, "order", count("lob.order"))
    p.function(features, "extract", span("features.extract"))
    p.function(surrogate, "build_dataset", span("surrogate.build_dataset"))
    p.method(surrogate.SurrogateNet, "forward", span("surrogate.forward"))
    p.method(surrogate.SurrogateNet, "predict", count("surrogate.predict"))
    for loss in ("loss_repr", "loss_temp", "loss_stat"):
        p.function(metamarket, loss, span(f"metamarket.{loss}"))
    p.method(metamarket.MetaMarket, "infer", span("metamarket.infer"))
    p.method(nn.StackedLSTM, "run", span("nn.StackedLSTM.run"))
    p.method(nn.Affine, "__call__", count("nn.Affine"))
    p.method(autodiff.Tensor, "backward", span("autodiff.backward"))
    p.method(autodiff.Adam, "step", span(
        "autodiff.adam_step", lambda ok: add("autodiff.adam_step.skipped", ok is False)))
    p.function(baselines, "random_search", span("baselines.random_search"))
    p.function(baselines, "bayes_opt", span("baselines.bayes_opt"))
    p.method(baselines.GPModel, "fit", span("baselines.gp_fit"))
    p.method(baselines.GPModel, "posterior", span("baselines.gp_posterior"))
    p.function(benchmark, "gen_benchmark", span("benchmark.gen_benchmark"))
    p.function(harness, "stage_calibrate", span("harness.stage_calibrate"))
    return p


def per_layer(spans, counts: dict[str, int], units: int, wall_ns: float,
              setup_spans, sim_calls_per_day: dict[str, float],
              runtime_warnings: float, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counters of `units`
    measured rounds whose timed phases took `wall_ns` in all, and from the
    spans of the set-up."""

    def stat(name):
        return spans.get(name)

    def total(name):
        s = stat(name)
        return s.calls if s else 0

    def calls(name):
        return total(name) / units

    def mean_ms(name, field="total_ns"):
        s = stat(name)
        return getattr(s, field) / s.calls / 1e6 if s else 0.0

    def pct_ms(name, q):
        s = stat(name)
        return float(np.percentile(s.durations_ns, q)) / 1e6 if s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    run_day = stat("simulator.run_day")
    # run_day's children are the agents and lob spans, so its self time is
    # the slot loop, the stale-order scan (lob.order is only counted),
    # settlement and the event records.
    return {
        "simulator.run_day.calls": calls("simulator.run_day"),
        "simulator.run_day.ms_p50": pct_ms("simulator.run_day", 50),
        "simulator.run_day.ms_p90": pct_ms("simulator.run_day", 90),
        "simulator.run_day.self_ms": mean_ms("simulator.run_day", "self_ns"),
        "simulator.run_day.coverage": 100.0 * ratio(
            run_day.total_ns if run_day else 0.0, wall_ns),
        "simulator.events_per_day": ratio(counts.get("simulator.events", 0),
                                          total("simulator.run_day")),
        "agents.make_order.calls": calls("agents.make_order"),
        "agents.make_order.us_per_call": 1e3 * mean_ms("agents.make_order"),
        "agents.orders_per_wake": ratio(counts.get("agents.orders", 0),
                                        total("agents.make_order")),
        "agents.build_population.ms": mean_ms("agents.build_population"),
        "lob.place_limit.calls": calls("lob.place_limit"),
        "lob.place_limit.us_per_call": 1e3 * mean_ms("lob.place_limit"),
        "lob.cancel.calls": calls("lob.cancel"),
        "lob.cancel.us_per_call": 1e3 * mean_ms("lob.cancel"),
        "lob.order.calls": counts.get("lob.order", 0) / units,
        "lob.trades_per_place": ratio(counts.get("lob.trades", 0),
                                      total("lob.place_limit")),
        "features.extract.calls": calls("features.extract"),
        "features.extract.ms_p50": pct_ms("features.extract", 50),
        "surrogate.build_dataset.s": mean_ms("surrogate.build_dataset") / 1e3,
        "surrogate.forward.calls": calls("surrogate.forward"),
        "surrogate.forward.ms": mean_ms("surrogate.forward"),
        "surrogate.predict.calls": counts.get("surrogate.predict", 0) / units,
        "metamarket.loss_repr.ms": mean_ms("metamarket.loss_repr"),
        "metamarket.loss_temp.ms": mean_ms("metamarket.loss_temp"),
        "metamarket.loss_stat.ms": mean_ms("metamarket.loss_stat"),
        "metamarket.infer.ms_p50": pct_ms("metamarket.infer", 50),
        "nn.StackedLSTM.run.calls": calls("nn.StackedLSTM.run"),
        "nn.StackedLSTM.run.ms": mean_ms("nn.StackedLSTM.run"),
        "nn.Affine.calls": counts.get("nn.Affine", 0) / units,
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.ms": mean_ms("autodiff.backward"),
        "autodiff.adam_step.calls": calls("autodiff.adam_step"),
        "autodiff.adam_step.skipped": counts.get("autodiff.adam_step.skipped", 0) / units,
        "autodiff.runtime_warnings": runtime_warnings,
        "baselines.random_search.ms_per_day": mean_ms("baselines.random_search"),
        "baselines.bayes_opt.ms_per_day": mean_ms("baselines.bayes_opt"),
        "baselines.bayes_opt.self_ms": mean_ms("baselines.bayes_opt", "self_ns"),
        "baselines.gp_fit.calls": calls("baselines.gp_fit"),
        "baselines.gp_fit.ms": mean_ms("baselines.gp_fit"),
        "baselines.gp_posterior.ms": mean_ms("baselines.gp_posterior"),
        "benchmark.gen_benchmark.s": (
            setup_spans["benchmark.gen_benchmark"].total_ns / 1e9
            if "benchmark.gen_benchmark" in setup_spans else 0.0),
        "harness.stage_calibrate.s": mean_ms("harness.stage_calibrate") / 1e3,
        **{f"harness.sim_calls_per_day.{k}": float(sim_calls_per_day.get(k, 0.0))
           for k in METHODS},
        "trace.overhead": overhead_pct,
    }
