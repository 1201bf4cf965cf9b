"""calisim benchmark command.

    python3 perfbench/run.py --workload dataset --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from --seed, then runs rounds of its measured
blocks, each round on its own inputs, until --seconds is spent (at least
two rounds). Outside the timed region it checks the outputs, re-runs the
first block of the first round and compares digests, and prints the
workload's own metrics, machine info and a SHA-256 digest of the outputs.
The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, and with --trace 1 the per-layer metrics of a run whose first
round warms up, whose second round is the untraced reference for the
tracing overhead, and whose later rounds run with spans around every layer
(see layers.py). Spans are written to
.bench_build/perfbench/trace-<workload>.npz.

Runs in one process with one BLAS thread, unless the caller sets the BLAS
thread variables. With two threads, the small matrices of metamarket
training ran twice as slow, and ten times as slow whenever the host was
busy; and thread count changes how BLAS sums, so outputs would differ
between hosts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import glob
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import shutil
import sys
import traceback
import warnings
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (("setup_s", "s"), ("ms_per_op", "ms"), ("peak_rss_mb", "MB"))
MIN_ROUNDS = 2
TRACE_FROM = 2      # with --trace 1: warm-up round, untraced reference round

# On a shared 2-vCPU Xeon VM, the speed of the same work swung by a fifth
# within seconds and drifted by a third over minutes. A fixed probe loop, run
# between pieces of the work at least every PROBE_EVERY_S, tracks that, and
# the timed end-to-end metrics are scaled to a host on which one probe takes
# PROBE_NOMINAL_S: times are multiplied by (PROBE_NOMINAL_S / mean probe
# time) ** elasticity, where the elasticity is how strongly the work slows
# with the probe (Workload.elasticity for the rounds; for set-up, TRAINING
# for its model training and SIMULATION for the rest). Over 10-20 s windows
# of build_dataset blocks the scaled times varied by 2% (CV), where the raw
# times varied by 8-10%. Between two sets of ten runs each, where raw times
# rose by 14-34%, the medians moved by 2-4% for simulation scaled with
# elasticity 1, and by 0% for training with 0.75 (8% with 1); 0.75 was fitted
# on those two sets.
PROBE_LOOPS = 40_000
PROBE_NOMINAL_S = 0.07
PROBE_EVERY_S = 1.0


def _import_program():
    """Import calisim from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    import calisim
    if not Path(calisim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"calisim imported from {calisim.__file__}, not {src}")


class WarningCounter:
    """Counts every RuntimeWarning (numpy overflow, invalid value, ...)
    instead of printing the first one per call site."""

    def __enter__(self):
        self.count = 0
        self._saved = warnings.catch_warnings()
        self._saved.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def show(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                self.count += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = show
        return self

    def __exit__(self, *exc):
        return self._saved.__exit__(*exc)


def _after(hook):
    """A Patcher `make` whose wrapper calls `hook(result)` after each call."""
    def make(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(out)
            return out
        return wrapped
    return make


def _capture(into: list, limit: int):
    """Keep the first `limit` order streams that run_day returns."""
    from calisim import simulator
    from perfbench.tracer import Patcher

    def keep(stream):
        if len(into) < limit:
            into.append(stream)

    p = Patcher()
    p.function(simulator, "run_day", _after(keep))
    return p


def _blas_threads():
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(), "seed": seed}


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def probe() -> float:
    """Seconds for a fixed dict-and-heap loop that calls nothing in calisim,
    with garbage collection off: a sample of how fast the host runs
    interpreter-bound code right now."""
    rng = random.Random(1)
    table, heap = {}, []
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(PROBE_LOOPS):
            k = rng.randrange(20_000)
            table[k] = (i, k, float(i))
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 5_000:
                heapq.heappop(heap)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples of the host's speed taken between pieces of the work.

    While `interleave()` is active, a probe runs after any call to
    `simulator.run_day` or `Adam.step` that returns PROBE_EVERY_S or more
    after the last probe, so the samples follow the host through set-up and
    every round. `clock()` is perf_counter minus the time spent probing, so
    timings taken with it exclude the probes.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._last = perf_counter()

    def clock(self) -> float:
        return perf_counter() - self._spent

    def sample(self):
        t0 = perf_counter()
        self.samples.append(probe())
        self._last = perf_counter()
        self._spent += self._last - t0

    def interleave(self):
        from calisim import autodiff, simulator
        from perfbench.tracer import Patcher

        def due(_):
            if perf_counter() - self._last >= PROBE_EVERY_S:
                self.sample()

        p = Patcher()
        p.function(simulator, "run_day", _after(due))
        p.method(autodiff.Adam, "step", _after(due))
        return p

    def scale(self, first: int, elasticity: float) -> float:
        """Factor from this host to the nominal one for work of the given
        elasticity, from the samples taken since sample number `first`."""
        recent = self.samples[first:]
        return (PROBE_NOMINAL_S * len(recent) / sum(recent)) ** elasticity


class UnitFailed(RuntimeError):
    """Too few rounds completed, so there is nothing to report."""


def measure(workload: str, seed: int, seconds: float, trace: bool, scale=None,
            out_root: Path | None = None) -> dict:
    """One benchmark run: the result object of the last stdout line, the
    workload's own metrics, the names of failed checks and the digest."""
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    wl = workloads.WORKLOADS[workload]
    scale = scale or workloads.FULL
    out_root = out_root or ROOT / ".bench_build" / "perfbench"
    out_dir = out_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    host = HostSpeed()
    min_rounds = TRACE_FROM + 1 if trace else MIN_ROUNDS
    sampled: list = []      # order streams from set-up and the first block
    rounds: list = []       # complete rounds, each a list of one Unit per block
    round_scale: list = []  # host speed factor of each round
    attempted = failed = 0
    try:
        with (WarningCounter() as warn, contextlib.ExitStack() as tracing,
              contextlib.ExitStack() as sampling):
            if trace:
                tracing.enter_context(layers.install(tracer))
            else:   # probes inside traced calls would count in their spans
                sampling.enter_context(host.interleave())
            host.sample()
            t0 = host.clock()
            with _capture(sampled, workloads.SAMPLE_STREAMS):
                ctx = wl.setup(seed, scale, out_dir, host.clock)
            setup_s = host.clock() - t0
            host.sample()
            setup_training_s = ctx.setup_training_s
            setup_scaled = ((setup_s - setup_training_s) * host.scale(0, workloads.SIMULATION)
                            + setup_training_s * host.scale(0, workloads.TRAINING))
            setup_spans = tracer.summary() if trace else {}
            tracing.close()     # rounds before TRACE_FROM run untraced
            start = perf_counter()
            while True:
                rnd = len(rounds)
                if trace and rnd == TRACE_FROM:
                    tracing.enter_context(layers.install(tracer))
                    mark, warn0 = len(tracer), warn.count
                    tracer.counts.clear()
                units = []
                first = len(host.samples)
                host.sample()
                try:
                    for block in range(ctx.blocks):
                        capture = (_capture(sampled, len(sampled) + workloads.SAMPLE_STREAMS)
                                   if rnd == 0 and block == 0
                                   else contextlib.nullcontext())
                        with capture:
                            units.append(wl.unit(ctx, rnd, block))
                        attempted += units[-1].ops
                        host.sample()
                except Exception:
                    traceback.print_exc()
                    attempted += 1
                    failed += 1
                    break
                rounds.append(units)
                round_scale.append(host.scale(first, wl.elasticity))
                round_s = sum(u.wall_s for u in units)
                if len(rounds) >= min_rounds and perf_counter() - start + round_s > seconds:
                    break
            if len(rounds) < min_rounds:
                raise UnitFailed(f"{workload}: fewer than {min_rounds} rounds completed")
            tracing.close()
            sampling.close()
            if trace:
                traced_warnings = warn.count - warn0
            # Untimed: the first block of the first round once more, which
            # must give the same outputs.
            try:
                repeats = wl.unit(ctx, 0, 0).digest == rounds[0][0].digest
            except Exception:
                traceback.print_exc()
                repeats = False

        checks = workloads.replay_checks(sampled)
        try:
            checks += wl.check(ctx, [u for r in rounds for u in r])
        except Exception:
            traceback.print_exc()
            checks.append(("check_raised", False))
        checks.append(("digest_repeats", repeats))
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)

        round_ms = [1e3 * sum(u.wall_s for u in r) / sum(u.ops for u in r) for r in rounds]
        scaled_ms = [ms * k for ms, k in zip(round_ms, round_scale)]
        summaries = [wl.summarize(r) for r in rounds]
        detail_values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                         "error_rate": failed / attempted}
        for key in summaries[0]:
            detail_values[key] = (summaries[0][key] if key in wl.exact
                                  else median(sm[key] for sm in summaries))
        if trace:
            traced = rounds[TRACE_FROM:]
            sim_calls = (workloads.sim_calls_per_day(rounds[-1])
                         if workload == "calibrate" else {})
            overhead = 100.0 * (median(scaled_ms[TRACE_FROM:])
                                / scaled_ms[TRACE_FROM - 1] - 1.0)
            values = layers.per_layer(
                tracer.summary(mark), tracer.counts, len(traced),
                1e9 * sum(u.wall_s for r in traced for u in r), setup_spans, sim_calls,
                traced_warnings / len(traced), overhead)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.PER_LAYER}
            tracer.dump(out_root / f"trace-{workload}.npz")
        else:
            values = {"setup_s": setup_scaled, "ms_per_op": median(scaled_ms),
                      "peak_rss_mb": detail_values["peak_rss_mb"]}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        return {
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics},
            "detail": {name: {"value": detail_values[name], "unit": unit}
                       for name, unit in wl.detail},
            "failed_checks": sorted({name for name, ok in checks if not ok}),
            "rounds": len(rounds),
            "benchmark_seed": ctx.bench.seed,
            "op": wl.op,
            "digest": hashlib.sha256("".join([ctx.digest] + [u.digest for u in rounds[0]])
                                     .encode()).hexdigest(),
            "round_ms_per_op": round_ms,
            "round_scale": round_scale,
            "setup_scaled_s": setup_scaled,
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("dataset", "calibrate", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        _import_program()
    except ImportError as e:
        print(f"perfbench: cannot import calisim from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except UnitFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {out['rounds']}  op = {out['op']}  "
          f"gen_benchmark seed {out['benchmark_seed']}")
    print("machine " + json.dumps(machine_info(args.seed)))
    print("unscaled ms_per_op by round: "
          + " ".join(f"{v:.4g}" for v in out["round_ms_per_op"])
          + "; host speed factor by round: " + " ".join(f"{k:.3f}" for k in out["round_scale"])
          + f"; set-up scaled: {out['setup_scaled_s']:.4g} s")
    for name, m in out["detail"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    if out["failed_checks"]:
        print("failed checks: " + ", ".join(out["failed_checks"]))
    print(f"digest sha256:{out['digest']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
