"""Paired A/B runs of the perfbench workloads between two git revisions.

    python3 tools/bench_ab.py PARENT CHANGE --out BENCH_13.json --seed-base 13000

Exports each revision's committed files into its own temporary directory
(removed at exit), so each side runs the benchmark from its own checkout.
Then, for every workload:

- runs PAIRS (10) pairs of
  `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`,
  with T the `run_seconds` of the change's BENCHMARK.json,
  one seed per pair (seed-base + 100 * workload index + pair + 1), the
  parent first on even pairs and the change first on odd ones;
- runs both sides at seeds 1, 2 and 424242 with `--seconds 1`, where only
  the digest is kept (it covers the first round, so the length of the run
  does not change it).

It writes one JSON file with every raw run and, per workload and
end-to-end metric of the change's BENCHMARK.json, the pairs the change
won (lower is better for all three), both sides' quartiles, the median
change, both sides' failed checks and whether the change's median is
within the metric's `bound` (a fraction of the parent's median) above
the parent's. Each raw run also records its process's minor page faults
and user and system CPU seconds (`getrusage` of the children, taken
around the run), its number of rounds, its host speed factor by round
(perfbench's probe, by which it scales each round's `ms_per_op`) and its
workload's detail lines (for train, `surrogate_ms_per_epoch` and
`metamarket_ms_per_epoch`). The report gives the per-side medians of these
per workload, as `child_rusage_medians` and `detail_medians`; they explain
a verdict (train's peak RSS grows with its rounds) and are not one. The
detail times are raw wall times, not host-scaled: `detail_medians` gives
each side's median host speed factor beside them, and two sides' raw
times compare only where those factors are close. A metric's verdict is
"better" when the change wins at least 9 pairs in 10 and the medians
differ by more than the parent's quartile spread, "worse" for the mirror
image, and "unresolved" otherwise; it is never "better" when a change
run reports `correct: false` or the change's share of failed operations
is above the parent's, and then the driver exits 1. It also exits 1 when a digest differs or a metric is not within
its bound. Runs are sequential, one process at a time; on a shared 2-vCPU
Xeon VM, 10 pairs of all three workloads with the digest checks took 18
minutes, 10 pairs of calibrate alone 6 and of train alone 7.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("dataset", "calibrate", "train")
DIGEST_SEEDS = (1, 2, 424242)
PAIRS = 10          # the fewest pairs with which a 9-in-10 verdict can be given
SIDES = ("parent", "change")
# each run's share of the children's getrusage totals, stored as these keys
RUSAGE_FIELDS = {"minflt": "ru_minflt", "utime_s": "ru_utime", "stime_s": "ru_stime"}
# perfbench's stdout: the header names the rounds, a detail line is indented
_DIGEST = re.compile(r"^digest (\S+)$")
_ROUNDS = re.compile(r"\brounds (\d+)\b")
_HOST = re.compile(r"host speed factor by round: ([\d. ]+)")
_DETAIL = re.compile(r"^  (\S+) +(\S+) \S+$")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path):
    """The committed files of `rev` in `dest`, without git metadata."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    # runs are sequential, so the children's totals grew by this run alone
    rusage = {key: round(getattr(after, field) - getattr(before, field), 3)
              for key, field in RUSAGE_FIELDS.items()}
    return {"command": " ".join(cmd), "rusage": rusage, **parse_output(proc.stdout)}


def parse_output(stdout: str) -> dict:
    """A perfbench run's digest, rounds, host speed factors, detail values
    and result line."""
    lines = stdout.strip().splitlines()
    return {"digest": next((m.group(1) for m in map(_DIGEST.match, lines) if m), None),
            "rounds": next(int(m.group(1)) for m in map(_ROUNDS.search, lines) if m),
            "host_factors": next([float(v) for v in m.group(1).split()]
                                 for m in map(_HOST.search, lines) if m),
            "detail": {m.group(1): float(m.group(2)) for m in map(_DETAIL.match, lines) if m},
            "result": json.loads(lines[-1])}


def _side_medians(pairs: list[dict], values) -> dict:
    """Per workload and side, the median of each of `values(run)`."""
    out = {}
    for workload in WORKLOADS:
        runs = [r for r in pairs if r["workload"] == workload]
        if runs:
            out[workload] = {}
            for side in SIDES:
                rows = [values(r) for r in runs if r["side"] == side]
                out[workload][side] = {key: round(median(row[key] for row in rows), 3)
                                       for key in rows[0]}
    return out


def rusage_medians(pairs: list[dict]) -> dict:
    """Per workload and side, the median of each run's minor page faults and
    CPU seconds: what a footprint or speed change trades, not a verdict."""
    return _side_medians(pairs, lambda r: r["rusage"])


def detail_medians(pairs: list[dict]) -> dict:
    """Per workload and side, the median of each run's rounds, host speed
    factor (the median of its rounds') and workload detail values: what
    explains a verdict, not one. The detail values are raw wall times as
    perfbench prints them, not host-scaled, so a shift in them means
    little where the sides' host factors differ."""
    return _side_medians(pairs, lambda r: {"rounds": r["rounds"],
                                           "host_factor": median(r["host_factors"]),
                                           **r["detail"]})


def _quartiles(values: list[float]) -> list[float]:
    q25, q50, q75 = quantiles(values, n=4, method="inclusive")
    return [round(q25, 3), round(q50, 3), round(q75, 3)]


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Per `workload.metric`, for each metric named in `bounds`: pairs won
    by the change, both sides' quartiles, the median change in percent,
    whether it is within the metric's bound, both sides' failed and
    attempted operations and a verdict, which is not "better" when the
    change fails a check in any run or a larger share of operations."""
    out = {}
    for workload in WORKLOADS:
        runs = [r for r in pairs if r["workload"] == workload]
        if not runs:
            continue
        by_pair: dict[int, dict[str, dict]] = {}
        for r in runs:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        digests_equal = all(p["parent"]["digest"] == p["change"]["digest"]
                            for p in by_pair.values())
        failed = {side: [sum(p[side]["result"][key] for p in by_pair.values())
                         for key in ("failed", "attempted")] for side in SIDES}
        change_incorrect = sum(not p["change"]["result"]["correct"] for p in by_pair.values())
        failing = (change_incorrect > 0 or failed["change"][0] / failed["change"][1]
                   > failed["parent"][0] / failed["parent"][1])
        for metric, bound in bounds.items():
            val = {side: [p[side]["result"]["metrics"][metric]["value"]
                          for p in by_pair.values()] for side in SIDES}
            n = len(by_pair)
            wins = sum(c < p for p, c in zip(val["parent"], val["change"]))
            pq, cq = _quartiles(val["parent"]), _quartiles(val["change"])
            spread = pq[2] - pq[0]
            base = median(val["parent"])
            shift = median(val["change"]) - base
            if wins >= 0.9 * n and -shift > spread and not failing:
                verdict = "better"
            elif wins <= 0.1 * n and shift > spread:
                verdict = "worse"
            else:
                verdict = "unresolved"
            out[f"{workload}.{metric}"] = {
                "n_pairs": n,
                "change_wins": wins,
                "parent_q25_median_q75": pq,
                "change_q25_median_q75": cq,
                "median_change_pct": round(100.0 * shift / base, 1),
                "bound_pct": round(100.0 * bound, 1),
                "within_bound": shift <= bound * base,
                "verdict": verdict,
                "digests_equal": digests_equal,
                "failed_of_attempted": failed,
                "change_runs_incorrect": change_incorrect,
                "change_fails_more": failing,
            }
    return out


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {"cpu": f"{cpu}, {os.cpu_count()} logical CPUs",
            "os": f"{platform.system()} {platform.release()} {platform.machine()}",
            "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the baseline")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--seed-base", type=int, required=True,
                    help="pair seeds are seed-base + 100 * workload index + pair + 1")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    seeds = {w: [args.seed_base + 100 * WORKLOADS.index(w) + i + 1 for i in range(PAIRS)]
             for w in args.workloads}
    pairs, digest_runs = [], []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _export(revs[side], checkouts[side])
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for workload in args.workloads:
            for i, seed in enumerate(seeds[workload]):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = _run(checkouts[side], workload, seed, seconds)
                    pairs.append({"workload": workload, "seed": seed, "side": side,
                                  "pair": i, **run})
                    ms = run["result"]["metrics"]["ms_per_op"]["value"]
                    print(f"{workload} pair {i} seed {seed} {side}: ms_per_op {ms:.2f}, "
                          f"rounds {run['rounds']}, minor faults {run['rusage']['minflt']}",
                          file=sys.stderr)
            for seed in DIGEST_SEEDS:
                for side in SIDES:
                    run = _run(checkouts[side], workload, seed, 1)
                    digest_runs.append({"workload": workload, "seed": seed, "side": side,
                                        "digest": run["digest"]})
    digests_equal = all(
        len({r["digest"] for r in digest_runs if (r["workload"], r["seed"]) == key}) == 1
        for key in {(r["workload"], r["seed"]) for r in digest_runs})
    report = {
        "what": "perfbench runs of two revisions, each side from its own checkout",
        "parent": revs["parent"],
        "change": revs["change"],
        "machine": _machine(),
        "protocol": (f"{PAIRS} pairs per workload, one seed per pair, the side run "
                     "first alternating (parent first on even pairs); "
                     f"--seconds {seconds} --trace 0; quartiles over the "
                     f"{PAIRS} runs of each side; a pair is won when the change's "
                     "value is lower; a verdict is better or worse only with at least "
                     f"{int(0.9 * PAIRS)} of {PAIRS} pairs and a median shift beyond the "
                     "parent's quartile spread, and never better when a change run "
                     "fails a check or the change fails a larger share of operations"),
        "seeds": {**seeds, "digest_check": list(DIGEST_SEEDS)},
        "digest_check": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0",
            "note": "the digest covers the first round only, so --seconds does not change it",
            "runs": digest_runs,
            "all_equal": digests_equal,
        },
        "summary": summarize(pairs, bounds),
        "child_rusage_medians": rusage_medians(pairs),
        "detail_medians": detail_medians(pairs),
        "wall_s": round(time.perf_counter() - t0, 1),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failing = any(s["change_fails_more"] for s in report["summary"].values())
    beyond = [k for k, s in report["summary"].items() if not s["within_bound"]]
    print(f"wrote {args.out} in {report['wall_s']:.0f} s; digests equal: {digests_equal}; "
          f"change fails more checks: {failing}; beyond bound: {', '.join(beyond) or 'none'}",
          file=sys.stderr)
    return 0 if digests_equal and not failing and not beyond else 1


if __name__ == "__main__":
    sys.exit(main())
