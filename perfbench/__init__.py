"""calisim benchmark: three workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload <dataset|calibrate|train> --seed N \
        --seconds 10 --trace <0|1>
    python3 -m pytest perfbench/tests

End-to-end metrics (`--trace 0`), the same on every workload:

- setup_s: wall time to build the workload's inputs from the seed.
- ms_per_op: median over the run's rounds of wall time per op, where an op
  is a simulated day (dataset), a day calibrated by calisim, random search
  and GP-BO (calibrate), or a training epoch (train).
- peak_rss_mb: peak resident memory of the process and its children.

Both times are scaled by the host speed that a fixed probe loop measures
during the run (see run.py); the unscaled values are printed too.

Failed checks and failed blocks count in `failed` of the result line, so
the error rate is `failed / attempted`. Each workload also prints its own
metrics (simulated days per second, ms per calibrated day and recovery per
method, ms per epoch and final losses per model), the host, and a SHA-256
digest of its outputs: two runs of one seed print the same digest.

Per-layer metrics (`--trace 1`) are listed in layers.py.
"""
