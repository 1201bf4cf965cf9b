"""Synthetic ground-truth benchmark: a calendar of trading days with
planted market states, a planted smooth state-to-behavior map b*_t, and
target order streams simulated from b*_t.

Real order streams never expose the generating behavior vector; planting
one lets calibration quality be measured directly as ||b_hat - b*||.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import features as feat
from .agents import N_BEHAVIOR, BehaviorVector
from .marketstate import N_STATE, WINDOW_DAYS, DailyBar, MacroTable, assemble, bar_from_mids
from .simulator import FundamentalSeries, SimConfig, run_day
from .tables import numbered, read_table, write_table

TRADING_DAYS_PER_MONTH = 21
BASE_YEAR = 2020

# b* recursion: persistence, state pull, innovation, normalized clip range.
B_PERSIST = 0.9
B_NOISE = 0.02
B_CLIP = (0.05, 0.95)
STATE_TARGET_STD = 0.5   # std of (A z) per coordinate, so the pull term has std 0.05

PROFILES = {
    "ci": dict(n_train=60, n_test=20, n_agents=100, slots_per_day=3600,
               surrogate_per_day=5, surrogate_replicates=10),
    "full": dict(n_train=250, n_test=60, n_agents=500, slots_per_day=14400,
                 surrogate_per_day=10, surrogate_replicates=1),
}

# Monthly fundamental regimes: per-step log-vol and drift on the 10-minute grid.
VOL_RANGE = (0.002, 0.02)
DRIFT_RANGE = (-0.002, 0.002)


@dataclass
class BenchDay:
    day: int
    year: int
    month: int
    seed: int
    b_star: BehaviorVector
    state_planted: np.ndarray      # raw 5-vector used by the generator
    fund: FundamentalSeries        # day series re-based to the book open
    features: np.ndarray           # 13 raw target features
    bar: DailyBar                  # chain-adjusted daily bar of simulated mids
    state_assembled: np.ndarray | None   # raw; None before a full window exists


@dataclass
class Benchmark:
    profile: str
    seed: int
    state_free: bool
    cfg: SimConfig
    macro: MacroTable
    days: list[BenchDay]
    n_warmup: int
    n_train: int
    n_test: int
    a_map: np.ndarray
    surrogate_per_day: int
    surrogate_replicates: int

    @property
    def train_days(self) -> list[BenchDay]:
        return self.days[self.n_warmup: self.n_warmup + self.n_train]

    @property
    def test_days(self) -> list[BenchDay]:
        return self.days[self.n_warmup + self.n_train:]

    def window_features(self, day_index: int) -> np.ndarray:
        """Raw feature window (W, 13) for calibrating day `day_index`."""
        if day_index < WINDOW_DAYS - 1:
            raise ValueError(f"day {day_index} lacks a {WINDOW_DAYS}-day window")
        return np.stack([d.features for d in
                         self.days[day_index - WINDOW_DAYS + 1: day_index + 1]])

    # -- persistence ---------------------------------------------------------

    def save(self, out_dir: Path):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.macro.write(out_dir / "macro.csv")
        meta = dict(profile=self.profile, seed=self.seed, state_free=self.state_free,
                    n_warmup=self.n_warmup, n_train=self.n_train, n_test=self.n_test,
                    surrogate_per_day=self.surrogate_per_day,
                    surrogate_replicates=self.surrogate_replicates,
                    a_map=[[float(v) for v in row] for row in self.a_map],
                    cfg=asdict(self.cfg))
        with open(out_dir / "benchmark.yaml", "w") as f:
            yaml.safe_dump(meta, f, sort_keys=False)
        write_table(out_dir / "days.csv", _days_header(self.cfg.fundamental_len), (
            [d.day, d.year, d.month, d.seed, *d.b_star.as_array(), *d.state_planted,
             *(np.full(N_STATE, np.nan) if d.state_assembled is None else d.state_assembled),
             d.bar.open, d.bar.high, d.bar.low, d.bar.close, *d.features, *d.fund.values]
            for d in self.days))

    @staticmethod
    def load(out_dir: Path) -> "Benchmark":
        out_dir = Path(out_dir)
        with open(out_dir / "benchmark.yaml") as f:
            meta = yaml.safe_load(f)
        try:
            cfg = SimConfig(**meta["cfg"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"{out_dir / 'benchmark.yaml'}: {e}") from e
        macro = MacroTable.read(out_dir / "macro.csv")
        path = out_dir / "days.csv"
        days = read_table(path, _days_header(cfg.fundamental_len), _parse_day)
        n_days = meta["n_warmup"] + meta["n_train"] + meta["n_test"]
        if [d.day for d in days] != list(range(n_days)):
            raise ValueError(f"{path}: expected days 0..{n_days - 1} in order, "
                             "as benchmark.yaml declares")
        return Benchmark(profile=meta["profile"], seed=meta["seed"],
                         state_free=meta["state_free"], cfg=cfg, macro=macro,
                         days=days, n_warmup=meta["n_warmup"],
                         n_train=meta["n_train"], n_test=meta["n_test"],
                         a_map=np.array(meta["a_map"]),
                         surrogate_per_day=meta["surrogate_per_day"],
                         surrogate_replicates=meta["surrogate_replicates"])


def _days_header(fdim: int) -> list[str]:
    return ["day", "year", "month", "seed", *numbered("b", N_BEHAVIOR),
            *numbered("xp", N_STATE), *numbered("xa", N_STATE),
            "bar_open", "bar_high", "bar_low", "bar_close",
            *numbered("q", feat.N_FEATURES), *numbered("f", fdim)]


def _parse_day(row: list[str]) -> BenchDay:
    b, xp, xa, bar, q, f = np.split(
        np.array([float(v) for v in row[4:]]),
        np.cumsum([N_BEHAVIOR, N_STATE, N_STATE, 4, feat.N_FEATURES]))
    day, year, month, seed = (int(v) for v in row[:4])
    return BenchDay(day=day, year=year, month=month, seed=seed,
                    b_star=BehaviorVector.from_array(b), state_planted=xp,
                    fund=FundamentalSeries(f), features=q,
                    bar=DailyBar(*(float(v) for v in bar)),
                    state_assembled=None if np.any(np.isnan(xa)) else xa)


def _calendar(n_days: int) -> list[tuple[int, int]]:
    out = []
    for d in range(n_days):
        m = d // TRADING_DAYS_PER_MONTH
        out.append((BASE_YEAR + m // 12, 1 + m % 12))
    return out


def _gen_macro(n_months: int, rng: np.random.Generator) -> np.ndarray:
    """AR(1) monthly macro levels, one row per month: cpi, ppi, pmi."""
    ar = np.zeros((n_months, 3))
    x = rng.normal(0.0, 1.0, 3)
    for m in range(n_months):
        x = 0.8 * x + rng.normal(0.0, 0.6, 3)
        ar[m] = x
    return np.column_stack([102.0 + 2.0 * ar[:, 0],
                            100.0 + 3.0 * ar[:, 1],
                            50.0 + 5.0 * ar[:, 2]])


def _gen_fundamental(n_days: int, fdim: int, open_price: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Continuous geometric log-walk, (n_days, fdim), with monthly
    volatility and drift regimes."""
    n_months = (n_days + TRADING_DAYS_PER_MONTH - 1) // TRADING_DAYS_PER_MONTH
    vol = rng.uniform(*VOL_RANGE, n_months)
    drift = rng.uniform(*DRIFT_RANGE, n_months)
    logp = np.log(open_price)
    out = np.zeros((n_days, fdim))
    for d in range(n_days):
        m = d // TRADING_DAYS_PER_MONTH
        steps = rng.normal(drift[m], vol[m], fdim)
        steps[0] = 0.0  # the day opens at the previous close
        path = logp + np.cumsum(steps)
        out[d] = np.exp(path)
        logp = path[-1]
    return out


def gen_benchmark(profile: str, seed: int, state_free: bool = False) -> Benchmark:
    """Generate the full benchmark; deterministic per (profile, seed)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    p = PROFILES[profile]
    cfg = SimConfig(slots_per_day=p["slots_per_day"], n_agents=p["n_agents"])
    n_warmup = WINDOW_DAYS
    n_days = n_warmup + p["n_train"] + p["n_test"]
    lead = WINDOW_DAYS   # extra un-simulated days so day 0 has trailing bars
    calendar = _calendar(n_days)
    n_months = (n_days + TRADING_DAYS_PER_MONTH - 1) // TRADING_DAYS_PER_MONTH

    rng_macro = np.random.default_rng(np.random.SeedSequence([seed, 0x01]))
    rng_fund = np.random.default_rng(np.random.SeedSequence([seed, 0x02]))
    rng_b = np.random.default_rng(np.random.SeedSequence([seed, 0x03]))
    rng_sim = np.random.default_rng(np.random.SeedSequence([seed, 0x04]))

    macro_levels = _gen_macro(n_months, rng_macro)
    macro = MacroTable({calendar[m * TRADING_DAYS_PER_MONTH]:
                        tuple(float(v) for v in macro_levels[m])
                        for m in range(n_months)})

    fund_path = _gen_fundamental(lead + n_days, cfg.fundamental_len,
                                 cfg.open_price, rng_fund)

    # The state for day d is computed from the 20 bars preceding d, so the
    # generator can drive b*_d with the simulated market's own history and
    # the downstream assembled state reproduces the planted one exactly.
    # Bootstrap z-statistics for the state come from a fundamental-only
    # pre-pass (the regression self-check below is shift-invariant).
    fund_bars = [bar_from_mids(fund_path[i]) for i in range(lead + n_days)]
    boot = np.array([assemble(*calendar[d], macro, fund_bars[d: d + WINDOW_DAYS])
                     for d in range(n_days)])
    boot_norm = feat.FeatureNormalizer.fit(boot)

    # Planted state-to-behavior map: fixed full-rank A with the pull term
    # scaled so the state drives most of b*'s variance.
    if state_free:
        a_map = np.zeros((N_BEHAVIOR, N_STATE))
    else:
        a_map = rng_b.normal(0.0, 1.0, (N_BEHAVIOR, N_STATE))
        drive = a_map @ boot_norm.transform(boot).T
        a_map *= (STATE_TARGET_STD / np.maximum(drive.std(axis=1), 1e-9))[:, None]

    # Sequential generation: state -> b*_d -> simulated day -> next bar.
    # Pre-window days fall back to fundamental bars, re-based so the chained
    # bar series stays continuous across the boundary.
    base = fund_bars[lead - 1].close
    lead_bars = [DailyBar(b.open / base, b.high / base, b.low / base, b.close / base)
                 for b in fund_bars[:lead]]
    bars: list[DailyBar] = []
    days: list[BenchDay] = []
    planted = np.zeros((n_days, N_STATE))
    b_norm = np.zeros((n_days, N_BEHAVIOR))
    prev = np.full(N_BEHAVIOR, 0.5)
    max_step = np.sqrt(0.1)
    adj = 1.0
    noise_b = rng_b.normal(0.0, B_NOISE, (n_days, N_BEHAVIOR))
    for d in range(n_days):
        y, m = calendar[d]
        window = (lead_bars + bars)[lead + d - WINDOW_DAYS: lead + d]
        x_d = assemble(y, m, macro, window)
        planted[d] = x_d
        pull = np.clip(0.5 + a_map @ boot_norm.transform(x_d), 0.0, 1.0)
        nxt = np.clip(B_PERSIST * prev + (1 - B_PERSIST) * pull + noise_b[d], *B_CLIP)
        step = nxt - prev
        norm = np.linalg.norm(step)
        if norm > max_step:
            nxt = prev + step * (max_step / norm)
        prev = nxt
        b_norm[d] = prev

        raw_day = fund_path[lead + d]
        fund_day = FundamentalSeries(raw_day / raw_day[0] * cfg.open_price)
        b_star = BehaviorVector.from_normalized(b_norm[d])
        day_seed = int(rng_sim.integers(2 ** 31))
        stream = run_day(cfg, b_star, fund_day, seed=day_seed)
        q = feat.extract(stream)
        mids = stream.mid_minute * cfg.tick_size * adj / cfg.open_price
        bar = bar_from_mids(mids)
        adj = bar.close
        bars.append(bar)
        days.append(BenchDay(day=d, year=y, month=m, seed=day_seed, b_star=b_star,
                             state_planted=x_d, fund=fund_day, features=q,
                             bar=bar,
                             state_assembled=x_d if d >= WINDOW_DAYS else None))

    # Generator self-checks: bounded daily step, state explains the behavior.
    worst_step = float(np.max(np.sum(np.diff(b_norm, axis=0) ** 2, axis=1)))
    if worst_step > 0.1:
        raise AssertionError(f"planted step bound violated: {worst_step:.4f} > 0.1")
    if not state_free:
        z = feat.FeatureNormalizer.fit(planted).transform(planted)
        x1 = np.column_stack([z, np.ones(n_days)])
        resid = b_norm - x1 @ np.linalg.lstsq(x1, b_norm, rcond=None)[0]
        r2 = 1.0 - resid.var(axis=0) / b_norm.var(axis=0)
        if float(r2.mean()) < 0.5:
            raise AssertionError(f"planted map too weak: mean R^2 {r2.mean():.3f} < 0.5")

    return Benchmark(profile=profile, seed=seed, state_free=state_free, cfg=cfg,
                     macro=macro, days=days, n_warmup=n_warmup,
                     n_train=p["n_train"], n_test=p["n_test"], a_map=a_map,
                     surrogate_per_day=p["surrogate_per_day"],
                     surrogate_replicates=p["surrogate_replicates"])
