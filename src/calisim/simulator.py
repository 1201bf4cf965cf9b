"""Discrete slot-based multi-agent market simulator.

One trading day: agents wake stochastically each one-second slot, emit at
most one limit order plus stale-order cancellations, and the book executes
the shuffled batch at slot end. Everything is deterministic for a fixed
seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import agents as ag
from .agents import (SLOTS_PER_MINUTE, AgentAccount, AgentProfile, BehaviorVector,
                     MinuteHistory)
from .lob import ASK, BID, Book, LimitOrder, Side, TradeEvent
from .tables import file_sha256, read_table, write_table

FUNDAMENTAL_INTERVAL_SLOTS = 600  # ten minutes
WAKE_CHUNK_SLOTS = 600  # rows of the wake matrix drawn at a time

@dataclass(frozen=True)
class SimConfig:
    slots_per_day: int = 14400
    n_agents: int = 500
    wake_prob: float = 0.01
    tick_size: float = 0.01
    lot_size: int = 1
    open_price: float = 100.0
    alpha_ref: float = 2.5e-5
    lambda_band: float = 0.05

    def __post_init__(self):
        if self.slots_per_day < FUNDAMENTAL_INTERVAL_SLOTS:
            raise ValueError(f"slots_per_day must be >= {FUNDAMENTAL_INTERVAL_SLOTS}, "
                             f"one fundamental interval, got {self.slots_per_day}")
        if not (0.0 < self.wake_prob <= 1.0):
            raise ValueError("wake_prob must be in (0, 1]")
        if self.open_price <= 0 or self.tick_size <= 0:
            raise ValueError("open_price and tick_size must be positive")
        if self.n_agents < 1:
            raise ValueError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.lot_size < 1:
            raise ValueError(f"lot_size must be >= 1, got {self.lot_size}")
        if not self.alpha_ref > 0:
            raise ValueError(f"alpha_ref must be positive, got {self.alpha_ref}")
        if not 0.0 <= self.lambda_band < 1.0:
            raise ValueError(f"lambda_band must be in [0, 1), got {self.lambda_band}")

    @property
    def open_price_ticks(self) -> int:
        return max(1, round(self.open_price / self.tick_size))

    @property
    def fundamental_len(self) -> int:
        return self.slots_per_day // FUNDAMENTAL_INTERVAL_SLOTS


@dataclass(frozen=True)
class FundamentalSeries:
    """Fundamental value on a ten-minute grid, piecewise constant between
    samples. Values are in currency units."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or len(v) < 1 or np.any(v <= 0):
            raise ValueError("fundamental series must be a positive 1-d series")

    def at_slot(self, slot: int) -> float:
        k = min(slot // FUNDAMENTAL_INTERVAL_SLOTS, len(self.values) - 1)
        return float(self.values[k])


@dataclass(slots=True)
class Event:
    slot: int
    seq: int
    kind: str          # PLACE | CANCEL | TRADE
    order_id: int
    agent: int
    side: int          # Side value; -1 where not applicable
    price: int         # ticks; 0 for CANCEL
    size: int          # lots; 0 for CANCEL
    match_id: int      # taker order id for TRADE rows, else -1


@dataclass
class OrderStream:
    open_price: float
    tick_size: float
    lot_size: int
    slots_per_day: int
    seed: int
    events: list[Event] = field(default_factory=list)
    mid_slot: np.ndarray = field(default_factory=lambda: np.zeros(0))     # ticks

    @property
    def open_price_ticks(self) -> int:
        return max(1, round(self.open_price / self.tick_size))

    @property
    def mid_minute(self) -> np.ndarray:
        """Mid (ticks) at the end of each whole minute, a view of `mid_slot`."""
        return self.mid_slot[SLOTS_PER_MINUTE - 1::SLOTS_PER_MINUTE]


def settle(account: AgentAccount, trade: TradeEvent, side: Side, lot_size: int):
    """Apply one trade leg to an account; invariants are hard-asserted."""
    notional = trade.price * trade.size * lot_size
    if side is BID:
        account.cash -= notional
        account.holdings += trade.size
    else:
        account.cash += notional
        account.holdings -= trade.size
    assert account.cash >= 0, "negative cash: affordability clamp failed upstream"
    assert account.holdings >= 0, "negative holdings: inventory clamp failed upstream"


class _AgentState:
    __slots__ = ("profile", "account", "orders")

    def __init__(self, profile: AgentProfile, account: AgentAccount):
        self.profile = profile
        self.account = account
        self.orders: dict[int, LimitOrder] = {}  # resting orders by id


def run_day(cfg: SimConfig, b: BehaviorVector, fund: FundamentalSeries,
            seed: int) -> OrderStream:
    """Simulate one trading day and record the full order stream.

    Each wake-up calls `agents.make_order` once. `MinuteHistory.trend`
    depends on an agent's horizon only through the effective window
    min(minutes, len(history)), so it is computed once per window and
    reused within the minute; the cache is dropped whenever `MinuteHistory`
    appends, the only point where the history changes.
    """
    if len(fund.values) != cfg.fundamental_len:
        raise ValueError(
            f"fundamental length {len(fund.values)} != expected {cfg.fundamental_len}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))

    profiles, accounts = ag.build_population(
        b, cfg.n_agents, cfg.alpha_ref, cfg.open_price_ticks, rng)
    states = [_AgentState(p, a) for p, a in zip(profiles, accounts)]

    book = Book(cfg.open_price_ticks)
    history = MinuteHistory()
    trends: dict[int, tuple[float, float, int, float]] = {}  # by effective window
    stream = OrderStream(cfg.open_price, cfg.tick_size, cfg.lot_size,
                         cfg.slots_per_day, seed)
    mid_slot: list[float] = []

    tick_size, lot_size = cfg.tick_size, cfg.lot_size
    band = (1.0 - cfg.lambda_band, 1.0 + cfg.lambda_band)
    sigma_noise = 0.01 * cfg.open_price
    var_floor = 1e-8 * cfg.open_price ** 2
    var_cap = 1e-6 * cfg.open_price ** 2
    next_order_id = 0
    seq = 0

    n_agents, slots = cfg.n_agents, cfg.slots_per_day
    # a moving pointer walks the wake schedule and decodes each entry into
    # (slot, agent) by one divmod
    wakes = _wake_schedule(rng, cfg)
    ptr = 0
    wake_slot, a_idx = divmod(wakes[0], n_agents)
    # bound once, after any wrapper (a tracer, a test's counter) is installed
    make_order = ag.make_order

    n_hist = 0
    mid_cache = book.mid_price()  # valid until the next book operation
    for minute_start in range(0, slots, SLOTS_PER_MINUTE):
        # a fundamental interval is a whole number of minutes
        fund_now = fund.at_slot(minute_start)
        minute_end = minute_start + SLOTS_PER_MINUTE
        for slot in range(minute_start, min(minute_end, slots)):
            if wake_slot == slot:
                mid = mid_cache * tick_size
                batch: list[tuple[_AgentState, Sequence[int], LimitOrder | None]] = []
                while wake_slot == slot:
                    st = states[a_idx]
                    profile = st.profile
                    cancels = _stale_orders(st, slot) if st.orders else ()
                    minutes = profile.minutes
                    window = minutes if minutes < n_hist else n_hist
                    trend = trends.get(window)
                    if trend is None:
                        trend = trends[window] = history.trend(window, var_floor, var_cap)
                    intercept, slope, k, var = trend
                    intent = make_order(profile, st.account, mid,
                                        intercept + slope * (k - 1 + minutes), var,
                                        fund_now, sigma_noise, band, tick_size,
                                        lot_size, rng)
                    order = None
                    if intent is not None:
                        order = LimitOrder(next_order_id, a_idx, *intent, slot)
                        next_order_id += 1
                    batch.append((st, cancels, order))
                    ptr += 1
                    wake_slot, a_idx = divmod(wakes[ptr], n_agents)
                if len(batch) > 1:  # one entry: nothing to do, nothing drawn
                    # the same swaps, from the same draws, as rng.permutation
                    rng.shuffle(batch)
                touched = False
                for st, cancels, order in batch:
                    for oid in cancels:
                        seq = _apply_cancel(st, book, oid, slot, seq, stream, lot_size)
                        touched = True
                    if order is not None:
                        seq = _apply_place(states, book, order, slot, seq, stream, lot_size)
                        touched = True
                if touched:
                    mid_cache = book.mid_price()
            mid_slot.append(mid_cache)
        if minute_end <= slots:   # a trailing partial minute is not recorded
            history.append(mid_cache * tick_size)
            n_hist += 1
            trends.clear()

    stream.mid_slot = np.array(mid_slot)
    return stream


def _wake_schedule(rng: np.random.Generator, cfg: SimConfig) -> list[int]:
    """The day's wakes as flat indices `slot * n_agents + agent`, row-major
    (slot, then ascending agent id), ending in a sentinel past the last slot.

    The entries are the nonzeros of `rng.random((slots_per_day, n_agents)) <
    wake_prob`, drawn WAKE_CHUNK_SLOTS rows at a time from a copy of the
    generator, so the whole matrix never exists. `rng` itself is advanced
    past those draws (each float64 of `Generator.random` takes one 64-bit
    output), so it continues exactly as after the one-shot draw.
    """
    bit_gen = rng.bit_generator
    state = bit_gen.state
    if state["has_uint32"]:
        # advance() drops the buffered half, which the one-shot draw keeps
        raise RuntimeError("wake schedule: the generator holds a buffered 32-bit "
                           "output that advancing it would drop")
    draws = np.random.Generator(np.random.PCG64())
    draws.bit_generator.state = state
    n_agents, slots = cfg.n_agents, cfg.slots_per_day
    wakes: list[int] = []
    for start in range(0, slots, WAKE_CHUNK_SLOTS):
        rows = min(WAKE_CHUNK_SLOTS, slots - start)
        wake = draws.random((rows, n_agents)) < cfg.wake_prob
        wakes += (np.flatnonzero(wake) + start * n_agents).tolist()
    wakes.append(slots * n_agents)
    bit_gen.advance(slots * n_agents)
    return wakes


def _stale_orders(st: _AgentState, slot: int) -> list[int]:
    """Ids of the agent's resting orders older than its horizon.

    `st.orders` holds exactly the agent's resting orders (`_apply_place`
    and `_apply_cancel` keep it so) in birth order, one order per slot at
    most, so the stale orders are a prefix of it.
    """
    born_before = slot - st.profile.tau_i
    stale = []
    for oid, order in st.orders.items():
        if order.birth_slot >= born_before:
            break
        stale.append(oid)
    return stale


def _apply_cancel(st: _AgentState, book: Book, oid: int, slot: int, seq: int,
                  stream: OrderStream, lot_size: int) -> int:
    order = st.orders.pop(oid, None)   # the same object the book holds
    if order is None:   # filled earlier in this slot's batch
        return seq
    cancelled = book.cancel(oid)
    assert cancelled, "agent's resting orders out of step with the book"
    if order.side is BID:
        st.account.reserved_cash -= order.price * order.size * lot_size
    else:
        st.account.reserved_lots -= order.size
    stream.events.append(Event(slot, seq, "CANCEL", oid, order.agent,
                               int(order.side), 0, 0, -1))
    return seq + 1


def _apply_place(states: list[_AgentState], book: Book, order: LimitOrder,
                 slot: int, seq: int, stream: OrderStream, lot_size: int) -> int:
    stream.events.append(Event(slot, seq, "PLACE", order.id, order.agent,
                               int(order.side), order.price, order.size, -1))
    seq += 1
    taker = states[order.agent]
    trades = book.place_limit(order)
    for tr in trades:
        maker = states[tr.maker_agent]
        # maker leg releases its resting reservation at the trade price
        if order.side is BID:
            settle(maker.account, tr, ASK, lot_size)
            maker.account.reserved_lots -= tr.size
            settle(taker.account, tr, BID, lot_size)
        else:
            settle(maker.account, tr, BID, lot_size)
            maker.account.reserved_cash -= tr.price * tr.size * lot_size
            settle(taker.account, tr, ASK, lot_size)
        if maker.orders[tr.maker].size == 0:   # filled: the book dropped it
            del maker.orders[tr.maker]
        stream.events.append(Event(slot, seq, "TRADE", tr.maker, tr.maker_agent,
                                   int(order.side), tr.price, tr.size, tr.taker))
        seq += 1
    if order.size > 0:  # residue rests
        if order.side is BID:
            taker.account.reserved_cash += order.price * order.size * lot_size
        else:
            taker.account.reserved_lots += order.size
        taker.orders[order.id] = order
    return seq


def replay(stream: OrderStream, check_trades: bool = True) -> np.ndarray:
    """Re-run the recorded events through a fresh book.

    Returns the per-slot mid series (ticks). With `check_trades`, raises
    ValueError unless the book reproduces the recorded TRADE events
    exactly, every CANCEL finds its order resting, and no event lies past
    the last slot.
    """
    book = Book(stream.open_price_ticks)
    mid_slot = np.empty(stream.slots_per_day)
    ev_iter = iter(stream.events)
    pending = next(ev_iter, None)
    for slot in range(stream.slots_per_day):
        while pending is not None and pending.slot == slot:
            e = pending
            if e.kind == "PLACE":
                order = LimitOrder(e.order_id, e.agent, Side(e.side),
                                   e.price, e.size, slot)
                for tr in book.place_limit(order):
                    pending = next(ev_iter, None)
                    if check_trades and (
                            pending is None or pending.kind != "TRADE"
                            or (pending.order_id, pending.match_id, pending.price,
                                pending.size) != (tr.maker, tr.taker, tr.price, tr.size)):
                        raise ValueError("replay diverged from recorded trades")
            elif e.kind == "CANCEL":
                if not book.cancel(e.order_id) and check_trades:
                    raise ValueError(f"cancel of order {e.order_id}, not resting")
            elif check_trades:
                raise ValueError(f"{e.kind} event at slot {slot} that no order produced")
            pending = next(ev_iter, None)
        mid_slot[slot] = book.mid_price()
    if check_trades and pending is not None:
        raise ValueError(f"event at slot {pending.slot} not replayed: "
                         "out of order or past the last slot")
    return mid_slot


# -- persistence ------------------------------------------------------------------

EVENT_HEADER = ["slot", "seq", "kind", "order_id", "agent", "side",
                "price_ticks", "size_lots", "match_id"]
MIDS_HEADER = ["minute", "mid_ticks"]


def write_stream(stream: OrderStream, prefix: Path):
    """Write events CSV, per-minute mid CSV, and a metadata sidecar that
    records the events file's SHA-256."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    events = f"{prefix}.events.csv"
    write_table(events, EVENT_HEADER, (
        [e.slot, e.seq, e.kind, e.order_id, e.agent, e.side, e.price, e.size, e.match_id]
        for e in stream.events))
    write_table(f"{prefix}.mids.csv", MIDS_HEADER,
                ([i, repr(float(m))] for i, m in enumerate(stream.mid_minute)))
    meta = {
        "open_price": stream.open_price,
        "tick_size": stream.tick_size,
        "lot_size": stream.lot_size,
        "slots_per_day": stream.slots_per_day,
        "seed": stream.seed,
        "events_sha256": file_sha256(events),
    }
    with open(f"{prefix}.meta.yaml", "w") as f:
        yaml.safe_dump(meta, f, sort_keys=True)


def _parse_event(row: list[str]) -> Event:
    return Event(int(row[0]), int(row[1]), row[2], *(int(v) for v in row[3:]))


def read_stream(prefix: Path) -> OrderStream:
    """Read a stream written by `write_stream`. The events file must match
    the SHA-256 on record, and the per-slot mids come from replaying the
    events, which must reproduce the recorded trades and the per-minute mids
    on file; a file that does not raises ValueError naming it.
    """
    prefix = Path(prefix)
    with open(f"{prefix}.meta.yaml") as f:
        meta = yaml.safe_load(f)
    events = f"{prefix}.events.csv"
    if file_sha256(events) != meta.get("events_sha256"):
        raise ValueError(f"{events}: SHA-256 differs from the one in {prefix}.meta.yaml")
    stream = OrderStream(meta["open_price"], meta["tick_size"], meta["lot_size"],
                         meta["slots_per_day"], meta["seed"],
                         read_table(events, EVENT_HEADER, _parse_event))
    try:
        stream.mid_slot = replay(stream, check_trades=True)
    except ValueError as exc:
        raise ValueError(f"{events}: {exc}") from exc
    mids = read_table(f"{prefix}.mids.csv", MIDS_HEADER, lambda row: float(row[1]))
    if not np.array_equal(mids, stream.mid_minute):
        raise ValueError(f"{prefix}.mids.csv: per-minute mids differ from "
                         "the replayed events")
    return stream
