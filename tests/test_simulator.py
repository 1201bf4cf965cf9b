"""Day simulator: determinism, conservation, wake-process statistics,
settlement arithmetic, replay oracle, and stream persistence."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

import calisim.agents as ag
from calisim import simulator as sim
from calisim.agents import AgentAccount, BehaviorVector
from calisim.lob import Book, LimitOrder, Side, TradeEvent
from calisim.simulator import (
    FundamentalSeries,
    SimConfig,
    read_stream,
    replay,
    run_day,
    settle,
    write_stream,
)

CFG = SimConfig(slots_per_day=3600, n_agents=100)
B_MID = BehaviorVector.from_normalized([0.5] * 5)


def flat_fund(cfg: SimConfig = CFG, price: float = 100.0) -> FundamentalSeries:
    return FundamentalSeries(np.full(cfg.fundamental_len, price))


@pytest.fixture(scope="module")
def day_stream():
    return run_day(CFG, B_MID, flat_fund(), seed=123)


# -- config and fundamentals -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(slots_per_day=30)
    with pytest.raises(ValueError):
        SimConfig(wake_prob=0.0)
    with pytest.raises(ValueError):
        SimConfig(open_price=-1.0)


def test_fundamental_series_validation_and_sampling():
    with pytest.raises(ValueError):
        FundamentalSeries(np.array([100.0, -5.0]))
    f = FundamentalSeries(np.array([100.0, 101.0, 102.0]))
    assert f.at_slot(0) == 100.0
    assert f.at_slot(599) == 100.0
    assert f.at_slot(600) == 101.0
    assert f.at_slot(10 ** 6) == 102.0  # clamped to the last sample


def test_run_day_rejects_wrong_fundamental_length():
    with pytest.raises(ValueError, match="fundamental length"):
        run_day(CFG, B_MID, FundamentalSeries(np.full(3, 100.0)), seed=0)


# -- settlement -----------------------------------------------------------------


def test_settle_buy_arithmetic():
    account = AgentAccount(cash=1000, holdings=0)
    trade = TradeEvent(0, 1, 2, price=100, size=2)
    settle(account, trade, Side.BID, lot_size=1)
    assert account.cash == 800 and account.holdings == 2


def test_settle_sell_entire_holding():
    account = AgentAccount(cash=0, holdings=3)
    settle(account, TradeEvent(0, 1, 2, price=50, size=3), Side.ASK, lot_size=1)
    assert account.holdings == 0 and account.cash == 150


def test_settle_asserts_on_overdraft():
    account = AgentAccount(cash=100, holdings=0)
    with pytest.raises(AssertionError):
        settle(account, TradeEvent(0, 1, 2, price=100, size=2), Side.BID, 1)


# -- run_day properties ------------------------------------------------------------


def test_determinism_same_seed(day_stream):
    again = run_day(CFG, B_MID, flat_fund(), seed=123)
    assert len(again.events) == len(day_stream.events)
    assert all(a == b for a, b in zip(again.events, day_stream.events))
    assert np.array_equal(again.mid_slot, day_stream.mid_slot)
    assert np.array_equal(again.mid_minute, day_stream.mid_minute)


def test_different_seed_differs(day_stream):
    other = run_day(CFG, B_MID, flat_fund(), seed=124)
    assert [e.order_id for e in other.events] != \
           [e.order_id for e in day_stream.events] or \
           not np.array_equal(other.mid_slot, day_stream.mid_slot)


def test_stream_shape(day_stream):
    assert len(day_stream.mid_slot) == CFG.slots_per_day
    assert len(day_stream.mid_minute) == CFG.slots_per_day // 60
    slots = [e.slot for e in day_stream.events]
    assert slots == sorted(slots)
    seqs = [e.seq for e in day_stream.events]
    assert seqs == sorted(seqs)


def test_wake_count_binomial_band():
    """Woken-agent decisions follow Binomial(slots * agents, wake_prob):
    with 3600 slots and 100 agents the count stays within 3600 +- 3*60.
    (PLACE events are fewer: budget and inventory clamps suppress orders.)"""
    calls = [0]
    orig = ag.make_order

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    expected = CFG.slots_per_day * CFG.n_agents * CFG.wake_prob
    band = 3.0 * np.sqrt(expected)
    ag.make_order = counting
    try:
        for seed in range(10):
            calls[0] = 0
            stream = run_day(CFG, B_MID, flat_fund(), seed=seed)
            assert abs(calls[0] - expected) <= band
            n_place = sum(1 for e in stream.events if e.kind == "PLACE")
            assert n_place <= calls[0]
    finally:
        ag.make_order = orig


def test_conservation_of_cash_and_holdings():
    """Closed economy: total cash and total holdings after a day equal the
    initial endowment (recomputed independently from the trade legs)."""
    cfg = SimConfig(slots_per_day=1200, n_agents=50)
    b = B_MID
    seed = 7
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))
    _, accounts = ag.build_population(b, cfg.n_agents, cfg.alpha_ref,
                                      cfg.open_price_ticks, rng)
    cash0 = sum(a.cash for a in accounts)
    hold0 = sum(a.holdings for a in accounts)
    stream = run_day(cfg, b, flat_fund(cfg), seed=seed)
    # each TRADE moves price*size cash and size lots between two agents;
    # without one the replayed settlement below would check nothing
    assert any(e.kind == "TRADE" for e in stream.events)
    # re-derive final accounts by replaying settlements over the stream
    cash = {i: a.cash for i, a in enumerate(accounts)}
    hold = {i: a.holdings for i, a in enumerate(accounts)}
    takers = {e.order_id: (e.agent, e.side) for e in stream.events if e.kind == "PLACE"}
    for e in stream.events:
        if e.kind != "TRADE":
            continue
        taker_agent, taker_side = takers[e.match_id]
        notional = e.price * e.size
        if Side(taker_side) is Side.BID:
            cash[taker_agent] -= notional
            hold[taker_agent] += e.size
            cash[e.agent] += notional
            hold[e.agent] -= e.size
        else:
            cash[taker_agent] += notional
            hold[taker_agent] -= e.size
            cash[e.agent] -= notional
            hold[e.agent] += e.size
    assert sum(cash.values()) == cash0
    assert sum(hold.values()) == hold0
    assert all(c >= 0 for c in cash.values())
    assert all(h >= 0 for h in hold.values())


def _agent(tau_i: int, cash: int = 10 ** 7, holdings: int = 100) -> sim._AgentState:
    return sim._AgentState(ag.AgentProfile(1.0, 1.0, 1.0, tau_i, 1e-4, False),
                           AgentAccount(cash=cash, holdings=holdings))


def test_stale_orders_are_the_birth_order_prefix():
    """An agent's resting orders are kept in birth order, so the orders
    older than its horizon are exactly a prefix of them."""
    st = _agent(tau_i=100)
    for oid, birth in enumerate((10, 50, 200, 260, 300)):
        st.orders[oid] = LimitOrder(oid, 0, Side.BID, 100, 1, birth)
    assert sim._stale_orders(st, 150) == [0]       # 150 - 50 = 100 is not older
    assert sim._stale_orders(st, 151) == [0, 1]
    assert sim._stale_orders(st, 360) == [0, 1, 2]
    assert sim._stale_orders(st, 401) == [0, 1, 2, 3, 4]
    assert sim._stale_orders(st, 110) == []
    assert list(st.orders) == [0, 1, 2, 3, 4]      # the scan cancels nothing itself


def test_stale_order_filled_earlier_in_the_batch_emits_no_cancel():
    """A stale order that another agent fills earlier in the same slot's
    batch is gone when its cancel comes up: no CANCEL event, and the
    owner's dict and reservation stay consistent."""
    states = [_agent(tau_i=10), _agent(tau_i=10)]
    book = Book(10000)
    stream = sim.OrderStream(100.0, 0.01, 1, 3600, 0)
    ask = LimitOrder(0, 0, Side.ASK, 10000, 3, 0)
    seq = sim._apply_place(states, book, ask, 0, 0, stream, 1)
    assert states[0].account.reserved_lots == 3
    slot = 50
    stale = sim._stale_orders(states[0], slot)
    assert stale == [0]
    bid = LimitOrder(1, 1, Side.BID, 10000, 3, slot)
    seq = sim._apply_place(states, book, bid, slot, seq, stream, 1)
    assert 0 not in states[0].orders
    for oid in stale:
        seq = sim._apply_cancel(states[0], book, oid, slot, seq, stream, 1)
    assert [e.kind for e in stream.events] == ["PLACE", "PLACE", "TRADE"]
    assert states[0].account.reserved_lots == 0
    assert states[0].account.holdings == 97 and states[1].account.holdings == 103


def test_partly_filled_maker_stays_until_cancelled():
    """A partly filled maker stays with its owner, and cancelling it
    releases the rest of its reservation."""
    states = [_agent(tau_i=10), _agent(tau_i=10)]
    book = Book(10000)
    stream = sim.OrderStream(100.0, 0.01, 1, 3600, 0)
    seq = sim._apply_place(states, book, LimitOrder(0, 0, Side.ASK, 10000, 5, 0),
                           0, 0, stream, 1)
    seq = sim._apply_place(states, book, LimitOrder(1, 1, Side.BID, 10000, 2, 1),
                           1, seq, stream, 1)
    assert list(states[0].orders) == [0] and states[0].orders[0] is book.order(0)
    assert book.order(0).size == 3 and states[0].account.reserved_lots == 3
    sim._apply_cancel(states[0], book, 0, 20, seq, stream, 1)
    assert stream.events[-1] == sim.Event(20, seq, "CANCEL", 0, 0, int(Side.ASK), 0, 0, -1)
    assert book.order(0) is None and not states[0].orders
    assert states[0].account.reserved_lots == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_batch_shuffle_matches_permutation(n):
    """run_day orders a slot's batch with rng.shuffle: the same order as
    indexing by rng.permutation(n), with the stream left at the same point."""
    for seed in range(200):
        batch = list(range(n))
        by_shuffle = np.random.default_rng(seed)
        by_shuffle.shuffle(batch)
        by_permutation = np.random.default_rng(seed)
        assert batch == by_permutation.permutation(n).tolist()
        assert by_shuffle.random() == by_permutation.random()


def test_cancels_reference_resting_orders(day_stream):
    """Every CANCEL names an order previously placed and not yet fully
    filled or cancelled."""
    open_size = {}
    for e in day_stream.events:
        if e.kind == "PLACE":
            open_size[e.order_id] = e.size
        elif e.kind == "TRADE":
            open_size[e.order_id] -= e.size
            if open_size[e.order_id] == 0:
                del open_size[e.order_id]
        elif e.kind == "CANCEL":
            assert e.order_id in open_size, f"cancel of unknown order {e.order_id}"
            del open_size[e.order_id]


def test_replay_oracle(day_stream):
    mids = replay(day_stream, check_trades=True)
    assert np.array_equal(mids, day_stream.mid_slot)


def test_sim_call_counter(day_stream):
    sim.reset_sim_calls()
    assert sim.sim_call_count() == 0
    run_day(CFG, B_MID, flat_fund(), seed=1)
    run_day(CFG, B_MID, flat_fund(), seed=2)
    assert sim.sim_call_count() == 2


def test_stream_roundtrip(tmp_path, day_stream):
    prefix = tmp_path / "day"
    write_stream(day_stream, prefix)
    back = read_stream(prefix)
    assert back.open_price == day_stream.open_price
    assert back.slots_per_day == day_stream.slots_per_day
    assert back.seed == day_stream.seed
    assert back.events == day_stream.events
    assert np.array_equal(back.mid_slot, day_stream.mid_slot)
    assert np.array_equal(back.mid_minute, day_stream.mid_minute)


def test_stream_roundtrip_cut_short_minute(tmp_path):
    """650 slots: ten whole minutes and a cut-short eleventh, which has no
    minute mid, in memory or on file."""
    cfg = SimConfig(slots_per_day=650, n_agents=50)
    stream = run_day(cfg, B_MID, flat_fund(cfg), seed=5)
    assert len(stream.mid_slot) == 650 and len(stream.mid_minute) == 10
    assert np.array_equal(stream.mid_minute, stream.mid_slot[59:600:60])
    write_stream(stream, tmp_path / "day")
    assert len((tmp_path / "day.mids.csv").read_text().splitlines()) == 1 + 10
    back = read_stream(tmp_path / "day")
    assert back.events == stream.events
    assert np.array_equal(back.mid_slot, stream.mid_slot)


# case -> (file, kind of the first row changed or None, column, change, error)
CORRUPTIONS = {
    "trade_price": ("events", "TRADE", "price_ticks", lambda v: str(int(v) + 1),
                    r"day\.events\.csv: replay diverged"),
    "slot_past_day": ("events", "PLACE", "slot", lambda v: "999999",
                      r"day\.events\.csv: event at slot 999999 not replayed"),
    "cancel_id": ("events", "CANCEL", "order_id", lambda v: "999999",
                  r"day\.events\.csv: cancel of order 999999, not resting"),
    "stray_trade": ("events", "CANCEL", "kind", lambda v: "TRADE",
                    r"day\.events\.csv: TRADE event at slot \d+ that no order produced"),
    "minute_mid": ("mids", None, "mid_ticks", lambda v: repr(float(v) + 0.5),
                   r"day\.mids\.csv: per-minute mids differ"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_read_stream_rejects_corrupt_file(tmp_path, day_stream, case):
    """One altered cell in a written stream fails the read, naming the file."""
    suffix, kind, column, change, match = CORRUPTIONS[case]
    write_stream(day_stream, tmp_path / "day")
    path = tmp_path / f"day.{suffix}.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    i = next(i for i, line in enumerate(lines[1:], 1)
             if kind is None or line.split(",")[header.index("kind")] == kind)
    cells = lines[i].split(",")
    cells[header.index(column)] = change(cells[header.index(column)])
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    resign(tmp_path / "day")
    with pytest.raises(ValueError, match=match):
        read_stream(tmp_path / "day")


def resign(prefix: Path):
    """Record the edited events file's SHA-256 in the sidecar, so the read
    reaches the checks behind the digest."""
    meta_path = Path(f"{prefix}.meta.yaml")
    meta = yaml.safe_load(meta_path.read_text())
    meta["events_sha256"] = hashlib.sha256(
        Path(f"{prefix}.events.csv").read_bytes()).hexdigest()
    meta_path.write_text(yaml.safe_dump(meta, sort_keys=True))


def test_read_stream_rejects_edited_quiet_order(tmp_path, day_stream):
    """A bigger PLACE size on an order that never trades still replays
    cleanly; only the events digest catches it."""
    write_stream(day_stream, tmp_path / "day")
    path = tmp_path / "day.events.csv"
    lines = path.read_text().splitlines()
    traded = {oid for e in day_stream.events if e.kind == "TRADE"
              for oid in (e.order_id, e.match_id)}
    i = next(i for i, e in enumerate(day_stream.events, 1)
             if e.kind == "PLACE" and e.order_id not in traded)
    cells = lines[i].split(",")
    cells[7] = str(int(cells[7]) + 200)   # size_lots
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"day\.events\.csv: SHA-256 differs"):
        read_stream(tmp_path / "day")
    resign(tmp_path / "day")
    back = read_stream(tmp_path / "day")
    assert back.events[i - 1].size == day_stream.events[i - 1].size + 200
