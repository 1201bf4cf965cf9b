"""Limit-order-book engine: hand-worked matching examples and bulk
property checks (conservation, never-crossed, price-time priority,
determinism) over random operation scripts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calisim.lob import (
    Book,
    DuplicateOrderError,
    LimitOrder,
    NoLiquidityError,
    Side,
)


def make_book(open_ticks: int = 10000) -> Book:
    return Book(open_price_ticks=open_ticks)


def lo(oid, side, price, size, agent=0, slot=0) -> LimitOrder:
    return LimitOrder(oid, agent, side, price, size, slot)


# -- hand-worked examples ------------------------------------------------------


def test_cross_partial_fill_rests_residue():
    """Resting ASK 5@100 hit by BID 3@101: one trade at the maker price
    100 for 3 lots, ASK residue 2 stays at 100."""
    book = make_book()
    book.place_limit(lo(1, Side.ASK, 100, 5))
    trades = book.place_limit(lo(2, Side.BID, 101, 3, agent=1))
    assert [(t.price, t.size, t.maker, t.taker) for t in trades] == [(100, 3, 1, 2)]
    assert book.best_ask() == 100
    assert book.order(1).size == 2
    assert book.best_bid() is None
    assert book.order(2) is None


def test_fifo_within_price_level():
    """Two ASKs at 100 (2 then 4 lots); BID 5@100 fills the older order
    first: trades (100,2) then (100,3), newer ASK keeps 1 lot."""
    book = make_book()
    book.place_limit(lo(1, Side.ASK, 100, 2))
    book.place_limit(lo(2, Side.ASK, 100, 4))
    trades = book.place_limit(lo(3, Side.BID, 100, 5, agent=1))
    assert [(t.maker, t.price, t.size) for t in trades] == [(1, 100, 2), (2, 100, 3)]
    assert book.order(1) is None
    assert book.order(2).size == 1


def test_price_priority_across_levels():
    book = make_book()
    book.place_limit(lo(1, Side.ASK, 101, 1))
    book.place_limit(lo(2, Side.ASK, 100, 1))
    trades = book.place_limit(lo(3, Side.BID, 105, 2, agent=1))
    assert [(t.maker, t.price) for t in trades] == [(2, 100), (1, 101)]


def test_market_order_residue_discarded():
    """A market order is a limit at the best opposite quote; anything it
    cannot fill there is dropped rather than rested."""
    book = make_book()
    book.place_limit(lo(1, Side.ASK, 100, 2))
    trades = book.place_market(Side.BID, 5, agent=1, order_id=2, slot=0)
    assert [(t.price, t.size) for t in trades] == [(100, 2)]
    assert book.best_bid() is None
    assert book.order(2) is None


def test_market_order_empty_side_rejected():
    book = make_book()
    with pytest.raises(NoLiquidityError):
        book.place_market(Side.BID, 1, agent=0, order_id=1, slot=0)


def test_mid_price_fallbacks():
    """Mid uses quotes when two-sided, else the last trade, else the open."""
    book = make_book(open_ticks=10000)
    assert book.mid_price() == 10000.0
    book.place_limit(lo(1, Side.BID, 9990, 1))
    assert book.mid_price() == 10000.0          # one-sided: still the open
    book.place_limit(lo(2, Side.ASK, 10010, 1))
    assert book.mid_price() == 10000.0          # (9990 + 10010) / 2
    book.place_limit(lo(3, Side.BID, 10010, 1, agent=1))  # trade at 10010
    assert book.best_ask() is None
    assert book.mid_price() == 10010.0          # one-sided again: last trade
    book.cancel(1)
    assert book.mid_price() == 10010.0          # empty book: last trade


def test_cancel_idempotent():
    book = make_book()
    book.place_limit(lo(1, Side.BID, 9990, 1))
    assert book.cancel(1) is True
    assert book.cancel(1) is False
    assert book.cancel(42) is False


def test_duplicate_order_id_rejected():
    book = make_book()
    book.place_limit(lo(1, Side.BID, 9990, 1))
    with pytest.raises(DuplicateOrderError):
        book.place_limit(lo(1, Side.ASK, 10010, 1))


def test_invalid_order_rejected():
    book = make_book()
    with pytest.raises(ValueError):
        book.place_limit(lo(1, Side.BID, 9990, 0))
    with pytest.raises(ValueError):
        book.place_limit(lo(2, Side.BID, 0, 1))


def test_self_trade_permitted_and_flagged():
    book = make_book()
    book.place_limit(lo(1, Side.ASK, 100, 1, agent=7))
    trades = book.place_limit(lo(2, Side.BID, 100, 1, agent=7))
    assert len(trades) == 1 and trades[0].maker_agent == trades[0].taker_agent == 7


def test_trade_at_maker_price_even_when_taker_bids_higher():
    book = make_book()
    book.place_limit(lo(1, Side.ASK, 100, 1))
    trades = book.place_limit(lo(2, Side.BID, 110, 1, agent=1))
    assert trades[0].price == 100


# -- bulk property scripts -----------------------------------------------------


def resting_orders(book: Book) -> list[tuple[int, int, int, int]]:
    """(side, price, id, size) of every resting order, in queue order."""
    return [(side, price, o.id, o.size) for side in Side
            for price, level in sorted(book._levels[side].items()) for o in level]


def run_script(ops, collect_mids=False):
    """Drive a book through a random op script; return the book plus
    per-op bookkeeping used by the property checks."""
    book = make_book()
    placed_sizes = {}
    traded = 0
    resting_ids = []
    mids = []
    oid = 0
    for op in ops:
        kind, a, b, c = op
        if kind == 0:  # limit order
            side = Side.BID if a % 2 == 0 else Side.ASK
            price = 9950 + b % 101
            size = 1 + c % 20
            order = lo(oid, side, price, size, agent=a % 7)
            placed_sizes[oid] = size
            for t in book.place_limit(order):
                traded += 2 * t.size  # both legs consume size
            if book.order(oid) is not None:
                resting_ids.append(oid)
            oid += 1
        elif kind == 1 and resting_ids:  # cancel a (possibly gone) order
            book.cancel(resting_ids[(a + b) % len(resting_ids)])
        elif kind == 2:  # market order
            side = Side.BID if a % 2 == 0 else Side.ASK
            try:
                for t in book.place_market(side, 1 + c % 20, agent=a % 7,
                                           order_id=oid, slot=0):
                    traded += 2 * t.size
                    placed_sizes[oid] = 0  # taker size tracked via trades
            except NoLiquidityError:
                pass
            oid += 1
        bb, ba = book.best_bid(), book.best_ask()
        assert bb is None or ba is None or bb < ba, "book left crossed"
        if collect_mids:
            mids.append(book.mid_price())
    return book, traded, mids


OPS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    min_size=1, max_size=400,
)


@settings(max_examples=30, deadline=None)
@given(OPS)
def test_book_never_crossed_and_sizes_positive(ops):
    book, _, _ = run_script(ops)
    for side in (Side.BID, Side.ASK):
        for level in book._levels[side].values():
            for order in level:
                assert order.size >= 1


@settings(max_examples=30, deadline=None)
@given(OPS)
def test_script_determinism(ops):
    b1, t1, m1 = run_script(ops, collect_mids=True)
    b2, t2, m2 = run_script(ops, collect_mids=True)
    assert t1 == t2 and m1 == m2
    assert resting_orders(b1) == resting_orders(b2)


def test_conservation_over_random_script():
    """Placed size == resting + traded + cancelled + discarded residue,
    tracked explicitly over a long random script (lots are conserved)."""
    rng = np.random.default_rng(7)
    book = make_book()
    placed = traded = cancelled = discarded = 0
    live = []
    for oid in range(3000):
        kind = rng.integers(0, 3)
        if kind == 1 and live:
            victim = live[rng.integers(len(live))]
            order = book.order(victim)
            if order is not None and book.cancel(victim):
                cancelled += order.size
            continue
        side = Side.BID if rng.integers(2) == 0 else Side.ASK
        size = int(rng.integers(1, 21))
        if kind == 2:
            try:
                trades = book.place_market(side, size, agent=0, order_id=oid, slot=0)
            except NoLiquidityError:
                continue
            placed += size
            filled = sum(t.size for t in trades)
            traded += 2 * filled
            discarded += size - filled
        else:
            price = int(9950 + rng.integers(0, 101))
            placed += size
            trades = book.place_limit(lo(oid, side, price, size, slot=0))
            traded += 2 * sum(t.size for t in trades)
            if book.order(oid) is not None:
                live.append(oid)
    resting = sum(o.size for o in book._resting.values())
    # each fill consumes one lot from the maker and one from the taker
    assert placed == resting + traded + cancelled + discarded


def test_price_time_priority_over_random_script():
    """Across 10^4 random ops every trade must occur at the then-best
    opposite level, checked against a shadow price-level census."""
    rng = np.random.default_rng(11)
    book = make_book()
    for oid in range(10000):
        side = Side.BID if rng.integers(2) == 0 else Side.ASK
        price = int(9950 + rng.integers(0, 101))
        size = int(rng.integers(1, 11))
        best_before = book._best(side.opposite)
        trades = book.place_limit(lo(oid, side, price, size, slot=0))
        if trades:
            assert trades[0].price == best_before
            # maker prices never improve backwards for the taker
            px = [t.price for t in trades]
            assert px == sorted(px) if side is Side.BID else px == sorted(px, reverse=True)
        bb, ba = book.best_bid(), book.best_ask()
        assert bb is None or ba is None or bb < ba
