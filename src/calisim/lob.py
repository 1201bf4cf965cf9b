"""Price-time-priority limit order book on an integer tick/lot grid."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import IntEnum


class Side(IntEnum):
    BID = 0
    ASK = 1

    @property
    def opposite(self) -> "Side":
        return Side.ASK if self is Side.BID else Side.BID


# module-level sides: the matching path compares against these, which is
# cheaper than an enum member lookup or the `opposite` property
BID, ASK = Side.BID, Side.ASK


class DuplicateOrderError(ValueError):
    """An order id was reused within a trading day."""


class NoLiquidityError(RuntimeError):
    """Market order against an empty opposite side."""


@dataclass(slots=True)
class LimitOrder:
    id: int
    agent: int
    side: Side
    price: int          # ticks
    size: int           # lots remaining
    birth_slot: int


@dataclass(slots=True)
class TradeEvent:
    slot: int
    maker: int          # maker order id
    taker: int          # taker order id
    price: int          # ticks; always the maker's resting price
    size: int           # lots
    maker_agent: int = -1
    taker_agent: int = -1


class Book:
    """One day's order book. Prices are integer ticks, sizes integer lots.

    Matching is continuous: an incoming limit order fills against the
    opposite side while it crosses, at maker prices, FIFO within a level;
    any residue rests. The book is never left crossed.
    """

    def __init__(self, open_price_ticks: int):
        self.open_price = open_price_ticks
        self.last_trade_price: int | None = None
        self._levels: tuple[dict[int, deque[LimitOrder]], dict[int, deque[LimitOrder]]] = ({}, {})
        self._heaps: tuple[list[int], list[int]] = ([], [])  # bid heap stores -price
        self._resting: dict[int, LimitOrder] = {}
        self._seen: set[int] = set()

    # -- quotes ----------------------------------------------------------------

    def _best(self, side: Side) -> int | None:
        heap = self._heaps[side]
        levels = self._levels[side]
        while heap:
            price = -heap[0] if side is BID else heap[0]
            q = levels.get(price)
            if q:
                return price
            heapq.heappop(heap)
        return None

    def best_bid(self) -> int | None:
        return self._best(BID)

    def best_ask(self) -> int | None:
        return self._best(ASK)

    def mid_price(self) -> float:
        """Midpoint in ticks; falls back to last trade, then the open."""
        bb, ba = self._best(BID), self._best(ASK)
        if bb is not None and ba is not None:
            return (bb + ba) / 2.0
        if self.last_trade_price is not None:
            return float(self.last_trade_price)
        return float(self.open_price)

    def order(self, order_id: int) -> LimitOrder | None:
        return self._resting.get(order_id)

    # -- operations -------------------------------------------------------------

    def place_limit(self, order: LimitOrder) -> list[TradeEvent]:
        if order.id in self._seen:
            raise DuplicateOrderError(f"order id {order.id} already used")
        if order.size < 1 or order.price < 1:
            raise ValueError("limit order needs size >= 1 and price >= 1 tick")
        self._seen.add(order.id)
        trades = self._match(order, order.birth_slot)
        if order.size > 0:
            self._rest(order)
        return trades

    def place_market(self, side: Side, size: int, agent: int, order_id: int,
                     slot: int) -> list[TradeEvent]:
        """Limit order priced at the best opposite quote; residue is discarded."""
        best = self._best(side.opposite)
        if best is None:
            raise NoLiquidityError("market order against an empty book side")
        if order_id in self._seen:
            raise DuplicateOrderError(f"order id {order_id} already used")
        self._seen.add(order_id)
        order = LimitOrder(order_id, agent, side, best, size, slot)
        return self._match(order, slot)

    def cancel(self, order_id: int) -> bool:
        order = self._resting.pop(order_id, None)
        if order is None:
            return False
        q = self._levels[order.side][order.price]
        q.remove(order)
        if not q:
            del self._levels[order.side][order.price]
        return True

    # -- internals ----------------------------------------------------------------

    def _crosses(self, order: LimitOrder, best: int) -> bool:
        return order.price >= best if order.side is BID else order.price <= best

    def _match(self, order: LimitOrder, slot: int) -> list[TradeEvent]:
        trades: list[TradeEvent] = []
        opp = ASK if order.side is BID else BID
        levels = self._levels[opp]
        while order.size > 0:
            best = self._best(opp)
            if best is None or not self._crosses(order, best):
                break
            queue = levels[best]
            while queue and order.size > 0:
                maker = queue[0]
                fill = min(maker.size, order.size)
                maker.size -= fill
                order.size -= fill
                trades.append(TradeEvent(slot, maker.id, order.id, best, fill,
                                         maker.agent, order.agent))
                self.last_trade_price = best
                if maker.size == 0:
                    queue.popleft()
                    del self._resting[maker.id]
            if not queue:
                del levels[best]
        return trades

    def _rest(self, order: LimitOrder):
        levels = self._levels[order.side]
        q = levels.get(order.price)
        if q is None:
            levels[order.price] = deque([order])
            key = -order.price if order.side is BID else order.price
            heapq.heappush(self._heaps[order.side], key)
        else:
            q.append(order)
        self._resting[order.id] = order
