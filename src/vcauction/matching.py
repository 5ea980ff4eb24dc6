"""Greedy broker matching that maximizes per-step UoS gain.

Each buyer ranks its C1-feasible sellers by UoS value, with a virtual
critical entry appended last (value: minimum real value minus the paper's
single delta, DEFAULT_DELTA). The broker merges every real entry into one
list, scans it top-down, and accepts each pair that keeps the partial
assignment feasible. Dead ends backtrack: with several pairs matched the
most recent acceptance is dropped and the scan resumes just past it; with a
single pair matched the anchor advances one list position and the scan
restarts there. From the first dead end on, a state whose open buyers can
no longer get distinct free sellers from the entries left to them holds no
completion: the scan records a "prune" event and backtracks from it at
once, so it returns what the unpruned walk returns. Backtracking reads the
clock against the run's deadline, and a scan past it raises
`BudgetExceeded`. A winner pays its buyer's value for it minus the value of
the entry immediately behind it in that buyer's list, so payment always
covers the bid.

The pipeline works on the compiled `Market`'s rows and columns: the broker
list (`economics.build_broker_list`) is one sort of the feasible cells into
buyer, seller and value arrays, and a buyer's entries in it are its list;
`_scan` walks their buyer and seller lists and gives each buyer row a
seller column, with a trace only when asked, checking C2 with the exact
solvers' helper; `_prices` walks them once for the columns asked. The public
wrappers alone build `Assignment`s and traces. A bid sweep's grid point
merges the swept seller's re-valued column into the rest of the broker list
(`_Column`), scans it untraced and prices the swept seller alone.
`PrefEntry` and `build_buyer_list` rank one buyer on their own: the
reference that the broker list's per-buyer order is tested against.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import TOLERANCE, Assignment, BuyerId, Scenario, SellerId
from .economics import BrokerPrefList, Market, _add_in_order, _edges_ok, build_broker_list
from .optimal import BudgetExceeded, _pair_list, _sweep

__all__ = [
    "DEFAULT_DELTA",
    "PrefEntry",
    "BuyerPrefList",
    "BrokerPrefList",
    "MatchingOutcome",
    "build_buyer_list",
    "build_broker_list",
    "match",
    "matching_payment",
    "matching_payments",
    "run_matching",
    "verify_truthfulness_matching",
]

DEFAULT_DELTA = 1e-3


@dataclass(frozen=True)
class PrefEntry:
    """One list entry; seller None marks the virtual critical entry."""

    buyer: BuyerId
    seller: SellerId | None
    value: float

    @property
    def is_virtual(self) -> bool:
        return self.seller is None


@dataclass(frozen=True)
class BuyerPrefList:
    buyer: BuyerId
    entries: tuple[PrefEntry, ...]

    def real_entries(self) -> tuple[PrefEntry, ...]:
        return self.entries[:-1]


@dataclass(frozen=True)
class MatchingOutcome:
    """assignment is None when the scan exhausted its anchors."""

    assignment: Assignment | None
    objective_value: float
    payments: dict[SellerId, float]
    match_trace: tuple[tuple, ...]

    @property
    def success(self) -> bool:
        return self.assignment is not None


def build_buyer_list(s: Scenario, buyer: BuyerId) -> BuyerPrefList:
    """Rank feasible sellers by value, best first, virtual entry last.

    An empty real list yields a single virtual entry of value -DEFAULT_DELTA.
    The mechanisms and `verify` read a buyer's entries of `build_broker_list`;
    this sort of one row stays as the reference they are tested against.
    """
    m = Market(s)
    bi = m.buyer_index.get(buyer)
    if bi is None:
        raise ValueError(f"unknown buyer {buyer.label()}")
    cols = np.flatnonzero(m.feasible[bi])
    values = m.uos[bi, cols]
    rank = np.lexsort((cols, -values))
    real = [
        PrefEntry(buyer, m.sellers[k], v)
        for k, v in zip(cols[rank].tolist(), values[rank].tolist())
    ]
    floor = real[-1].value if real else 0.0
    entries = tuple(real) + (PrefEntry(buyer, None, floor - DEFAULT_DELTA),)
    return BuyerPrefList(buyer, entries)


def _all_rows_matched(rows: list[list[int]], n_cols: int) -> bool:
    """Whether a matching gives every row its own column, `rows[r]` listing
    row r's allowed columns.

    Augmenting paths (Kuhn 1955): rows are inserted one at a time. A row
    takes its first free column; failing that, a depth-first search on an
    explicit stack, never entering a column twice, looks for a path of
    matched columns that ends at a free one, and flips it.
    """
    row_of = [-1] * n_cols
    for start, cols in enumerate(rows):
        for j in cols:
            if row_of[j] < 0:
                row_of[j] = start
                break
        else:
            seen = [False] * n_cols
            # path[k] is a row on the path, tried up to next_cell[k]; the
            # rows after it were reached through column via[k].
            path, next_cell, via = [start], [0], []
            while path:
                cells, k = rows[path[-1]], next_cell[-1]
                if k == len(cells):
                    path.pop()
                    next_cell.pop()
                    if via:
                        via.pop()
                    continue
                next_cell[-1] = k + 1
                j = cells[k]
                if seen[j]:
                    continue
                seen[j] = True
                via.append(j)
                if row_of[j] < 0:
                    for r, j in zip(path, via):
                        row_of[j] = r
                    break
                path.append(row_of[j])
                next_cell.append(0)
            else:
                return False
    return True


def match(
    s: Scenario, broker: BrokerPrefList, *, deadline: float | None = None
) -> tuple[Assignment | None, tuple[tuple, ...]]:
    """Scan the broker list built from `s` until every buyer is matched or
    anchors run out.

    Returns the assignment (None on failure) and a trace of scan events:
    ("accept"|"skip"|"reject"|"delete"|"restart"|"prune", index) plus a final
    ("complete",) or ("fail",). Accepted pairs always sit at increasing list
    positions, so the most recently accepted pair is the deepest one. A
    buyer with no entry at all fails the scan at once, with trace
    (("fail",),). Every entry is C1-feasible, so the scan checks C2 and C4.
    A prune marks a state that holds no completion (see `_scan`); a trace
    ending ("prune", 0), ("fail",) means the buyers cannot get distinct
    sellers from their whole lists. Deletes and restarts raise
    BudgetExceeded past the `perf_counter` time `deadline`.
    """
    trace: list[tuple] = []
    seller_of = _scan(broker.market, broker.buyer.tolist(), broker.seller.tolist(), deadline, trace)
    assignment = None if seller_of is None else Assignment(_pair_list(broker.market, seller_of))
    return assignment, tuple(trace)


def _scan(
    m: Market, eb: list[int], es: list[int], deadline: float | None, trace: list | None
) -> list[int] | None:
    """The scan of `match` on a broker list of `m`, as its buyer rows `eb`
    and seller columns `es`: each buyer row's seller column, or None on
    failure. Events go to `trace` only when it is a list. The prune test at
    a state is `hall`: the open buyers' entries at or past the resume
    position, C2-compatible with the placed buyers, must give each its own
    free seller (`_all_rows_matched`)."""
    total_buyers = len(m.buyers)
    if len(set(eb)) < total_buyers:
        if trace is not None:
            trace.append(("fail",))
        return None

    sp_of, edges = m.sp_of.tolist(), m.edges
    n_sellers = len(m.sellers)
    seller_of = [-1] * total_buyers
    taken = [False] * n_sellers
    # Each buyer's ascending list positions, built at the first dead end.
    positions: list[list[int]] = []

    def put(i: int) -> None:
        seller_of[eb[i]] = es[i]
        taken[es[i]] = True

    def drop(i: int) -> None:
        seller_of[eb[i]] = -1
        taken[es[i]] = False

    def hall(start: int) -> bool:
        """Whether the open buyers can still get distinct free sellers from
        their entries at positions >= start, against the placed buyers' C2."""
        rows = []
        for bi, own in enumerate(positions):
            if seller_of[bi] < 0:
                cells = [
                    es[i]
                    for i in own[bisect_left(own, start):]
                    if not taken[es[i]] and _edges_ok(edges, sp_of, seller_of, bi, es[i])
                ]
                if not cells:
                    return False
                rows.append(cells)
        return _all_rows_matched(rows, n_sellers)

    L = len(eb)
    stack: list[int] = []
    pos = 0

    while True:
        idx = pos
        while idx < L:
            bi, si = eb[idx], es[idx]
            if seller_of[bi] >= 0 or taken[si]:
                if trace is not None:
                    trace.append(("skip", idx))
            elif not _edges_ok(edges, sp_of, seller_of, bi, si):
                if trace is not None:
                    trace.append(("reject", idx))
            else:
                stack.append(idx)
                put(idx)
                if trace is not None:
                    trace.append(("accept", idx))
                if len(stack) == total_buyers:
                    break
                if positions and not hall(idx + 1):
                    if trace is not None:
                        trace.append(("prune", idx + 1))
                    break
            idx += 1
        if len(stack) == total_buyers:
            if trace is not None:
                trace.append(("complete",))
            return seller_of
        if not positions:
            positions = [[] for _ in range(total_buyers)]
            for i, bi in enumerate(eb):
                positions[bi].append(i)
            if not _all_rows_matched([[es[i] for i in own] for own in positions], n_sellers):
                if trace is not None:
                    trace += [("prune", 0), ("fail",)]
                return None
        # Backtrack until a state passes the prune test.
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise BudgetExceeded(f"matching scan stopped at list position {pos}")
            if len(stack) > 1:
                dropped = stack.pop()
                drop(dropped)
                if trace is not None:
                    trace.append(("delete", dropped))
                pos = dropped + 1
            else:
                anchor = stack[0] + 1
                if anchor >= L:
                    if trace is not None:
                        trace.append(("fail",))
                    return None
                drop(stack[0])
                stack[0] = anchor
                put(anchor)
                if trace is not None:
                    trace.append(("restart", anchor))
                pos = anchor + 1
            if hall(pos):
                break
            if trace is not None:
                trace.append(("prune", pos))


def _prices(broker: BrokerPrefList, want: list[int]) -> tuple[float, list[float | None]]:
    """The objective and a payment per buyer row for the columns `want`
    (-1: none), from one walk of the broker list that stops once every such
    row has its entry and the entry behind it. A payment is None where the
    row prices no column or its column is not in the row's list."""
    m = broker.market
    own: list[float | None] = [None] * len(want)
    behind: list[float | None] = [None] * len(want)
    left = sum(si >= 0 for si in want)
    for bi, si, v in zip(broker.buyer.tolist(), broker.seller.tolist(), broker.value.tolist()):
        if own[bi] is None:
            if si == want[bi]:
                own[bi] = v
        elif behind[bi] is None:
            behind[bi] = v
            left -= 1
            if not left:
                break
    payments: list[float | None] = [None] * len(want)
    for bi, (si, value, after) in enumerate(zip(want, own, behind)):
        if value is not None:
            if after is None:
                after = value - DEFAULT_DELTA  # the virtual critical entry
            payments[bi] = m.gross[bi, si].item() - after
    return _add_in_order(v for v in own if v is not None), payments


def matching_payments(
    broker: BrokerPrefList, assignment: Assignment
) -> tuple[float, dict[SellerId, float]]:
    """The objective of `assignment` and every winner's payment, from one
    walk of the broker list.

    A winner is paid its buyer-side value minus the value of the entry
    behind it in that buyer's list: the buyer's next entry in broker order,
    or the virtual critical one. Since lists are sorted, payment never drops
    below the bid. The objective sums the winners' entries in row order,
    which is `BuyerId` order, so it equals `economics.objective` bit for bit
    on the scenario with the market's bids. Payments follow `assignment.pairs`.
    """
    m = broker.market
    rows = [m.buyer_index[b] for b, _ in assignment.pairs]
    want = [-1] * len(m.buyers)
    for bi, (_, sid) in zip(rows, assignment.pairs):
        want[bi] = m.seller_index.get(sid, -1)
    objective, priced = _prices(broker, want)
    payments = {}
    for (buyer, sid), bi in zip(assignment.pairs, rows):
        if priced[bi] is None:
            raise ValueError(f"{sid.label()} not in {buyer.label()}'s list")
        payments[sid] = priced[bi]
    return objective, payments


def matching_payment(broker: BrokerPrefList, assignment: Assignment, winner: SellerId) -> float:
    """`matching_payments` for one winner of `assignment`."""
    buyer = assignment.buyer_of(winner)
    if buyer is None:
        raise ValueError(f"{winner.label()} is not a winner")
    return matching_payments(broker, Assignment(((buyer, winner),)))[1][winner]


def run_matching(
    s: Scenario, *, market: Market | None = None, deadline: float | None = None
) -> MatchingOutcome:
    """Full pipeline: build the broker list of `market` (`s` compiled, when
    the caller already has it), match, price winners. The scan raises
    BudgetExceeded past the `perf_counter` time `deadline`."""
    broker = build_broker_list(market if market is not None else Market(s))
    assignment, trace = match(s, broker, deadline=deadline)
    objective, payments = (0.0, {}) if assignment is None else matching_payments(broker, assignment)
    return MatchingOutcome(assignment, objective, payments, trace)


def _classify(utility: float, truthful_utility: float, won: bool) -> str:
    if utility > truthful_utility + TOLERANCE:
        return "gain"
    if abs(utility - truthful_utility) <= TOLERANCE:
        return "equal"
    if not won:
        return "risk-zero"
    if utility < -TOLERANCE:
        return "risk-loss"
    return "no-gain"


class _Column:
    """Seller column `col` of `market`'s broker list, re-priced one bid at a
    time. Built once: the other sellers' entries in broker order, as keys
    (-value, buyer, seller) that sort in `build_broker_list`'s order since
    (buyer, seller) is unique, also split per buyer; and the gross values
    of the column's C1-admissible cells."""

    def __init__(self, market: Market, col: int):
        broker = build_broker_list(market)
        rest = broker.seller != col
        self.col, self.buyer, self.seller = col, broker.buyer[rest].tolist(), broker.seller[rest].tolist()
        self.keys = list(zip((-broker.value[rest]).tolist(), self.buyer, self.seller))
        self.keys_of: list[list[tuple]] = [[] for _ in market.buyers]
        for key in self.keys:
            self.keys_of[key[1]].append(key)
        cells = np.flatnonzero(market._admissible[:, col])
        self.gross = dict(zip(cells.tolist(), market.gross[cells, col].tolist()))

    def at(self, bid: float) -> tuple[list[int], list[int]]:
        """The buyer rows and seller columns of the broker list at `bid`:
        the cells re-valued as `gross - bid` (`Market.with_bid`'s operation),
        those above the C1 tolerance inserted by key, highest first so each
        position found in `keys` stays right."""
        eb, es = self.buyer.copy(), self.seller.copy()
        values = [(g - bid, bi) for bi, g in self.gross.items()]
        for key in sorted(((-v, bi, self.col) for v, bi in values if v > TOLERANCE), reverse=True):
            i = bisect_left(self.keys, key)
            eb.insert(i, key[1])
            es.insert(i, self.col)
        return eb, es

    def price(self, bi: int, bid: float) -> float:
        """Row bi's payment for the column at `bid`, as `_prices` gives it:
        gross minus the value of the row's next entry, or of the virtual one."""
        value, own = self.gross[bi] - bid, self.keys_of[bi]
        j = bisect_left(own, (-value, bi, self.col))
        after = -own[j][0] if j < len(own) else value - DEFAULT_DELTA  # the virtual critical entry
        return self.gross[bi] - after


def verify_truthfulness_matching(
    s: Scenario, sid: SellerId, *, market: Market | None = None, deadline: float | None = None
) -> dict:
    """`_sweep` of one seller through the full matching pipeline.

    The q row is the truthful run: its utility and broker list are what
    every row is compared with. Each row records the misreport outcome and
    whether the perturbation left the broker list's pair order unchanged
    (the regime where no misreport should ever beat truth-telling).
    `market` is `s` compiled, when the caller already has it. A grid point
    re-prices the seller's column of its broker list (`_Column`), scans the
    merged lists untraced and prices the swept seller alone, so its row
    equals `run_matching` on `s` with that bid. `_sweep` reads the clock
    before each grid point, and the scan at each backtrack: both raise
    BudgetExceeded past the `perf_counter` time `deadline`.
    """
    if market is None:
        market = Market(s)
    column = _Column(market, market.seller_index[sid])
    lists = []

    def payment_at(bid: float) -> float | None:
        eb, es = column.at(bid)
        lists.append((eb, es))
        seller_of = _scan(market, eb, es, deadline, None) or []
        if column.col not in seller_of:
            return None
        return column.price(seller_of.index(column.col), bid)

    q = s.seller(sid).true_value
    rows, truthful_utility, gains = _sweep(s, sid, payment_at, deadline)
    truthful = next(merged for r, merged in zip(rows, lists) if r["bid"] == q)
    for row, merged in zip(rows, lists):
        row["order_preserved"] = merged == truthful
        row["classification"] = _classify(row["utility"], truthful_utility, row["won"])
    return {
        "seller": sid,
        "true_value": q,
        "truthful_utility": truthful_utility,
        "rows": rows,
        "order_preserving_gains": [r["bid"] for r in rows if r["bid"] in gains and r["order_preserved"]],
        "gains": gains,
    }
