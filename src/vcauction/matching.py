"""Greedy broker matching that maximizes per-step UoS gain.

Each buyer ranks its C1-feasible sellers by UoS value, with a virtual
critical entry appended last (value: minimum real value minus the paper's
single delta, DEFAULT_DELTA). The broker merges every real entry into one
list, scans it top-down, and accepts each pair that keeps the partial
assignment feasible. Dead ends backtrack: with several pairs matched the
most recent acceptance is dropped and the scan resumes just past it; with a
single pair matched the anchor advances one list position and the scan
restarts there. A winner pays its buyer's value for it minus the value of
the entry immediately behind it in that buyer's list, so payment always
covers the bid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TOLERANCE, Assignment, BuyerId, Scenario, SellerId
from .economics import Market, gross_utility, objective

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
class BrokerPrefList:
    entries: tuple[PrefEntry, ...]


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


def build_buyer_list(
    s: Scenario, buyer: BuyerId, market: Market | None = None
) -> BuyerPrefList:
    """Rank feasible sellers by value, best first, virtual entry last.

    An empty real list yields a single virtual entry of value -DEFAULT_DELTA.
    `market` is `s` compiled, when the caller already has it.
    """
    m = market if market is not None else Market(s)
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


def build_broker_list(lists: list[BuyerPrefList]) -> BrokerPrefList:
    """Merge all real entries, best value first; ties by buyer then seller."""
    merged = [e for lst in lists for e in lst.real_entries()]
    merged.sort(key=lambda e: (-e.value, e.buyer, e.seller))
    return BrokerPrefList(tuple(merged))


def match(
    s: Scenario, broker: BrokerPrefList, market: Market | None = None
) -> tuple[Assignment | None, tuple[tuple, ...]]:
    """Scan the broker list until every buyer is matched or anchors run out.

    Returns the assignment (None on failure) and a trace of scan events:
    ("accept"|"skip"|"reject"|"delete"|"restart", index) plus a final
    ("complete",) or ("fail",). Accepted pairs always sit at increasing list
    positions, so the most recently accepted pair is the deepest one. A
    buyer with no entry at all fails the scan at once, with trace
    (("fail",),). `market` is `s` compiled, when the caller already has it.
    """
    entries = broker.entries
    total_buyers = len(s.buyers)
    trace: list[tuple] = []
    if total_buyers == 0:
        trace.append(("complete",))
        return Assignment(()), tuple(trace)
    m = market if market is not None else Market(s)
    eb = [m.buyer_index[e.buyer] for e in entries]
    es = [m.seller_index[e.seller] for e in entries]
    if len(set(eb)) < total_buyers:
        trace.append(("fail",))
        return None, tuple(trace)

    c1 = m.feasible[eb, es].tolist()
    sp_of, edges = m.sp_of.tolist(), m.edge_lists()
    seller_of = [-1] * total_buyers
    taken = [False] * len(m.sellers)

    def put(i: int) -> None:
        seller_of[eb[i]] = es[i]
        taken[es[i]] = True

    def drop(i: int) -> None:
        seller_of[eb[i]] = -1
        taken[es[i]] = False

    def result() -> Assignment:
        return Assignment.from_pairs(
            [(m.buyers[bi], m.sellers[si]) for bi, si in enumerate(seller_of)]
        )

    L = len(entries)
    stack: list[int] = [0]
    put(0)
    trace.append(("accept", 0))
    pos = 1

    if len(stack) == total_buyers:
        trace.append(("complete",))
        return result(), tuple(trace)

    while True:
        idx = pos
        while idx < L and len(stack) < total_buyers:
            bi, si = eb[idx], es[idx]
            if seller_of[bi] >= 0 or taken[si]:
                trace.append(("skip", idx))
            elif not c1[idx]:
                trace.append(("reject", idx))
            else:
                own = sp_of[si]
                for j, allowed in edges[bi]:
                    sj = seller_of[j]
                    if sj >= 0 and not allowed[own][sp_of[sj]]:
                        trace.append(("reject", idx))
                        break
                else:
                    stack.append(idx)
                    put(idx)
                    trace.append(("accept", idx))
            idx += 1
        if len(stack) == total_buyers:
            trace.append(("complete",))
            return result(), tuple(trace)
        if len(stack) > 1:
            dropped = stack.pop()
            drop(dropped)
            trace.append(("delete", dropped))
            pos = dropped + 1
        else:
            anchor = stack[0] + 1
            if anchor >= L:
                trace.append(("fail",))
                return None, tuple(trace)
            drop(stack[0])
            stack[0] = anchor
            put(anchor)
            trace.append(("restart", anchor))
            pos = anchor + 1
            if len(stack) == total_buyers:
                trace.append(("complete",))
                return result(), tuple(trace)


def matching_payment(
    s: Scenario,
    lists: dict[BuyerId, BuyerPrefList],
    assignment: Assignment,
    winner: SellerId,
) -> float:
    """Winner's buyer-side value minus the next entry's value in that list.

    The next entry may be the virtual critical one, whose value is used
    directly; since lists are sorted, payment never drops below the bid.
    """
    buyer = assignment.seller_to_buyer().get(winner)
    if buyer is None:
        raise ValueError(f"{winner.label()} is not a winner")
    lst = lists[buyer]
    position = None
    for i, e in enumerate(lst.entries):
        if e.seller == winner:
            position = i
            break
    if position is None:
        raise ValueError(f"{winner.label()} not in {buyer.label()}'s list")
    nxt = lst.entries[position + 1]
    sel = s.seller(winner)
    own = s.alpha(buyer) * gross_utility(s.tolerable_time(buyer), sel.capability)
    return own - nxt.value


def run_matching(s: Scenario) -> MatchingOutcome:
    """Full pipeline: build lists, match, price winners."""
    return _run(s, Market(s))[0]


def _run(s: Scenario, market: Market) -> tuple[MatchingOutcome, BrokerPrefList]:
    """run_matching on a compiled market; also returns the broker list."""
    lists = {b: build_buyer_list(s, b, market=market) for b in s.buyers}
    broker = build_broker_list([lists[b] for b in s.buyers])
    assignment, trace = match(s, broker, market=market)
    if assignment is None:
        return MatchingOutcome(None, 0.0, {}, trace), broker
    payments = {
        sid: matching_payment(s, lists, assignment, sid)
        for sid in assignment.seller_to_buyer()
    }
    return MatchingOutcome(assignment, objective(s, assignment), payments, trace), broker


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


def verify_truthfulness_matching(s: Scenario, sid: SellerId) -> dict:
    """Sweep one seller's bid over `default_bid_grid(q)` through the full
    matching pipeline.

    The grid holds the true value q, and the q row is the truthful run: its
    utility and broker list are what every row is compared with. Each row
    records the misreport outcome and whether the perturbation left the
    broker list's pair order unchanged (the regime where no misreport should
    ever beat truth-telling).
    """
    from .optimal import default_bid_grid

    q = s.seller(sid).true_value
    market = Market(s)
    rows, shapes = [], []
    for bid in default_bid_grid(q):
        outcome, broker = _run(s.with_seller_bid(sid, bid), market.with_bid(sid, bid))
        won = outcome.success and sid in outcome.payments
        payment = outcome.payments[sid] if won else None
        utility = (payment - q) if won else 0.0
        rows.append({"bid": bid, "won": won, "payment": payment, "utility": utility})
        shapes.append(tuple((e.buyer, e.seller) for e in broker.entries))

    truthful = next(i for i, r in enumerate(rows) if r["bid"] == q)
    truthful_utility = rows[truthful]["utility"]
    for row, shape in zip(rows, shapes):
        row["order_preserved"] = shape == shapes[truthful]
        row["classification"] = _classify(row["utility"], truthful_utility, row["won"])

    gains = [r for r in rows if r["classification"] == "gain"]
    return {
        "seller": sid,
        "true_value": q,
        "truthful_utility": truthful_utility,
        "rows": rows,
        "order_preserving_gains": [r["bid"] for r in gains if r["order_preserved"]],
        "gains": [r["bid"] for r in gains],
    }
