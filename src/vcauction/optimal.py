"""Exact winner determination and clarke-pivot payments.

Two interchangeable solvers maximize total UoS over complete feasible
assignments: solve_naive literally enumerates every buyer permutation against
every same-size seller subset (the reference oracle, factorial cost), while
solve_optimal runs a depth-first search with an admissible upper bound and
returns the identical optimum. Ties on objective value are broken toward the
lexicographically smallest pair list, so both solvers agree exactly. Both
search complete assignments only (C3): there is no partial mode.

Payments follow the pivot rule: a winner receives its bid plus the welfare it
adds, F(K*) - F_without, where F_without re-solves the scenario with that
seller removed. When removal leaves no complete assignment at all, F_without
is 0 (the market cannot run), which keeps F(K*) >= F_without and therefore
non-negative winner utility under truthful bids.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import TOLERANCE, Assignment, Scenario, SellerId
from .economics import Market, objective

__all__ = [
    "BudgetExceeded",
    "SolveResult",
    "OptOutcome",
    "solve_naive",
    "solve_optimal",
    "vcg_payment",
    "run_optimal_mechanism",
    "default_bid_grid",
    "verify_truthfulness_opt",
]


class BudgetExceeded(RuntimeError):
    """Raised when a solve runs past its wall-clock deadline."""


@dataclass(frozen=True)
class SolveResult:
    assignment: Assignment | None
    objective_value: float
    explored: int


@dataclass(frozen=True)
class OptOutcome:
    assignment: Assignment
    objective_value: float
    payments: dict[SellerId, float]
    explored_nodes: int


def _pair_list(m: Market, assigned: list[int]) -> tuple:
    pairs = [(m.buyers[bi], m.sellers[si]) for bi, si in enumerate(assigned) if si >= 0]
    return tuple(sorted(pairs))


def _edges_ok(edges: list, sp_of: list[int], assigned: list[int], bi: int, si: int) -> bool:
    sp = sp_of[si]
    for other, allowed in edges[bi]:
        osi = assigned[other]
        if osi >= 0 and not allowed[sp][sp_of[osi]]:
            return False
    return True


def solve_naive(
    s: Scenario,
    excluded: frozenset[SellerId] = frozenset(),
    budget_secs: float | None = None,
) -> SolveResult:
    """Literal enumeration: every buyer ordering against every seller subset.

    Examines exactly b! * C(s, b) candidates; intended as the ground-truth
    oracle on tiny instances and as the runtime yardstick the pruned solver
    is benchmarked against.
    """
    deadline = time.perf_counter() + budget_secs if budget_secs is not None else None
    m = Market(s, excluded)
    nb, ns = len(m.buyers), len(m.sellers)
    uos, feasible, sp_of = m.uos.tolist(), m.feasible.tolist(), m.sp_of.tolist()
    edges = m.edge_lists()
    count = 0
    best_value = -math.inf
    best_pairs: tuple | None = None

    for subset in itertools.combinations(range(ns), nb):
        for order in itertools.permutations(range(nb)):
            count += 1
            if deadline is not None and count % 4096 == 0 and time.perf_counter() > deadline:
                raise BudgetExceeded(f"enumeration stopped after {count} candidates")
            assigned = [-1] * nb
            total = 0.0
            ok = True
            for pos, bi in enumerate(order):
                si = subset[pos]
                if not feasible[bi][si] or not _edges_ok(edges, sp_of, assigned, bi, si):
                    ok = False
                    break
                assigned[bi] = si
                total += uos[bi][si]
            if not ok:
                continue
            pairs = _pair_list(m, assigned)
            if total > best_value + TOLERANCE:
                best_value, best_pairs = total, pairs
            elif total >= best_value - TOLERANCE and (
                best_pairs is None or pairs < best_pairs
            ):
                best_value, best_pairs = max(best_value, total), pairs

    if best_pairs is None:
        return SolveResult(None, 0.0, count)
    assignment = Assignment(best_pairs)
    return SolveResult(assignment, objective(s, assignment), count)


def solve_optimal(
    s: Scenario,
    excluded: frozenset[SellerId] = frozenset(),
    budget_secs: float | None = None,
    _deadline: float | None = None,
) -> SolveResult:
    """Branch-and-bound equivalent of solve_naive."""
    deadline = _deadline
    if budget_secs is not None:
        d = time.perf_counter() + budget_secs
        deadline = d if deadline is None else min(deadline, d)

    m = Market(s, excluded)
    nb, ns = len(m.buyers), len(m.sellers)
    if nb == 0:
        return SolveResult(Assignment(()), 0.0, 0)
    uos, feasible, sp_of = m.uos.tolist(), m.feasible.tolist(), m.sp_of.tolist()
    edges = m.edge_lists()
    feas_mask = [sum(1 << si for si in range(ns) if feasible[bi][si]) for bi in range(nb)]
    if any(mask == 0 for mask in feas_mask):
        return SolveResult(None, 0.0, 0)

    # Most constrained buyer first; candidates by descending value.
    order = sorted(range(nb), key=lambda bi: (bin(feas_mask[bi]).count("1"), bi))
    candidates = [
        sorted((si for si in range(ns) if feasible[bi][si]), key=lambda si: (-uos[bi][si], si))
        for bi in range(nb)
    ]
    suffix_bound = [0.0] * (nb + 1)
    for pos in range(nb - 1, -1, -1):
        bi = order[pos]
        suffix_bound[pos] = suffix_bound[pos + 1] + max(
            (uos[bi][si] for si in candidates[bi]), default=0.0
        )

    best_value = -math.inf
    best_pairs: tuple | None = None

    # Greedy completion in search order primes the bound.
    seed = [-1] * nb
    used = 0
    for bi in order:
        free = [si for si in candidates[bi] if not (used >> si) & 1]
        pick = next((si for si in free if _edges_ok(edges, sp_of, seed, bi, si)), -1)
        if pick < 0:
            break
        seed[bi] = pick
        used |= 1 << pick
    else:
        best_pairs = _pair_list(m, seed)
        best_value = sum(uos[bi][si] for bi, si in enumerate(seed))

    assigned = [-1] * nb
    nodes = 0
    tick = 0

    def consider(total: float) -> None:
        nonlocal best_value, best_pairs
        pairs = _pair_list(m, assigned)
        if total > best_value + TOLERANCE:
            best_value, best_pairs = total, pairs
        elif total >= best_value - TOLERANCE and (
            best_pairs is None or pairs < best_pairs
        ):
            best_value, best_pairs = max(best_value, total), pairs

    def dfs(pos: int, used: int, total: float) -> None:
        nonlocal nodes, tick
        if deadline is not None:
            tick += 1
            if tick >= 2048:
                tick = 0
                if time.perf_counter() > deadline:
                    raise BudgetExceeded("optimal solve exceeded its budget")
        if pos == nb:
            consider(total)
            return
        if total + suffix_bound[pos] < best_value - TOLERANCE:
            return
        bi = order[pos]
        # Forward check: every unassigned buyer still needs a free seller.
        for later in range(pos, nb):
            if feas_mask[order[later]] & ~used == 0:
                return
        for si in candidates[bi]:
            if (used >> si) & 1:
                continue
            if not _edges_ok(edges, sp_of, assigned, bi, si):
                continue
            nodes += 1
            assigned[bi] = si
            dfs(pos + 1, used | (1 << si), total + uos[bi][si])
            assigned[bi] = -1

    dfs(0, 0, 0.0)

    if best_pairs is None:
        return SolveResult(None, 0.0, nodes)
    assignment = Assignment(best_pairs)
    return SolveResult(assignment, objective(s, assignment), nodes)


def vcg_payment(
    s: Scenario,
    k_star: Assignment,
    f_star: float,
    sid: SellerId,
    _deadline: float | None = None,
) -> float:
    """Pivot payment for one winner: bid + F(K*) - F_without.

    F_without is the complete-assignment optimum with the seller removed, or
    0 when no complete assignment survives the removal.
    """
    if sid not in k_star.seller_to_buyer():
        raise ValueError(f"{sid.label()} is not a winner")
    without = solve_optimal(s, excluded=frozenset({sid}), _deadline=_deadline)
    f_wo = without.objective_value if without.assignment is not None else 0.0
    return f_star - f_wo + s.seller(sid).bid


def run_optimal_mechanism(s: Scenario, budget_secs: float | None = None) -> OptOutcome | None:
    """Winner determination plus a pivot payment per winner.

    Returns None when no complete feasible assignment exists. The budget, if
    given, covers the main solve and all payment re-solves together.
    """
    deadline = time.perf_counter() + budget_secs if budget_secs is not None else None
    res = solve_optimal(s, _deadline=deadline)
    if res.assignment is None:
        return None
    explored = res.explored
    payments: dict[SellerId, float] = {}
    for sid in res.assignment.seller_to_buyer():
        payments[sid] = vcg_payment(s, res.assignment, res.objective_value, sid, _deadline=deadline)
    return OptOutcome(res.assignment, res.objective_value, payments, explored)


def default_bid_grid(true_value: float) -> tuple[float, ...]:
    """21 evenly spaced bids across [0.5q, 1.5q], with q itself guaranteed."""
    pts = {float(x) for x in np.linspace(0.5 * true_value, 1.5 * true_value, 21)}
    pts.add(float(true_value))
    return tuple(sorted(pts))


def verify_truthfulness_opt(s: Scenario, sid: SellerId) -> dict:
    """Sweep one seller's reported bid over `default_bid_grid(q)` and compare
    utilities against the truthful q row.

    Utility is payment - true_value when the seller wins, else 0. The removal
    term F_without never involves the swept seller's bid, so it is computed
    once. The report flags any bid whose utility beats the truthful one.
    """
    q = s.seller(sid).true_value
    without = solve_optimal(s, excluded=frozenset({sid}))
    f_wo = without.objective_value if without.assignment is not None else 0.0

    rows = []
    truthful_utility = 0.0
    for bid in default_bid_grid(q):
        res = solve_optimal(s.with_seller_bid(sid, bid))
        won = res.assignment is not None and sid in res.assignment.seller_to_buyer()
        if won:
            payment = res.objective_value - f_wo + bid
            utility = payment - q
        else:
            payment = None
            utility = 0.0
        rows.append({"bid": bid, "won": won, "payment": payment, "utility": utility})
        if bid == q:
            truthful_utility = utility

    violations = [r["bid"] for r in rows if r["utility"] > truthful_utility + TOLERANCE]
    return {
        "seller": sid,
        "true_value": q,
        "f_without": f_wo,
        "truthful_utility": truthful_utility,
        "rows": rows,
        "dominance_violations": violations,
        "dominant": not violations,
    }
