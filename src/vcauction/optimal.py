"""Exact winner determination and clarke-pivot payments.

Two interchangeable solvers maximize total UoS over complete feasible
assignments: solve_naive literally enumerates every buyer permutation against
every same-size seller subset (the reference oracle, factorial cost), while
solve_optimal returns the identical optimum in two phases. Ties on objective
value are broken toward the lexicographically smallest pair list, so both
solvers agree exactly. Both search complete assignments only (C3): there is
no partial mode.

solve_optimal first finds the optimum's value with one assignment solve over
C1: its matching is the optimum when it keeps C2, and otherwise a depth-first
search bounded by its duals runs and keeps strict gains only. It then breaks
ties: buyers are fixed in `BuyerId` order, each on its first seller in
`SellerId` order that still leaves a completion worth the optimum within the
tolerance. Every buyer is matched, so that is the smallest pair list. Each
such test first tries trading sellers with the last completion found, and
otherwise is one more assignment solve, and a search only when its matching
breaks C2.

Payments follow the pivot rule: a winner receives its bid plus the welfare it
adds, F(K*) - F_without, where F_without re-solves the scenario with that
seller removed. When removal leaves no complete assignment at all, F_without
is 0 (the market cannot run), which keeps F(K*) >= F_without and therefore
non-negative winner utility under truthful bids. Every re-solve without a
seller, whether from `solve_optimal`, `vcg_payment`, `run_optimal_mechanism`
or the bid sweep, runs one path: the seller's column is banned in the list
form of the whole market, whose root assignment solve is warm-started from
the one with every seller by one augmenting path.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import TOLERANCE, Assignment, Scenario, SellerId
from .economics import Market, _add_in_order, _drop_columns, _edges_ok, _max_assignment
from .economics import build_broker_list, objective

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
    objective_value: float  # 0.0 when there is no complete assignment
    # solve_naive: candidate maps enumerated. solve_optimal: search nodes
    # (one per buyer placed) of both phases plus the tie-break's completion
    # tests; 0 when the assignment solves settle everything.
    explored: int


@dataclass(frozen=True)
class OptOutcome:
    assignment: Assignment
    objective_value: float
    payments: dict[SellerId, float]
    # `SolveResult.explored` of the root solve, and of all pivot re-solves
    # together.
    explored_nodes: int
    pivot_nodes: int


def _pair_list(m: Market, assigned: list[int]) -> tuple:
    pairs = [(m.buyers[bi], m.sellers[si]) for bi, si in enumerate(assigned) if si >= 0]
    return tuple(sorted(pairs))


def _banned(s: Scenario, m: Market, excluded: frozenset[SellerId]) -> list[int]:
    """The columns of `m` that hold the `excluded` sellers, in order. An id
    that is not a seller of `s` raises ValueError, as `Scenario.seller` does."""
    return sorted(m.seller_index[s.seller(sid).id] for sid in excluded)


def solve_naive(
    s: Scenario,
    excluded: frozenset[SellerId] = frozenset(),
    *,
    deadline: float | None = None,
) -> SolveResult:
    """Literal enumeration: every buyer ordering against every subset of the
    sellers outside `excluded`.

    Examines exactly b! * C(s, b) candidates; intended as the ground-truth
    oracle on tiny instances and as the runtime yardstick the pruned solver
    is benchmarked against. Raises BudgetExceeded past the `perf_counter`
    time `deadline`.
    """
    m = Market(s)
    banned = _banned(s, m, excluded)
    nb = len(m.buyers)
    kept = [si for si in range(len(m.sellers)) if si not in banned]
    uos, feasible, sp_of, edges = m.uos.tolist(), m.feasible.tolist(), m.sp_of.tolist(), m.edges
    count = 0
    best_value = -math.inf
    best_pairs: tuple | None = None

    for subset in itertools.combinations(kept, nb):
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
    *,
    deadline: float | None = None,
) -> SolveResult:
    """Branch-and-bound equivalent of solve_naive, in two phases.

    The `excluded` sellers' columns are banned from `s` compiled. The solve
    raises BudgetExceeded past the `perf_counter` time `deadline`.

    Phase 1 finds the optimum's value: the root assignment solve's matching,
    or a search from it that keeps strict gains only. Phase 2 fixes buyers
    in `BuyerId` order, each on its first seller that still leaves a
    completion worth the optimum within the tolerance, which gives the
    smallest pair list.
    """
    m = Market(s)
    return _solve(m, _lists(m), _banned(s, m, excluded), deadline)


def _lists(m: Market) -> tuple:
    """The list form of `m` that the solver loops read: UoS and C1 per
    buyer and seller, each seller's provider, the C2 tables `m.edges`, each
    buyer's C1 sellers in broker-list order, and the root relaxation: the C1
    assignment solve of every buyer, as `relax` in `_solve` returns it."""
    uos, feasible = m.uos.tolist(), m.feasible.tolist()
    broker = build_broker_list(m)
    candidates: list[list[int]] = [[] for _ in m.buyers]
    for bi, si in zip(broker.buyer.tolist(), broker.seller.tolist()):
        candidates[bi].append(si)
    order = sorted(range(len(candidates)), key=lambda bi: (len(candidates[bi]), bi))
    rows = [[(si, uos[bi][si]) for si in candidates[bi]] for bi in order]
    root = (order, *_max_assignment(rows, len(m.sellers)))
    return uos, feasible, m.sp_of.tolist(), m.edges, candidates, root


def _solve(m: Market, lists: tuple, banned: list[int], deadline: float | None) -> SolveResult:
    """`solve_optimal` on `m`, read through its list form `lists`, with the
    columns `banned` left out. Its root relaxation is the list form's with
    those columns dropped: one augmenting path per buyer that held one, not
    a solve.
    """
    uos, feasible, sp_of, edges, candidates, root = lists
    nb, ns = len(m.buyers), len(m.sellers)
    banned_bits = sum(1 << si for si in banned)
    if banned_bits:
        candidates = [[si for si in row if not (banned_bits >> si) & 1] for row in candidates]
    # Most constrained buyer first.
    order = sorted(range(nb), key=lambda bi: (len(candidates[bi]), bi))
    nodes = 0

    def check_deadline() -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded("optimal solve exceeded its budget")

    def relax(assigned: list[int], used: int) -> tuple:
        """The assignment solve over C1 (C2 dropped) of the buyers that
        `assigned` (seller per buyer, -1 when open) leaves open to the
        sellers outside `used`: the open buyers in search order, then the
        value, columns and duals of `_max_assignment`."""
        check_deadline()
        open_ = [bi for bi in order if assigned[bi] < 0]
        rows = [[(si, uos[bi][si]) for si in candidates[bi] if not (used >> si) & 1] for bi in open_]
        return (open_, *_max_assignment(rows, ns))

    def search(assigned: list[int], used: int, total: float, floor: float, first: bool, relaxed):
        """Complete assignments that extend `assigned` (`used` its seller
        bits, `total` its value) and are worth at least `floor`. Returns the
        first one found when `first`, else the best, each find raising
        `floor` past itself; None if there is none.

        `relaxed` is `relax(assigned, used)`. Below `floor` it proves there
        is nothing to find; when its matching keeps C2, that matching is the
        answer. Otherwise a depth-first search runs, bounded at every node by
        the relaxation's column duals."""
        open_, value, cols, v = relaxed
        if value == -math.inf or total + value < floor:
            return None
        trial = list(assigned)
        for bi, si in zip(open_, cols):
            if not _edges_ok(edges, sp_of, trial, bi, si):
                break
            trial[bi] = si
        else:
            return trial
        largest_v = sorted(((v[si], 1 << si) for si in range(ns) if v[si] > 0.0), reverse=True)
        reduced = [
            sorted(((uos[bi][si] - v[si], 1 << si) for si in candidates[bi]), reverse=True)
            for bi in open_
        ]
        found = None

        def dfs(pos: int, used: int, total: float) -> bool:
            nonlocal nodes, floor, found
            if nodes % 2048 == 0:
                check_deadline()
            # Reduced-cost bound, admissible by weak duality (v >= 0 and
            # u_i + v_j >= w_ij): a completion is worth at most each open
            # buyer's best w - v over free sellers plus the largest free v,
            # one per buyer.
            bound, left = total, len(open_) - pos
            for vj, bit in largest_v:
                if left and not used & bit:
                    bound, left = bound + vj, left - 1
            for row in reduced[pos:]:
                for r, bit in row:
                    if not used & bit:
                        bound += r
                        break
                else:
                    return False
            if bound < floor:
                return False
            if pos == len(open_):
                found = list(assigned)
                floor = total + TOLERANCE
                return first
            bi = open_[pos]
            for si in candidates[bi]:
                if (used >> si) & 1 or not _edges_ok(edges, sp_of, assigned, bi, si):
                    continue
                nodes += 1
                assigned[bi] = si
                stop = dfs(pos + 1, used | (1 << si), total + uos[bi][si])
                assigned[bi] = -1
                if stop:
                    return True
            return False

        dfs(0, used, total)
        return found

    def trade(bi: int, si: int):
        """The witness with buyer `bi` on seller `si` and the later buyer
        that holds `si` on bi's seller in exchange, if that keeps C1 and C2
        and is worth at least `target`: a completion found with no solve."""
        if si not in witness:
            return None
        other, mine = witness.index(si), witness[bi]
        traded = list(witness)
        traded[bi], traded[other] = si, mine
        ok = feasible[other][mine] and _edges_ok(edges, sp_of, traded, bi, si)
        ok = ok and _edges_ok(edges, sp_of, traded, other, mine)
        return traded if ok and _add_in_order(uos[b][s] for b, s in enumerate(traded)) >= target else None

    # Phase 1: the optimum's value, by a search from the root assignment
    # solve that keeps strict gains only. With no C1 assignment it visits no
    # node, and banning columns cannot make one.
    check_deadline()
    root_order, value, cols, v = root
    if banned and value > -math.inf:
        rows = [[(si, uos[bi][si]) for si in candidates[bi]] for bi in root_order]
        value, cols, v = _drop_columns(rows, cols, v, banned)
    col_of = dict(zip(root_order, cols))
    root = (order, value, [col_of[bi] for bi in order], v)
    witness = search([-1] * nb, banned_bits, 0.0, -math.inf, False, root)
    if witness is None:
        return SolveResult(None, 0.0, nodes)

    # Phase 2: the smallest pair list worth at least `target`. The witness
    # extends the buyers fixed so far, so each buyer tests only the sellers
    # before the witness's, and otherwise takes the witness's. By weak
    # duality an assignment is worth at most `ceiling` less the reduced
    # costs of its pairs against the root duals, so a seller whose reduced
    # cost, with those of the fixed pairs, drops the ceiling below `target`
    # needs no test. A test first tries a trade with the witness, and runs
    # the search only when the trade fails.
    target = _add_in_order(uos[bi][si] for bi, si in enumerate(witness)) - TOLERANCE
    v = root[3]
    u = [max(uos[bi][si] - v[si] for si in candidates[bi]) for bi in range(nb)]
    ceiling = _add_in_order(u) + _add_in_order(v)
    assigned = [-1] * nb
    used, total = banned_bits, 0.0
    for bi in range(nb):
        for si in range(witness[bi]):
            if not feasible[bi][si] or (used >> si) & 1:
                continue
            if ceiling - (u[bi] + v[si] - uos[bi][si]) < target:
                continue
            if not _edges_ok(edges, sp_of, assigned, bi, si):
                continue
            nodes += 1
            found = trade(bi, si)
            if found is None:
                assigned[bi] = si
                next_used, next_total = used | (1 << si), total + uos[bi][si]
                relaxed = relax(assigned, next_used)
                found = search(assigned, next_used, next_total, target, True, relaxed)
                assigned[bi] = -1
            if found is not None:
                witness = found
                break
        si = witness[bi]
        ceiling -= u[bi] + v[si] - uos[bi][si]
        assigned[bi] = si
        used, total = used | (1 << si), total + uos[bi][si]

    # In row order, which is `BuyerId` order, as `objective` sums.
    value = _add_in_order(uos[bi][si] for bi, si in enumerate(witness))
    return SolveResult(Assignment(_pair_list(m, witness)), value, nodes)


def vcg_payment(
    s: Scenario,
    k_star: Assignment,
    f_star: float,
    sid: SellerId,
    *,
    deadline: float | None = None,
) -> float:
    """Pivot payment for one winner: bid + F(K*) - F_without.

    F_without is `solve_optimal` with the seller excluded, 0 when no complete
    assignment survives the removal.
    """
    if k_star.buyer_of(sid) is None:
        raise ValueError(f"{sid.label()} is not a winner")
    without = solve_optimal(s, frozenset({sid}), deadline=deadline)
    return f_star - without.objective_value + s.seller(sid).bid


def run_optimal_mechanism(m: Market, *, deadline: float | None = None) -> OptOutcome | None:
    """Winner determination plus a pivot payment per winner on the compiled
    market `m`.

    Returns None when no complete feasible assignment exists. The
    `perf_counter` time `deadline`, if given, bounds the main solve and all
    payment re-solves together. `m` is read into one list form; each
    re-solve is `solve_optimal` with the winner excluded, on that list form.
    """
    lists = _lists(m)
    res = _solve(m, lists, [], deadline)
    if res.assignment is None:
        return None
    payments: dict[SellerId, float] = {}
    pivot_nodes = 0
    for _, sid in res.assignment.pairs:
        k = m.seller_index[sid]
        without = _solve(m, lists, [k], deadline)
        payments[sid] = res.objective_value - without.objective_value + m.bid.item(k)
        pivot_nodes += without.explored
    return OptOutcome(res.assignment, res.objective_value, payments, res.explored, pivot_nodes)


def default_bid_grid(true_value: float) -> tuple[float, ...]:
    """21 evenly spaced bids across [0.5q, 1.5q], with q itself guaranteed."""
    pts = {float(x) for x in np.linspace(0.5 * true_value, 1.5 * true_value, 21)}
    pts.add(float(true_value))
    return tuple(sorted(pts))


def _sweep(q: float, sid: SellerId, payment_at, deadline: float | None) -> tuple:
    """The bid sweep both truthfulness audits run for seller `sid` of true
    value `q`: one row per bid of `default_bid_grid(q)`, `payment_at(bid)`
    the seller's payment at that bid, None when it loses. Utility is
    payment - q for a win, else 0.

    Returns the rows, the utility of the truthful q row, and the bids whose
    utility beats it by more than the tolerance. The clock is read before
    each grid point: past the `perf_counter` time `deadline` the sweep
    raises BudgetExceeded.
    """
    rows = []
    for bid in default_bid_grid(q):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded(f"bid sweep of {sid.label()} stopped at bid {bid}")
        payment = payment_at(bid)
        won = payment is not None
        rows.append({"bid": bid, "won": won, "payment": payment, "utility": (payment - q) if won else 0.0})
    truthful_utility = next(r["utility"] for r in rows if r["bid"] == q)
    beats = [r["bid"] for r in rows if r["utility"] > truthful_utility + TOLERANCE]
    return rows, truthful_utility, beats


def verify_truthfulness_opt(m: Market, sid: SellerId, *, deadline: float | None = None) -> dict:
    """`_sweep` of one seller of the compiled market `m` through the exact
    auction: the seller wins the re-bid market's optimum at bid b and is
    paid F(b) - F_without + b.

    The removal term F_without never involves the swept seller's bid, so it
    is computed once, as `solve_optimal` computes it. Each grid point
    re-prices one column of `m`. The report flags any bid whose utility
    beats the truthful one. Every solve stops with BudgetExceeded past the
    `perf_counter` time `deadline`.
    """
    k = m.seller_index[sid]
    q = m.true_value[k]
    f_wo = _solve(m, _lists(m), [k], deadline).objective_value

    def payment_at(bid: float) -> float | None:
        rebid = m.with_bid(sid, bid)
        res = _solve(rebid, _lists(rebid), [], deadline)
        if res.assignment is None or res.assignment.buyer_of(sid) is None:
            return None
        return res.objective_value - f_wo + bid

    rows, truthful_utility, violations = _sweep(q, sid, payment_at, deadline)
    return {
        "seller": sid,
        "true_value": q,
        "f_without": f_wo,
        "truthful_utility": truthful_utility,
        "rows": rows,
        "dominance_violations": violations,
        "dominant": not violations,
    }
