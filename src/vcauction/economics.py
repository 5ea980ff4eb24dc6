"""Utility-of-service and the C1-C4 feasibility rules.

UoS (utility of service) is a buyer's net benefit from one matched seller:
alpha * (tolerable_time - capability) - bid. A pair is admissible (C1) only
when the seller's provider covers the job, the capability fits the deadline,
and the UoS is strictly positive. Structure preservation (C2) requires the
inter-provider contact to survive each job edge's transmission time with
probability at least epsilon. C3 demands every buyer matched, C4 lets each
seller serve at most one buyer.

The scalar predicates below are the readable specification. `Market`
compiles a scenario once into arrays that give the same answers for every
pair, and the mechanisms read the compiled form; so does the harness's
re-validation of every result, `_complete_value`. `build_broker_list` is the
one ranking of each buyer's C1 sellers, best UoS first and ties by seller,
that the matching, the exact solver and the `verify` report read.

Float totals add in order with `+=`, as `objective` does: from Python 3.12
on, `sum()` of floats compensates its rounding, so its bits can differ.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    TOLERANCE,
    Assignment,
    BuyerId,
    Scenario,
    SellerId,
    contact_probability,
)

__all__ = [
    "gross_utility",
    "uos",
    "pair_feasible",
    "edge_feasible",
    "assignment_feasible",
    "objective",
    "Market",
]


def gross_utility(tolerable_time: float, capability: float) -> float:
    return tolerable_time - capability


def uos(alpha: float, gross: float, bid: float) -> float:
    return alpha * gross - bid


def pair_feasible(s: Scenario, buyer: BuyerId, sid: SellerId) -> bool:
    """C1 for one pair: coverage, deadline, and strictly positive UoS."""
    sel = s.seller(sid)
    if sid.sp_index not in s.coverage[buyer.job_index]:
        return False
    t = s.tolerable_time(buyer)
    if t + TOLERANCE < sel.capability:
        return False
    value = uos(s.alpha(buyer), gross_utility(t, sel.capability), sel.bid)
    return value > TOLERANCE


def edge_feasible(s: Scenario, m1: int, m2: int, weight: float) -> bool:
    """C2 for one job edge whose endpoints run on providers m1 and m2."""
    if m1 == m2:
        return True
    return contact_probability(s.rate(m1, m2), weight) >= s.epsilon - TOLERANCE


def assignment_feasible(s: Scenario, a: Assignment, require_complete: bool = False) -> bool:
    """Check C1, C2 and C4 for a whole assignment; C3 when require_complete."""
    if not a.is_one_to_one():
        return False
    mapping = a.buyer_to_seller()
    for buyer, sid in mapping.items():
        s.job_of(buyer)
        s.seller(sid)
        if not pair_feasible(s, buyer, sid):
            return False
    for b1, b2, weight in s.job_edges():
        s1 = mapping.get(b1)
        s2 = mapping.get(b2)
        if s1 is None or s2 is None:
            continue
        if not edge_feasible(s, s1.sp_index, s2.sp_index, weight):
            return False
    if require_complete and len(mapping) != len(s.buyers):
        return False
    return True


def objective(s: Scenario, a: Assignment) -> float:
    """Total UoS over the matched pairs (the quantity every mechanism maximizes)."""
    total = 0.0
    for buyer, sid in sorted(a.pairs):
        sel = s.seller(sid)
        t = s.tolerable_time(buyer)
        total += uos(s.alpha(buyer), gross_utility(t, sel.capability), sel.bid)
    return total


class Market:
    """A scenario compiled once for the mechanisms; never mutated after build.

    Rows follow `Scenario.buyers`; columns are sellers in `SellerId` order,
    whatever the order of `s.sellers`.

    - `gross[i, k]` is buyer i's `alpha * gross_utility` for seller k, and
      `uos[i, k]` is that minus k's bid: the float operations of `uos`, so
      values are equal to the scalar ones bit for bit.
    - `feasible[i, k]` is C1 (`pair_feasible`).
    - `sp_of[k]` is seller k's provider, and `bid[k]` and `true_value[k]`
      its reported bid and true value.
    - `edges[i]` lists buyer i's job-edge neighbours as `(j, allowed)`, where
      `allowed[m1][m2]` is C2 (`edge_feasible`) for buyer i on provider m1
      and buyer j on m2. The tables are Python lists, which per-node loops
      index faster than numpy arrays; they are shared and never mutated.
    """

    def __init__(self, s: Scenario):
        sellers = sorted(s.sellers, key=lambda sel: (sel.id.sp_index, sel.id.vm_index, sel.id.rank))
        self.buyers = s.buyers
        self.sellers = tuple(sel.id for sel in sellers)
        self.buyer_index = {b: i for i, b in enumerate(self.buyers)}
        self.seller_index = {sid: k for k, sid in enumerate(self.sellers)}
        self.sp_of = np.array([sid.sp_index for sid in self.sellers], dtype=np.intp)
        self.cap = np.array([sel.capability for sel in sellers], dtype=np.float64)
        self.bid = np.array([sel.bid for sel in sellers], dtype=np.float64)
        self.true_value = tuple(sel.true_value for sel in sellers)
        jobs = [s.job_of(b) for b in self.buyers]
        alpha = np.array([job.alpha for job in jobs], dtype=np.float64)
        t = np.array(
            [job.tolerable_times[b.component_index] for job, b in zip(jobs, self.buyers)],
            dtype=np.float64,
        )
        covers = np.array(
            [[sid.sp_index in cov for sid in self.sellers] for cov in s.coverage], dtype=bool
        ).reshape(len(s.coverage), len(self.sellers))
        covered = covers[[b.job_index for b in self.buyers]]
        # C1 without the UoS test, which is all a bid change can move.
        self._admissible = covered & (t[:, None] + TOLERANCE >= self.cap)
        self.gross = alpha[:, None] * (t[:, None] - self.cap)
        self.uos = self.gross - self.bid
        self.feasible = self._admissible & (self.uos > TOLERANCE)

        # C2 for every job edge and provider pair at once. The exponentials go
        # through math.exp, as in contact_probability: an ulp of difference
        # from np.exp could flip a borderline test.
        n_sp = len(s.sps)
        job_edges = [(job.owner_index, e) for job in s.jobs for e in job.edges]
        rates = np.array(s.contact_rate, dtype=np.float64).reshape(n_sp, n_sp)
        weights = np.array([e.weight for _, e in job_edges], dtype=np.float64)
        exponents = (-rates * weights[:, None, None]).ravel().tolist()
        prob = np.array([math.exp(x) for x in exponents], dtype=np.float64)
        tables = prob.reshape(len(job_edges), n_sp, n_sp) >= s.epsilon - TOLERANCE
        tables |= np.eye(n_sp, dtype=bool)
        row = {(b.job_index, b.component_index): i for i, b in enumerate(self.buyers)}
        self.edges: list[list[tuple[int, list[list[bool]]]]] = [[] for _ in self.buyers]
        for (n, e), allowed in zip(job_edges, tables.tolist()):
            i, j = row[n, e.x1], row[n, e.x2]
            self.edges[i].append((j, allowed))
            self.edges[j].append((i, allowed))

    def with_bid(self, sid: SellerId, bid: float) -> "Market":
        """A copy in which one seller reports `bid`; coverage and the C2
        tables are shared."""
        k = self.seller_index[sid]
        m = copy.copy(self)
        m.bid = self.bid.copy()
        m.bid[k] = bid
        m.uos = self.uos.copy()
        m.uos[:, k] = self.gross[:, k] - bid
        m.feasible = self.feasible.copy()
        m.feasible[:, k] = self._admissible[:, k] & (m.uos[:, k] > TOLERANCE)
        return m


@dataclass(frozen=True, eq=False)
class BrokerPrefList:
    """Every real entry in scan order: entry i offers seller column
    `seller[i]` of `market` to buyer row `buyer[i]` at `value[i]`."""

    market: Market
    buyer: np.ndarray
    seller: np.ndarray
    value: np.ndarray


def build_broker_list(market: Market) -> BrokerPrefList:
    """Merge all feasible cells, best value first; ties by buyer then seller
    (rows and columns are in `BuyerId` and `SellerId` order). A buyer's
    entries, in this order, are its own ranking."""
    rows, cols = np.nonzero(market.feasible)
    values = market.uos[rows, cols]
    order = np.lexsort((cols, rows, -values))
    return BrokerPrefList(market, rows[order], cols[order], values[order])


def _complete_value(m: Market, a: Assignment) -> float | None:
    """`objective` of `a` on the scenario `m` compiles when `a` matches
    every buyer and keeps C1, C2 and C4, else None: what
    `assignment_feasible(s, a, require_complete=True)` and `objective` say,
    with None also for an id that is not the scenario's."""
    assigned = [-1] * len(m.buyers)
    for buyer, sid in a.pairs:
        bi, si = m.buyer_index.get(buyer), m.seller_index.get(sid)
        if bi is None or si is None or assigned[bi] >= 0 or not m.feasible[bi, si]:
            return None
        assigned[bi] = si
    if -1 in assigned or len(set(assigned)) < len(assigned):
        return None
    sp_of = m.sp_of.tolist()
    if not all(_edges_ok(m.edges, sp_of, assigned, bi, si) for bi, si in enumerate(assigned)):
        return None
    # Rows are in `BuyerId` order, the order in which `objective` adds.
    return _add_in_order(m.uos[range(len(assigned)), assigned].tolist())


def _add_in_order(values) -> float:
    """The float total of `values`, added left to right."""
    total = 0.0
    for v in values:
        total += v
    return total


def _edges_ok(edges: list, sp_of: list[int], assigned: list[int], bi: int, si: int) -> bool:
    """C2 for placing buyer `bi` on seller `si`, against every neighbour that
    `assigned` (seller per buyer, -1 when open) has placed. `edges` is
    `Market.edges`, and `sp_of` is `Market.sp_of` as a list."""
    sp = sp_of[si]
    for other, allowed in edges[bi]:
        osi = assigned[other]
        if osi >= 0 and not allowed[sp][sp_of[osi]]:
            return False
    return True


def _max_assignment(rows: list[list[tuple[int, float]]], n_cols: int) -> tuple:
    """Largest total weight of a matching that gives every row its own column.

    `rows[r]` lists row r's allowed cells as `(column, weight)`; any other
    cell is forbidden. Returns the value (-inf if no matching covers every
    row), each row's column, and column duals v >= 0, zero off the matching,
    with u_r + v_j >= w_rj on every allowed cell for u_r = w_r,col[r] - v_col[r].

    Shortest augmenting paths (Kuhn 1955; Jonker & Volgenant 1987):
    `_drop_columns` from the empty matching, which inserts every row.
    """
    return _drop_columns(rows, [-1] * len(rows), [0.0] * n_cols, ())


def _drop_columns(rows: list[list[tuple[int, float]]], cols: list[int], v: list[float], ks):
    """`_max_assignment(rows, len(v))` warm-started from a matching `cols`
    (each row's column, -1 for none) and column duals `v` that certify it,
    with the columns `ks` taken out: their duals go to 0, and each row
    that holds no column is inserted by one augmenting path `_insert_row`,
    in row order (Leonard 1983; Demange, Gale & Sotomayor 1986). The
    potential of a row that holds a column is read back from v as the
    row's best w - v. The inputs are not changed.
    """
    cols, v = list(cols), list(v)
    row_of = [-1] * len(v)
    for r, j in enumerate(cols):
        if j >= 0:
            row_of[j] = r
    for k in ks:
        v[k] = 0.0
        r = row_of[k]
        if r >= 0:
            row_of[k] = cols[r] = -1
    if -1 in cols:
        row_pot = [max(w - v[j] for j, w in cells) if j >= 0 else 0.0 for cells, j in zip(rows, cols)]
        # An insertion matches its row and leaves every matched row matched.
        for r in range(len(rows)):
            if cols[r] < 0 and not _insert_row(rows, r, row_pot, v, row_of, cols):
                return -math.inf, cols, v
    return _matched_value(rows, cols), cols, v


def _matched_value(rows: list[list[tuple[int, float]]], col_of: list[int]) -> float:
    return _add_in_order(w for r, cells in enumerate(rows) for j, w in cells if j == col_of[r])


def _insert_row(rows: list, start: int, row_pot: list, v: list, row_of: list, col_of: list) -> bool:
    """Match the open row `start` by one shortest augmenting path: a
    Dijkstra search over reduced costs u_r + v_j - w_rj, which the row
    potentials u (`row_pot`) and column duals v keep non-negative. Returns
    False, the matching unchanged, when no path reaches a free column."""
    cells = rows[start]
    if not cells:
        return False
    row_pot[start] = max(w - v[j] for j, w in cells)
    dist = [math.inf] * len(v)
    pred = [-1] * len(v)
    done = [False] * len(v)
    scanned: list[int] = []
    # Columns reached and not yet scanned: the others are at distance inf.
    reached: list[int] = []
    r, d_r = start, 0.0
    while True:
        base = d_r + row_pot[r]
        for j, w in cells:
            nd = base - w + v[j]
            # A scanned column is final; rounding must not re-route it.
            if nd < dist[j] and not done[j]:
                if pred[j] < 0:
                    reached.append(j)
                dist[j], pred[j] = nd, r
        # The nearest reached column, the lowest index on ties.
        j, d_j = -1, math.inf
        for k in reached:
            if dist[k] < d_j or (dist[k] == d_j and k < j):
                j, d_j = k, dist[k]
        if j < 0:
            return False
        if row_of[j] < 0:
            free = j
            break
        done[j] = True
        reached.remove(j)
        scanned.append(j)
        r, d_r = row_of[j], d_j
        cells = rows[r]
    # Shift potentials so the path found is tight, then flip it. A
    # scanned column is no farther than the free one, but rounding can
    # say otherwise: a shift below 0 is skipped so that v >= 0 exactly.
    d_free = dist[free]
    row_pot[start] -= d_free
    for j in scanned:
        shift = d_free - dist[j]
        if shift > 0.0:
            v[j] += shift
            row_pot[row_of[j]] -= shift
    j = free
    while j >= 0:
        r = pred[j]
        row_of[j], col_of[r], j = r, j, col_of[r]
    return True
