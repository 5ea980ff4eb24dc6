"""Output checks for the benchmark, computed apart from the program.

Nothing here calls into `vcauction.economics`, `vcauction.matching` or
`vcauction.optimal`: every rule is recomputed from the scenario's raw fields
(jobs, sellers, coverage, contact rates, epsilon). Buyers are `(job,
component)` tuples and sellers `(provider, vm, rank)` tuples, so a check can
be fed hand-made data as easily as a mechanism's output.

Each `check_*` function returns a list of human-readable problems; an empty
list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# Absolute tolerance for value comparisons; the program uses the same figure.
TOL = 1e-9
# The virtual critical entry sits this far below a buyer's last real entry
# (the paper's delta, the matching mechanism's default).
DELTA = 1e-3


def buyer_key(b) -> tuple[int, int]:
    return (b.job_index, b.component_index)


def seller_key(sid) -> tuple[int, int, int]:
    return (sid.sp_index, sid.vm_index, sid.rank)


def pairs_of(assignment) -> list[tuple[tuple[int, int], tuple[int, int, int]]]:
    return [(buyer_key(b), seller_key(s)) for b, s in assignment.pairs]


def payments_of(payments) -> dict[tuple[int, int, int], float]:
    return {seller_key(s): float(p) for s, p in payments.items()}


class Market:
    """Raw scenario fields, indexed for the checks."""

    def __init__(self, s):
        self.jobs = s.jobs
        self.coverage = s.coverage
        self.rate = s.contact_rate
        self.epsilon = s.epsilon
        self.sellers = {seller_key(x.id): x for x in s.sellers}
        self.buyers = [(n, x) for n, job in enumerate(s.jobs) for x in range(len(job.tolerable_times))]

    def value(self, b, sk) -> float | None:
        """UoS of pair (b, sk) when C1 admits it, else None."""
        n, x = b
        sel = self.sellers.get(sk)
        if sel is None or sk[0] not in self.coverage[n]:
            return None
        t = self.jobs[n].tolerable_times[x]
        if sel.capability > t + TOL:
            return None
        v = self.jobs[n].alpha * (t - sel.capability) - sel.bid
        return v if v > TOL else None

    def total(self, pairs) -> float:
        return math.fsum(self.value(b, sk) or 0.0 for b, sk in pairs)

    def preference_list(self, b) -> list[tuple[float, tuple[int, int, int] | None]]:
        """Buyer b's ranked (value, seller) entries, virtual entry last."""
        real = [(v, sk) for sk in self.sellers if (v := self.value(b, sk)) is not None]
        real.sort(key=lambda e: (-e[0], e[1]))
        floor = real[-1][0] if real else 0.0
        return real + [(floor - DELTA, None)]


def check_allocation(m: Market, pairs) -> list[str]:
    """C1-C4 for a complete allocation."""
    bad = []
    buyers = [b for b, _ in pairs]
    sellers = [sk for _, sk in pairs]
    if len(set(sellers)) != len(sellers):
        bad.append("C4: a seller serves more than one buyer")
    if len(set(buyers)) != len(buyers):
        bad.append("a buyer is matched twice")
    if sorted(set(buyers)) != sorted(m.buyers):
        bad.append(f"C3: {len(set(buyers))} of {len(m.buyers)} buyers matched")
    for b, sk in pairs:
        if m.value(b, sk) is None:
            bad.append(f"C1: pair {b}->{sk} is not admissible")
    where = dict(pairs)
    for n, job in enumerate(m.jobs):
        for e in job.edges:
            s1, s2 = where.get((n, e.x1)), where.get((n, e.x2))
            if s1 is None or s2 is None or s1[0] == s2[0]:
                continue
            if math.exp(-m.rate[s1[0]][s2[0]] * e.weight) < m.epsilon - TOL:
                bad.append(f"C2: job {n} edge ({e.x1},{e.x2}) across {s1[0]}/{s2[0]}")
    return bad


def check_objective(m: Market, pairs, reported: float) -> list[str]:
    want = m.total(pairs)
    if abs(want - reported) > 1e-6:
        return [f"objective {reported!r} differs from recomputed {want!r}"]
    return []


def check_rational(m: Market, pairs, payments) -> list[str]:
    """Winners are exactly the matched sellers, and each is paid its bid."""
    bad = []
    if set(payments) != {sk for _, sk in pairs}:
        bad.append("paid sellers differ from matched sellers")
    for sk, pay in payments.items():
        sel = m.sellers.get(sk)
        if sel is None or pay < sel.bid - TOL:
            bad.append(f"IR: seller {sk} paid {pay!r} below its bid")
    return bad


def check_next_entry(m: Market, pairs, payments) -> list[str]:
    """Each matching payment equals own value minus the next entry's value."""
    bad = []
    for b, sk in pairs:
        lst = m.preference_list(b)
        pos = next((i for i, (_, s) in enumerate(lst) if s == sk), None)
        if pos is None:
            bad.append(f"seller {sk} missing from buyer {b}'s list")
            continue
        sel = m.sellers[sk]
        n, x = b
        own = m.jobs[n].alpha * (m.jobs[n].tolerable_times[x] - sel.capability)
        want = own - lst[pos + 1][0]
        if abs(payments.get(sk, math.nan) - want) > TOL:
            bad.append(f"seller {sk} paid {payments.get(sk)!r}, next-entry rule gives {want!r}")
    return bad


def relaxation_bound(m: Market, excluded: tuple[int, int, int] | None = None) -> float | None:
    """Best total UoS over C1-admissible one-to-one matchings, ignoring C2.

    None when no such matching covers every buyer.
    """
    if not m.buyers:
        return 0.0
    cols = [sk for sk in m.sellers if sk != excluded]
    if len(cols) < len(m.buyers):
        return None
    w = np.full((len(m.buyers), len(cols)), -np.inf)
    for i, b in enumerate(m.buyers):
        for j, sk in enumerate(cols):
            v = m.value(b, sk)
            if v is not None:
                w[i, j] = v
    cost = np.where(np.isfinite(w), -w, 1e9)
    rows, picked = linear_sum_assignment(cost)
    if not np.all(np.isfinite(w[rows, picked])):
        return None
    return float(w[rows, picked].sum())


def check_optimal(m: Market, pairs, objective: float, payments, lower: float) -> list[str]:
    """Bracket an exact optimum and sanity-check its pivot terms.

    `lower` is the best objective another mechanism reached on the scenario.
    For each winner the pivot term F* - F_without equals payment - bid; it must
    be non-negative, and F_without cannot beat the relaxation without that
    seller.
    """
    bad = []
    upper = relaxation_bound(m)
    if objective < lower - 1e-6:
        bad.append(f"opt objective {objective!r} below another mechanism's {lower!r}")
    if upper is None or objective > upper + 1e-6:
        bad.append(f"opt objective {objective!r} above the relaxation bound {upper!r}")
    for sk, pay in payments.items():
        term = pay - m.sellers[sk].bid
        if term < -TOL:
            bad.append(f"pivot term for {sk} is negative: {term!r}")
        f_without = objective - term
        bound = relaxation_bound(m, excluded=sk)
        if f_without > (bound if bound is not None else 0.0) + 1e-6:
            bad.append(f"F_without {f_without!r} for {sk} above its relaxation bound {bound!r}")
    return bad


def check_sweep(m: Market, payments, rows) -> list[str]:
    """Bid-sweep rows against the solve they sweep around.

    The row at the true bid reproduces the solve's payment; a losing row has
    utility 0; a winning row is paid at least its bid.
    """
    bad = []
    labels = {f"{sk[0]}:{sk[1]}:{sk[2]}": sk for sk in payments}
    seen = set()
    for r in rows:
        sk = labels.get(r["seller"])
        if sk is None:
            bad.append(f"sweep row for non-winner {r['seller']}")
            continue
        if r["won"]:
            if r["payment"] < r["bid"] - TOL:
                bad.append(f"sweep {sk} bid {r['bid']!r}: paid {r['payment']!r} below bid")
        elif r["utility"] != 0:
            bad.append(f"sweep {sk} bid {r['bid']!r}: losing row has utility {r['utility']!r}")
        if r["bid"] == m.sellers[sk].true_value:
            seen.add(sk)
            if not r["won"] or abs(r["payment"] - payments[sk]) > TOL:
                bad.append(f"sweep {sk}: truthful row does not reproduce payment {payments[sk]!r}")
    for sk in set(payments) - seen:
        bad.append(f"sweep {sk}: no row at the true bid")
    return bad
