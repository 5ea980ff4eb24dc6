"""Shared scenario builders, an independent brute-force oracle, and the
unpruned matching scan and the baseline policies as references.

make_tiny keeps instances small enough (at most 4 buyers, 8 sellers) for
exhaustive cross-checking; roughly half the draws use a tight contact
threshold so the structure constraint actually bites.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from vcauction import (
    Assignment,
    BrokerPrefList,
    GraphJob,
    JobEdge,
    Scenario,
    ServiceProvider,
    ValuationConfig,
    VirtualMachine,
    expand_vms,
    max_rank_for,
    validate_scenario,
)
from vcauction.baselines import MAX_RESTARTS
from vcauction.economics import _edges_ok, edge_feasible, pair_feasible

_SHAPES = {
    1: ((),),
    2: (((0, 1),),),
    3: (((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2))),
    4: (((0, 1), (0, 2), (0, 3)), ((0, 1), (1, 2), (2, 3))),
}


def make_tiny(seed: int) -> Scenario:
    """Random scenario with <= 4 buyers and <= 8 sellers."""
    rng = np.random.default_rng(seed)
    n_total = int(rng.choice([2, 3, 4], p=[0.25, 0.35, 0.4]))
    if n_total == 4 and rng.random() < 0.35:
        sizes = [2, 2] if rng.random() < 0.5 else [1, 3]
    elif n_total == 3 and rng.random() < 0.3:
        sizes = [1, 2]
    else:
        sizes = [n_total]

    jobs = []
    for jn, size in enumerate(sizes):
        shapes = _SHAPES[size]
        edge_list = shapes[int(rng.integers(len(shapes)))]
        alpha = float(rng.uniform(2.5, 4.5))
        times = tuple(float(rng.uniform(0.6, 0.7)) for _ in range(size))
        edges = []
        for a, b in edge_list:
            w = float(rng.uniform(0.05, 0.7))
            edges.append(JobEdge(a, b, min(w, times[a], times[b])))
        jobs.append(GraphJob(jn, alpha, times, tuple(edges)))
    jobs = tuple(jobs)
    max_demand = max(t for job in jobs for t in job.tolerable_times)

    tight = rng.random() < 0.5
    if tight:
        epsilon = float(rng.uniform(0.96, 0.995))
        lam = lambda: float(rng.uniform(0.5, 2.0))
    else:
        epsilon = float(rng.uniform(0.9, 0.95))
        lam = lambda: float(rng.uniform(0.05, 0.06))

    n_sp = int(rng.integers(1, 4))
    vm_counts = {1: int(rng.integers(1, 4)), 2: int(rng.integers(1, 3)), 3: 1}[n_sp]
    sps = []
    for m in range(n_sp):
        vms = tuple(
            VirtualMachine(base, max_rank_for(base, max_demand))
            for base in (float(rng.uniform(0.3, 0.5)) for _ in range(vm_counts))
        )
        sps.append(ServiceProvider(m, vms))
    sps = tuple(sps)

    rates = [[0.0] * n_sp for _ in range(n_sp)]
    for i in range(n_sp):
        for j in range(i + 1, n_sp):
            rates[i][j] = rates[j][i] = lam()

    coverage = []
    for _ in jobs:
        cov = frozenset(m for m in range(n_sp) if rng.random() < 0.8)
        if not cov:
            cov = frozenset({int(rng.integers(n_sp))})
        coverage.append(cov)

    valuation = ValuationConfig(
        beta1=float(rng.uniform(0.7, 0.9)), beta2=float(rng.uniform(0.9, 1.0))
    )
    s = Scenario(
        jobs=jobs,
        sps=sps,
        contact_rate=tuple(tuple(row) for row in rates),
        coverage=tuple(coverage),
        epsilon=epsilon,
        valuation=valuation,
        seed=seed,
        sellers=expand_vms(sps, max_demand, valuation),
    )
    problems = validate_scenario(s)
    assert not problems, problems
    assert len(s.buyers) <= 4 and len(s.sellers) <= 8
    return s


def broker_entries(broker) -> list[tuple]:
    """A broker list as `(BuyerId, SellerId, value)` triples in scan order."""
    m = broker.market
    return [
        (m.buyers[i], m.sellers[k], v)
        for i, k, v in zip(broker.buyer.tolist(), broker.seller.tolist(), broker.value.tolist())
    ]


# The matching scan as it was before the Hall prune, kept verbatim as the
# oracle: the pruned scan must return the same assignment on every input.
def reference_match(s: Scenario, broker: BrokerPrefList) -> tuple[Assignment | None, tuple[tuple, ...]]:
    """Scan the broker list built from `s` until every buyer is matched or
    anchors run out.

    Returns the assignment (None on failure) and a trace of scan events:
    ("accept"|"skip"|"reject"|"delete"|"restart", index) plus a final
    ("complete",) or ("fail",). Accepted pairs always sit at increasing list
    positions, so the most recently accepted pair is the deepest one. A
    buyer with no entry at all fails the scan at once, with trace
    (("fail",),). Every entry is C1-feasible, so the scan checks C2 and C4.
    """
    total_buyers = len(s.buyers)
    if total_buyers == 0:
        return Assignment(()), (("complete",),)
    eb, es = broker.buyer.tolist(), broker.seller.tolist()
    if len(set(eb)) < total_buyers:
        return None, (("fail",),)

    m = broker.market
    sp_of, edges = m.sp_of.tolist(), m.edges
    seller_of = [-1] * total_buyers
    taken = [False] * len(m.sellers)

    def put(i: int) -> None:
        seller_of[eb[i]] = es[i]
        taken[es[i]] = True

    def drop(i: int) -> None:
        seller_of[eb[i]] = -1
        taken[es[i]] = False

    L = len(eb)
    stack: list[int] = [0]
    put(0)
    trace: list[tuple] = [("accept", 0)]
    pos = 1

    while True:
        idx = pos
        while idx < L and len(stack) < total_buyers:
            bi, si = eb[idx], es[idx]
            if seller_of[bi] >= 0 or taken[si]:
                trace.append(("skip", idx))
            elif not _edges_ok(edges, sp_of, seller_of, bi, si):
                trace.append(("reject", idx))
            else:
                stack.append(idx)
                put(idx)
                trace.append(("accept", idx))
            idx += 1
        if len(stack) == total_buyers:
            trace.append(("complete",))
            pairs = [(m.buyers[bi], m.sellers[si]) for bi, si in enumerate(seller_of)]
            return Assignment.from_pairs(pairs), tuple(trace)
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


def backtrack_scenario() -> Scenario:
    """Two buyers whose top seller sits on a provider the job edge cannot span.

    The first broker entry must be dropped twice before both buyers land on
    the second provider, which is the only structure-preserving completion.
    """
    job = GraphJob(0, 7.0, (0.38, 0.38), (JobEdge(0, 1, 0.3),))
    valuation = ValuationConfig(beta1=0.9, beta2=1.0)
    sps = (
        ServiceProvider(0, (VirtualMachine(0.2, 1),)),
        ServiceProvider(1, (VirtualMachine(0.25, 1), VirtualMachine(0.26, 1))),
    )
    s = Scenario(
        jobs=(job,),
        sps=sps,
        contact_rate=((0.0, 2.0), (2.0, 0.0)),
        coverage=(frozenset({0, 1}),),
        epsilon=0.95,
        valuation=valuation,
        seed=0,
        sellers=expand_vms(sps, 0.38, valuation),
    )
    assert not validate_scenario(s)
    return s


def three_provider_scenario() -> Scenario:
    """One triangle job over three providers with an 11-seller expansion.

    Provider 0 carries VMs of 1.5 s and 0.8 s base time, provider 1 one of
    1.2 s, provider 2 one of 0.75 s; the largest tolerable time of 3 s caps
    the ranks at 2, 3, 2 and 4 respectively.
    """
    job = GraphJob(
        0,
        1.0,
        (3.0, 2.5, 2.8),
        (JobEdge(0, 1, 0.2), JobEdge(1, 2, 0.2), JobEdge(0, 2, 0.2)),
    )
    valuation = ValuationConfig(beta1=0.25, beta2=0.95)
    sps = (
        ServiceProvider(0, (VirtualMachine(1.5, 2), VirtualMachine(0.8, 3))),
        ServiceProvider(1, (VirtualMachine(1.2, 2),)),
        ServiceProvider(2, (VirtualMachine(0.75, 4),)),
    )
    s = Scenario(
        jobs=(job,),
        sps=sps,
        contact_rate=(
            (0.0, 0.05, 0.05),
            (0.05, 0.0, 0.05),
            (0.05, 0.05, 0.0),
        ),
        coverage=(frozenset({0, 1, 2}),),
        epsilon=0.9,
        valuation=valuation,
        seed=0,
        sellers=expand_vms(sps, 3.0, valuation),
    )
    assert not validate_scenario(s)
    return s


def independent_best_value(s: Scenario) -> float | None:
    """Brute-force optimum over complete assignments, from raw fields only.

    Reimplements the feasibility rules with explicit arithmetic rather than
    calling the library, so solver bugs cannot hide in shared code. Returns
    None when no complete feasible assignment exists.
    """
    buyers = list(s.buyers)
    sellers = list(s.sellers)
    edges = list(s.job_edges())
    best = None
    for combo in itertools.permutations(range(len(sellers)), len(buyers)):
        value = 0.0
        placed = {}
        ok = True
        for buyer, si in zip(buyers, combo):
            sel = sellers[si]
            job = s.jobs[buyer.job_index]
            t = job.tolerable_times[buyer.component_index]
            if sel.id.sp_index not in s.coverage[buyer.job_index]:
                ok = False
                break
            if sel.capability > t + 1e-9:
                ok = False
                break
            u = job.alpha * (t - sel.capability) - sel.bid
            if u <= 1e-9:
                ok = False
                break
            placed[buyer] = sel.id.sp_index
            value += u
        if not ok:
            continue
        for b1, b2, w in edges:
            m1, m2 = placed[b1], placed[b2]
            if m1 != m2 and math.exp(-s.contact_rate[m1][m2] * w) < s.epsilon - 1e-9:
                ok = False
                break
        if ok and (best is None or value > best):
            best = value
    return best


def reference_baseline(s: Scenario, kind: str, seed: int = 0) -> Assignment | None:
    """The baseline policies from the scalar rules, seller by seller.

    A visit keeps the free sellers that pass C1 and C2 against the buyer's
    placed neighbours. ETPM and LPM rank them by (capability or bid,
    SellerId) and take the first; RMM draws one from them in SellerId
    order. Buyer orders and draws come from the same `rng` calls as
    `run_baseline` makes, so the two agree pick for pick.
    """
    rng = np.random.default_rng(seed)
    buyers = list(s.buyers)
    if not buyers:
        return Assignment(())
    edges = list(s.job_edges())
    rank = {
        "etpm": lambda sel: (sel.capability, sel.id),
        "lpm": lambda sel: (sel.bid, sel.id),
        "rmm": lambda sel: sel.id,
    }[kind]

    def fits(b, sel, placed) -> bool:
        if sel.id in placed.values() or not pair_feasible(s, b, sel.id):
            return False
        for b1, b2, w in edges:
            other = b2 if b1 == b else b1 if b2 == b else None
            if other in placed and not edge_feasible(s, sel.id.sp_index, placed[other].sp_index, w):
                return False
        return True

    for _attempt in range(MAX_RESTARTS + 1):
        placed: dict = {}
        for bi in rng.permutation(len(buyers)).tolist():
            b = buyers[bi]
            candidates = sorted((sel for sel in s.sellers if fits(b, sel, placed)), key=rank)
            if not candidates:
                break
            pick = candidates[int(rng.integers(len(candidates)))] if kind == "rmm" else candidates[0]
            placed[b] = pick.id
        else:
            return Assignment.from_pairs(placed.items())
    return None
