"""Reference allocation policies the matching mechanism is measured against.

Buyers are visited in a seeded random order; each takes one admissible seller
according to the policy. A buyer with no admissible seller dead-ends the
attempt and triggers a full restart with a fresh order. Each buyer's C1
sellers are ranked once per run; a visit keeps those that are free (C4) and
that `economics._edges_ok` clears against the placed neighbours (C2).
"""
from __future__ import annotations

import numpy as np

from .model import Assignment, Scenario
from .economics import Market, _edges_ok

__all__ = ["BASELINE_KINDS", "run_baseline"]

# ETPM: lowest capability first. LPM: lowest bid first. RMM: uniform random.
BASELINE_KINDS = ("etpm", "lpm", "rmm")
# Fresh random orders tried after the first attempt dead-ends.
MAX_RESTARTS = 20


def run_baseline(
    s: Scenario, kind: str, seed: int = 0, *, market: Market | None = None
) -> Assignment | None:
    """Run one baseline policy; None when every attempt dead-ends.

    Ties go to the lowest SellerId, and rmm draws uniformly from the
    candidates in SellerId order. `market` is `s` compiled, when the caller
    already has it.
    """
    kind = kind.lower()
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}, expected one of {BASELINE_KINDS}")
    rng = np.random.default_rng(seed)
    if not s.buyers:
        return Assignment(())
    m = market if market is not None else Market(s)
    sellers = np.arange(len(m.sellers))
    if kind != "rmm":
        # A stable sort keeps tied sellers in `SellerId` order.
        sellers = np.argsort(m.cap if kind == "etpm" else m.bid, kind="stable")
    ranked = [sellers[row].tolist() for row in m.feasible[:, sellers]]
    sp_of = m.sp_of.tolist()

    for _attempt in range(MAX_RESTARTS + 1):
        order = rng.permutation(len(m.buyers)).tolist()
        free = [True] * len(m.sellers)
        chosen = [-1] * len(m.buyers)
        for bi in order:
            # C1, C4, and C2 against every already-placed neighbour, which
            # depends on the seller's provider alone.
            ok: dict[int, bool] = {}
            candidates = []
            for si in ranked[bi]:
                if free[si]:
                    sp = sp_of[si]
                    if sp not in ok:
                        ok[sp] = _edges_ok(m.edges, sp_of, chosen, bi, si)
                    if ok[sp]:
                        candidates.append(si)
                        if kind != "rmm":
                            break
            if not candidates:
                break
            pick = candidates[int(rng.integers(len(candidates)))] if kind == "rmm" else candidates[0]
            chosen[bi] = pick
            free[pick] = False
        else:
            return Assignment.from_pairs(
                [(m.buyers[bi], m.sellers[si]) for bi, si in enumerate(chosen)]
            )
    return None
