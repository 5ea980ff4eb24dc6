"""Reference allocation policies the matching mechanism is measured against.

Buyers are visited in a seeded random order; each takes one admissible seller
according to the policy. A buyer with no admissible seller dead-ends the
attempt and triggers a full restart with a fresh order.
"""
from __future__ import annotations

import numpy as np

from .model import Assignment, Scenario
from .economics import Market

__all__ = ["BASELINE_KINDS", "run_baseline"]

# ETPM: lowest capability first. LPM: lowest bid first. RMM: uniform random.
BASELINE_KINDS = ("etpm", "lpm", "rmm")
# Fresh random orders tried after the first attempt dead-ends.
MAX_RESTARTS = 20


def run_baseline(s: Scenario, kind: str, seed: int = 0) -> Assignment | None:
    """Run one baseline policy; None when every attempt dead-ends.

    Ties go to the lowest SellerId, and rmm draws uniformly from the
    candidates in SellerId order.
    """
    kind = kind.lower()
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}, expected one of {BASELINE_KINDS}")
    rng = np.random.default_rng(seed)
    if not s.buyers:
        return Assignment(())
    m = Market(s)
    key = m.cap if kind == "etpm" else m.bid

    for _attempt in range(MAX_RESTARTS + 1):
        order = rng.permutation(len(m.buyers)).tolist()
        free = np.ones(len(m.sellers), dtype=bool)
        chosen = [-1] * len(m.buyers)
        for bi in order:
            # C1, C4, and C2 against every already-placed neighbour.
            row = m.feasible[bi] & free
            for j, allowed in m.edges[bi]:
                if chosen[j] >= 0:
                    sp = m.sp_of[chosen[j]]
                    row &= np.array([r[sp] for r in allowed])[m.sp_of]
            candidates = np.flatnonzero(row)
            if not candidates.size:
                break
            if kind == "rmm":
                pick = int(candidates[int(rng.integers(candidates.size))])
            else:
                pick = int(candidates[np.argmin(key[candidates])])
            chosen[bi] = pick
            free[pick] = False
        else:
            return Assignment.from_pairs(
                [(m.buyers[bi], m.sellers[si]) for bi, si in enumerate(chosen)]
            )
    return None
