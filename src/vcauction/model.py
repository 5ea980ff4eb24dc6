"""Domain model: jobs, service providers, VM expansion, scenarios.

A scenario bundles everything a mechanism needs: graph jobs whose components
are the buyers, service providers whose parked VMs are expanded into virtual
sellers (one per reutilization rank), a symmetric inter-provider contact rate
matrix, per-job coverage sets, and the linear valuation that prices sellers.
All types are immutable values; mechanisms never mutate a scenario.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

# Global absolute tolerance for feasibility and tie comparisons.
TOLERANCE = 1e-9

__all__ = [
    "TOLERANCE",
    "BuyerId",
    "SellerId",
    "JobEdge",
    "GraphJob",
    "VirtualMachine",
    "ServiceProvider",
    "ValuationConfig",
    "Seller",
    "Assignment",
    "Scenario",
    "max_rank_for",
    "expand_vms",
    "contact_probability",
    "validate_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_dumps",
    "scenario_loads",
]


@dataclass(frozen=True, order=True)
class BuyerId:
    """Identifies one job component: job n, component x."""

    job_index: int
    component_index: int

    def label(self) -> str:
        return f"b{self.job_index}.{self.component_index}"


@dataclass(frozen=True, order=True)
class SellerId:
    """Identifies one virtual seller: provider m, VM y, reutilization rank r."""

    sp_index: int
    vm_index: int
    rank: int

    def label(self) -> str:
        return f"s{self.sp_index}.{self.vm_index}.{self.rank}"


@dataclass(frozen=True)
class JobEdge:
    """Undirected data dependency between components x1 and x2 of one job.

    The weight is the transmission time the inter-provider contact must
    survive when the two endpoints land on different providers.
    """

    x1: int
    x2: int
    weight: float


@dataclass(frozen=True)
class GraphJob:
    owner_index: int
    alpha: float
    tolerable_times: tuple[float, ...]
    edges: tuple[JobEdge, ...]

    def buyer_ids(self) -> tuple[BuyerId, ...]:
        return tuple(
            BuyerId(self.owner_index, x) for x in range(len(self.tolerable_times))
        )


@dataclass(frozen=True)
class VirtualMachine:
    """A parked vehicle's VM: rank r sells capability r * base_time."""

    base_time: float
    max_rank: int


@dataclass(frozen=True)
class ServiceProvider:
    index: int
    vms: tuple[VirtualMachine, ...]


@dataclass(frozen=True)
class ValuationConfig:
    """Linear true valuation beta2 - beta1 * capability.

    Decreasing in capability, so faster (lower execution time) sellers carry
    higher true valuations.
    """

    beta1: float
    beta2: float

    def price_for(self, capability: float) -> float:
        return self.beta2 - self.beta1 * capability


@dataclass(frozen=True)
class Seller:
    id: SellerId
    capability: float
    bid: float
    true_value: float


@dataclass(frozen=True)
class Assignment:
    """Buyer -> seller pairs, canonically sorted.

    May hold structurally invalid data (duplicate buyers or sellers) so that
    validators can report on it; use is_one_to_one() or the feasibility
    checker before trusting it.
    """

    pairs: tuple[tuple[BuyerId, SellerId], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "Assignment":
        canon = tuple(sorted((BuyerId(b.job_index, b.component_index), s) for b, s in pairs))
        return cls(canon)

    def __len__(self) -> int:
        return len(self.pairs)

    def buyer_to_seller(self) -> dict[BuyerId, SellerId]:
        return {b: s for b, s in self.pairs}

    def buyer_of(self, sid: SellerId) -> BuyerId | None:
        """The buyer matched to `sid`, from a map built on the first call."""
        return self._by_seller.get(sid)

    @cached_property
    def _by_seller(self) -> dict[SellerId, BuyerId]:
        return {s: b for b, s in self.pairs}

    def is_one_to_one(self) -> bool:
        buyers = [b for b, _ in self.pairs]
        sellers = [s for _, s in self.pairs]
        return len(set(buyers)) == len(buyers) and len(set(sellers)) == len(sellers)


@dataclass(frozen=True)
class Scenario:
    jobs: tuple[GraphJob, ...]
    sps: tuple[ServiceProvider, ...]
    contact_rate: tuple[tuple[float, ...], ...]
    coverage: tuple[frozenset[int], ...]
    epsilon: float
    valuation: ValuationConfig
    seed: int
    sellers: tuple[Seller, ...]

    @cached_property
    def buyers(self) -> tuple[BuyerId, ...]:
        out: list[BuyerId] = []
        for job in self.jobs:
            out.extend(job.buyer_ids())
        return tuple(sorted(out))

    @cached_property
    def max_demand(self) -> float:
        times = [t for job in self.jobs for t in job.tolerable_times]
        return max(times, default=0.0)

    @cached_property
    def _seller_index(self) -> dict[SellerId, Seller]:
        return {sel.id: sel for sel in self.sellers}

    def seller(self, sid: SellerId) -> Seller:
        try:
            return self._seller_index[sid]
        except KeyError:
            raise ValueError(f"unknown seller {sid.label()}") from None

    def job_of(self, buyer: BuyerId) -> GraphJob:
        try:
            job = self.jobs[buyer.job_index]
        except IndexError:
            raise ValueError(f"unknown buyer {buyer.label()}") from None
        if buyer.component_index >= len(job.tolerable_times):
            raise ValueError(f"unknown buyer {buyer.label()}")
        return job

    def alpha(self, buyer: BuyerId) -> float:
        return self.job_of(buyer).alpha

    def tolerable_time(self, buyer: BuyerId) -> float:
        return self.job_of(buyer).tolerable_times[buyer.component_index]

    def rate(self, m1: int, m2: int) -> float:
        return self.contact_rate[m1][m2]

    def job_edges(self) -> Iterator[tuple[BuyerId, BuyerId, float]]:
        """All job edges as (buyer, buyer, weight) triples."""
        for job in self.jobs:
            for e in job.edges:
                yield (
                    BuyerId(job.owner_index, e.x1),
                    BuyerId(job.owner_index, e.x2),
                    e.weight,
                )

    def with_seller_bid(self, sid: SellerId, bid: float) -> "Scenario":
        """New scenario where one seller reports `bid`; true value unchanged."""
        found = False
        sellers = []
        for sel in self.sellers:
            if sel.id == sid:
                sellers.append(replace(sel, bid=bid))
                found = True
            else:
                sellers.append(sel)
        if not found:
            raise ValueError(f"unknown seller {sid.label()}")
        return replace(self, sellers=tuple(sellers))


def max_rank_for(base_time: float, max_demand: float) -> int:
    """Largest reutilization rank whose capability still fits max_demand.

    The tolerance guards float quotients such as 0.6 / 0.2 that land a hair
    under the true integer.
    """
    if base_time <= 0:
        raise ValueError("base_time must be positive")
    if max_demand < 0:
        raise ValueError("max_demand must be non-negative")
    return max(0, math.floor(max_demand / base_time + TOLERANCE))


def expand_vms(
    sps: tuple[ServiceProvider, ...],
    max_demand: float,
    valuation: ValuationConfig,
) -> tuple[Seller, ...]:
    """Expand every VM into one virtual seller per rank 1..max_rank.

    Rank r offers capability r * base_time and is priced by the valuation
    (bid starts truthful). A VM whose base_time exceeds max_demand yields no
    sellers; an empty result is legal.
    """
    out: list[Seller] = []
    for sp in sps:
        for vy, vm in enumerate(sp.vms):
            top = max_rank_for(vm.base_time, max_demand)
            for r in range(1, top + 1):
                cap = r * vm.base_time
                q = valuation.price_for(cap)
                out.append(Seller(SellerId(sp.index, vy, r), cap, q, q))
    return tuple(out)


def contact_probability(rate: float, duration: float) -> float:
    """Probability that an inter-provider contact outlives `duration`."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    return math.exp(-rate * duration)


def validate_scenario(s: Scenario) -> list[str]:
    """Structural validation; returns a list of human-readable violations.

    A NaN or an infinity anywhere is the only violation reported, since no
    other check means anything with it.
    """
    numbers = [s.epsilon, s.valuation.beta1, s.valuation.beta2]
    numbers += [x for row in s.contact_rate for x in row]
    numbers += [vm.base_time for sp in s.sps for vm in sp.vms]
    numbers += [x for sel in s.sellers for x in (sel.capability, sel.bid, sel.true_value)]
    for job in s.jobs:
        numbers += [job.alpha, *job.tolerable_times, *(e.weight for e in job.edges)]
    if not all(map(math.isfinite, numbers)):
        return ["a number is NaN or infinite"]
    bad: list[str] = []
    max_demand = s.max_demand

    for jn, job in enumerate(s.jobs):
        if job.owner_index != jn:
            bad.append(f"job {jn}: owner_index {job.owner_index} does not match position")
        if job.alpha <= 0:
            bad.append(f"job {jn}: alpha {job.alpha} is not positive")
        if not job.tolerable_times:
            bad.append(f"job {jn}: has no components")
        for x, t in enumerate(job.tolerable_times):
            if t <= 0:
                bad.append(f"job {jn} component {x}: tolerable time {t} is not positive")
        seen_edges: set[tuple[int, int]] = set()
        n_comp = len(job.tolerable_times)
        for e in job.edges:
            name = f"job {jn} edge ({e.x1},{e.x2})"
            if not (0 <= e.x1 < n_comp and 0 <= e.x2 < n_comp):
                bad.append(f"{name}: endpoint out of range")
                continue
            if e.x1 == e.x2:
                bad.append(f"{name}: self loop")
                continue
            key = (min(e.x1, e.x2), max(e.x1, e.x2))
            if key in seen_edges:
                bad.append(f"{name}: duplicate edge")
            seen_edges.add(key)
            if e.weight < 0:
                bad.append(f"{name}: negative weight {e.weight}")
            lim = min(job.tolerable_times[e.x1], job.tolerable_times[e.x2])
            if e.weight > lim + TOLERANCE:
                bad.append(f"{name}: weight {e.weight} exceeds min tolerable time {lim}")

    for mi, sp in enumerate(s.sps):
        if sp.index != mi:
            bad.append(f"sp {mi}: index {sp.index} does not match position")
        if not sp.vms:
            bad.append(f"sp {mi}: has no VMs")
        for vy, vm in enumerate(sp.vms):
            name = f"sp {mi} vm {vy}"
            if vm.base_time <= 0:
                bad.append(f"{name}: base_time {vm.base_time} is not positive")
                continue
            if vm.base_time <= max_demand + TOLERANCE:
                if vm.max_rank < 1:
                    bad.append(f"{name}: max_rank {vm.max_rank} below 1 for a usable VM")
                elif vm.max_rank * vm.base_time > max_demand + TOLERANCE:
                    bad.append(
                        f"{name}: max_rank {vm.max_rank} capability exceeds max demand {max_demand}"
                    )
            elif vm.max_rank != 0:
                bad.append(f"{name}: base_time above max demand must have max_rank 0")

    n_sp = len(s.sps)
    if len(s.contact_rate) != n_sp or any(len(row) != n_sp for row in s.contact_rate):
        bad.append(f"contact_rate: matrix is not {n_sp}x{n_sp}")
    else:
        for i in range(n_sp):
            if abs(s.contact_rate[i][i]) > TOLERANCE:
                bad.append(f"contact_rate: diagonal entry ({i},{i}) is not zero")
            for j in range(n_sp):
                if s.contact_rate[i][j] < 0:
                    bad.append(f"contact_rate: entry ({i},{j}) is negative")
                if abs(s.contact_rate[i][j] - s.contact_rate[j][i]) > TOLERANCE:
                    bad.append(f"contact_rate: entries ({i},{j}) and ({j},{i}) differ")

    if len(s.coverage) != len(s.jobs):
        bad.append("coverage: one entry per job required")
    for jn, cov in enumerate(s.coverage):
        if not cov:
            bad.append(f"coverage: job {jn} has no covering provider")
        for m in cov:
            if not (0 <= m < n_sp):
                bad.append(f"coverage: job {jn} references unknown provider {m}")

    if not (0 < s.epsilon <= 1):
        bad.append(f"epsilon {s.epsilon} outside (0, 1]")
    if s.valuation.beta1 <= 0 or s.valuation.beta2 <= 0:
        bad.append("valuation: beta1 and beta2 must be positive")

    try:
        expected = expand_vms(s.sps, max_demand, s.valuation)
    except ValueError:  # a base time or every tolerable time not positive, flagged above
        return bad
    exp_caps = {sel.id: sel.capability for sel in expected}
    got_caps = {sel.id: sel.capability for sel in s.sellers}
    if set(exp_caps) != set(got_caps):
        missing = sorted(set(exp_caps) - set(got_caps))
        extra = sorted(set(got_caps) - set(exp_caps))
        if missing:
            bad.append(f"sellers: missing expansion of {[x.label() for x in missing]}")
        if extra:
            bad.append(f"sellers: not part of the VM expansion: {[x.label() for x in extra]}")
    else:
        for sid in exp_caps:
            if abs(exp_caps[sid] - got_caps[sid]) > TOLERANCE:
                bad.append(f"seller {sid.label()}: capability differs from rank * base_time")
    if len(got_caps) != len(s.sellers):
        bad.append("sellers: duplicate seller ids")
    for sel in s.sellers:
        if sel.bid <= 0:
            bad.append(f"seller {sel.id.label()}: bid {sel.bid} is not positive")
        if sel.true_value <= 0:
            bad.append(f"seller {sel.id.label()}: true value {sel.true_value} is not positive")

    return bad


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "jobs": [
            {
                "owner_index": job.owner_index,
                "alpha": job.alpha,
                "components": [{"tolerable_time": t} for t in job.tolerable_times],
                "edges": [
                    {"endpoints": [e.x1, e.x2], "weight": e.weight} for e in job.edges
                ],
            }
            for job in s.jobs
        ],
        "sps": [
            {
                "index": sp.index,
                "vms": [
                    {"base_time": vm.base_time, "max_rank": vm.max_rank} for vm in sp.vms
                ],
            }
            for sp in s.sps
        ],
        "contact_rate": [list(row) for row in s.contact_rate],
        "coverage": [sorted(cov) for cov in s.coverage],
        "epsilon": s.epsilon,
        "valuation": {"beta1": s.valuation.beta1, "beta2": s.valuation.beta2},
        "seed": s.seed,
    }


def _number(x) -> int | float:
    """`x` if `json` parsed it from a number: not a bool, which `float` and
    `int` would read as 1 or 0, nor a string such as "0.5"."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{x!r} is not a number")
    return x


def _finite(x) -> float:
    """`float(x)` of a number, refusing the NaN and infinities that `json`
    parses."""
    out = float(_number(x))
    if not math.isfinite(out):
        raise ValueError(f"number {out} is not finite")
    return out


def _integral(x) -> int:
    """`int(x)` of a number, refusing one with a fractional part, which `int`
    would truncate; an integral float such as 2.0 is read as 2."""
    if isinstance(_number(x), float) and not x.is_integer():
        raise ValueError(f"number {x} is not an integer")
    return int(x)


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        jobs = tuple(
            GraphJob(
                owner_index=_integral(j["owner_index"]),
                alpha=_finite(j["alpha"]),
                tolerable_times=tuple(_finite(c["tolerable_time"]) for c in j["components"]),
                edges=tuple(
                    JobEdge(
                        _integral(e["endpoints"][0]),
                        _integral(e["endpoints"][1]),
                        _finite(e["weight"]),
                    )
                    for e in j["edges"]
                ),
            )
            for j in doc["jobs"]
        )
        sps = tuple(
            ServiceProvider(
                index=_integral(p["index"]),
                vms=tuple(
                    VirtualMachine(_finite(v["base_time"]), _integral(v["max_rank"]))
                    for v in p["vms"]
                ),
            )
            for p in doc["sps"]
        )
        contact = tuple(tuple(_finite(x) for x in row) for row in doc["contact_rate"])
        coverage = tuple(frozenset(_integral(m) for m in cov) for cov in doc["coverage"])
        valuation = ValuationConfig(
            beta1=_finite(doc["valuation"]["beta1"]),
            beta2=_finite(doc["valuation"]["beta2"]),
        )
        epsilon = _finite(doc["epsilon"])
        seed = _integral(doc["seed"])
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed scenario document: {exc}") from exc

    max_demand = max((t for job in jobs for t in job.tolerable_times), default=0.0)
    sellers = expand_vms(sps, max_demand, valuation)
    return Scenario(
        jobs=jobs,
        sps=sps,
        contact_rate=contact,
        coverage=coverage,
        epsilon=epsilon,
        valuation=valuation,
        seed=seed,
        sellers=sellers,
    )


def scenario_dumps(s: Scenario) -> str:
    """Canonical text form; identical bytes for identical scenarios."""
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"


def scenario_loads(text: str) -> Scenario:
    return scenario_from_dict(json.loads(text))
