"""Random scenario generation from declarative range configs.

Four stock job topologies are keyed 1..4; presets bundle the topology mix,
provider counts and sampling ranges used throughout the experiments. Every
draw flows from one seeded generator in a fixed order, so a config plus a
seed pins the scenario down to the byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GraphJob,
    JobEdge,
    Scenario,
    ServiceProvider,
    ValuationConfig,
    VirtualMachine,
    _finite,
    _integral,
    expand_vms,
    max_rank_for,
    validate_scenario,
)

__all__ = [
    "JobTypeSpec",
    "JOB_TYPE_LIBRARY",
    "GenConfig",
    "PRESET_NAMES",
    "preset",
    "validate_config",
    "generate",
    "config_to_dict",
    "config_from_dict",
]


@dataclass(frozen=True)
class JobTypeSpec:
    """A reusable job topology: component count plus undirected edge list."""

    type_id: int
    component_count: int
    edge_list: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.component_count
        if n < 1:
            raise ValueError("component_count must be at least 1")
        seen = set()
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for a, b in self.edge_list:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad edge ({a},{b}) for {n} components")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(key)
            adj[a].add(b)
            adj[b].add(a)
        if n > 1:
            reached = {0}
            frontier = [0]
            while frontier:
                cur = frontier.pop()
                for nxt in adj[cur]:
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            if len(reached) != n:
                raise ValueError("job topology must be connected")


JOB_TYPE_LIBRARY: dict[int, JobTypeSpec] = {
    1: JobTypeSpec(1, 3, ((0, 1), (1, 2), (0, 2))),
    2: JobTypeSpec(2, 4, ((0, 1), (0, 2), (0, 3))),
    3: JobTypeSpec(3, 5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4))),
    4: JobTypeSpec(
        4, 6, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5))
    ),
}


@dataclass(frozen=True)
class GenConfig:
    job_types: tuple[int, ...]
    sp_count: int
    vms_per_sp: tuple[int, int]
    epsilon_range: tuple[float, float] = (0.9, 0.95)
    alpha_range: tuple[float, float] = (2.5, 4.0)
    base_time_range: tuple[float, float] = (0.2, 0.3)
    tolerable_time_range: tuple[float, float] = (0.6, 0.7)
    weight_range: tuple[float, float] = (0.1, 0.7)
    lambda_range: tuple[float, float] = (0.05, 0.06)
    beta1_range: tuple[float, float] = (0.7, 0.9)
    beta2_range: tuple[float, float] = (0.9, 1.0)
    coverage_density: float = 1.0
    seed: int = 0
    custom_types: tuple[JobTypeSpec, ...] = ()

    def type_library(self) -> dict[int, JobTypeSpec]:
        lib = dict(JOB_TYPE_LIBRARY)
        for spec_ in self.custom_types:
            lib[spec_.type_id] = spec_
        return lib


PRESET_NAMES = ("small", "large", "bench")


def preset(name: str) -> GenConfig:
    """Named experiment configurations.

    small: one triangle job and one star job over 3 providers (7 buyers,
    about 25 sellers). large: a heavier mix over 5 providers (19 buyers,
    about 50 sellers) with slower-decaying contacts. bench: a single job
    whose type and provider count the benchmark sweep overrides per cell.
    """
    if name == "small":
        return GenConfig(job_types=(1, 2), sp_count=3, vms_per_sp=(3, 4))
    if name == "large":
        return GenConfig(
            job_types=(2, 2, 3, 4),
            sp_count=5,
            vms_per_sp=(4, 5),
            lambda_range=(0.01, 0.02),
        )
    if name == "bench":
        return GenConfig(job_types=(1,), sp_count=1, vms_per_sp=(4, 4))
    raise ValueError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def validate_config(cfg: GenConfig) -> list[str]:
    bad: list[str] = []

    def check_range(name: str, rng: tuple[float, float], positive: bool = True):
        lo, hi = rng
        if not (math.isfinite(lo) and math.isfinite(hi)):
            bad.append(f"{name}: bounds ({lo}, {hi}) must be finite")
        elif positive and lo <= 0:
            bad.append(f"{name}: lower bound {lo} must be positive")
        if lo > hi:
            bad.append(f"{name}: lower bound {lo} above upper bound {hi}")

    check_range("epsilon_range", cfg.epsilon_range)
    if cfg.epsilon_range[1] > 1:
        bad.append("epsilon_range: upper bound above 1")
    check_range("alpha_range", cfg.alpha_range)
    check_range("base_time_range", cfg.base_time_range)
    check_range("tolerable_time_range", cfg.tolerable_time_range)
    check_range("weight_range", cfg.weight_range, positive=False)
    if cfg.weight_range[0] < 0:
        bad.append("weight_range: lower bound below 0")
    check_range("lambda_range", cfg.lambda_range, positive=False)
    if cfg.lambda_range[0] < 0:
        bad.append("lambda_range: lower bound below 0")
    check_range("beta1_range", cfg.beta1_range)
    check_range("beta2_range", cfg.beta2_range)

    # Worst realizable capability is bounded by the largest tolerable time;
    # every seller the expansion can produce must price above zero.
    worst = cfg.beta2_range[0] - cfg.beta1_range[1] * cfg.tolerable_time_range[1]
    if worst <= 0:
        bad.append(
            "valuation ranges can price a seller at or below zero "
            f"(beta2 min {cfg.beta2_range[0]} - beta1 max {cfg.beta1_range[1]} "
            f"* max tolerable {cfg.tolerable_time_range[1]} = {worst})"
        )

    lib = cfg.type_library()
    for t in cfg.job_types:
        if t not in lib:
            bad.append(f"job_types: unknown type {t}")
    if not cfg.job_types:
        bad.append("job_types: at least one job required")
    if cfg.sp_count < 1:
        bad.append(f"sp_count: {cfg.sp_count} below 1")
    lo, hi = cfg.vms_per_sp
    if lo < 1 or lo > hi:
        bad.append(f"vms_per_sp: bad range ({lo},{hi})")
    if not (0 < cfg.coverage_density <= 1):
        bad.append(f"coverage_density: {cfg.coverage_density} outside (0, 1]")
    return bad


def generate(cfg: GenConfig, seed: int | None = None) -> Scenario:
    """Draw one scenario; a seed argument overrides the config's seed."""
    problems = validate_config(cfg)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    use_seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(use_seed)
    lib = cfg.type_library()

    def draw(rg: tuple[float, float]) -> float:
        return float(rng.uniform(rg[0], rg[1]))

    epsilon = draw(cfg.epsilon_range)
    beta1 = draw(cfg.beta1_range)
    beta2 = draw(cfg.beta2_range)
    valuation = ValuationConfig(beta1=beta1, beta2=beta2)

    jobs = []
    for jn, type_id in enumerate(cfg.job_types):
        spec_ = lib[type_id]
        alpha = draw(cfg.alpha_range)
        times = tuple(draw(cfg.tolerable_time_range) for _ in range(spec_.component_count))
        edges = []
        for a, b in spec_.edge_list:
            w = draw(cfg.weight_range)
            w = min(w, times[a], times[b])
            edges.append(JobEdge(a, b, w))
        jobs.append(GraphJob(jn, alpha, times, tuple(edges)))
    jobs = tuple(jobs)
    max_demand = max(t for job in jobs for t in job.tolerable_times)

    sps = []
    for m in range(cfg.sp_count):
        n_vm = int(rng.integers(cfg.vms_per_sp[0], cfg.vms_per_sp[1] + 1))
        vms = []
        for _ in range(n_vm):
            base = draw(cfg.base_time_range)
            vms.append(VirtualMachine(base, max_rank_for(base, max_demand)))
        sps.append(ServiceProvider(m, tuple(vms)))
    sps = tuple(sps)

    n_sp = cfg.sp_count
    rates = [[0.0] * n_sp for _ in range(n_sp)]
    for i in range(n_sp):
        for j in range(i + 1, n_sp):
            rates[i][j] = rates[j][i] = draw(cfg.lambda_range)
    contact = tuple(tuple(row) for row in rates)

    coverage = []
    for _ in jobs:
        if cfg.coverage_density >= 1.0:
            cov = frozenset(range(n_sp))
        else:
            cov = frozenset(
                m for m in range(n_sp) if rng.random() < cfg.coverage_density
            )
            if not cov:
                cov = frozenset({int(rng.integers(n_sp))})
        coverage.append(cov)
    coverage = tuple(coverage)

    sellers = expand_vms(sps, max_demand, valuation)
    low = min((sel.true_value for sel in sellers), default=1.0)
    if low <= 0:
        raise ValueError(f"drawn valuation prices a seller at {low}; adjust ranges")

    scenario = Scenario(
        jobs=jobs,
        sps=sps,
        contact_rate=contact,
        coverage=coverage,
        epsilon=epsilon,
        valuation=valuation,
        seed=use_seed,
        sellers=sellers,
    )
    problems = validate_scenario(scenario)
    if problems:
        raise RuntimeError("generator produced an invalid scenario: " + "; ".join(problems))
    return scenario


def config_to_dict(cfg: GenConfig) -> dict:
    doc = {
        "job_types": list(cfg.job_types),
        "sp_count": cfg.sp_count,
        "vms_per_sp": list(cfg.vms_per_sp),
        "epsilon_range": list(cfg.epsilon_range),
        "alpha_range": list(cfg.alpha_range),
        "base_time_range": list(cfg.base_time_range),
        "tolerable_time_range": list(cfg.tolerable_time_range),
        "weight_range": list(cfg.weight_range),
        "lambda_range": list(cfg.lambda_range),
        "beta1_range": list(cfg.beta1_range),
        "beta2_range": list(cfg.beta2_range),
        "coverage_density": cfg.coverage_density,
        "seed": cfg.seed,
    }
    if cfg.custom_types:
        doc["custom_types"] = [
            {
                "type_id": t.type_id,
                "component_count": t.component_count,
                "edge_list": [list(e) for e in t.edge_list],
            }
            for t in cfg.custom_types
        ]
    return doc


def config_from_dict(doc: dict) -> GenConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"malformed config document: expected an object, got {type(doc).__name__}")
    try:
        custom = tuple(
            JobTypeSpec(
                _integral(t["type_id"]),
                _integral(t["component_count"]),
                tuple((_integral(a), _integral(b)) for a, b in t["edge_list"]),
            )
            for t in doc.get("custom_types", [])
        )
        pair = lambda key: (_finite(doc[key][0]), _finite(doc[key][1]))
        return GenConfig(
            job_types=tuple(_integral(t) for t in doc["job_types"]),
            sp_count=_integral(doc["sp_count"]),
            vms_per_sp=(_integral(doc["vms_per_sp"][0]), _integral(doc["vms_per_sp"][1])),
            epsilon_range=pair("epsilon_range"),
            alpha_range=pair("alpha_range"),
            base_time_range=pair("base_time_range"),
            tolerable_time_range=pair("tolerable_time_range"),
            weight_range=pair("weight_range"),
            lambda_range=pair("lambda_range"),
            beta1_range=pair("beta1_range"),
            beta2_range=pair("beta2_range"),
            coverage_density=_finite(doc.get("coverage_density", 1.0)),
            seed=_integral(doc.get("seed", 0)),
            custom_types=custom,
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed config document: {exc}") from exc
