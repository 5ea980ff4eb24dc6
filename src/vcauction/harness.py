"""Experiment plumbing: run mechanisms, audit the results, measure runtimes.

Every mechanism result passes through one chokepoint that re-validates the
allocation against all constraints before it is reported or serialized, so an
infeasible assignment can never leak into an output file. The harness takes
scenarios; each run compiles its scenario once, and the mechanism, the
re-validation and the objective read that one `Market`.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from .model import (
    Assignment,
    BuyerId,
    Scenario,
    SellerId,
    TOLERANCE,
    scenario_dumps,
)
from .economics import Market, _add_in_order, _complete_value
from .optimal import (
    BudgetExceeded,
    run_optimal_mechanism,
    solve_naive,
    solve_optimal,
    verify_truthfulness_opt,
)
from .matching import DEFAULT_DELTA, build_broker_list, run_matching, verify_truthfulness_matching
from .baselines import BASELINE_KINDS, run_baseline
from .generator import GenConfig, config_to_dict, generate, preset

__all__ = [
    "DEFAULT_BUDGET_SECS",
    "MECHANISMS",
    "MechanismRun",
    "scenario_digest",
    "run_mechanism",
    "run_to_doc",
    "ir_violations",
    "experiment",
    "verify_report",
    "bench_sweep",
]

MECHANISMS = ("opt", "maxuosg") + BASELINE_KINDS

# Wall-clock seconds a run gets unless its caller says otherwise.
DEFAULT_BUDGET_SECS = 300.0


@dataclass
class MechanismRun:
    mechanism: str
    success: bool
    objective_value: float
    runtime_secs: float
    assignment: Assignment | None
    payments: dict[SellerId, float] | None
    truncated: bool = False
    detail: dict = field(default_factory=dict)


def scenario_digest(s: Scenario) -> str:
    return hashlib.sha256(scenario_dumps(s).encode()).hexdigest()[:16]


def _deadline_after(budget_secs: float | None) -> float | None:
    """The `perf_counter` time `budget_secs` from now; None means no limit."""
    return None if budget_secs is None else time.perf_counter() + budget_secs


def run_mechanism(
    s: Scenario,
    name: str,
    seed: int = 0,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
    *,
    market: Market | None = None,
) -> MechanismRun:
    """Dispatch one mechanism and re-validate whatever it produced. A run
    past its budget reports `truncated` and no allocation. The mechanism
    and the re-validation read `market`, `s` compiled, which the run
    compiles itself unless the caller has it."""
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}, expected one of {MECHANISMS}")
    t0 = time.perf_counter()
    deadline = _deadline_after(budget_secs)
    assignment: Assignment | None = None
    payments: dict[SellerId, float] | None = None
    truncated = False
    detail: dict = {}
    m = market if market is not None else Market(s)

    try:
        if name == "opt":
            outcome = run_optimal_mechanism(m, deadline=deadline)
            if outcome is not None:
                assignment = outcome.assignment
                payments = outcome.payments
                detail["explored_nodes"] = outcome.explored_nodes
                detail["pivot_nodes"] = outcome.pivot_nodes
        elif name == "maxuosg":
            outcome = run_matching(m, deadline=deadline)
            detail["trace_events"] = len(outcome.match_trace)
            detail["match_trace"] = outcome.match_trace
            if outcome.success:
                assignment = outcome.assignment
                payments = outcome.payments
        else:
            assignment = run_baseline(m, name, seed=seed)
    except BudgetExceeded:
        truncated = True

    runtime = time.perf_counter() - t0
    value = 0.0 if assignment is None else _complete_value(m, assignment)
    if value is None:
        raise RuntimeError(f"mechanism {name} produced an infeasible assignment")
    return MechanismRun(
        mechanism=name,
        success=assignment is not None,
        objective_value=value,
        runtime_secs=runtime,
        assignment=assignment,
        payments=payments,
        truncated=truncated,
        detail=detail,
    )


def ir_violations(s: Scenario, run: MechanismRun) -> list[str]:
    """Individual-rationality audit: winners, their VMs, and their providers.

    Checks payment >= bid and utility >= 0 per winner, then aggregates winner
    utilities per VM and per provider. Payments are required for the audit,
    so baseline runs (allocation only) report nothing.
    """
    if not run.success or run.payments is None:
        return []
    bad: list[str] = []
    vm_total: dict[tuple[int, int], float] = {}
    sp_total: dict[int, float] = {}
    for sid, payment in run.payments.items():
        sel = s.seller(sid)
        utility = payment - sel.true_value
        if payment < sel.bid - TOLERANCE:
            bad.append(
                f"{run.mechanism}: payment {payment:.9f} below bid {sel.bid:.9f} for {sid.label()}"
            )
        if utility < -TOLERANCE:
            bad.append(
                f"{run.mechanism}: negative utility {utility:.9f} for {sid.label()}"
            )
        vm_key = (sid.sp_index, sid.vm_index)
        vm_total[vm_key] = vm_total.get(vm_key, 0.0) + utility
        sp_total[sid.sp_index] = sp_total.get(sid.sp_index, 0.0) + utility
    for (m, y), total in vm_total.items():
        if total < -TOLERANCE:
            bad.append(f"{run.mechanism}: VM ({m},{y}) total utility {total:.9f} negative")
    for m, total in sp_total.items():
        if total < -TOLERANCE:
            bad.append(f"{run.mechanism}: provider {m} total utility {total:.9f} negative")
    return bad


def _pair_doc(b: BuyerId, sid: SellerId) -> dict:
    return {"buyer": [b.job_index, b.component_index], "seller": [sid.sp_index, sid.vm_index, sid.rank]}


def _pairs_doc(assignment: Assignment) -> list:
    return [_pair_doc(b, sid) for b, sid in assignment.pairs]


def _payments_doc(payments: dict[SellerId, float]) -> dict:
    return {f"{k.sp_index}:{k.vm_index}:{k.rank}": v for k, v in sorted(payments.items())}


def run_to_doc(s: Scenario, run: MechanismRun) -> dict:
    doc = {
        "mechanism": run.mechanism,
        "success": run.success,
        "objective": run.objective_value,
        "runtime_secs": run.runtime_secs,
        "truncated": run.truncated,
        "scenario_digest": scenario_digest(s),
        "buyers": len(s.buyers),
        "sellers": len(s.sellers),
    }
    if run.assignment is not None:
        doc["pairs"] = _pairs_doc(run.assignment)
        doc["validated"] = True
    if run.payments is not None:
        doc["payments"] = _payments_doc(run.payments)
    doc.update({k: v for k, v in run.detail.items() if k != "match_trace"})
    if "match_trace" in run.detail:
        doc["match_trace"] = [list(ev) for ev in run.detail["match_trace"]]
    return doc


def experiment(
    cfg: GenConfig,
    trials: int,
    base_seed: int = 0,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
    preset_name: str | None = None,
) -> tuple[dict, list[dict]]:
    """Generate `trials` scenarios and run every mechanism on each, in
    `MECHANISMS` order, each under its own budget. Returns (summary, rows)."""
    rows: list[dict] = []
    any_ir: list[str] = []

    for trial in range(trials):
        seed = base_seed + trial
        s = generate(cfg, seed=seed)
        digest = scenario_digest(s)
        for name in MECHANISMS:
            run = run_mechanism(s, name, seed=seed, budget_secs=budget_secs)
            any_ir.extend(ir_violations(s, run))
            rows.append(
                {
                    "trial": trial,
                    "seed": seed,
                    "scenario_digest": digest,
                    "buyers": len(s.buyers),
                    "sellers": len(s.sellers),
                    "mechanism": name,
                    "success": int(run.success),
                    "objective": run.objective_value,
                    "runtime_secs": run.runtime_secs,
                    "truncated": int(run.truncated),
                }
            )

    mech_stats = {}
    for name in MECHANISMS:
        won = [r for r in rows if r["mechanism"] == name and r["success"]]
        n = len(won)
        mech_stats[name] = {
            "successes": n,
            "mean_objective": _add_in_order(r["objective"] for r in won) / n if n else None,
            "mean_runtime_secs": _add_in_order(r["runtime_secs"] for r in won) / n if n else None,
        }
    improvements = {}
    base_mean = mech_stats["maxuosg"]["mean_objective"]
    for name in BASELINE_KINDS:
        other = mech_stats[name]["mean_objective"]
        if base_mean is not None and other:
            improvements[name] = (base_mean / other - 1.0) * 100.0
        else:
            improvements[name] = None

    summary = {
        "preset": preset_name,
        "config": config_to_dict(cfg),
        "trials": trials,
        "base_seed": base_seed,
        "mechanisms": mech_stats,
        "improvement_over_baseline_pct": improvements,
        "ir_violations": any_ir,
    }
    return summary, rows


def verify_report(
    s: Scenario,
    mechanism: str = "maxuosg",
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
) -> tuple[dict, list[dict]]:
    """Run one mechanism, audit rationality, and sweep every winner's bid.

    Returns (report, sweep_rows); report["violations"] non-empty means the
    auction failed a hard property. The budget covers the compile, the
    auction and the sweeps together; report["truncated"] says it ran out,
    and the rows of the sweeps finished by then are kept.
    """
    if mechanism not in ("opt", "maxuosg"):
        raise ValueError("verify supports mechanisms 'opt' and 'maxuosg'")
    deadline = _deadline_after(budget_secs)
    market = Market(s)  # shared by the auction, the report and every sweep
    left = None if deadline is None else max(0.0, deadline - time.perf_counter())
    run = run_mechanism(s, mechanism, budget_secs=left, market=market)
    report: dict = {
        "mechanism": mechanism,
        "scenario_digest": scenario_digest(s),
        "success": run.success,
        "truncated": run.truncated,
        "objective": run.objective_value,
        "violations": [],
        "winners": [],
        "sweeps": [],
    }
    rows: list[dict] = []
    if not run.success:
        return report, rows

    report["violations"] = ir_violations(s, run)
    assert run.payments is not None
    for sid, payment in sorted(run.payments.items()):
        sel = s.seller(sid)
        report["winners"].append(
            {
                "seller": [sid.sp_index, sid.vm_index, sid.rank],
                "bid": sel.bid,
                "payment": payment,
                "utility": payment - sel.true_value,
            }
        )

    if mechanism == "maxuosg":
        # One broker list for the report and every sweep; one pass writes it
        # and each buyer's entries in its order.
        broker = build_broker_list(market)
        merged, own = [], [[] for _ in market.buyers]
        for i, k, v in zip(broker.buyer.tolist(), broker.seller.tolist(), broker.value.tolist()):
            pair = _pair_doc(market.buyers[i], market.sellers[k])
            merged.append({**pair, "value": v})
            own[i].append({"index": len(own[i]), "seller": pair["seller"], "value": v})
        # A buyer with no entry fails the scan, and a failed run returned
        # above: each list has a last real entry to put the virtual one below.
        for entries in own:
            floor = entries[-1]["value"] - DEFAULT_DELTA
            entries.append({"index": len(entries), "seller": None, "value": floor})
        report["buyer_lists"] = [
            {"buyer": [b.job_index, b.component_index], "entries": entries}
            for b, entries in zip(market.buyers, own)
        ]
        report["broker_list"] = merged
        assert run.assignment is not None
        report["pairs"] = _pairs_doc(run.assignment)

    for sid in sorted(run.payments):
        try:
            if mechanism == "opt":
                sweep = verify_truthfulness_opt(market, sid, deadline=deadline)
            else:
                sweep = verify_truthfulness_matching(broker, sid, deadline=deadline)
        except BudgetExceeded:
            report["truncated"] = True
            break
        if mechanism == "opt" and sweep["dominance_violations"]:
            report["violations"].append(
                f"opt: dominance violated for {sid.label()} at bids {sweep['dominance_violations']}"
            )
        label = f"{sid.sp_index}:{sid.vm_index}:{sid.rank}"
        report["sweeps"].append(
            {
                "seller": [sid.sp_index, sid.vm_index, sid.rank],
                "true_value": sweep["true_value"],
                "truthful_utility": sweep["truthful_utility"],
            }
        )
        for r in sweep["rows"]:
            rows.append(
                {
                    "seller": label,
                    "bid": r["bid"],
                    "won": int(r["won"]),
                    "payment": "" if r["payment"] is None else r["payment"],
                    "utility": r["utility"],
                    "classification": r.get("classification", ""),
                    "order_preserved": int(r.get("order_preserved", False)),
                }
            )
    return report, rows


def _timed(solve, s: Scenario, budget_secs: float | None) -> tuple:
    """`solve(s)` under its own budget: its result, None past the budget,
    and the seconds it took."""
    t0 = time.perf_counter()
    try:
        res = solve(s, deadline=_deadline_after(budget_secs))
    except BudgetExceeded:
        res = None
    return res, time.perf_counter() - t0


def bench_sweep(
    job_type: int,
    sp_counts: list[int],
    base_seed: int = 0,
    budget_secs: float | None = DEFAULT_BUDGET_SECS,
) -> list[dict]:
    """Runtime table across provider counts for one job type.

    Three timings per cell: the literal enumeration (whose cost is the
    b!*C(s,b) candidate count and therefore grows monotonically with seller
    count), the pruned branch-and-bound solver, and the matching mechanism.
    Enumeration, branch and bound, and the matching run each get their own
    budget; enumeration or branch and bound past it is flagged incomplete
    instead of hanging the sweep.
    """
    import math

    def log10_or_blank(x: float):
        return math.log10(x) if x > 0 else ""

    rows = []
    for sp in sp_counts:
        cfg_cell = GenConfig(
            job_types=(job_type,),
            sp_count=sp,
            vms_per_sp=preset("bench").vms_per_sp,
        )
        s = generate(cfg_cell, seed=base_seed + sp)

        enum_res, enum_runtime = _timed(solve_naive, s, budget_secs)
        bnb_res, bnb_runtime = _timed(solve_optimal, s, budget_secs)
        match_run = run_mechanism(s, "maxuosg", budget_secs=budget_secs)
        row = {
            "job_type": job_type,
            "sp_count": sp,
            "buyers": len(s.buyers),
            "sellers": len(s.sellers),
            "enum_completed": int(enum_res is not None),
            "enum_maps": "" if enum_res is None else enum_res.explored,
            "enum_runtime_secs": enum_runtime,
            "enum_log10_runtime": log10_or_blank(enum_runtime),
            "bnb_completed": int(bnb_res is not None),
            "bnb_runtime_secs": bnb_runtime,
            "bnb_log10_runtime": log10_or_blank(bnb_runtime),
            "maxuosg_runtime_secs": match_run.runtime_secs,
            "maxuosg_log10_runtime": log10_or_blank(match_run.runtime_secs),
            "enum_over_maxuosg": (enum_runtime / match_run.runtime_secs)
            if match_run.runtime_secs > 0
            else "",
        }
        rows.append(row)
    return rows
