"""The four workloads: their scenarios, the auction each runs, and its checks.

Every workload runs a fixed list of generated scenarios, so each run covers
the same auctions and the headline UoS per auction repeats exactly; the
benchmark's `--seed` sets the order in which they run. An auction is the
whole per-scenario operation a user of the `experiment`, `solve` or
`verify` command waits for, payments and the harness re-validation included.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import check


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: tuple[tuple[str, object], ...]
    seeds: range
    # Wall-clock limit on one auction, enforced by the benchmark.
    deadline_s: float
    # (vc, scenario) -> output of one auction.
    auction: Callable
    # output -> headline mechanism's total UoS, or None when it found no allocation.
    headline: Callable
    # output -> JSON-able record of assignments and payments, for the digest.
    record: Callable
    # (vc, scenario, output) -> problems found by the independent checker.
    check: Callable


def load_scenarios(vc, w: Workload) -> list:
    """Generate the workload's scenarios and load them back from text, as
    `solve` and `verify` do with a scenario file."""
    cfg = dataclasses.replace(vc.preset(w.preset), **dict(w.overrides))
    out = []
    for seed in w.seeds:
        s = vc.scenario_loads(vc.scenario_dumps(vc.generate(cfg, seed=seed)))
        problems = vc.validate_scenario(s)
        if problems:
            raise RuntimeError(f"{w.name} seed {seed}: invalid scenario: {problems}")
        out.append(s)
    return out


def _payments_doc(payments: dict) -> dict:
    return {":".join(map(str, k)): f"{v:.9f}" for k, v in sorted(payments.items())}


def _run_record(run) -> dict:
    doc = {"ok": run.success}
    if run.assignment is not None:
        doc["pairs"] = check.pairs_of(run.assignment)
    if run.payments is not None:
        doc["payments"] = _payments_doc(check.payments_of(run.payments))
    return doc


def _check_run(m: check.Market, run, priced: bool) -> list[str]:
    if not run.success:
        return []
    pairs = check.pairs_of(run.assignment)
    bad = check.check_allocation(m, pairs) + check.check_objective(m, pairs, run.objective_value)
    if priced:
        payments = check.payments_of(run.payments)
        bad += check.check_rational(m, pairs, payments) + check.check_next_entry(m, pairs, payments)
    return [f"{run.mechanism}: {p}" for p in bad]


def _headline(run):
    return run.objective_value if run.success else None


# experiment-large: the paper's headline comparison, per scenario.
def _experiment(vc, s):
    return {name: vc.run_mechanism(s, name, seed=s.seed) for name in ("maxuosg",) + vc.BASELINE_KINDS}


def _experiment_check(vc, s, out):
    m = check.Market(s)
    return [p for name, run in out.items() for p in _check_run(m, run, priced=name == "maxuosg")]


# scan-sparse: the matching mechanism alone, as `solve --mechanism maxuosg`.
def _maxuosg(vc, s):
    return vc.run_mechanism(s, "maxuosg")


def _maxuosg_check(vc, s, run):
    return _check_run(check.Market(s), run, priced=True)


# opt-small-2vm: the exact auction, as `solve --mechanism opt`.
def _opt(vc, s):
    return vc.run_mechanism(s, "opt")


def _opt_check(vc, s, run):
    if not run.success:
        return []
    m = check.Market(s)
    pairs = check.pairs_of(run.assignment)
    payments = check.payments_of(run.payments)
    bad = check.check_allocation(m, pairs) + check.check_objective(m, pairs, run.objective_value)
    bad += check.check_rational(m, pairs, payments)
    others = [vc.run_mechanism(s, name, seed=s.seed) for name in ("maxuosg",) + vc.BASELINE_KINDS]
    lower = 0.0
    for other in others:
        found = _check_run(m, other, priced=other.mechanism == "maxuosg")
        bad += found
        if other.success and not found:
            lower = max(lower, m.total(check.pairs_of(other.assignment)))
    bad += check.check_optimal(m, pairs, m.total(pairs), payments, lower)
    return bad


# verify-small: the `verify` audit, sweeping every winner's bid.
def _verify(vc, s):
    return vc.verify_report(s, "maxuosg")


def _verify_headline(out):
    report, _ = out
    return report["objective"] if report["success"] else None


def _verify_solve(report):
    pairs = [(tuple(p["buyer"]), tuple(p["seller"])) for p in report.get("pairs", [])]
    payments = {tuple(w["seller"]): w["payment"] for w in report["winners"]}
    return pairs, payments


def _verify_record(out):
    report, rows = out
    pairs, payments = _verify_solve(report)
    return {"ok": report["success"], "pairs": pairs, "payments": _payments_doc(payments)}


def _verify_check(vc, s, out):
    report, rows = out
    if not report["success"]:
        return []
    m = check.Market(s)
    pairs, payments = _verify_solve(report)
    bad = check.check_allocation(m, pairs) + check.check_objective(m, pairs, report["objective"])
    bad += check.check_rational(m, pairs, payments) + check.check_next_entry(m, pairs, payments)
    bad += check.check_sweep(m, payments, rows)
    bad += [f"verify reported: {v}" for v in report["violations"]]
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload("experiment-large", "large", (), range(0, 40), 30.0,
                 _experiment, lambda out: _headline(out["maxuosg"]),
                 lambda out: {k: _run_record(v) for k, v in out.items()}, _experiment_check),
        Workload("scan-sparse", "large", (("coverage_density", 0.5),), range(8, 17), 3.0,
                 _maxuosg, _headline, _run_record, _maxuosg_check),
        Workload("opt-small-2vm", "small", (("vms_per_sp", (2, 2)),), range(0, 10), 30.0,
                 _opt, _headline, _run_record, _opt_check),
        Workload("verify-small", "small", (), range(0, 16), 30.0,
                 _verify, _verify_headline, _verify_record, _verify_check),
    )
}
