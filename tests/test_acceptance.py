"""Acceptance gate: eight binding criteria, one test each.

Run with -s to see the per-criterion PASS/FAIL lines. Each test prints its
verdict with the measured numbers before asserting, so a red run still
reports every criterion's actual outcome.
"""
import math
import statistics
import time

from vcauction import (
    BASELINE_KINDS,
    assignment_feasible,
    bench_sweep,
    build_broker_list,
    build_buyer_list,
    Market,
    generate,
    gross_utility,
    ir_violations,
    preset,
    run_baseline,
    run_matching,
    run_mechanism,
    run_optimal_mechanism,
    solve_naive,
    solve_optimal,
    verify_report,
    verify_truthfulness_opt,
)
from vcauction.economics import _add_in_order
from vcauction.model import BuyerId, SellerId

from helpers import broker_entries, make_tiny


def _verdict(n: int, ok: bool, details: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {details}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    for seed in range(100):
        s = make_tiny(seed)
        b, n = len(s.buyers), len(s.sellers)
        naive = solve_naive(s)
        opt = solve_optimal(s)
        assert naive.explored == math.factorial(b) * math.comb(n, b), (
            f"seed {seed}: enumeration count {naive.explored} != {b}!*C({n},{b})"
        )
        assert (naive.assignment is None) == (opt.assignment is None), f"seed {seed}"
        if naive.assignment is not None:
            worst_gap = max(worst_gap, abs(naive.objective_value - opt.objective_value))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and worst_gap <= 1e-9 and elapsed < 60.0
    _verdict(1, ok, f"100 tiny scenarios, worst objective gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_exact_mechanism_truthfulness():
    feasible = 0
    winners_checked = 0
    seed = 0
    while feasible < 20 and seed < 300:
        s = make_tiny(seed)
        seed += 1
        outcome = run_optimal_mechanism(s)
        if outcome is None:
            continue
        feasible += 1
        for sid in outcome.payments:
            report = verify_truthfulness_opt(s, sid)
            assert report["dominant"], (
                f"seed {seed - 1}, seller {sid.label()}: "
                f"bids {report['dominance_violations']} beat truth-telling"
            )
            winners_checked += 1
    ok = feasible >= 20
    _verdict(2, ok, f"{feasible} feasible tiny scenarios, {winners_checked} winners swept, 0 dominance violations")
    assert ok


def test_criterion_3_individual_rationality():
    violations: list[str] = []
    audited = 0

    for seed in range(25):
        s = make_tiny(seed)
        for name in ("opt", "maxuosg"):
            run = run_mechanism(s, name)
            violations += ir_violations(s, run)
            audited += int(run.success)
    for name, trials in (("small", 40), ("large", 40)):
        for seed in range(trials):
            s = generate(preset(name), seed=seed)
            run = run_mechanism(s, "maxuosg")
            violations += ir_violations(s, run)
            audited += int(run.success)
    for seed in range(2):
        s = generate(preset("small"), seed=seed)
        run = run_mechanism(s, "opt")
        violations += ir_violations(s, run)
        audited += int(run.success)

    ok = not violations
    _verdict(3, ok, f"{audited} priced allocations audited, {len(violations)} violations")
    assert ok, violations[:5]


def test_criterion_4_matching_near_optimality():
    ratios = []
    gaps_ok = True
    for seed in range(50):
        s = generate(preset("small"), seed=seed)
        opt = solve_optimal(s)
        assert opt.assignment is not None, f"seed {seed}: exact solver found no allocation"
        matched = run_matching(s)
        value = matched.objective_value if matched.success else 0.0
        if value > opt.objective_value + 1e-9:
            gaps_ok = False
        ratios.append(value / opt.objective_value)
    mean_ratio = statistics.mean(ratios)
    ok = gaps_ok and mean_ratio >= 0.85
    _verdict(
        4,
        ok,
        f"50 small-preset instances, mean ratio {mean_ratio:.4f}, "
        f"min {min(ratios):.4f}, matching never above optimal: {gaps_ok}",
    )
    assert ok


def test_criterion_5_baseline_dominance():
    """`experiment`'s mean objective over successes and improvement over each
    baseline, on its seeds, from runs of the four mechanisms compared alone."""
    lines = []
    ok = True
    for name in ("small", "large"):
        scenarios = [generate(preset(name), seed=seed) for seed in range(50)]
        means = {}
        for mech in ("maxuosg",) + BASELINE_KINDS:
            runs = [run_mechanism(s, mech, seed=seed) for seed, s in enumerate(scenarios)]
            won = [run.objective_value for run in runs if run.success]
            means[mech] = _add_in_order(won) / len(won) if won else None
        ours = means["maxuosg"]
        assert ours is not None
        improvement = {k: (ours / means[k] - 1.0) * 100.0 if means[k] else None for k in BASELINE_KINDS}
        for kind in BASELINE_KINDS:
            if means[kind] is None or ours <= means[kind]:
                ok = False
        if improvement["rmm"] is None or improvement["rmm"] < 5.0:
            ok = False
        pcts = ", ".join(f"{k} {improvement[k]:+.2f}%" for k in BASELINE_KINDS)
        lines.append(f"{name}: {pcts}")
    _verdict(5, ok, "50 trials per preset; improvement " + " | ".join(lines))
    assert ok


def test_criterion_6_runtime_separation():
    ok = True
    parts = []
    for job_type in (1, 2):
        rows = bench_sweep(job_type, [1, 2, 3, 4, 5], base_seed=0, budget_secs=60.0)
        completed = [r for r in rows if r["enum_completed"]]
        if len(completed) < 2:
            ok = False
            continue
        runtimes = [r["enum_runtime_secs"] for r in completed]
        if not all(a < b for a, b in zip(runtimes, runtimes[1:])):
            ok = False
        largest = completed[-1]
        ratio = largest["enum_runtime_secs"] / largest["maxuosg_runtime_secs"]
        if ratio < 100.0:
            ok = False
        parts.append(
            f"type {job_type}: {len(completed)}/5 cells, top ratio {ratio:.0f}x, "
            f"monotone {all(a < b for a, b in zip(runtimes, runtimes[1:]))}"
        )

    worst_match = 0.0
    for seed in range(20):
        s = generate(preset("large"), seed=seed)
        run = run_mechanism(s, "maxuosg")
        worst_match = max(worst_match, run.runtime_secs)
    if worst_match > 0.1:
        ok = False
    parts.append(f"large-preset matching max {worst_match * 1000:.1f}ms")
    _verdict(6, ok, "; ".join(parts))
    assert ok


def test_criterion_7_constraint_compliance():
    instances = 0
    checked_assignments = 0

    def audit(s, assignment):
        nonlocal checked_assignments
        if assignment is None:
            return
        assert assignment_feasible(s, assignment, require_complete=True)
        checked_assignments += 1

    for seed in range(400):
        s = make_tiny(seed)
        instances += 1
        opt = run_optimal_mechanism(s)
        audit(s, opt.assignment if opt else None)
        matched = run_matching(s)
        audit(s, matched.assignment)
        for kind in BASELINE_KINDS:
            audit(s, run_baseline(s, kind, seed=seed))
    for name in ("small", "large"):
        for seed in range(300):
            s = generate(preset(name), seed=seed)
            instances += 1
            audit(s, run_matching(s).assignment)
            for kind in BASELINE_KINDS:
                audit(s, run_baseline(s, kind, seed=seed))

    ok = instances >= 1000
    _verdict(7, ok, f"{instances} instances, {checked_assignments} allocations validated against all constraints")
    assert ok


def test_criterion_8_structural_invariants():
    list_checks = 0
    scenarios = [make_tiny(seed) for seed in range(50)]
    scenarios += [generate(preset("small"), seed=k) for k in range(25)]
    scenarios += [generate(preset("large"), seed=k) for k in range(25)]
    for s in scenarios:
        lists = [build_buyer_list(s, b) for b in s.buyers]
        for lst in lists:
            values = [e.value for e in lst.entries]
            assert all(x >= y for x, y in zip(values, values[1:]))
            assert lst.entries[-1].is_virtual
            assert not any(e.is_virtual for e in lst.real_entries())
            if lst.real_entries():
                assert lst.entries[-1].value < lst.real_entries()[-1].value
            list_checks += 1
        # Two derivations of the broker list: one sort of the market's
        # feasible cells, and the sorted union of the buyer lists.
        broker = build_broker_list(Market(s))
        want = sorted(
            ((e.value, e.buyer, e.seller) for lst in lists for e in lst.real_entries()),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        got = [(value, b, sid) for b, sid, value in broker_entries(broker)]
        assert got == want

    payments_checked = 0
    recomputed_scenarios = 0
    for seed in range(12):
        s = generate(preset("small"), seed=seed)
        report, _ = verify_report(s, "maxuosg")
        if not report["success"]:
            continue
        recomputed_scenarios += 1
        pair_of = {tuple(p["seller"]): tuple(p["buyer"]) for p in report["pairs"]}
        serialized = {tuple(d["buyer"]): d["entries"] for d in report["buyer_lists"]}
        for w in report["winners"]:
            buyer = BuyerId(*pair_of[tuple(w["seller"])])
            entries = serialized[(buyer.job_index, buyer.component_index)]
            pos = next(
                i for i, e in enumerate(entries) if e["seller"] == list(w["seller"])
            )
            sid = SellerId(*w["seller"])
            own = s.alpha(buyer) * gross_utility(
                s.tolerable_time(buyer), s.seller(sid).capability
            )
            recomputed = own - entries[pos + 1]["value"]
            assert abs(w["payment"] - recomputed) <= 1e-9
            payments_checked += 1

    ok = list_checks > 0 and recomputed_scenarios >= 10
    _verdict(
        8,
        ok,
        f"{list_checks} buyer lists checked, {payments_checked} payments recomputed "
        f"from serialized lists over {recomputed_scenarios} scenarios",
    )
    assert ok
