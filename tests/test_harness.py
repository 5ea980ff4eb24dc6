"""Experiment-plumbing tests."""
import dataclasses
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import pytest

from vcauction import (
    Assignment,
    BudgetExceeded,
    BuyerId,
    GenConfig,
    MECHANISMS,
    Market,
    MatchingOutcome,
    OptOutcome,
    SellerId,
    TOLERANCE,
    bench_sweep,
    build_broker_list,
    default_bid_grid,
    experiment,
    generate,
    gross_utility,
    ir_violations,
    preset,
    run_mechanism,
    run_optimal_mechanism,
    run_to_doc,
    scenario_digest,
    solve_optimal,
    verify_report,
    verify_truthfulness_matching,
    verify_truthfulness_opt,
)
import vcauction.harness as harness

import vcauction
from helpers import backtrack_scenario, make_tiny, three_provider_scenario
from test_optimal import one_sp_scenario

TINY_CFG = GenConfig(job_types=(1,), sp_count=2, vms_per_sp=(1, 2))


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError):
        run_mechanism(make_tiny(0), "vickrey")


def test_digest_stable_and_distinct():
    a = generate(TINY_CFG, seed=0)
    b = generate(TINY_CFG, seed=1)
    assert scenario_digest(a) == scenario_digest(generate(TINY_CFG, seed=0))
    assert scenario_digest(a) != scenario_digest(b)
    assert len(scenario_digest(a)) == 16


def test_revalidation_chokepoint_catches_bad_output(monkeypatch):
    s = one_sp_scenario(times=(0.7,), alpha=1.0, bases=(0.2,))
    # capability 0.6 is priced out at its truthful bid, so this pair fails C1
    bogus = Assignment.from_pairs([(BuyerId(0, 0), SellerId(0, 0, 3))])
    monkeypatch.setattr(harness, "run_baseline", lambda *a, **k: bogus)
    with pytest.raises(RuntimeError, match="infeasible"):
        run_mechanism(s, "rmm")


def test_revalidation_chokepoint_catches_c2_and_shared_seller_output(monkeypatch):
    """Complete assignments of the three-provider job that break C2 (at a
    contact floor no provider pair reaches) or share a seller, returned by
    the matching and by the exact auction, are refused."""
    s = three_provider_scenario()
    b0, b1, b2 = s.buyers
    crossing = [(b0, SellerId(0, 1, 1)), (b1, SellerId(1, 0, 1)), (b2, SellerId(1, 0, 2))]
    shared = crossing[:2] + [(b2, SellerId(1, 0, 1))]
    for scenario, pairs in ((dataclasses.replace(s, epsilon=0.999), crossing), (s, shared)):
        bogus = Assignment.from_pairs(pairs)
        payments = {sid: 1.0 for _, sid in pairs}
        monkeypatch.setattr(
            harness, "run_matching", lambda *a, **k: MatchingOutcome(bogus, 0.0, payments, ())
        )
        monkeypatch.setattr(
            harness, "run_optimal_mechanism", lambda *a, **k: OptOutcome(bogus, 0.0, payments, 0, 0)
        )
        for name in ("maxuosg", "opt"):
            with pytest.raises(RuntimeError, match="infeasible"):
                run_mechanism(scenario, name)


def test_one_compile_per_run_and_per_audit(monkeypatch):
    """`run_mechanism` compiles the scenario once for the mechanism and its
    re-validation, and `verify_report` once for the auction and every
    sweep."""
    compiled = []
    init = Market.__init__

    def counted(self, s):
        compiled.append(s)
        init(self, s)

    monkeypatch.setattr(Market, "__init__", counted)
    s = generate(preset("small"), seed=0)
    for name in MECHANISMS:
        compiled.clear()
        assert run_mechanism(s, name).success
        assert len(compiled) == 1 and compiled[0] is s, name
    for name in ("opt", "maxuosg"):
        compiled.clear()
        report, rows = verify_report(s, name)
        assert report["success"] and len(report["sweeps"]) == len(report["winners"]) > 0
        assert len(compiled) == 1 and compiled[0] is s, name


def test_run_mechanism_marks_budget_truncation():
    s = generate(preset("small"), seed=0)
    run = run_mechanism(s, "opt", budget_secs=1e-6)
    assert run.truncated
    assert not run.success
    assert run.assignment is None


def test_maxuosg_budget_truncates_a_backtracking_scan():
    """The scan reads the clock at its first restart, past a zero budget."""
    s = backtrack_scenario()
    run = run_mechanism(s, "maxuosg", budget_secs=0.0)
    assert run.truncated and not run.success and run.assignment is None
    report, rows = verify_report(s, "maxuosg", budget_secs=0.0)
    assert report["truncated"] and not report["success"] and rows == []
    assert run_mechanism(s, "maxuosg", budget_secs=60.0).success
    # C2 binds on this seed, and the prune does not check it for open
    # buyers: the scan is still running after 5 s.
    s = generate(dataclasses.replace(preset("large"), lambda_range=(0.2, 0.3)), seed=0)
    start = time.perf_counter()
    run = run_mechanism(s, "maxuosg", budget_secs=0.5)
    assert time.perf_counter() - start < 2.0
    assert run.truncated and not run.success and run.assignment is None


def test_opt_run_reports_root_and_pivot_nodes():
    s = generate(preset("small"), seed=0)
    out = run_optimal_mechanism(Market(s))
    run = run_mechanism(s, "opt")
    assert run.detail["explored_nodes"] == out.explored_nodes == solve_optimal(s).explored
    assert run.detail["pivot_nodes"] == out.pivot_nodes > 0
    # Each pivot re-solve is `solve_optimal` with the winner excluded.
    resolves = [solve_optimal(s, excluded=frozenset({w})) for w in out.payments]
    assert out.pivot_nodes == sum(res.explored for res in resolves)
    assert run_to_doc(s, run)["pivot_nodes"] == out.pivot_nodes


def test_run_to_doc_roundtrips_through_json():
    s = generate(TINY_CFG, seed=0)
    for name in ("opt", "maxuosg", "etpm"):
        doc = run_to_doc(s, run_mechanism(s, name))
        parsed = json.loads(json.dumps(doc))
        assert parsed["mechanism"] == name
        assert parsed["scenario_digest"] == scenario_digest(s)
        if parsed["success"]:
            assert parsed["validated"]
            assert len(parsed["pairs"]) == len(s.buyers)


def test_experiment_row_layout():
    summary, rows = experiment(TINY_CFG, trials=3, base_seed=0, preset_name=None)
    assert len(rows) == 15  # 5 mechanisms
    assert {r["mechanism"] for r in rows} == {"opt", "maxuosg", "etpm", "lpm", "rmm"}
    assert sorted({r["trial"] for r in rows}) == [0, 1, 2]
    for r in rows:
        assert set(r) == {
            "trial",
            "seed",
            "scenario_digest",
            "buyers",
            "sellers",
            "mechanism",
            "success",
            "objective",
            "runtime_secs",
            "truncated",
        }
    assert summary["trials"] == 3
    assert summary["ir_violations"] == []
    assert summary["mechanisms"]["opt"]["successes"] >= 2
    for name in ("etpm", "lpm", "rmm"):
        assert name in summary["improvement_over_baseline_pct"]


def test_matching_is_near_optimal_on_large():
    """`experiment` runs the exact auction on every `large` trial; the
    matching never beats it and reaches at least 99% of it."""
    _, rows = experiment(preset("large"), trials=10, preset_name="large")
    row = {(r["trial"], r["mechanism"]): r for r in rows}
    for trial in range(10):
        opt, ours = row[trial, "opt"], row[trial, "maxuosg"]
        assert opt["success"] and opt["buyers"] > 10, trial
        assert ours["objective"] <= opt["objective"] + TOLERANCE, trial
        assert ours["objective"] / opt["objective"] >= 0.99, trial


def test_ir_audit_ignores_payment_free_runs():
    s = generate(TINY_CFG, seed=0)
    run = run_mechanism(s, "lpm")
    assert run.success
    assert run.payments is None
    assert ir_violations(s, run) == []


def test_ir_violations_flags_each_rule():
    """Forged payments on `three_provider_scenario` (provider 0 holds VM 0
    with ranks 1-2 and VM 1 with ranks 1-3) break one rule each: a payment
    below its bid, a negative utility, a VM's total and a provider's total.
    Utilities of -0.7e-9 pass one by one, but two of them sum past the
    tolerance."""
    base = three_provider_scenario()
    a, b = SellerId(0, 0, 1), SellerId(0, 0, 2)
    c, d = SellerId(0, 1, 1), SellerId(1, 0, 1)
    q = {sid: base.seller(sid).true_value for sid in (a, b, c, d)}
    cases = [
        # Bid 0.2 above the true value, paid 0.1 above it.
        (base.with_seller_bid(a, q[a] + 0.2), {a: q[a] + 0.1}, "opt: payment"),
        # Paid below the true value, above a low bid; the VM's other rank
        # makes up for it.
        (base.with_seller_bid(a, q[a] - 0.2), {a: q[a] - 0.1, b: q[b] + 0.2}, "opt: negative utility"),
        # Two ranks of VM (0,0) just inside the tolerance; VM (0,1) lifts
        # provider 0.
        (base, {a: q[a] - 7e-10, b: q[b] - 7e-10, c: q[c] + 1.0}, "opt: VM (0,0) total utility"),
        # One rank on each of provider 0's VMs, just inside the tolerance.
        (base, {a: q[a] - 7e-10, c: q[c] - 7e-10, d: q[d] + 1.0}, "opt: provider 0 total utility"),
    ]
    for s, payments, flag in cases:
        run = harness.MechanismRun("opt", True, 0.0, 0.0, None, payments)
        bad = ir_violations(s, run)
        assert len(bad) == 1 and bad[0].startswith(flag), bad
    truthful = {sid: value + 0.1 for sid, value in q.items()}
    assert ir_violations(base, harness.MechanismRun("opt", True, 0.0, 0.0, None, truthful)) == []


def test_verify_report_flags_a_dominance_violation(monkeypatch):
    """An exact sweep that finds bids beating truth-telling puts one line per
    winner in the report's violations."""
    sweep_of = harness.verify_truthfulness_opt

    def beaten(m, sid, **kwargs):
        sweep = sweep_of(m, sid, **kwargs)
        return {**sweep, "dominance_violations": [sweep["rows"][0]["bid"]]}

    monkeypatch.setattr(harness, "verify_truthfulness_opt", beaten)
    s = make_tiny(0)
    report, _ = verify_report(s, "opt")
    assert report["success"] and report["winners"]
    assert len(report["violations"]) == len(report["winners"])
    for line, sweep in zip(report["violations"], report["sweeps"]):
        sid = SellerId(*sweep["seller"])
        low = default_bid_grid(s.seller(sid).true_value)[0]
        assert line == f"opt: dominance violated for {sid.label()} at bids {[low]}"


def test_verify_report_matching():
    s = generate(TINY_CFG, seed=0)
    report, rows = verify_report(s, "maxuosg")
    assert report["success"]
    assert report["violations"] == []
    assert report["buyer_lists"]
    assert report["broker_list"]
    assert len(report["winners"]) == len(s.buyers)
    assert rows and all(r["seller"].count(":") == 2 for r in rows)

    # recompute each payment from the serialized lists alone
    pair_of = {tuple(p["seller"]): tuple(p["buyer"]) for p in report["pairs"]}
    lists = {tuple(d["buyer"]): d["entries"] for d in report["buyer_lists"]}
    for w in report["winners"]:
        sid = SellerId(*w["seller"])
        buyer = BuyerId(*pair_of[tuple(w["seller"])])
        entries = lists[(buyer.job_index, buyer.component_index)]
        pos = next(i for i, e in enumerate(entries) if e["seller"] == list(w["seller"]))
        own = s.alpha(buyer) * gross_utility(s.tolerable_time(buyer), s.seller(sid).capability)
        assert w["payment"] == pytest.approx(own - entries[pos + 1]["value"])


def test_verify_report_exact_solver():
    s = make_tiny(0)
    report, rows = verify_report(s, "opt")
    assert report["success"] and not report["truncated"]
    assert report["violations"] == []
    assert report["sweeps"]
    assert rows
    assert "buyer_lists" not in report


def test_shared_market_changes_no_audit():
    """`verify_report` compiles one market for all its sweeps; each sweep
    entry and row equals that of the sweep run on its own."""
    cases = [(generate(preset("small"), seed=seed), "maxuosg") for seed in range(4)]
    cases.append((make_tiny(0), "opt"))
    for s, mechanism in cases:
        if mechanism == "opt":
            sweep_of, compiled = verify_truthfulness_opt, Market
        else:
            sweep_of, compiled = verify_truthfulness_matching, lambda s: build_broker_list(Market(s))
        report, rows = verify_report(s, mechanism)
        assert report["success"] and not report["truncated"] and report["sweeps"]
        expected_sweeps, expected_rows = [], []
        for w in sorted(report["winners"], key=lambda w: w["seller"]):
            alone = sweep_of(compiled(s), SellerId(*w["seller"]))
            expected_sweeps.append(
                {
                    "seller": w["seller"],
                    "true_value": alone["true_value"],
                    "truthful_utility": alone["truthful_utility"],
                }
            )
            expected_rows += [
                {
                    "seller": "%d:%d:%d" % tuple(w["seller"]),
                    "bid": r["bid"],
                    "won": int(r["won"]),
                    "payment": "" if r["payment"] is None else r["payment"],
                    "utility": r["utility"],
                    "classification": r.get("classification", ""),
                    "order_preserved": int(r.get("order_preserved", False)),
                }
                for r in alone["rows"]
            ]
        assert report["sweeps"] == expected_sweeps
        assert rows == expected_rows


def test_market_copies_share_the_edge_lists():
    """`with_bid` copies share the market's C2 tables, which are Python
    lists built with the market."""
    s = generate(preset("small"), seed=0)
    m = Market(s)
    sid = m.sellers[0]
    assert all(type(allowed) is list for nbrs in m.edges for _, allowed in nbrs)
    assert m.with_bid(sid, 0.5).edges is m.edges
    assert m.with_bid(sid, 0.7).edges is m.edges


def test_verify_report_budget_bounds_the_exact_sweeps():
    """The budget covers the exact auction and its bid sweeps together. On
    C2-binding `small` seed 2 (the golden `c2` config) the whole audit takes
    about 2.6 s on a 2-CPU x86-64 machine, nearly all of it in the sweeps'
    solves."""
    s = generate(dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3)), seed=2)
    start = time.perf_counter()
    report, _ = verify_report(s, "opt", budget_secs=1.0)
    assert time.perf_counter() - start < 3.0
    assert report["truncated"]
    assert len(report["sweeps"]) < len(report["winners"]) or not report["success"]
    # A budget that the auction itself overruns is truncated, not infeasible.
    report, rows = verify_report(s, "opt", budget_secs=0.01)
    assert report["truncated"] and not report["success"] and rows == []


def test_verify_report_budget_covers_the_compile(monkeypatch):
    """The audit's deadline starts before its compile: a compile that uses
    the whole budget leaves the auction none, rather than a fresh one."""

    class SlowMarket(Market):
        def __init__(self, s):
            time.sleep(0.3)
            super().__init__(s)

    monkeypatch.setattr(harness, "Market", SlowMarket)
    s = generate(preset("small"), seed=0)
    report, rows = verify_report(s, "opt", budget_secs=0.1)
    assert report["truncated"] and not report["success"] and rows == []


def test_zero_budget_truncates_a_matching_audit_whose_scans_never_backtrack():
    """No scan on `small` seed 0 backtracks, so none reads the clock; the
    sweeps read it before each grid point, so a zero budget stops the audit
    before its first sweep row. The auction itself still completes."""
    s = generate(preset("small"), seed=0)
    assert run_mechanism(s, "maxuosg", budget_secs=0.0).success
    report, rows = verify_report(s, "maxuosg", budget_secs=0.0)
    assert report["success"] and report["truncated"]
    assert report["sweeps"] == [] and rows == []


def _truncated_at_the_second_sweep(monkeypatch, mechanism: str):
    """`verify_report` on `small` seed 0 with the mechanism's sweep made to
    run out of budget at the second winner. Each sweep gets the audit's one
    market, compiled from the scenario (for the matching, as its one broker
    list), and a finite deadline."""
    name = "verify_truthfulness_opt" if mechanism == "opt" else "verify_truthfulness_matching"
    sweep_of = getattr(harness, name)
    s = generate(preset("small"), seed=0)
    calls = []

    def second_call_runs_out(given, sid, **kwargs):
        calls.append((given, kwargs))
        if len(calls) == 2:
            raise BudgetExceeded("sweep stopped")
        return sweep_of(given, sid, **kwargs)

    monkeypatch.setattr(harness, name, second_call_runs_out)
    report, rows = verify_report(s, mechanism)
    assert len(calls) == 2
    given = calls[0][0]
    market = given if mechanism == "opt" else given.market
    assert isinstance(market, Market) and market.buyers == s.buyers
    assert calls[1][0] is given
    assert all(math.isfinite(kwargs["deadline"]) for _, kwargs in calls)
    assert report["truncated"] and report["success"]
    assert len(report["sweeps"]) == 1 < len(report["winners"])
    assert {r["seller"] for r in rows} == {"%d:%d:%d" % tuple(report["sweeps"][0]["seller"])}


def test_verify_report_truncates_inside_the_sweeps(monkeypatch):
    """A budget that runs out after the exact auction, at the second
    winner's sweep, keeps the auction and the first sweep, whatever the
    speed."""
    _truncated_at_the_second_sweep(monkeypatch, "opt")


def test_verify_report_truncates_inside_the_matching_sweeps(monkeypatch):
    """The same for the matching auction and its sweeps."""
    _truncated_at_the_second_sweep(monkeypatch, "maxuosg")


def test_verify_report_infeasible_scenario():
    s = generate(TINY_CFG, seed=3)
    report, rows = verify_report(s, "maxuosg")
    assert not report["success"]
    assert report["winners"] == []
    assert rows == []
    with pytest.raises(ValueError):
        verify_report(s, "lpm")


def test_verify_buyer_lists_equal_the_per_buyer_reference():
    """`verify` writes each buyer's list from the broker arrays; it equals
    `build_buyer_list` serialised entry by entry, buyers in `BuyerId` order,
    every value bit for bit, the virtual floor included."""
    from vcauction import build_buyer_list

    def reference(s):
        return [
            {
                "buyer": [b.job_index, b.component_index],
                "entries": [
                    {
                        "index": i,
                        "seller": None
                        if e.seller is None
                        else [e.seller.sp_index, e.seller.vm_index, e.seller.rank],
                        "value": e.value,
                    }
                    for i, e in enumerate(build_buyer_list(s, b).entries)
                ],
            }
            for b in sorted(s.buyers)
        ]

    checked = 0
    scenarios = [make_tiny(seed) for seed in range(24)]
    scenarios += [generate(preset("small"), seed=seed) for seed in range(4)]
    for s in scenarios:
        report, _ = verify_report(s, "maxuosg")
        if report["success"]:
            # json.dumps writes each float by repr, which tells every bit.
            assert json.dumps(report["buyer_lists"]) == json.dumps(reference(s))
            checked += 1
        else:
            assert "buyer_lists" not in report
    assert checked == 10


def test_bench_sweep_smoke():
    import math

    rows = bench_sweep(1, [1, 2], base_seed=0)
    assert [r["sp_count"] for r in rows] == [1, 2]
    for r in rows:
        assert r["job_type"] == 1
        assert r["buyers"] == 3
        assert r["enum_completed"] == 1
        assert r["bnb_completed"] == 1
        assert r["enum_maps"] == math.factorial(3) * math.comb(r["sellers"], 3)
        assert r["maxuosg_runtime_secs"] > 0.0
        assert r["enum_over_maxuosg"] > 0.0


def test_bench_sweep_passes_its_budget_to_the_matching_run(monkeypatch):
    budgets = []

    def spy(s, name, seed=0, budget_secs=harness.DEFAULT_BUDGET_SECS):
        budgets.append(budget_secs)
        return run_mechanism(s, name, seed, budget_secs)

    monkeypatch.setattr(harness, "run_mechanism", spy)
    rows = bench_sweep(1, [1], base_seed=0, budget_secs=0.0)
    assert budgets == [0.0]
    assert rows[0]["bnb_completed"] == 0


def test_bench_sweep_flags_budget_exhaustion():
    rows = bench_sweep(4, [3], base_seed=0, budget_secs=0.05)
    assert rows[0]["enum_completed"] == 0
    assert rows[0]["enum_maps"] == ""


def _spans_module():
    """`perfbench/spans.py`, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_exist():
    """Every `(module, function)` that the benchmark's tracer rebinds
    (`TRACED` in `perfbench/spans.py`) is still a function of the package:
    a traced run would otherwise fail on a renamed or deleted one."""
    spans = _spans_module()
    assert spans.TRACED
    for module, name, _ in spans.TRACED:
        fn = getattr(importlib.import_module(f"vcauction.{module}"), name, None)
        assert callable(fn), f"vcauction.{module}.{name}"


def test_tracer_reads_the_arguments_of_every_traced_call(monkeypatch):
    """Every traced function, wrapped in its `Tracer.span` and rebound
    wherever the package holds it (as `Tracer.install` does, but undone at
    teardown), keeps working, and every attrs reader of `TRACED` runs on
    the calls a traced benchmark makes: a set-up pass, one auction per
    mechanism, both audits, `solve_optimal`, `vcg_payment` and a buyer
    list. `layer_metrics` then gives every per-layer figure that
    `BENCHMARK.json` declares."""
    spans = _spans_module()
    tracer = spans.Tracer()
    ran: dict[str, int] = {}

    def counted(name, attrs):
        def read(args, kwargs, out):
            ran[name] = ran.get(name, 0) + 1
            return attrs(args, kwargs, out)

        return read

    modules = [m for n, m in list(sys.modules.items()) if n == "vcauction" or n.startswith("vcauction.")]
    readers = set()
    for module, fname, attrs in spans.TRACED:
        name = f"{module}.{fname}"
        if attrs is not None:
            readers.add(name)
            attrs = counted(name, attrs)
        orig = getattr(sys.modules[f"vcauction.{module}"], fname)
        wrapped = tracer.span(name, orig, attrs)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    monkeypatch.setattr(m, key, wrapped)

    tracer.auction = "setup:0"
    s = vcauction.scenario_loads(vcauction.scenario_dumps(vcauction.generate(TINY_CFG, seed=0)))
    assert vcauction.validate_scenario(s) == []
    tracer.auction = "auction:0"
    for name in MECHANISMS:
        assert vcauction.run_mechanism(s, name, seed=0).success, name
    for mechanism in ("opt", "maxuosg"):
        report, rows = vcauction.verify_report(s, mechanism)
        assert report["success"] and not report["truncated"] and rows
    best = vcauction.solve_optimal(s)
    sid = best.assignment.pairs[0][1]
    assert vcauction.vcg_payment(s, best.assignment, best.objective_value, sid) >= s.seller(sid).bid
    vcauction.build_buyer_list(s, s.buyers[0])

    assert ran.keys() == readers
    metrics = spans.layer_metrics(tracer.spans, 1)
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert metrics.keys() == {layer["name"] for layer in declared["per_layer"]}
    assert all(math.isfinite(value) for value, _ in metrics.values())
    # One figure fed by each reader, and the set-up pass's.
    fed = ("matching.list_entries", "matching.scan_events", "matching.scan_accept_ratio", "baselines.etpm_ms",
           "baselines.lpm_ms", "baselines.rmm_ms", "optimal.root_ms", "optimal.pivot_ms", "harness.sweep_points",
           "generator.generate_ms")
    for name in fed:
        assert metrics[name][0] > 0, name
