"""Exact-solver tests: brute-force oracles, pivot payments, bid sweeps."""
import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from vcauction import (
    Assignment,
    BudgetExceeded,
    BuyerId,
    GenConfig,
    GraphJob,
    JobEdge,
    JobTypeSpec,
    Market,
    Scenario,
    TOLERANCE,
    SellerId,
    ServiceProvider,
    ValuationConfig,
    VirtualMachine,
    assignment_feasible,
    default_bid_grid,
    expand_vms,
    generate,
    objective,
    pair_feasible,
    preset,
    run_mechanism,
    run_optimal_mechanism,
    solve_naive,
    solve_optimal,
    uos,
    validate_scenario,
    vcg_payment,
    verify_truthfulness_opt,
)

from vcauction.optimal import _lists, _solve, _sweep
from helpers import independent_best_value, make_tiny
from test_golden import _opt_run


def one_sp_scenario(times, alpha, bases, edges=(), beta=(0.8, 0.95), seed=0):
    job = GraphJob(0, alpha, tuple(times), tuple(JobEdge(*e) for e in edges))
    val = ValuationConfig(*beta)
    md = max(times)
    sps = (
        ServiceProvider(
            0, tuple(VirtualMachine(b, max(0, math.floor(md / b + 1e-9))) for b in bases)
        ),
    )
    s = Scenario(
        jobs=(job,),
        sps=sps,
        contact_rate=((0.0,),),
        coverage=(frozenset({0}),),
        epsilon=0.9,
        valuation=val,
        seed=seed,
        sellers=expand_vms(sps, md, val),
    )
    assert validate_scenario(s) == []
    return s


def hand_enumerate(s):
    """All injective buyer-to-seller maps, scored from raw fields."""
    best = None
    count = 0
    for combo in itertools.combinations(s.sellers, len(s.buyers)):
        for perm in itertools.permutations(combo):
            count += 1
            total = 0.0
            ok = True
            chosen = list(zip(s.buyers, perm))
            for b, sel in chosen:
                if not pair_feasible(s, b, sel.id):
                    ok = False
                    break
                t = s.jobs[b.job_index].tolerable_times[b.component_index]
                total += s.jobs[b.job_index].alpha * (t - sel.capability) - sel.bid
            if not ok:
                continue
            for (b1, s1), (b2, s2) in itertools.combinations(chosen, 2):
                if b1.job_index != b2.job_index:
                    continue
                job = s.jobs[b1.job_index]
                pair = {b1.component_index, b2.component_index}
                if any({e.x1, e.x2} == pair for e in job.edges):
                    m1, m2 = s1.id.sp_index, s2.id.sp_index
                    w = next(e.weight for e in job.edges if {e.x1, e.x2} == pair)
                    if m1 != m2:
                        rate = s.contact_rate[m1][m2]
                        if math.exp(-rate * w) < s.epsilon - 1e-9:
                            ok = False
                            break
            if ok and (best is None or total > best):
                best = total
    return best, count


def test_two_by_three_against_hand_enumeration():
    s = one_sp_scenario(times=(0.7, 0.7), alpha=3.0, bases=(0.4, 0.25), edges=((0, 1, 0.2),))
    assert len(s.sellers) == 3
    best, count = hand_enumerate(s)
    assert count == 6
    res = solve_naive(s)
    assert res.explored == 6
    assert res.objective_value == pytest.approx(best, abs=1e-12)
    opt = solve_optimal(s)
    assert opt.objective_value == pytest.approx(best, abs=1e-12)
    assert opt.assignment == res.assignment


def test_three_buyers_five_sellers_enumeration_count():
    s = one_sp_scenario(times=(0.7, 0.65, 0.6), alpha=4.0, bases=(0.3, 0.25, 0.7))
    assert len(s.sellers) == 5
    res = solve_naive(s)
    assert res.explored == math.factorial(3) * math.comb(5, 3)
    assert res.explored == 60
    opt = solve_optimal(s)
    assert opt.objective_value == pytest.approx(res.objective_value, abs=1e-9)


def test_solvers_match_brute_force_on_random_tinies():
    for seed in range(40):
        s = make_tiny(seed)
        oracle = independent_best_value(s)
        res_n = solve_naive(s)
        res_o = solve_optimal(s)
        if oracle is None:
            assert res_n.assignment is None
            assert res_o.assignment is None
        else:
            assert res_n.objective_value == pytest.approx(oracle, abs=1e-9)
            assert res_o.objective_value == pytest.approx(oracle, abs=1e-9)
            assert res_o.assignment == res_n.assignment


def test_c2_binding_solves_match_enumeration():
    """Where contacts decay fast, the root assignment often breaks C2 and
    phase 1 must search past its first completion. The auction, root and
    payments, still equals the one built on the enumeration oracle."""
    cfg = GenConfig(job_types=(1,), sp_count=3, vms_per_sp=(1, 2), lambda_range=(0.2, 0.3))
    searched = 0
    for seed in range(50):
        s = generate(cfg, seed=seed)
        root = solve_naive(s)
        out = run_optimal_mechanism(s)
        if root.assignment is None:
            assert out is None, seed
            continue
        assert out.assignment == root.assignment, seed
        assert repr(out.objective_value) == repr(root.objective_value), seed
        for winner, payment in out.payments.items():
            without = solve_naive(s, excluded=frozenset({winner}))
            f_wo = without.objective_value if without.assignment is not None else 0.0
            assert payment == root.objective_value - f_wo + s.seller(winner).bid, (seed, winner)
        searched += out.explored_nodes > 0
    assert searched >= 10


def test_candidates_are_each_rows_sellers_by_descending_uos():
    """The list form's candidates, split from the broker list, are each
    buyer's C1 sellers sorted on their own by (-UoS, seller)."""
    c2 = dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3))
    scenarios = [make_tiny(seed) for seed in range(200)]
    scenarios += [generate(preset("small"), seed=seed) for seed in range(20)]
    scenarios += [generate(c2, seed=seed) for seed in range(10)]
    scenarios += [generate(preset("large"), seed=seed) for seed in range(10)]
    for s in scenarios:
        m = Market(s)
        want = [
            sorted((si for si, ok in enumerate(row) if ok), key=lambda si: (-values[si], si))
            for row, values in zip(m.feasible.tolist(), m.uos.tolist())
        ]
        assert _lists(m)[4] == want


def test_pivot_resolves_match_enumeration():
    """Each payment re-solve, the optimum with one winner removed, equals the
    enumeration oracle's, pairs and objective bits alike."""
    checked = 0
    for seed in range(200):
        s = make_tiny(seed)
        out = run_optimal_mechanism(s)
        if out is None:
            continue
        for winner in out.payments:
            excluded = frozenset({winner})
            res_o = solve_optimal(s, excluded=excluded)
            res_n = solve_naive(s, excluded=excluded)
            assert res_o.assignment == res_n.assignment, (seed, winner)
            assert repr(res_o.objective_value) == repr(res_n.objective_value), (seed, winner)
            checked += 1
    assert checked == 110


def test_seeded_pivot_resolves_match_enumeration():
    """A re-solve seeded from the root's list form, the winner's column
    banned and the root relaxation reused as the auction's pivots do, equals
    the enumeration oracle; so do the payments built on it."""
    checked = 0
    for seed in range(200):
        s = make_tiny(seed)
        out = run_optimal_mechanism(s)
        if out is None:
            continue
        m = Market(s)
        lists = _lists(m)
        for winner, payment in out.payments.items():
            res_o = _solve(m, lists, [m.seller_index[winner]], None)
            res_n = solve_naive(s, excluded=frozenset({winner}))
            assert res_o.assignment == res_n.assignment, (seed, winner)
            assert repr(res_o.objective_value) == repr(res_n.objective_value), (seed, winner)
            f_wo = res_n.objective_value if res_n.assignment is not None else 0.0
            assert payment == out.objective_value - f_wo + s.seller(winner).bid
            checked += 1
    assert checked == 110


def test_pivot_resolves_are_solve_optimal_without_the_winner():
    """The auction's pivot re-solves run the code of `solve_optimal` with
    the winner excluded, node counts included: those counts sum to
    `pivot_nodes`, and each payment is built on that objective bit for bit."""
    checked = 0
    tinies = (make_tiny(seed) for seed in range(200))
    smalls = (generate(preset("small"), seed=seed) for seed in range(10))
    for s in itertools.chain(tinies, smalls):
        out = run_optimal_mechanism(s)
        if out is None:
            continue
        nodes = 0
        for winner, payment in out.payments.items():
            without = solve_optimal(s, excluded=frozenset({winner}))
            want = out.objective_value - without.objective_value + s.seller(winner).bid
            assert payment == want, (s.seed, winner)
            nodes += without.explored
            checked += 1
        assert nodes == out.pivot_nodes, s.seed
    assert checked == 180


def test_unknown_excluded_seller_is_refused():
    """A mistyped excluded id is an error, not the unrestricted optimum."""
    s = make_tiny(0)
    ghost = SellerId(9, 9, 9)
    for solve in (solve_optimal, solve_naive):
        with pytest.raises(ValueError, match="unknown seller s9.9.9"):
            solve(s, excluded=frozenset({ghost}))
        with pytest.raises(ValueError, match="unknown seller"):
            solve(s, excluded=frozenset({s.sellers[0].id, ghost}))


def test_exact_auction_on_large_is_pinned():
    """The whole exact auction on `large` seeds 0-2, 19 buyers each with a
    pivot re-solve per winner: pairs, objective and payments equal, bit for
    bit, those recorded in `exact_large.json` before the pivot re-solves
    were warm-started."""
    want = json.loads(Path(__file__).with_name("exact_large.json").read_text())
    for seed in range(3):
        assert _opt_run(generate(preset("large"), seed=seed)) == want[str(seed)], seed


def _swap_ties(s, a: Assignment) -> list[Assignment]:
    """The complete feasible assignments, other than `a`, that swap the
    sellers of two buyers of one job placed on one provider and are worth
    `a` within the tolerance. Truthful bids make UoS additive within a job,
    so such swaps are exact ties up to rounding."""
    pairs = dict(a.pairs)
    ties = []
    for b1, b2 in itertools.combinations(pairs, 2):
        if b1.job_index != b2.job_index or pairs[b1].sp_index != pairs[b2].sp_index:
            continue
        swapped = Assignment.from_pairs({**pairs, b1: pairs[b2], b2: pairs[b1]}.items())
        if (
            assignment_feasible(s, swapped, require_complete=True)
            and abs(objective(s, swapped) - objective(s, a)) <= TOLERANCE
        ):
            ties.append(swapped)
    return ties


def test_tie_break_matches_enumeration_on_swap_ties():
    """Where the optimum ties with a swap of two buyers of one job, the root
    solve and every pivot re-solve return the enumeration oracle's smallest
    pair list and its objective bits."""
    tied = 0
    for seed in range(200):
        s = make_tiny(seed)
        root = solve_naive(s)
        if root.assignment is None or not _swap_ties(s, root.assignment):
            continue
        tied += 1
        assert all(root.assignment.pairs < t.pairs for t in _swap_ties(s, root.assignment))
        out = run_optimal_mechanism(s)
        assert out.assignment == root.assignment, seed
        assert repr(out.objective_value) == repr(root.objective_value), seed
        for winner in out.payments:
            excluded = frozenset({winner})
            res_o = solve_optimal(s, excluded=excluded)
            res_n = solve_naive(s, excluded=excluded)
            assert res_o.assignment == res_n.assignment, (seed, winner)
            assert repr(res_o.objective_value) == repr(res_n.objective_value), (seed, winner)
    assert tied >= 20


def test_large_exact_auction_completes():
    """`large` seed 2, which used to run past any practical budget: the
    exact auction finishes, feasible, at least as good as matching, and
    pays every winner at least its bid."""
    s = generate(preset("large"), seed=2)
    run = run_mechanism(s, "opt", budget_secs=30)
    assert run.success and not run.truncated
    assert assignment_feasible(s, run.assignment, require_complete=True)
    matching = run_mechanism(s, "maxuosg", budget_secs=30)
    assert matching.success
    assert run.objective_value >= matching.objective_value - TOLERANCE
    for sid, payment in run.payments.items():
        assert payment >= s.seller(sid).bid - TOLERANCE


def test_single_provider_matches_hungarian_oracle():
    checked = 0
    for seed in range(200):
        s = make_tiny(seed)
        if len(s.sps) != 1:
            continue
        buyers, sellers = s.buyers, s.sellers
        if len(buyers) > len(sellers):
            assert solve_optimal(s).assignment is None
            continue
        big = 1e6
        cost = np.full((len(buyers), len(sellers)), big)
        for i, b in enumerate(buyers):
            for j, sel in enumerate(sellers):
                if pair_feasible(s, b, sel.id):
                    t = s.jobs[b.job_index].tolerable_times[b.component_index]
                    cost[i, j] = -(s.jobs[b.job_index].alpha * (t - sel.capability) - sel.bid)
        rows, cols = linear_sum_assignment(cost)
        total = cost[rows, cols].sum()
        res = solve_optimal(s)
        if total > big / 2:
            assert res.assignment is None
        else:
            assert res.assignment is not None
            assert res.objective_value == pytest.approx(-total, abs=1e-9)
        checked += 1
        if checked >= 40:
            break
    assert checked >= 20


def test_zero_buyers_yield_empty_assignment():
    sps = (ServiceProvider(0, (VirtualMachine(0.3, 0),)),)
    s = Scenario(
        jobs=(),
        sps=sps,
        contact_rate=((0.0,),),
        coverage=(),
        epsilon=0.9,
        valuation=ValuationConfig(0.8, 0.95),
        seed=0,
        sellers=(),
    )
    assert validate_scenario(s) == []
    assert solve_naive(s).assignment == Assignment(())
    assert solve_optimal(s).assignment == Assignment(())
    out = run_optimal_mechanism(s)
    assert out is not None
    assert out.payments == {}
    assert out.objective_value == 0.0


def test_unservable_buyer_makes_problem_infeasible():
    # second component's deadline is under every capability on offer
    s = one_sp_scenario(times=(0.7, 0.1), alpha=3.0, bases=(0.4, 0.25))
    assert solve_naive(s).assignment is None
    assert solve_optimal(s).assignment is None
    assert run_optimal_mechanism(s) is None


def test_pivot_payment_two_seller_example():
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.25,))
    # sellers: rank 1 cap 0.25 (q 0.75, surplus 0.60), rank 2 cap 0.5 (q 0.55, surplus 0.05)
    out = run_optimal_mechanism(s)
    assert out is not None
    winner = SellerId(0, 0, 1)
    assert dict(out.assignment.pairs) == {BuyerId(0, 0): winner}
    assert out.objective_value == pytest.approx(0.60)
    assert out.payments[winner] == pytest.approx(1.30)
    # utility equals the surplus gap over the runner-up
    assert out.payments[winner] - s.seller(winner).true_value == pytest.approx(0.55)


def test_pivot_payment_sole_seller():
    s = one_sp_scenario(times=(0.3,), alpha=20.0, bases=(0.25,))
    assert len(s.sellers) == 1
    out = run_optimal_mechanism(s)
    winner = SellerId(0, 0, 1)
    assert out.payments[winner] == pytest.approx(1.0)  # bid 0.75 + surplus 0.25


def test_pivot_payment_identical_rivals_pay_bid():
    s = one_sp_scenario(times=(0.5,), alpha=5.0, bases=(0.3, 0.3))
    out = run_optimal_mechanism(s)
    winner = SellerId(0, 0, 1)  # canonical tie-break picks the lower VM index
    assert dict(out.assignment.pairs) == {BuyerId(0, 0): winner}
    assert out.payments[winner] == pytest.approx(s.seller(winner).bid)


def test_vcg_payment_equals_the_auctions_payments():
    """`vcg_payment` of every winner of `small` and `large` seeds 0-9 is the
    payment `run_optimal_mechanism` computes, bit for bit."""
    checked = 0
    for name in ("small", "large"):
        for seed in range(10):
            s = generate(preset(name), seed=seed)
            out = run_optimal_mechanism(s)
            for sid, payment in out.payments.items():
                assert vcg_payment(s, out.assignment, out.objective_value, sid) == payment, (name, seed, sid)
                checked += 1
    assert checked == 260


def test_vcg_payment_rejects_non_winner():
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.25,))
    res = solve_optimal(s)
    loser = SellerId(0, 0, 2)
    assert res.assignment.buyer_of(loser) is None
    with pytest.raises(ValueError):
        vcg_payment(s, res.assignment, res.objective_value, loser)


def test_payments_cover_bids_on_random_tinies():
    seen = 0
    for seed in range(60):
        s = make_tiny(seed)
        out = run_optimal_mechanism(s)
        if out is None:
            continue
        seen += 1
        for sid, pay in out.payments.items():
            assert pay >= s.seller(sid).bid - 1e-9
    assert seen >= 10


def test_enumeration_keeps_the_smaller_pair_list_of_a_tie():
    """Three one-component jobs, each barred from one provider: only two
    derangements are feasible, and they tie. Enumeration meets the one with
    the larger pair list first; it keeps the smaller, as `solve_optimal`
    does."""
    cfg = GenConfig(
        job_types=(9, 9, 9),
        sp_count=3,
        vms_per_sp=(1, 1),
        alpha_range=(3.0, 3.0),
        base_time_range=(0.4, 0.4),
        tolerable_time_range=(0.65, 0.65),
        custom_types=(JobTypeSpec(9, 1, ()),),
    )
    s = dataclasses.replace(
        generate(cfg, seed=0), coverage=(frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1}))
    )
    assert validate_scenario(s) == []
    naive, exact = solve_naive(s), solve_optimal(s)
    assert [(b.job_index, sid.sp_index) for b, sid in naive.assignment.pairs] == [(0, 1), (1, 2), (2, 0)]
    assert naive.assignment == exact.assignment
    assert repr(naive.objective_value) == repr(exact.objective_value)


def test_sweep_rows_and_the_bids_that_beat_truth():
    """`_sweep` prices each grid bid through `payment_at`, and returns the
    truthful row's utility and the bids whose utility beats it."""
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.25,))
    sid = SellerId(0, 0, 1)
    q = s.seller(sid).true_value

    def payment_at(bid):  # loses above q, and is paid most at q
        return None if bid > q else q + (1.0 if bid == q else 0.1)

    rows, truthful, beats = _sweep(s, sid, payment_at, None)
    assert [r["bid"] for r in rows] == list(default_bid_grid(q))
    assert truthful == pytest.approx(1.0)
    assert beats == []
    for r in rows:
        assert r["won"] == (r["bid"] <= q)
        assert r["utility"] == (r["payment"] - q if r["won"] else 0.0)
    rows, truthful, beats = _sweep(s, sid, lambda bid: bid + 0.1, None)
    assert truthful == pytest.approx(0.1)
    assert beats == [r["bid"] for r in rows if r["bid"] > q]


def test_sweep_reads_the_clock_before_each_grid_point():
    """Past its deadline a sweep raises BudgetExceeded before it prices the
    next bid, whatever `payment_at` costs."""
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.25,))
    sid = SellerId(0, 0, 1)
    priced = []
    with pytest.raises(BudgetExceeded, match="bid sweep of s0.0.1"):
        _sweep(s, sid, priced.append, time.perf_counter() - 1.0)
    assert priced == []

    deadline = time.perf_counter() + 0.2

    def outlasts_the_deadline(bid):
        priced.append(bid)
        time.sleep(max(0.0, deadline - time.perf_counter()) + 0.001)

    with pytest.raises(BudgetExceeded):
        _sweep(s, sid, outlasts_the_deadline, deadline)
    assert len(priced) == 1


def test_default_bid_grid_shape():
    grid = default_bid_grid(0.8)
    assert len(grid) in (21, 22)
    assert grid[0] == pytest.approx(0.4)
    assert grid[-1] == pytest.approx(1.2)
    assert any(b == 0.8 for b in grid)
    assert list(grid) == sorted(grid)


def test_truthful_bid_dominates_on_worked_example():
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.25,))
    report = verify_truthfulness_opt(s, SellerId(0, 0, 1))
    assert report["dominant"]
    assert report["dominance_violations"] == []
    assert report["truthful_utility"] == pytest.approx(0.55)
    # overbidding past the rival's slack loses the sale outright
    lost = [r for r in report["rows"] if not r["won"]]
    assert all(r["utility"] == 0.0 for r in lost)


def test_budget_exhaustion_raises():
    s = generate(preset("small"), seed=0)
    with pytest.raises(BudgetExceeded):
        solve_optimal(s, deadline=time.perf_counter() + 1e-6)
    with pytest.raises(BudgetExceeded):
        solve_naive(s, deadline=time.perf_counter() + 1e-6)


def test_solver_is_deterministic():
    s = make_tiny(3)
    a = solve_optimal(s)
    b = solve_optimal(s)
    assert a.assignment == b.assignment
    assert a.explored == b.explored
    assert a.objective_value == b.objective_value
