"""Valuation, UoS and constraint-rule tests, including a worked three-provider case."""
import collections
import copy
import dataclasses
import itertools
import operator
import sys

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from vcauction import (
    BASELINE_KINDS,
    Assignment,
    BuyerId,
    GraphJob,
    JobEdge,
    Market,
    Scenario,
    SellerId,
    ServiceProvider,
    ValuationConfig,
    VirtualMachine,
    assignment_feasible,
    edge_feasible,
    expand_vms,
    generate,
    gross_utility,
    objective,
    pair_feasible,
    preset,
    run_baseline,
    run_matching,
    solve_optimal,
    uos,
    validate_scenario,
    verify_truthfulness_matching,
)

import vcauction.optimal as optimal
from vcauction.economics import _complete_value, _drop_columns, _max_assignment
from vcauction.matching import _all_rows_matched, build_broker_list, match

from helpers import make_tiny, three_provider_scenario


def single_buyer_scenario(t=0.7, alpha=1.0, base=0.2, beta1=0.8, beta2=0.95):
    """One buyer, one VM expanded to however many ranks fit t."""
    job = GraphJob(0, alpha, (t,), ())
    val = ValuationConfig(beta1, beta2)
    sps = (ServiceProvider(0, (VirtualMachine(base, int(t / base + 1e-9)),)),)
    s = Scenario(
        jobs=(job,),
        sps=sps,
        contact_rate=((0.0,),),
        coverage=(frozenset({0}),),
        epsilon=0.9,
        valuation=val,
        seed=0,
        sellers=expand_vms(sps, t, val),
    )
    assert validate_scenario(s) == []
    return s


def test_true_valuation_linear():
    """A seller's true valuation is beta2 - beta1 * capability."""
    assert ValuationConfig(0.8, 0.95).price_for(0.8) == pytest.approx(0.31)
    # degenerate flat valuation
    assert ValuationConfig(1e-12, 0.9).price_for(5.0) == pytest.approx(0.9)
    # the rule itself does not clamp; the generator's config check rejects this
    assert ValuationConfig(0.5, 1.0).price_for(2.0) == 0.0


def test_true_valuation_decreasing():
    cfg = ValuationConfig(0.8, 0.95)
    caps = np.linspace(0.1, 1.0, 10)
    qs = [cfg.price_for(float(c)) for c in caps]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_gross_utility():
    assert gross_utility(0.7, 0.2) == pytest.approx(0.5)
    assert gross_utility(0.4, 0.4) == 0.0
    assert gross_utility(0.6, 0.8) == pytest.approx(-0.2)


def test_uos_examples():
    assert uos(1.2, 0.4, 0.5) == pytest.approx(-0.02)
    assert uos(1.0, 0.5, 0.5) == 0.0
    assert uos(3.7, 0.0, 0.0) == 0.0


def test_objective_empty_and_single():
    s = single_buyer_scenario()
    assert objective(s, Assignment(())) == 0.0
    sid = SellerId(0, 0, 1)
    s2 = s.with_seller_bid(sid, 0.1)
    a = Assignment.from_pairs([(BuyerId(0, 0), sid)])
    assert objective(s2, a) == pytest.approx(0.4)


def test_objective_additive_over_disjoint_pairs():
    rng = np.random.default_rng(0)
    for seed in range(20):
        s = make_tiny(seed)
        feasible_pairs = [
            (b, sel.id)
            for b in s.buyers
            for sel in s.sellers
            if pair_feasible(s, b, sel.id)
        ]
        if len(feasible_pairs) < 2:
            continue
        k = int(rng.integers(1, min(4, len(feasible_pairs))))
        picked = [feasible_pairs[i] for i in rng.choice(len(feasible_pairs), k, replace=False)]
        total = objective(s, Assignment.from_pairs(picked))
        parts = sum(objective(s, Assignment.from_pairs([p])) for p in picked)
        assert total == pytest.approx(parts, abs=1e-12)


def test_objective_rejects_unknown_ids():
    s = single_buyer_scenario()
    with pytest.raises(ValueError):
        objective(s, Assignment.from_pairs([(BuyerId(5, 0), SellerId(0, 0, 1))]))
    with pytest.raises(ValueError):
        objective(s, Assignment.from_pairs([(BuyerId(0, 0), SellerId(3, 0, 1))]))


def test_pair_feasible_coverage_and_deadline():
    s = three_provider_scenario()
    buyer = BuyerId(0, 0)
    s2 = dataclasses.replace(s, coverage=(frozenset({1, 2}),))
    assert not pair_feasible(s2, buyer, SellerId(0, 1, 1))
    # capability above the component's tolerable time
    b_mid = BuyerId(0, 1)  # t = 2.5
    assert not pair_feasible(s, b_mid, SellerId(0, 0, 2))  # capability 3.0
    assert pair_feasible(s, buyer, SellerId(0, 1, 1))


def test_pair_feasible_uos_sign():
    # covered, t=0.7, c=0.2, alpha=1.5, bid 0.3 -> UoS 0.45 > 0
    s = single_buyer_scenario(alpha=1.5)
    sid = SellerId(0, 0, 1)
    assert pair_feasible(s.with_seller_bid(sid, 0.3), BuyerId(0, 0), sid)
    # boundary: alpha*g == bid is excluded
    s_eq = single_buyer_scenario(alpha=1.0)
    assert not pair_feasible(s_eq.with_seller_bid(sid, 0.5), BuyerId(0, 0), sid)


def test_edge_feasible_examples():
    s = three_provider_scenario()  # rates 0.05, epsilon 0.9
    assert edge_feasible(s, 1, 1, 99.0)
    assert edge_feasible(s, 0, 1, 0.7)  # exp(-0.035) ~ 0.9656 >= 0.9
    tight = dataclasses.replace(s, epsilon=0.97)
    assert not edge_feasible(tight, 0, 1, 0.7)


def test_edge_feasible_symmetric():
    for seed in range(12):
        s = make_tiny(seed)
        n = len(s.sps)
        for m1, m2 in itertools.product(range(n), repeat=2):
            for w in (0.05, 0.3, 0.7):
                assert edge_feasible(s, m1, m2, w) == edge_feasible(s, m2, m1, w)


def test_worked_assignment_is_feasible():
    s = three_provider_scenario()
    solution = Assignment.from_pairs(
        [
            (BuyerId(0, 0), SellerId(0, 1, 1)),
            (BuyerId(0, 1), SellerId(1, 0, 1)),
            (BuyerId(0, 2), SellerId(1, 0, 2)),
        ]
    )
    assert assignment_feasible(s, solution, require_complete=True)


def test_assignment_feasible_rejects_shared_seller():
    s = three_provider_scenario()
    a = Assignment.from_pairs(
        [
            (BuyerId(0, 0), SellerId(0, 1, 1)),
            (BuyerId(0, 1), SellerId(0, 1, 1)),
        ]
    )
    assert not assignment_feasible(s, a)


def test_assignment_feasible_completeness_toggle():
    s = three_provider_scenario()
    partial = Assignment.from_pairs([(BuyerId(0, 0), SellerId(0, 1, 1))])
    assert assignment_feasible(s, partial, require_complete=False)
    assert not assignment_feasible(s, partial, require_complete=True)


def test_assignment_feasible_checks_edges():
    s = three_provider_scenario()
    tight = dataclasses.replace(s, epsilon=0.999)
    cross = Assignment.from_pairs(
        [
            (BuyerId(0, 0), SellerId(0, 1, 1)),
            (BuyerId(0, 1), SellerId(1, 0, 1)),
        ]
    )
    same = Assignment.from_pairs(
        [
            (BuyerId(0, 0), SellerId(0, 1, 1)),
            (BuyerId(0, 1), SellerId(0, 0, 1)),
        ]
    )
    assert not assignment_feasible(tight, cross)
    assert assignment_feasible(tight, same)


def _spec_value(s, a):
    """`objective` where `assignment_feasible(..., require_complete=True)`
    holds, else None; None too for an id the scenario does not have, on
    which the scalar rules raise."""
    try:
        ok = assignment_feasible(s, a, require_complete=True)
    except ValueError:
        return None
    return objective(s, a) if ok else None


def _agreed_feasible(s, a) -> bool:
    """Whether `a` is complete and feasible, after checking that both
    forms say so alike."""
    got, want = _complete_value(Market(s), a), _spec_value(s, a)
    # repr tells every bit of a float.
    assert repr(got) == repr(want), a
    return want is not None


def test_complete_value_equals_the_scalar_rules_on_mechanism_outputs():
    """On every mechanism's output, and on tiny scenarios on each output
    with one buyer moved to another seller, the compiled check is None
    exactly where the scalar rules reject, and otherwise `objective` bit
    for bit."""
    scenarios = [make_tiny(seed) for seed in range(200)]
    c2 = dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3))
    for cfg in (preset("small"), preset("large"), c2):
        scenarios += [generate(cfg, seed=seed) for seed in range(10)]
    outputs = 0
    kept = collections.Counter()
    for s in scenarios:
        found = [solve_optimal(s).assignment, run_matching(s).assignment]
        found += [run_baseline(s, kind, seed=s.seed) for kind in BASELINE_KINDS]
        for a in filter(None, found):
            assert _agreed_feasible(s, a)
            outputs += 1
            if len(s.buyers) <= 4:
                for (b, old), sel in itertools.product(a.pairs, s.sellers):
                    if sel.id != old:
                        moved = [(b2, sel.id if b2 == b else sid) for b2, sid in a.pairs]
                        kept[_agreed_feasible(s, Assignment.from_pairs(moved))] += 1
    # Both answers come up among the moves: C1, C2 and a shared seller
    # reject most of them.
    assert (outputs, kept[True], kept[False]) == (355, 116, 1614)


def test_complete_value_rejects_each_broken_rule():
    """Forged assignments of the three-provider job, each breaking one rule
    of a complete feasible one."""
    s = three_provider_scenario()
    b0, b1, b2 = s.buyers
    good = [(b0, SellerId(0, 1, 1)), (b1, SellerId(1, 0, 1)), (b2, SellerId(1, 0, 2))]
    assert _agreed_feasible(s, Assignment.from_pairs(good))
    # b2's seller bids all its gross utility, so the pair's UoS is 0.
    sid = good[2][1]
    gross = gross_utility(s.tolerable_time(b2), s.seller(sid).capability)
    priced_out = s.with_seller_bid(sid, s.alpha(b2) * gross)
    forged = {
        "uncovered provider": (dataclasses.replace(s, coverage=(frozenset({1, 2}),)), good),
        "capability past the deadline": (s, [good[0], (b1, SellerId(0, 0, 2)), good[2]]),
        "UoS at most the tolerance": (priced_out, good),
        "C2 edge": (dataclasses.replace(s, epsilon=0.999), good),
        "shared seller": (s, [good[0], good[1], (b2, good[1][1])]),
        "missing buyer": (s, good[:2]),
        "duplicate buyer": (s, good + [(b2, SellerId(2, 0, 1))]),
        "unknown buyer": (s, good + [(BuyerId(0, 3), SellerId(2, 0, 1))]),
        "unknown seller": (s, [good[0], good[1], (b2, SellerId(2, 0, 9))]),
    }
    for rule, (forged_s, pairs) in forged.items():
        assert not _agreed_feasible(forged_s, Assignment.from_pairs(pairs)), rule


def _kernel_scenario(source: str, seed: int, reverse: bool):
    s = make_tiny(seed) if source == "tiny" else generate(preset(source), seed=seed)
    # The kernel's columns follow SellerId order whatever the scenario's order.
    return dataclasses.replace(s, sellers=s.sellers[::-1]) if reverse else s


def _assert_kernel_matches_spec(s, m):
    kept = sorted(sel.id for sel in s.sellers)
    assert list(m.sellers) == kept and m.buyers == s.buyers
    assert m.sp_of.tolist() == [sid.sp_index for sid in kept]
    for i, b in enumerate(s.buyers):
        for k, sid in enumerate(kept):
            sel = s.seller(sid)
            want = uos(s.alpha(b), gross_utility(s.tolerable_time(b), sel.capability), sel.bid)
            assert m.uos[i, k] == want
            assert m.gross[i, k] == s.alpha(b) * gross_utility(s.tolerable_time(b), sel.capability)
            assert m.feasible[i, k] == pair_feasible(s, b, sid)
    n_sp = len(s.sps)
    tables = {(i, j): allowed for i, nbrs in enumerate(m.edges) for j, allowed in nbrs}
    assert len(tables) == sum(len(nbrs) for nbrs in m.edges) == 2 * len(list(s.job_edges()))
    for b1, b2, weight in s.job_edges():
        i, j = s.buyers.index(b1), s.buyers.index(b2)
        want = [[edge_feasible(s, m1, m2, weight) for m2 in range(n_sp)] for m1 in range(n_sp)]
        assert tables[i, j] == want and tables[j, i] == want


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(["tiny", "tiny", "small", "large"]),
    seed=st.integers(0, 10_000),
    reverse=st.booleans(),
    data=st.data(),
)
def test_market_kernel_equals_scalar_rules(source, seed, reverse, data):
    """Every cell of the compiled kernel equals the scalar C1/UoS/C2 rules,
    and with_bid equals a fresh compile of the re-bid scenario."""
    s = _kernel_scenario(source, seed, reverse)
    m = Market(s)
    _assert_kernel_matches_spec(s, m)
    if not m.sellers:
        return
    sid = data.draw(st.sampled_from(m.sellers))
    bid = s.seller(sid).true_value * data.draw(st.floats(0.25, 3.0))
    rebid = m.with_bid(sid, bid)
    fresh = Market(s.with_seller_bid(sid, bid))
    assert np.array_equal(rebid.gross, fresh.gross)
    assert np.array_equal(rebid.uos, fresh.uos)
    assert np.array_equal(rebid.feasible, fresh.feasible)
    assert np.array_equal(rebid.bid, fresh.bid)
    assert all(a is b for (_, a), (_, b) in zip(sum(rebid.edges, []), sum(m.edges, [])))
    # The source kernel is left as it was.
    _assert_kernel_matches_spec(s, m)


def test_market_is_never_mutated():
    """Building the broker list, scanning it, solving exactly with and
    without a seller, re-bidding and sweeping a winner's bid leave every
    attribute of a market the same object, with the same contents."""
    s = generate(dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3)), seed=0)
    m = Market(s)
    before = dict(vars(m))
    contents = copy.deepcopy(before)
    match(s, build_broker_list(m))
    lists = optimal._lists(m)
    optimal._solve(m, lists, [], None)
    optimal._solve(m, lists, [0], None)
    m.with_bid(m.sellers[0], 0.5)
    rows = verify_truthfulness_matching(s, min(run_matching(s, market=m).payments), market=m)["rows"]
    assert any(r["won"] for r in rows)
    assert vars(m).keys() == before.keys()
    assert [name for name, value in vars(m).items() if value is not before[name]] == []
    for name, value in before.items():
        same = np.array_equal if isinstance(value, np.ndarray) else operator.eq
        assert same(value, contents[name]), name


@st.composite
def assignment_problems(draw):
    """`(n_cols, w, ok, rows)`: a rectangular weight matrix `w` with allowed
    cells `ok`, and its `_max_assignment` rows. Integer weights make ties
    common."""
    n_rows = draw(st.integers(0, 6))
    n_cols = n_rows + draw(st.integers(0, 3))
    density = draw(st.floats(0.2, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    w = [
        [rnd.choice((float(rnd.randint(-3, 3)), rnd.uniform(-10.0, 10.0))) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    ok = [[rnd.random() < density for _ in range(n_cols)] for _ in range(n_rows)]
    rows = [[(j, w[r][j]) for j in range(n_cols) if ok[r][j]] for r in range(n_rows)]
    return n_cols, w, ok, rows


@settings(max_examples=200, deadline=None)
@given(assignment_problems())
def test_max_assignment_equals_scipy(problem):
    """The augmenting-path routine finds scipy's optimum on rectangular
    matrices with forbidden cells, and -inf exactly when scipy finds that no
    assignment of every row exists."""
    n_cols, w, ok, rows = problem
    n_rows = len(rows)
    got = _max_assignment(rows, n_cols)[0]
    cost = np.array(
        [[-w[r][j] if ok[r][j] else np.inf for j in range(n_cols)] for r in range(n_rows)]
    ).reshape(n_rows, n_cols)
    try:
        r_idx, c_idx = linear_sum_assignment(cost)
    except ValueError:
        assert got == -math.inf
        return
    assert got == pytest.approx(-cost[r_idx, c_idx].sum(), abs=1e-9)


@st.composite
def cover_problems(draw):
    """`(n_cols, rows)`: 0-7 rows of allowed columns, each in shuffled order,
    on 0-7 columns, so the shape may be tall, square or wide and a row may
    allow no column."""
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    density = draw(st.floats(0.0, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [[j for j in range(n_cols) if rnd.random() < density] for _ in range(n_rows)]
    for cols in rows:
        rnd.shuffle(cols)
    return n_cols, rows


@settings(max_examples=300, deadline=None)
@given(cover_problems())
def test_hall_kernel_equals_scipy(problem):
    """The scan's Hall test says a matching covers every row exactly when
    scipy's maximum bipartite matching matches every row."""
    n_cols, rows = problem
    allowed = np.zeros((len(rows), n_cols), dtype=np.int8)
    for r, cols in enumerate(rows):
        allowed[r, cols] = 1
    if rows and n_cols:
        want = bool((maximum_bipartite_matching(csr_matrix(allowed), perm_type="column") >= 0).all())
    else:
        want = not rows
    assert _all_rows_matched(rows, n_cols) is want


def test_hall_kernel_walks_a_path_longer_than_the_recursion_limit():
    """Row i takes column i, then the last row's only column 0 is won back
    by one augmenting path through every row, with no RecursionError."""
    n = sys.getrecursionlimit() + 500
    rows = [[i, i + 1] for i in range(n - 1)] + [[0]]
    assert _all_rows_matched(rows, n)
    assert not _all_rows_matched(rows + [[n - 1]], n)


def test_hall_kernel_fails_hall_violations():
    # Rows 0 and 2 share their only column; three rows on two columns.
    assert not _all_rows_matched([[0], [0, 1], [0]], 3)
    assert not _all_rows_matched([[0, 1], [1, 0], [0, 1]], 2)
    assert not _all_rows_matched([[0], []], 2)
    assert _all_rows_matched([[0, 1], [0]], 2)
    assert _all_rows_matched([], 0)


def _all_allowed(w: list[list[float]]) -> tuple:
    """An `assignment_problems` draw in which every cell is allowed."""
    n_cols = len(w[0])
    ok = [[True] * n_cols for _ in w]
    return n_cols, w, ok, [list(enumerate(row)) for row in w]


@settings(max_examples=200, deadline=None)
@given(assignment_problems())
# A shift d_free - dist[j] that rounds below 0 once gave v[0] = -8.4e-142.
@example(_all_allowed([
    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0] * 6,
    [0.0, 1.0, 0.0, 8.425089097189998e-142, 0.0, 0.0],
    [0.0] * 6,
]))
def test_max_assignment_certificate(problem):
    """The matching and column duals returned with the value prove it
    optimal: the matching is one-to-one on allowed cells and sums to the
    value, v >= 0 and is 0 on unmatched columns, and with each row's dual
    read off its matched cell, u + v covers every allowed weight and sums to
    the value (LP duality for the assignment problem)."""
    n_cols, w, ok, rows = problem
    value, cols, v = _max_assignment(rows, n_cols)
    if value == -math.inf:
        return
    assert len(cols) == len(rows) and len(set(cols)) == len(rows)
    assert all(ok[r][j] for r, j in enumerate(cols))
    assert sum(w[r][j] for r, j in enumerate(cols)) == pytest.approx(value, abs=1e-9)
    assert len(v) == n_cols and min(v, default=0.0) >= 0.0
    assert all(v[j] == 0.0 for j in set(range(n_cols)) - set(cols))
    u = [w[r][j] - v[j] for r, j in enumerate(cols)]
    for r, cells in enumerate(rows):
        for j, weight in cells:
            assert u[r] + v[j] >= weight - 1e-9
    assert sum(u) + sum(v) == pytest.approx(value, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(assignment_problems(), st.integers(0, 5), st.lists(st.integers(0, 8), max_size=3))
# Row 0's only cell is the column dropped, so it is left with no cell.
@example(
    (2, [[2.0, 0.0], [1.0, 1.0]], [[True, False], [True, True]], [[(0, 2.0)], [(0, 1.0), (1, 1.0)]]),
    0,
    [],
)
def test_drop_column_equals_a_cold_solve(problem, pick, extra):
    """Solved in full, then one matched column and 0-3 more (`extra`,
    matched or not) dropped, each row that held one inserted again by one
    augmenting path: the value is a cold solve's on the reduced rows and
    scipy's, and the matching and duals certify it (v >= 0 and 0 off the
    matching, each row's matched cell its best w - v)."""
    n_cols, w, ok, rows = problem
    value, cols, v = _max_assignment(rows, n_cols)
    if value == -math.inf or not rows:
        return
    ks = {cols[pick % len(rows)]} | {j % n_cols for j in extra}
    reduced = [[(j, x) for j, x in cells if j not in ks] for cells in rows]
    before = (list(cols), list(v))
    got, got_cols, got_v = _drop_columns(reduced, cols, v, ks)
    assert (cols, v) == before
    cold = _max_assignment(reduced, n_cols)[0]
    cost = np.array(
        [[-x if ok[r][j] and j not in ks else np.inf for j, x in enumerate(w[r])] for r in range(len(rows))]
    )
    try:
        r_idx, c_idx = linear_sum_assignment(cost)
    except ValueError:
        assert got == cold == -math.inf
        return
    assert got == pytest.approx(cold, abs=1e-9)
    assert got == pytest.approx(-cost[r_idx, c_idx].sum(), abs=1e-9)
    assert len(set(got_cols)) == len(rows) and not ks & set(got_cols)
    assert all(ok[r][j] for r, j in enumerate(got_cols))
    assert sum(w[r][j] for r, j in enumerate(got_cols)) == pytest.approx(got, abs=1e-9)
    assert min(got_v) >= 0.0
    assert all(got_v[j] == 0.0 for j in set(range(n_cols)) - set(got_cols))
    for cells, j in zip(reduced, got_cols):
        best = max(x - got_v[i] for i, x in cells)
        assert dict(cells)[j] - got_v[j] == pytest.approx(best, abs=1e-9)


def test_max_assignment_without_complete_matching():
    # Hall's condition fails: two rows share their only allowed column.
    assert _max_assignment([[(0, 1.0)], [(0, 2.0)], [(1, 5.0), (2, 1.0)]], 3)[0] == -math.inf
    assert _max_assignment([[]], 2)[0] == -math.inf
    assert _max_assignment([[(0, 1.0)], [(1, 1.0)]], 2) == (2.0, [0, 1], [0.0, 0.0])
    assert _max_assignment([], 0) == (0.0, [], [])
