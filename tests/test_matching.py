"""Greedy list-matching tests: list construction, the scan itself, pricing,
and the bid-sweep classification."""
import collections
import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest

from vcauction import (
    Assignment,
    BuyerId,
    Market,
    Scenario,
    SellerId,
    ServiceProvider,
    ValuationConfig,
    VirtualMachine,
    assignment_feasible,
    build_broker_list,
    build_buyer_list,
    generate,
    gross_utility,
    match,
    matching_payment,
    matching_payments,
    objective,
    pair_feasible,
    preset,
    run_matching,
    solve_optimal,
    validate_scenario,
    verify_report,
    verify_truthfulness_matching,
)
from vcauction.economics import _edges_ok
from vcauction.model import TOLERANCE
from vcauction.optimal import BudgetExceeded, default_bid_grid
import vcauction.matching as matching_module

from helpers import backtrack_scenario, broker_entries, make_tiny, reference_match
from test_golden import _trace_digest
from test_optimal import one_sp_scenario

DELTA = 1e-3


def payment_example_scenario():
    """alpha 1, one VM expanded to capabilities 0.2/0.4/0.6; bids pinned so the
    first two sellers are worth 0.3 and 0.2 and the third is priced out."""
    s = one_sp_scenario(times=(0.7,), alpha=1.0, bases=(0.2,))
    s = s.with_seller_bid(SellerId(0, 0, 1), 0.2)
    return s.with_seller_bid(SellerId(0, 0, 2), 0.1)


def test_buyer_list_invariants():
    for seed in range(40):
        s = make_tiny(seed)
        for b in s.buyers:
            lst = build_buyer_list(s, b)
            values = [e.value for e in lst.entries]
            assert all(x >= y for x, y in zip(values, values[1:]))
            assert lst.entries[-1].is_virtual
            assert not any(e.is_virtual for e in lst.real_entries())
            real = lst.real_entries()
            if real:
                assert lst.entries[-1].value == pytest.approx(real[-1].value - DELTA)
                assert all(pair_feasible(s, b, e.seller) for e in real)
            else:
                assert len(lst.entries) == 1
                assert lst.entries[0].value == pytest.approx(-DELTA)


def test_broker_list_is_union_of_real_entries():
    for seed in range(30):
        s = make_tiny(seed)
        lists = [build_buyer_list(s, b) for b in s.buyers]
        entries = broker_entries(build_broker_list(Market(s)))
        values = [v for _, _, v in entries]
        assert all(x >= y for x, y in zip(values, values[1:]))
        # The scan does not re-check C1, so every entry must satisfy it.
        assert all(pair_feasible(s, b, sid) for b, sid, _ in entries)
        want = collections.Counter(
            (e.buyer, e.seller, e.value) for lst in lists for e in lst.real_entries()
        )
        assert collections.Counter(entries) == want
        assert broker_entries(build_broker_list(Market(s))) == entries


def test_broker_tie_break_by_buyer_then_seller():
    s = backtrack_scenario()
    broker = build_broker_list(Market(s))
    keyed = [(b, sid) for b, sid, _ in broker_entries(broker)]
    # both buyers value every seller identically, so buyers alternate
    assert keyed == [
        (BuyerId(0, 0), SellerId(0, 0, 1)),
        (BuyerId(0, 1), SellerId(0, 0, 1)),
        (BuyerId(0, 0), SellerId(1, 0, 1)),
        (BuyerId(0, 1), SellerId(1, 0, 1)),
        (BuyerId(0, 0), SellerId(1, 1, 1)),
        (BuyerId(0, 1), SellerId(1, 1, 1)),
    ]


def test_broker_ties_across_buyers_and_sellers():
    """Four cells of equal value on two buyers and two sellers: buyer first,
    then seller. The buyers of the test above differ only in the buyer, so
    there a seller-first order would read the same."""
    s = one_sp_scenario(times=(0.7, 0.7), alpha=1.0, bases=(0.3, 0.3))
    for sel in s.sellers:
        s = s.with_seller_bid(sel.id, 0.1)
    keyed = [(b, sid) for b, sid, _ in broker_entries(build_broker_list(Market(s)))]
    b0, b1 = s.buyers
    assert keyed == [
        (b0, SellerId(0, 0, 1)),
        (b0, SellerId(0, 1, 1)),
        (b1, SellerId(0, 0, 1)),
        (b1, SellerId(0, 1, 1)),
    ]


def test_backtracking_run_frozen_trace():
    """The cross-provider constraint kills every completion of the top pair,
    so the scan walks both fallback stages before completing. The unpruned
    walk scans the second anchor's subtree; the prune cuts it at once, since
    buyer 0's entries past it all sit on the provider the edge cannot span."""
    s = backtrack_scenario()
    broker = build_broker_list(Market(s))
    unpruned_assignment, unpruned = reference_match(s, broker)
    assert unpruned == (
        ("accept", 0),
        ("skip", 1),
        ("skip", 2),
        ("reject", 3),
        ("skip", 4),
        ("reject", 5),
        ("restart", 1),
        ("reject", 2),
        ("skip", 3),
        ("reject", 4),
        ("skip", 5),
        ("restart", 2),
        ("skip", 3),
        ("skip", 4),
        ("accept", 5),
        ("complete",),
    )
    out = run_matching(Market(s))
    assert out.success
    assert out.match_trace == (
        ("accept", 0),
        ("skip", 1),
        ("skip", 2),
        ("reject", 3),
        ("skip", 4),
        ("reject", 5),
        ("restart", 1),
        ("prune", 2),
        ("restart", 2),
        ("skip", 3),
        ("skip", 4),
        ("accept", 5),
        ("complete",),
    )
    assert out.assignment == unpruned_assignment
    assert dict(out.assignment.pairs) == {
        BuyerId(0, 0): SellerId(1, 0, 1),
        BuyerId(0, 1): SellerId(1, 1, 1),
    }
    assert out.objective_value == pytest.approx(0.209)
    assert out.payments[SellerId(1, 0, 1)] == pytest.approx(0.836)
    assert out.payments[SellerId(1, 1, 1)] == pytest.approx(0.767)
    # the fallback it lands on is also the exact optimum here
    opt = solve_optimal(s)
    assert opt.assignment == out.assignment
    assert opt.objective_value == pytest.approx(out.objective_value)


def test_deletion_branch_reachable():
    out = run_matching(Market(make_tiny(17)))
    kinds = [ev[0] for ev in out.match_trace]
    assert "delete" in kinds


SPARSE = dataclasses.replace(preset("large"), coverage_density=0.5)
C2_BINDING = dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3))


def _scan_cases():
    yield from (make_tiny(seed) for seed in range(200))
    for cfg, seeds in (
        (preset("small"), range(30)),
        (preset("large"), range(15)),
        (C2_BINDING, range(10)),
        (SPARSE, range(8, 17)),
    ):
        yield from (generate(cfg, seed=seed) for seed in seeds)


def test_pruned_scan_returns_the_reference_assignment():
    """The prune cuts only subtrees that hold no completion, so the scan
    finds the first completion of the unpruned one, or fails with it."""
    pruned = 0
    for s in _scan_cases():
        broker = build_broker_list(Market(s))
        got, trace = match(broker.market, broker)
        want, _ = reference_match(s, broker)
        assert got == want
        pruned += any(ev[0] == "prune" for ev in trace)
    assert pruned >= 20


def test_trace_free_scan_equals_the_traced_one():
    """The sweeps scan without a trace. That scan gives every buyer row the
    seller column `match` gives it, and given a list it builds exactly
    `match`'s trace, on backtracking and pruning scans too."""
    cases = [make_tiny(seed) for seed in range(200)]
    cases += [generate(SPARSE, seed=seed) for seed in range(17)]
    cases += [generate(C2_BINDING, seed=seed) for seed in range(10)]
    cases.append(backtrack_scenario())
    backtracked = 0
    for s in cases:
        broker = build_broker_list(Market(s))
        assignment, trace = match(broker.market, broker)
        lists = broker.market, broker.buyer.tolist(), broker.seller.tolist()
        seller_of = matching_module._scan(*lists, None, None)
        if assignment is None:
            assert seller_of is None
        else:
            m = broker.market
            assert assignment.pairs == tuple(
                (m.buyers[bi], m.sellers[si]) for bi, si in enumerate(seller_of)
            )
        traced = []
        assert matching_module._scan(*lists, None, traced) == seller_of
        assert tuple(traced) == trace
        backtracked += any(ev[0] in ("delete", "restart") for ev in trace)
    assert backtracked >= 10


def _timed_scan(cfg, seed):
    """The scan on `cfg` at `seed`, stopped by its budget after 1 s."""
    s = generate(cfg, seed=seed)
    start = time.perf_counter()
    m = Market(s)
    assignment, trace = match(m, build_broker_list(m), deadline=start + 1.0)
    assert time.perf_counter() - start < 1.0
    return s, assignment, trace


def test_pruned_scan_finishes_where_the_unpruned_one_hangs():
    """The unpruned scan runs past 3 s on these half-coverage `large` seeds."""
    for seed in (3, 5, 6):
        s, assignment, trace = _timed_scan(SPARSE, seed)
        assert trace[-1] == ("complete",)
        assert assignment_feasible(s, assignment, require_complete=True)
    _, assignment, trace = _timed_scan(SPARSE, 28)
    assert assignment is None and trace[-1] == ("fail",)


def test_prune_heavy_c2_scan_frozen():
    """C2-binding `large` seed 5 prunes 11,842 states, since the Hall test
    relaxes C2 between open buyers. Its event counts, trace and assignment
    are frozen; a 30 s deadline turns a hang into a failure."""
    s = generate(dataclasses.replace(preset("large"), lambda_range=(0.2, 0.3)), seed=5)
    m = Market(s)
    assignment, trace = match(m, build_broker_list(m), deadline=time.perf_counter() + 30.0)
    assert collections.Counter(ev[0] for ev in trace) == {
        "accept": 11862,
        "skip": 69090,
        "reject": 6342,
        "delete": 11843,
        "prune": 11842,
        "complete": 1,
    }
    assert _trace_digest(trace) == "973823eb6560c61f"
    assert [
        (b.job_index, b.component_index, sid.sp_index, sid.vm_index, sid.rank)
        for b, sid in assignment.pairs
    ] == [
        (0, 0, 3, 3, 1), (0, 1, 2, 2, 1), (0, 2, 3, 2, 1), (0, 3, 3, 0, 1),
        (1, 0, 4, 0, 1), (1, 1, 4, 4, 1), (1, 2, 4, 2, 1), (1, 3, 4, 1, 1),
        (2, 0, 2, 4, 1), (2, 1, 2, 3, 1), (2, 2, 2, 1, 1), (2, 3, 2, 0, 1),
        (2, 4, 3, 1, 1), (3, 0, 1, 0, 1), (3, 1, 1, 1, 1), (3, 2, 1, 3, 1),
        (3, 3, 1, 2, 1), (3, 4, 0, 2, 1), (3, 5, 0, 3, 1),
    ]
    assert assignment_feasible(s, assignment, require_complete=True)


def test_root_test_fails_buyers_that_cannot_share_the_sellers():
    """36 buyers on 24-27 sellers: no seller per buyer exists even without
    C2, which the test at the first dead end proves at once; the unpruned
    scan ran past 5M steps."""
    cfg = dataclasses.replace(preset("small"), job_types=(1, 2, 3, 4) * 2)
    for seed in (0, 1):
        s, assignment, trace = _timed_scan(cfg, seed)
        assert len(s.buyers) > len(s.sellers)
        assert assignment is None
        assert trace[-2:] == (("prune", 0), ("fail",))
        assert not any(ev[0] in ("delete", "restart") for ev in trace)


def test_scan_budget_stops_at_a_backtrack():
    s = backtrack_scenario()
    broker = build_broker_list(Market(s))
    with pytest.raises(BudgetExceeded):
        match(broker.market, broker, deadline=time.perf_counter() - 1.0)
    # A scan that never backtracks never reads the clock.
    out = run_matching(Market(payment_example_scenario()), deadline=time.perf_counter() - 1.0)
    assert out.success
    with pytest.raises(BudgetExceeded):
        verify_truthfulness_matching(broker, SellerId(1, 0, 1), deadline=time.perf_counter() - 1.0)


def _counting_clock(monkeypatch) -> list[str]:
    """Make `time.perf_counter` count its reads: read j (from 0) returns
    j + 1. The returned list names the function behind each read."""
    reads: list[str] = []

    def clock() -> float:
        reads.append(sys._getframe(1).f_code.co_name)
        return float(len(reads))

    monkeypatch.setattr(time, "perf_counter", clock)
    return reads


def test_budget_stops_a_fallback_scan_whatever_the_speed(monkeypatch):
    """On C2-binding `small` seed 0 some grid points dead-end, and their
    fallback `_scan` backtracks and reads the clock. A clock that counts its
    reads puts the deadline inside such a scan, on any machine: the sweep
    raises from the scan, and `verify_report` marks the audit truncated and
    keeps the rows of the sweeps it finished."""
    s = generate(dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3)), seed=0)
    sid = min(run_matching(Market(s)).payments)
    reads = _counting_clock(monkeypatch)
    verify_truthfulness_matching(build_broker_list(Market(s)), sid, deadline=math.inf)
    first = reads.index("_scan")
    reads.clear()
    with pytest.raises(BudgetExceeded, match="matching scan stopped"):
        verify_truthfulness_matching(build_broker_list(Market(s)), sid, deadline=first + 0.5)
    assert len(reads) == first + 1

    reads.clear()
    report, _ = verify_report(s, "maxuosg", budget_secs=math.inf)
    assert reads[0] == "_deadline_after" and len(report["sweeps"]) == 7
    second = [j for j, name in enumerate(reads) if name == "_sweep"][22]
    stop = next(j for j, name in enumerate(reads) if name == "_scan" and j > second)
    reads.clear()
    report, rows = verify_report(s, "maxuosg", budget_secs=stop - 0.5)
    assert len(reads) == stop + 1 and reads[-1] == "_scan"
    assert report["success"] and report["truncated"]
    assert len(report["sweeps"]) == 1 and len(rows) == 22
    assert {r["seller"] for r in rows} == {"%d:%d:%d" % tuple(report["sweeps"][0]["seller"])}


def test_uncoverable_buyer_fails():
    s = one_sp_scenario(times=(0.7, 0.1), alpha=3.0, bases=(0.2,))
    out = run_matching(Market(s))
    assert not out.success
    assert out.assignment is None
    assert out.payments == {}
    assert out.match_trace[-1] == ("fail",)


def test_unservable_buyer_fails_fast():
    """A valid scenario in which one buyer has no admissible seller fails at
    once; the unbounded backtracking scan used to run for minutes on it."""
    s = generate(preset("small"), seed=0)
    job = s.jobs[0]
    t0 = 0.01  # below every capability
    edges = tuple(
        dataclasses.replace(e, weight=min(e.weight, t0)) if 0 in (e.x1, e.x2) else e
        for e in job.edges
    )
    job = dataclasses.replace(job, tolerable_times=(t0,) + job.tolerable_times[1:], edges=edges)
    s = dataclasses.replace(s, jobs=(job,) + s.jobs[1:])
    assert validate_scenario(s) == []
    assert not any(pair_feasible(s, BuyerId(0, 0), sel.id) for sel in s.sellers)
    start = time.perf_counter()
    out = run_matching(Market(s))
    assert time.perf_counter() - start < 1.0
    assert out.assignment is None and out.payments == {}
    assert out.match_trace == (("fail",),)


def test_zero_buyers_trivially_complete():
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
    out = run_matching(Market(s))
    assert out.success
    assert out.assignment == Assignment(())
    assert out.payments == {}
    assert out.match_trace == (("complete",),)


def test_payment_worked_example():
    s = payment_example_scenario()
    out = run_matching(Market(s))
    winner = SellerId(0, 0, 1)
    assert dict(out.assignment.pairs) == {BuyerId(0, 0): winner}
    assert out.payments[winner] == pytest.approx(0.3)


def test_payment_last_real_entry_is_bid_plus_delta():
    s = payment_example_scenario()
    b = s.buyers[0]
    broker = build_broker_list(Market(s))
    runner_up = SellerId(0, 0, 2)
    forced = Assignment.from_pairs([(b, runner_up)])
    pay = matching_payment(broker, forced, runner_up)
    assert pay == pytest.approx(s.seller(runner_up).bid + DELTA)
    assert pay == pytest.approx(0.101)


def test_payment_errors():
    s = payment_example_scenario()
    b = s.buyers[0]
    broker = build_broker_list(Market(s))
    a = Assignment.from_pairs([(b, SellerId(0, 0, 1))])
    with pytest.raises(ValueError, match="is not a winner"):
        matching_payment(broker, a, SellerId(0, 0, 2))
    # The third seller is priced out, so it has no entry in the buyer's list.
    priced_out = SellerId(0, 0, 3)
    assert not pair_feasible(s, b, priced_out)
    off_list = Assignment.from_pairs([(b, priced_out)])
    with pytest.raises(ValueError, match="not in .*'s list"):
        matching_payment(broker, off_list, priced_out)
    # The one-pass function prices the assignment's own pairs, so only the
    # off-list error can arise there.
    with pytest.raises(ValueError, match="not in .*'s list"):
        matching_payments(broker, off_list)


def test_one_pass_pricing_matches_the_buyer_lists():
    """Every winner's payment is its gross value minus the value of the next
    entry in its buyer's own list, virtual entry included, and the objective
    is the scalar `objective`, bit for bit."""
    cases = [make_tiny(seed) for seed in range(200)]
    cases += [generate(preset("small"), seed=seed) for seed in range(20)]
    cases += [generate(preset("large"), seed=seed) for seed in range(10)]
    priced = virtual = 0
    for s in cases:
        out = run_matching(Market(s))
        if not out.success:
            continue
        assert out.objective_value == objective(s, out.assignment)
        assert list(out.payments) == [sid for _, sid in out.assignment.pairs]
        for buyer, sid in out.assignment.pairs:
            entries = build_buyer_list(s, buyer).entries
            at = next(i for i, e in enumerate(entries) if e.seller == sid)
            gross = s.alpha(buyer) * gross_utility(s.tolerable_time(buyer), s.seller(sid).capability)
            assert out.payments[sid] == gross - entries[at + 1].value
            priced += 1
            virtual += entries[at + 1].is_virtual
    assert priced >= 400 and virtual >= 40


def test_payments_cover_bids_everywhere():
    seen = 0
    for seed in range(120):
        s = make_tiny(seed)
        out = run_matching(Market(s))
        if not out.success:
            continue
        seen += 1
        for sid, pay in out.payments.items():
            sel = s.seller(sid)
            assert pay >= sel.bid - 1e-12
            # truthful bids make the margin a net utility
            assert pay - sel.true_value >= -1e-12
    assert seen >= 20


def test_scan_step_bound_on_preset_instances():
    """Scan visits stay within (L - b) * b + L on generator-domain instances.
    Adversarial constructions can exceed this, the presets do not."""
    cases = [(preset("small"), range(30)), (preset("large"), range(15))]
    for cfg, seeds in cases:
        for seed in seeds:
            s = generate(cfg, seed=seed)
            broker = build_broker_list(Market(s))
            L, b = len(broker.buyer), len(s.buyers)
            _, trace = match(broker.market, broker)
            visits = sum(1 for ev in trace if ev[0] in ("accept", "skip", "reject"))
            assert visits <= (L - b) * b + L


def test_trace_serializes_to_json():
    out = run_matching(Market(make_tiny(2)))
    doc = json.dumps([list(ev) for ev in out.match_trace])
    back = json.loads(doc)
    assert tuple(tuple(ev) for ev in back) == out.match_trace


def test_sweep_gains_need_reordering_or_virtual_pricing():
    """A misreport only beats truth when it reshuffles the broker list, or when
    the winner sits last in its buyer's list so the virtual floor tracks the
    bid itself. Order-preserving gains away from that corner never happen."""
    checked_rows = 0
    for seed in range(24):
        s = make_tiny(seed)
        out = run_matching(Market(s))
        if not out.success:
            continue
        for sid in out.payments:
            report = verify_truthfulness_matching(build_broker_list(Market(s)), sid)
            for row in report["rows"]:
                checked_rows += 1
                if not row["won"]:
                    assert row["utility"] == 0.0
                if row["classification"] != "gain" or not row["order_preserved"]:
                    continue
                assert row["bid"] > s.seller(sid).true_value
                s2 = s.with_seller_bid(sid, row["bid"])
                out2 = run_matching(Market(s2))
                buyer = out2.assignment.buyer_of(sid)
                lst = build_buyer_list(s2, buyer)
                assert lst.real_entries()[-1].seller == sid
    assert checked_rows >= 200


def _small_sweep_seller():
    """`small` seed 0 and its lowest winning seller."""
    s = generate(preset("small"), seed=0)
    return s, min(run_matching(Market(s)).payments)


def test_sweep_settles_small_grid_points_without_a_scan(monkeypatch):
    """On `small` seed 0 no grid point of the lowest winner's sweep dead-ends:
    one forward pass over the rest list, one tail pass per distinct first
    accept (rest position, buyer row) and no `_scan`. The truthful run is
    the grid row at the true value, not an extra run."""
    s, sid = _small_sweep_seller()
    passes, firsts, scans = [], [], []
    walk, first, scan = matching_module._Column._pass, matching_module._Column.first, matching_module._scan

    def counting_pass(self, start, seller_of):
        passes.append((start, [bi for bi, si in enumerate(seller_of) if si >= 0]))
        return walk(self, start, seller_of)

    def recording_first(self, slots):
        firsts.append(first(self, slots))
        return firsts[-1]

    def counting_scan(*args, **kwargs):
        scans.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(matching_module._Column, "_pass", counting_pass)
    monkeypatch.setattr(matching_module._Column, "first", recording_first)
    monkeypatch.setattr(matching_module, "_scan", counting_scan)
    report = verify_truthfulness_matching(build_broker_list(Market(s)), sid)
    assert len(report["rows"]) == len(firsts) == 22 and scans == []
    assert len(passes) == 1 + len(set(firsts) - {None}) == 4
    # The rest pass starts empty; each tail starts with its row on the column.
    assert passes == [(0, []), (0, [4]), (3, [4, 6]), (22, [4, 5, 6])]


def test_sweep_is_the_per_bid_pipeline():
    """Each grid point scans and prices on indices, the swept seller alone;
    every row still equals `run_matching` on the scenario with that bid, bit
    for bit."""
    cases = [make_tiny(seed) for seed in range(24)]
    cases += [generate(preset("small"), seed=seed) for seed in range(4)]
    checked = 0
    for s in cases:
        for sid in run_matching(Market(s)).payments:
            for row in verify_truthfulness_matching(build_broker_list(Market(s)), sid)["rows"]:
                alone = run_matching(Market(s.with_seller_bid(sid, row["bid"])))
                assert row["won"] == (sid in alone.payments)
                assert row["payment"] == alone.payments.get(sid)
                checked += 1
    assert checked >= 900


def _column_bids(market, col, q):
    """The default grid; each admissible cell's C1 cut-off `gross - TOLERANCE`
    and one float step either side; and every bid at which a cell's value
    ties another entry's value exactly."""
    bids = set(default_bid_grid(q))
    others = set(market.uos[market.feasible].tolist())
    for bi in np.flatnonzero(market._admissible[:, col]).tolist():
        g = market.gross[bi, col].item()
        cut = g - TOLERANCE
        bids |= {math.nextafter(cut, -math.inf), cut, math.nextafter(cut, math.inf)}
        for v in others:
            b = g - v
            bids |= {x for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)) if g - x == v}
    return sorted(bids)


def test_repriced_column_equals_the_rebuilt_broker_list():
    """At any bid, the re-priced column's merged lists are the broker list of
    the re-bid market, element for element, and its one-row price is the
    payment `_prices` reads from that list, for every row holding the column."""
    ties = cutoffs = 0
    for seed in range(200):
        s = make_tiny(seed)
        m = Market(s)
        for sid in run_matching(m).payments:
            col = m.seller_index[sid]
            column = matching_module._Column(build_broker_list(m), col)
            last_bid, last_len = -math.inf, 0
            for bid in _column_bids(m, col, s.seller(sid).true_value):
                broker = build_broker_list(m.with_bid(sid, bid))
                eb, es = column.at(bid)
                assert eb == broker.buyer.tolist() and es == broker.seller.tolist()
                values = [column.gross[b] - bid if k == col else m.uos[b, k] for b, k in zip(eb, es)]
                assert values == broker.value.tolist()
                for bi in {b for b, k in zip(eb, es) if k == col}:
                    want = [col if r == bi else -1 for r in range(len(m.buyers))]
                    assert column.price(bi, bid) == matching_module._prices(broker, want)[1][bi]
                at_col = broker.value[broker.seller == col].tolist()
                ties += any(v in at_col for v in broker.value[broker.seller != col].tolist())
                # One float step up in bid drops a cell: a C1 cut-off crossed.
                cutoffs += math.nextafter(last_bid, math.inf) == bid and len(eb) < last_len
                last_bid, last_len = bid, len(eb)
    assert ties >= 1000 and cutoffs >= 200


def _greedy(m: Market, eb: list[int], es: list[int]) -> list[int] | None:
    """The scan's walk before its first backtrack: accept each entry whose
    buyer and seller are free and that keeps C2. Each buyer's seller, or
    None at a dead end."""
    sp_of, seller_of, taken = m.sp_of.tolist(), [-1] * len(m.buyers), set()
    for bi, si in zip(eb, es):
        if seller_of[bi] < 0 and si not in taken and _edges_ok(m.edges, sp_of, seller_of, bi, si):
            seller_of[bi] = si
            taken.add(si)
    return None if -1 in seller_of else seller_of


def _settled_paths(s: Scenario, bids_of, paths: collections.Counter, monkeypatch, fallback: bool = True) -> None:
    """Settle every winner's column of `s` at `bids_of(market, col, q)` as
    the sweep does and count each grid point's path in `paths`. The sweep
    calls `_scan` on the merged lists exactly where their greedy walk
    dead-ends (that scan runs only when `fallback`, else it is a stub that
    loses); elsewhere the winning row equals that walk's and a cold
    `_scan`'s. Every winning row's price equals `_prices` on the rebuilt
    broker list."""
    m = Market(s)
    broker, winners = build_broker_list(m), run_matching(m).payments
    scan, fallbacks = matching_module._scan, []

    def recording_scan(m, eb, es, deadline, trace):
        fallbacks.append((eb, es))
        return scan(m, eb, es, deadline, trace) if fallback else None

    monkeypatch.setattr(matching_module, "_scan", recording_scan)
    for sid in winners:
        col = m.seller_index[sid]
        column = matching_module._Column(broker, col)
        for bid in bids_of(m, col, s.seller(sid).true_value):
            slots = column.slots(bid)
            first = column.first(slots)
            known = first in column.tails
            fallbacks.clear()
            bi = column.winner(slots, bid, None)
            if first is None:
                path = "no accept" if column.end is not None else "rest dead end"
            elif column.tails[first]:
                path = "memo hit" if known else "tail pass"
            else:
                path = "tail dead end"
            paths[path] += 1
            eb, es = column.at(bid)
            greedy = _greedy(m, eb, es)
            assert (greedy is None) == path.endswith("dead end")
            assert fallbacks == ([] if greedy is not None else [(eb, es)])
            if greedy is not None:
                assert bi == (greedy.index(col) if col in greedy else None)
                assert greedy == scan(m, eb, es, None, None)
            if bi is not None:
                want = [col if r == bi else -1 for r in range(len(m.buyers))]
                rebuilt = build_broker_list(m.with_bid(sid, bid))
                assert column.price(bi, bid) == matching_module._prices(rebuilt, want)[1][bi]
    monkeypatch.undo()


def test_forward_pass_settles_each_grid_point_as_the_scan_does(monkeypatch):
    """A grid point is settled from the rest list's forward pass (no accept
    of the column, or a first accept whose tail pass completes, memoised per
    sweep) or falls back to `_scan`, only at a dead end; a settled path
    gives the winner and payment of a cold scan. Tiny markets run at every
    C1 cut-off and value tie, C2-binding `small` and half-coverage `large`
    on the default grid, where most fallbacks are. On `large` the fallback
    scans are stubbed, since they are most of the run time and the rows
    they give are the scan's own."""
    grid = lambda m, col, q: default_bid_grid(q)  # noqa: E731
    tiny, bound = collections.Counter(), collections.Counter()
    for seed in range(200):
        _settled_paths(make_tiny(seed), _column_bids, tiny, monkeypatch)
    c2 = dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3))
    for seed in range(10):
        _settled_paths(generate(c2, seed=seed), grid, bound, monkeypatch)
    # Here a column entry can sit just before the rest entry that the rest
    # pass accepts there and that C2 then rejects; on seed 26 that changes
    # the winner.
    for seed in (3, 26):
        _settled_paths(generate(c2, seed=seed), _column_bids, tiny, monkeypatch)
    sparse = dataclasses.replace(preset("large"), coverage_density=0.5)
    for seed in (3, 5, 6, *range(8, 17)):
        _settled_paths(generate(sparse, seed=seed), grid, bound, monkeypatch, fallback=False)
    assert tiny["no accept"] >= 250 and tiny["memo hit"] >= 2500 and tiny["tail pass"] >= 300
    assert tiny["rest dead end"] >= 1300 and tiny["tail dead end"] >= 1500
    assert bound["tail pass"] >= 900 and bound["memo hit"] >= 500
    assert bound["rest dead end"] >= 1400 and bound["tail dead end"] >= 3000


def test_sweep_reads_truthful_play_from_its_own_row():
    """The seller's current report does not move the sweep: every row sets
    the bid itself, and truthful play is the row at the true value."""
    s, sid = _small_sweep_seller()
    q = s.seller(sid).true_value
    report = verify_truthfulness_matching(build_broker_list(Market(s.with_seller_bid(sid, 10 * q))), sid)
    q_row = next(r for r in report["rows"] if r["bid"] == q)
    assert q_row["won"]
    assert report["truthful_utility"] == q_row["utility"] > 0
    assert q_row["order_preserved"] is True
    assert q_row["classification"] == "equal"
    assert report == verify_truthfulness_matching(build_broker_list(Market(s)), sid)
