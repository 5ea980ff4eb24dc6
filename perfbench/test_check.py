"""The output checker catches corrupted allocations and payments.

    python3 -m pytest perfbench/test_check.py
"""
from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import check
import vcauction as vc


@pytest.fixture(scope="module")
def solved():
    s = vc.generate(vc.preset("small"), seed=0)
    run = vc.run_mechanism(s, "maxuosg")
    assert run.success
    return check.Market(s), check.pairs_of(run.assignment), check.payments_of(run.payments), run


def test_true_outputs_pass(solved):
    m, pairs, payments, run = solved
    assert check.check_allocation(m, pairs) == []
    assert check.check_objective(m, pairs, run.objective_value) == []
    assert check.check_rational(m, pairs, payments) == []
    assert check.check_next_entry(m, pairs, payments) == []


def test_corrupted_allocation_is_caught(solved):
    m, pairs, payments, run = solved
    # Hand buyer 0's seller to buyer 1 as well: C4 breaks.
    shared = [pairs[0], (pairs[1][0], pairs[0][1])] + pairs[2:]
    assert any(p.startswith("C4") for p in check.check_allocation(m, shared))
    # Drop a buyer: C3 breaks.
    assert any(p.startswith("C3") for p in check.check_allocation(m, pairs[1:]))
    # Move a buyer to a seller outside its job's coverage or deadline: C1 breaks.
    b = pairs[0][0]
    bad_seller = next(sk for sk in m.sellers if m.value(b, sk) is None and sk not in dict(pairs).values())
    moved = [(b, bad_seller)] + pairs[1:]
    assert any(p.startswith("C1") for p in check.check_allocation(m, moved))


def test_contact_floor_is_checked(solved):
    m, pairs, payments, run = solved
    where = dict(pairs)
    crossing = [
        (n, e) for n, job in enumerate(m.jobs) for e in job.edges
        if where[(n, e.x1)][0] != where[(n, e.x2)][0]
    ]
    assert crossing, "the allocation spreads no job across providers"
    # Contacts that die at once make every cross-provider edge break C2.
    cut = copy.copy(m)
    cut.rate = [[0.0 if i == j else 1e3 for j in range(len(row))] for i, row in enumerate(m.rate)]
    assert sum(p.startswith("C2") for p in check.check_allocation(cut, pairs)) == len(crossing)


def test_corrupted_payment_is_caught(solved):
    m, pairs, payments, run = solved
    sk = pairs[0][1]
    raised = payments | {sk: payments[sk] + 0.01}
    assert check.check_next_entry(m, pairs, raised)
    below = payments | {sk: m.sellers[sk].bid - 0.01}
    assert check.check_rational(m, pairs, below)
    assert check.check_objective(m, pairs, run.objective_value + 0.01)


def test_opt_bracket_and_pivot_terms():
    cfg = dataclasses.replace(vc.preset("small"), vms_per_sp=(2, 2))
    s = vc.generate(cfg, seed=2)
    run = vc.run_mechanism(s, "opt")
    m = check.Market(s)
    pairs, payments = check.pairs_of(run.assignment), check.payments_of(run.payments)
    lower = vc.run_mechanism(s, "maxuosg").objective_value
    assert check.check_optimal(m, pairs, run.objective_value, payments, lower) == []
    # An objective above the C2-free relaxation, or below a feasible rival, is caught.
    assert check.check_optimal(m, pairs, check.relaxation_bound(m) + 1.0, payments, lower)
    assert check.check_optimal(m, pairs, run.objective_value, payments, run.objective_value + 1.0)
    # A payment below the bid means a negative pivot term.
    sk = pairs[0][1]
    assert check.check_optimal(m, pairs, run.objective_value, payments | {sk: m.sellers[sk].bid - 0.5}, lower)


def test_sweep_rows_are_checked():
    s = vc.generate(vc.preset("small"), seed=0)
    report, rows = vc.verify_report(s, "maxuosg")
    m = check.Market(s)
    payments = {tuple(w["seller"]): w["payment"] for w in report["winners"]}
    assert check.check_sweep(m, payments, rows) == []
    truthful = next(i for i, r in enumerate(rows) if r["won"])
    bad = list(rows)
    bad[truthful] = dict(rows[truthful], payment=rows[truthful]["bid"] - 0.01)
    assert check.check_sweep(m, payments, bad)
    losing = dict(rows[truthful], won=0, utility=0.5)
    assert check.check_sweep(m, payments, rows + [losing])
