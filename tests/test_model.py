"""Domain model tests: VM expansion, contact probabilities, validation, serialization."""
import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from vcauction import (
    Assignment,
    BuyerId,
    GraphJob,
    JobEdge,
    Scenario,
    Seller,
    SellerId,
    ServiceProvider,
    ValuationConfig,
    VirtualMachine,
    contact_probability,
    expand_vms,
    max_rank_for,
    scenario_dumps,
    scenario_loads,
    scenario_to_dict,
    validate_scenario,
)

from helpers import make_tiny, three_provider_scenario

VAL = ValuationConfig(beta1=0.25, beta2=0.95)


def caps_of(sellers, sp, vm):
    return sorted(s.capability for s in sellers if s.id.sp_index == sp and s.id.vm_index == vm)


def test_expand_single_vm_ranks():
    sps = (ServiceProvider(0, (VirtualMachine(0.8, 3),)),)
    sellers = expand_vms(sps, 3.0, VAL)
    assert caps_of(sellers, 0, 0) == pytest.approx([0.8, 1.6, 2.4])
    assert [s.id.rank for s in sellers] == [1, 2, 3]


def test_expand_boundary_rank_one():
    sps = (ServiceProvider(0, (VirtualMachine(3.0, 1),)),)
    sellers = expand_vms(sps, 3.0, VAL)
    assert len(sellers) == 1
    assert sellers[0].capability == pytest.approx(3.0)


def test_expand_small_demand():
    sps = (ServiceProvider(0, (VirtualMachine(0.25, 2),)),)
    sellers = expand_vms(sps, 0.7, ValuationConfig(0.8, 0.95))
    assert caps_of(sellers, 0, 0) == pytest.approx([0.25, 0.5])


def test_expand_dead_vm_yields_nothing():
    sps = (ServiceProvider(0, (VirtualMachine(3.2, 0),)),)
    assert expand_vms(sps, 3.0, VAL) == ()


def test_max_rank_float_quotient():
    # 0.6 / 0.2 lands just below 3.0 in floats; the rank must still be 3
    assert max_rank_for(0.2, 0.6) == 3
    assert max_rank_for(0.25, 0.7) == 2
    assert max_rank_for(3.2, 3.0) == 0
    with pytest.raises(ValueError):
        max_rank_for(0.0, 1.0)
    with pytest.raises(ValueError):
        max_rank_for(0.2, -1.0)


def test_expansion_pricing_is_truthful_and_positive():
    s = three_provider_scenario()
    assert len(s.sellers) == 11
    by_sp = {}
    for sel in s.sellers:
        by_sp[sel.id.sp_index] = by_sp.get(sel.id.sp_index, 0) + 1
        assert sel.bid == sel.true_value
        assert sel.true_value > 0
        assert sel.capability == pytest.approx(sel.id.rank * s.sps[sel.id.sp_index].vms[sel.id.vm_index].base_time)
    assert by_sp == {0: 5, 1: 2, 2: 4}


def test_contact_probability_examples():
    assert contact_probability(0.7, 0.0) == 1.0
    assert contact_probability(0.0, 123.0) == 1.0
    assert contact_probability(0.05, 0.7) == pytest.approx(math.exp(-0.035), abs=1e-15)
    assert contact_probability(0.05, 0.7) == pytest.approx(0.9656054162575665, abs=1e-12)


def test_contact_probability_rejects_negative():
    with pytest.raises(ValueError):
        contact_probability(-0.1, 1.0)
    with pytest.raises(ValueError):
        contact_probability(0.1, -1.0)


@given(
    rate=st.floats(0.0, 5.0, allow_nan=False),
    t1=st.floats(0.0, 10.0, allow_nan=False),
    t2=st.floats(0.0, 10.0, allow_nan=False),
)
def test_contact_probability_monotone_and_multiplicative(rate, t1, t2):
    p1 = contact_probability(rate, t1)
    p2 = contact_probability(rate, t2)
    assert 0.0 < p1 <= 1.0
    if t2 >= t1:
        assert p2 <= p1 + 1e-12
    joint = contact_probability(rate, t1 + t2)
    assert joint == pytest.approx(p1 * p2, rel=1e-9, abs=1e-12)


@given(t=st.floats(0.0, 10.0, allow_nan=False), r1=st.floats(0.0, 5.0), r2=st.floats(0.0, 5.0))
def test_contact_probability_monotone_in_rate(t, r1, r2):
    if r2 >= r1:
        assert contact_probability(r2, t) <= contact_probability(r1, t) + 1e-12


def test_assignment_one_to_one_detection():
    b1, b2 = BuyerId(0, 0), BuyerId(0, 1)
    s1, s2 = SellerId(0, 0, 1), SellerId(0, 0, 2)
    assert Assignment.from_pairs([(b1, s1), (b2, s2)]).is_one_to_one()
    assert not Assignment.from_pairs([(b1, s1), (b2, s1)]).is_one_to_one()
    assert not Assignment.from_pairs([(b1, s1), (b1, s2)]).is_one_to_one()


def test_assignment_canonical_order():
    b1, b2 = BuyerId(0, 0), BuyerId(0, 1)
    s1, s2 = SellerId(0, 0, 1), SellerId(0, 0, 2)
    a = Assignment.from_pairs([(b2, s2), (b1, s1)])
    b = Assignment.from_pairs([(b1, s1), (b2, s2)])
    assert a == b
    assert a.pairs[0][0] == b1


def test_validate_clean_tinies():
    for seed in range(10):
        assert validate_scenario(make_tiny(seed)) == []


def test_validate_flags_overweight_edge():
    s = make_tiny(0)
    job = s.jobs[0]
    bad_edges = (JobEdge(0, 1, 5.0),) + job.edges[1:]
    bad_job = GraphJob(job.owner_index, job.alpha, job.tolerable_times, bad_edges)
    s2 = dataclasses.replace(s, jobs=(bad_job,) + s.jobs[1:])
    problems = validate_scenario(s2)
    assert any("weight" in p for p in problems)


def test_validate_flags_empty_coverage():
    s = make_tiny(1)
    s2 = dataclasses.replace(s, coverage=(frozenset(),) + s.coverage[1:])
    problems = validate_scenario(s2)
    assert any("coverage" in p and "job 0" in p for p in problems)


def test_validate_flags_tampered_seller():
    s = make_tiny(3)
    first = s.sellers[0]
    forged = Seller(first.id, first.capability + 0.1, first.bid, first.true_value)
    s2 = dataclasses.replace(s, sellers=(forged,) + s.sellers[1:])
    problems = validate_scenario(s2)
    assert any("capability" in p or "expansion" in p for p in problems)


def test_validate_flags_asymmetric_rates():
    s = make_tiny(5)
    if len(s.sps) < 2:
        s = make_tiny(6)
    assert len(s.sps) >= 2
    rows = [list(r) for r in s.contact_rate]
    rows[0][1] = rows[0][1] + 0.5
    s2 = dataclasses.replace(s, contact_rate=tuple(tuple(r) for r in rows))
    problems = validate_scenario(s2)
    assert any("differ" in p for p in problems)


def _job(s, **fields):
    return dataclasses.replace(s, jobs=(dataclasses.replace(s.jobs[0], **fields),))


def _edges(s, *edges):
    return _job(s, edges=s.jobs[0].edges + edges)


def _sp1(s, *vms, index=1):
    return dataclasses.replace(s, sps=(s.sps[0], ServiceProvider(index, vms), s.sps[2]))


def _rate(s, *cells):
    rows = [list(r) for r in s.contact_rate]
    for i, j, x in cells:
        rows[i][j] = x
    return dataclasses.replace(s, contact_rate=tuple(map(tuple, rows)))


def _seller0(s, **fields):
    return dataclasses.replace(s, sellers=(dataclasses.replace(s.sellers[0], **fields),) + s.sellers[1:])


# One forged `three_provider_scenario` per rule of `validate_scenario`, and
# the message that rule gives. Its one job has tolerable times (3.0, 2.5,
# 2.8) and the triangle of edges of weight 0.2; provider 1 has one VM of
# base time 1.2 and max rank 2.
VALIDATOR_RULES = [
    ("owner index", lambda s: _job(s, owner_index=1), "job 0: owner_index 1 does not match position"),
    ("alpha", lambda s: _job(s, alpha=0.0), "job 0: alpha 0.0 is not positive"),
    (
        "empty job",
        lambda s: dataclasses.replace(
            s, jobs=s.jobs + (GraphJob(1, 1.0, (), ()),), coverage=s.coverage * 2
        ),
        "job 1: has no components",
    ),
    (
        "tolerable time",
        lambda s: _job(s, tolerable_times=(3.0, -0.5, 2.8)),
        "job 0 component 1: tolerable time -0.5 is not positive",
    ),
    ("edge endpoint", lambda s: _edges(s, JobEdge(0, 3, 0.1)), "job 0 edge (0,3): endpoint out of range"),
    ("self loop", lambda s: _edges(s, JobEdge(1, 1, 0.1)), "job 0 edge (1,1): self loop"),
    ("duplicate edge", lambda s: _edges(s, JobEdge(1, 0, 0.1)), "job 0 edge (1,0): duplicate edge"),
    (
        "negative weight",
        lambda s: _job(s, edges=(JobEdge(0, 1, -0.1),) + s.jobs[0].edges[1:]),
        "job 0 edge (0,1): negative weight -0.1",
    ),
    ("provider index", lambda s: _sp1(s, *s.sps[1].vms, index=5), "sp 1: index 5 does not match position"),
    ("no VMs", lambda s: _sp1(s), "sp 1: has no VMs"),
    ("base time", lambda s: _sp1(s, VirtualMachine(0.0, 0)), "sp 1 vm 0: base_time 0.0 is not positive"),
    (
        "max rank below 1",
        lambda s: _sp1(s, VirtualMachine(1.2, 0)),
        "sp 1 vm 0: max_rank 0 below 1 for a usable VM",
    ),
    (
        "max rank above demand",
        lambda s: _sp1(s, VirtualMachine(1.2, 3)),
        "sp 1 vm 0: max_rank 3 capability exceeds max demand 3.0",
    ),
    (
        "unusable VM with a rank",
        lambda s: _sp1(s, VirtualMachine(3.5, 1)),
        "sp 1 vm 0: base_time above max demand must have max_rank 0",
    ),
    (
        "rate shape",
        lambda s: dataclasses.replace(s, contact_rate=s.contact_rate[:2]),
        "contact_rate: matrix is not 3x3",
    ),
    ("rate diagonal", lambda s: _rate(s, (1, 1, 0.1)), "contact_rate: diagonal entry (1,1) is not zero"),
    ("rate sign", lambda s: _rate(s, (0, 1, -0.05), (1, 0, -0.05)), "contact_rate: entry (0,1) is negative"),
    ("coverage count", lambda s: dataclasses.replace(s, coverage=()), "coverage: one entry per job required"),
    (
        "unknown provider",
        lambda s: dataclasses.replace(s, coverage=(frozenset({0, 1, 3}),)),
        "coverage: job 0 references unknown provider 3",
    ),
    ("epsilon", lambda s: dataclasses.replace(s, epsilon=1.5), "epsilon 1.5 outside (0, 1]"),
    (
        "valuation",
        lambda s: dataclasses.replace(s, valuation=ValuationConfig(0.0, 0.95)),
        "valuation: beta1 and beta2 must be positive",
    ),
    (
        "missing seller",
        lambda s: dataclasses.replace(s, sellers=s.sellers[1:]),
        "sellers: missing expansion of ['s0.0.1']",
    ),
    (
        "extra seller",
        lambda s: dataclasses.replace(s, sellers=s.sellers + (Seller(SellerId(0, 0, 3), 4.5, 0.5, 0.5),)),
        "sellers: not part of the VM expansion: ['s0.0.3']",
    ),
    (
        "duplicate seller",
        lambda s: dataclasses.replace(s, sellers=s.sellers + s.sellers[:1]),
        "sellers: duplicate seller ids",
    ),
    ("bid", lambda s: _seller0(s, bid=0.0), "seller s0.0.1: bid 0.0 is not positive"),
    ("true value", lambda s: _seller0(s, true_value=-0.1), "seller s0.0.1: true value -0.1 is not positive"),
]


@pytest.mark.parametrize(
    "forge, message", [row[1:] for row in VALIDATOR_RULES], ids=[row[0] for row in VALIDATOR_RULES]
)
def test_validate_rule_fires(forge, message):
    assert message in validate_scenario(forge(three_provider_scenario()))


def test_serialization_round_trip_identity():
    for seed in (0, 7, 11):
        s = make_tiny(seed)
        text = scenario_dumps(s)
        back = scenario_loads(text)
        assert back == s
        assert scenario_dumps(back) == text


def test_serialization_top_level_keys():
    doc = scenario_to_dict(make_tiny(2))
    assert set(doc) == {"jobs", "sps", "contact_rate", "coverage", "epsilon", "valuation", "seed"}
    # must be plain json all the way down
    json.dumps(doc)


def test_loads_rejects_malformed_document():
    with pytest.raises(ValueError):
        scenario_loads(json.dumps({"jobs": []}))


def test_loads_rejects_non_finite_numbers():
    """`json` parses NaN and Infinity; a scenario document holding either is
    malformed, in a float field or an integer one."""
    for path in (("jobs", 0, "components", 0, "tolerable_time"), ("valuation", "beta2"), ("seed",)):
        for x in (math.inf, math.nan):
            doc = scenario_to_dict(make_tiny(0))
            leaf = doc
            for key in path[:-1]:
                leaf = leaf[key]
            leaf[path[-1]] = x
            with pytest.raises(ValueError, match="malformed scenario document"):
                scenario_loads(json.dumps(doc))


def test_loads_rejects_fractional_integers():
    """An integer field holding a fractional number is malformed, not
    truncated; an integral float still loads."""
    base = scenario_to_dict(make_tiny(0))
    for path in (("seed",), ("sps", 0, "vms", 0, "max_rank"), ("coverage", 0, 0)):
        for x, ok in ((2.7, False), (1.9, False), (1.0, True)):
            doc = json.loads(json.dumps(base))
            leaf = doc
            for key in path[:-1]:
                leaf = leaf[key]
            leaf[path[-1]] = x
            if ok:
                scenario_loads(json.dumps(doc))
            else:
                with pytest.raises(ValueError, match="malformed scenario document"):
                    scenario_loads(json.dumps(doc))
    doc = json.loads(json.dumps(base))
    doc["seed"] = 2.0
    assert scenario_loads(json.dumps(doc)).seed == 2


def test_validate_flags_non_finite_numbers():
    s = make_tiny(0)
    job = s.jobs[0]
    rows = [list(r) for r in s.contact_rate]
    rows[0][0] = math.nan

    def with_job(**changes):
        return dataclasses.replace(s, jobs=(dataclasses.replace(job, **changes),) + s.jobs[1:])

    for bad in (
        dataclasses.replace(s, contact_rate=tuple(tuple(r) for r in rows)),
        with_job(alpha=math.nan),
        with_job(alpha=math.inf),
        with_job(tolerable_times=(math.inf,) * len(job.tolerable_times)),
        dataclasses.replace(s, valuation=ValuationConfig(s.valuation.beta1, math.inf)),
    ):
        assert validate_scenario(bad) == ["a number is NaN or infinite"]


def test_with_seller_bid():
    s = make_tiny(4)
    sid = s.sellers[0].id
    s2 = s.with_seller_bid(sid, 0.123)
    assert s2.seller(sid).bid == 0.123
    assert s2.seller(sid).true_value == s.seller(sid).true_value
    others = [sel for sel in s2.sellers if sel.id != sid]
    assert others == [sel for sel in s.sellers if sel.id != sid]
    with pytest.raises(ValueError):
        s.with_seller_bid(SellerId(99, 0, 1), 0.5)


def test_scenario_lookup_errors():
    s = make_tiny(8)
    with pytest.raises(ValueError):
        s.seller(SellerId(42, 0, 1))
    with pytest.raises(ValueError):
        s.job_of(BuyerId(99, 0))
    with pytest.raises(ValueError):
        s.job_of(BuyerId(0, 99))


def test_buyers_enumeration_matches_jobs():
    s = make_tiny(9)
    expected = [
        BuyerId(jn, x)
        for jn, job in enumerate(s.jobs)
        for x in range(len(job.tolerable_times))
    ]
    assert list(s.buyers) == sorted(expected)
    assert s.max_demand == pytest.approx(
        max(t for job in s.jobs for t in job.tolerable_times)
    )
