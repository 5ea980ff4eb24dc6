"""Baseline policy tests."""
import dataclasses

import pytest

from vcauction import (
    Assignment,
    BASELINE_KINDS,
    BuyerId,
    SellerId,
    assignment_feasible,
    generate,
    preset,
    run_baseline,
)

from helpers import make_tiny, reference_baseline
from test_optimal import one_sp_scenario


def test_policy_picks_on_single_buyer():
    # capabilities on offer: 0.3, 0.6, 0.25, 0.5; the 0.6 seller fails C1
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.3, 0.25))
    etpm = run_baseline(s, "etpm")
    assert dict(etpm.pairs) == {BuyerId(0, 0): SellerId(0, 1, 1)}
    lpm = run_baseline(s, "lpm")
    assert dict(lpm.pairs) == {BuyerId(0, 0): SellerId(0, 1, 2)}
    assert s.seller(SellerId(0, 1, 2)).bid == pytest.approx(0.55)


def test_rmm_is_seed_deterministic():
    s = generate(preset("small"), seed=3)
    a = run_baseline(s, "rmm", seed=5)
    b = run_baseline(s, "rmm", seed=5)
    assert a == b
    draws = {run_baseline(s, "rmm", seed=k) for k in range(8)}
    assert len(draws) > 1


def test_outputs_are_feasible_or_none():
    scenarios = [make_tiny(seed) for seed in range(30)]
    scenarios += [generate(preset("small"), seed=k) for k in range(5)]
    scenarios += [generate(preset("large"), seed=k) for k in range(3)]
    for s in scenarios:
        for kind in BASELINE_KINDS:
            out = run_baseline(s, kind, seed=11)
            if out is not None:
                assert assignment_feasible(s, out, require_complete=True)


def test_policies_equal_the_reference():
    """One provider of twelve VMs with one base time: each capability, and
    so each bid, is shared by twelve sellers, and the tie rule decides
    every ETPM and LPM pick. The tiny draws add inputs where C2 binds."""
    cfg = dataclasses.replace(
        preset("small"), sp_count=1, vms_per_sp=(12, 12), base_time_range=(0.1, 0.1)
    )
    for seed in range(20):
        tied = generate(cfg, seed=seed)
        for s in (tied, make_tiny(seed)):
            for kind in BASELINE_KINDS:
                out = run_baseline(s, kind, seed=seed)
                assert out == reference_baseline(s, kind, seed=seed), (seed, kind)
                assert out is not None or s is not tied, (seed, kind)


def test_unknown_kind_rejected():
    s = make_tiny(0)
    with pytest.raises(ValueError):
        run_baseline(s, "greedy")


def test_zero_buyers_empty_assignment():
    s = one_sp_scenario(times=(0.7,), alpha=3.0, bases=(0.3,))
    import dataclasses

    empty = dataclasses.replace(s, jobs=(), coverage=(), sellers=())
    for kind in BASELINE_KINDS:
        assert run_baseline(empty, kind) == Assignment(())


def test_unservable_buyer_returns_none():
    s = one_sp_scenario(times=(0.7, 0.1), alpha=3.0, bases=(0.3, 0.25))
    for kind in BASELINE_KINDS:
        assert run_baseline(s, kind) is None
