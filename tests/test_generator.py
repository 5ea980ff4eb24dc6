"""Scenario generator tests: presets, determinism, drawn-value ranges."""
import collections
import dataclasses
import math

import pytest

from vcauction import (
    GenConfig,
    JOB_TYPE_LIBRARY,
    JobTypeSpec,
    config_from_dict,
    config_to_dict,
    generate,
    preset,
    scenario_dumps,
    validate_config,
    validate_scenario,
)


def test_preset_shapes():
    small = generate(preset("small"), seed=0)
    assert len(small.buyers) == 7  # triangle (3) + star (4)
    assert sorted(len(j.tolerable_times) for j in small.jobs) == [3, 4]
    assert len(small.sps) == 3

    large = generate(preset("large"), seed=0)
    assert len(large.buyers) == 19  # 4 + 4 + 5 + 6
    assert sorted(len(j.tolerable_times) for j in large.jobs) == [4, 4, 5, 6]
    assert len(large.sps) == 5

    bench = generate(preset("bench"), seed=0)
    assert len(bench.buyers) == 3
    assert len(bench.sps) == 1


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("medium")


def test_generation_is_deterministic():
    a = scenario_dumps(generate(preset("small"), seed=12))
    b = scenario_dumps(generate(preset("small"), seed=12))
    assert a == b
    c = scenario_dumps(generate(preset("small"), seed=13))
    assert a != c


def test_seed_argument_overrides_config_seed():
    cfg = dataclasses.replace(preset("small"), seed=99)
    assert scenario_dumps(generate(cfg)) == scenario_dumps(generate(preset("small"), seed=99))


def test_seller_count_bands():
    for name, lo, hi in (("small", 15, 40), ("large", 36, 75)):
        for seed in range(25):
            s = generate(preset(name), seed=seed)
            assert lo <= len(s.sellers) <= hi


def test_scenarios_validate_clean():
    for name in ("small", "large"):
        for seed in range(50):
            assert validate_scenario(generate(preset(name), seed=seed)) == []


def test_drawn_values_respect_ranges():
    cfg = preset("small")
    for seed in range(20):
        s = generate(cfg, seed=seed)
        assert cfg.epsilon_range[0] <= s.epsilon <= cfg.epsilon_range[1]
        assert cfg.beta1_range[0] <= s.valuation.beta1 <= cfg.beta1_range[1]
        assert cfg.beta2_range[0] <= s.valuation.beta2 <= cfg.beta2_range[1]
        for job in s.jobs:
            assert cfg.alpha_range[0] <= job.alpha <= cfg.alpha_range[1]
            for t in job.tolerable_times:
                assert cfg.tolerable_time_range[0] <= t <= cfg.tolerable_time_range[1]
        for sp in s.sps:
            for vm in sp.vms:
                assert cfg.base_time_range[0] <= vm.base_time <= cfg.base_time_range[1]
        n = len(s.sps)
        for i in range(n):
            assert s.contact_rate[i][i] == 0.0
            for j in range(i + 1, n):
                assert s.contact_rate[i][j] == s.contact_rate[j][i]
                assert cfg.lambda_range[0] <= s.contact_rate[i][j] <= cfg.lambda_range[1]


def test_edge_weights_clamped_to_endpoint_deadlines():
    """A transmission longer than either endpoint's deadline can never be
    scheduled, so drawn weights are clamped down to min(t_a, t_b)."""
    cfg = dataclasses.replace(preset("small"), weight_range=(0.65, 0.9))
    for seed in range(10):
        s = generate(cfg, seed=seed)
        for job in s.jobs:
            for e in job.edges:
                assert e.weight <= min(job.tolerable_times[e.x1], job.tolerable_times[e.x2]) + 1e-12


def test_valuation_range_conflict_is_rejected():
    cfg = dataclasses.replace(
        preset("small"), beta1_range=(1.2, 1.5), beta2_range=(0.9, 1.0)
    )
    flags = validate_config(cfg)
    assert any("price a seller" in f for f in flags)
    with pytest.raises(ValueError):
        generate(cfg, seed=0)


def test_validate_config_flags():
    base = preset("small")
    bad_eps = dataclasses.replace(base, epsilon_range=(0.9, 1.2))
    assert any("epsilon" in f for f in validate_config(bad_eps))
    bad_vms = dataclasses.replace(base, vms_per_sp=(3, 2))
    assert any("vms_per_sp" in f for f in validate_config(bad_vms))
    bad_type = dataclasses.replace(base, job_types=(9,))
    assert any("unknown type" in f for f in validate_config(bad_type))
    bad_cov = dataclasses.replace(base, coverage_density=0.0)
    assert any("coverage_density" in f for f in validate_config(bad_cov))
    for fields, flag in (
        ({"alpha_range": (0.0, 4.0)}, "alpha_range: lower bound 0.0 must be positive"),
        ({"alpha_range": (4.0, 2.5)}, "alpha_range: lower bound 4.0 above upper bound 2.5"),
        ({"weight_range": (-0.1, 0.7)}, "weight_range: lower bound below 0"),
        ({"lambda_range": (-0.01, 0.06)}, "lambda_range: lower bound below 0"),
        ({"job_types": ()}, "job_types: at least one job required"),
        ({"sp_count": 0}, "sp_count: 0 below 1"),
    ):
        assert validate_config(dataclasses.replace(base, **fields)) == [flag]
    assert validate_config(base) == []


def test_validate_config_flags_non_finite_ranges():
    for field, rng in (("alpha_range", (2.5, math.nan)), ("epsilon_range", (math.nan, 0.95))):
        cfg = dataclasses.replace(preset("small"), **{field: rng})
        assert any(f.startswith(field) and "finite" in f for f in validate_config(cfg))
        with pytest.raises(ValueError):
            generate(cfg, seed=0)


def test_job_type_spec_rejects_bad_topologies():
    with pytest.raises(ValueError):
        JobTypeSpec(9, 3, ((0, 0),))
    with pytest.raises(ValueError):
        JobTypeSpec(9, 3, ((0, 3),))
    with pytest.raises(ValueError):
        JobTypeSpec(9, 3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        JobTypeSpec(9, 4, ((0, 1),))  # components 2,3 unreachable
    with pytest.raises(ValueError):
        JobTypeSpec(9, 0, ())


def test_library_topologies():
    assert set(JOB_TYPE_LIBRARY) == {1, 2, 3, 4}
    assert JOB_TYPE_LIBRARY[1].component_count == 3
    assert len(JOB_TYPE_LIBRARY[1].edge_list) == 3
    assert JOB_TYPE_LIBRARY[4].component_count == 6


def test_custom_types_extend_library():
    line = JobTypeSpec(7, 2, ((0, 1),))
    cfg = GenConfig(job_types=(7, 1), sp_count=2, vms_per_sp=(2, 2), custom_types=(line,))
    s = generate(cfg, seed=0)
    assert sorted(len(j.tolerable_times) for j in s.jobs) == [2, 3]


def test_partial_coverage():
    cfg = dataclasses.replace(preset("small"), coverage_density=0.4)
    sizes = collections.Counter()
    for seed in range(30):
        s = generate(cfg, seed=seed)
        for cov in s.coverage:
            assert 1 <= len(cov) <= len(s.sps)
            sizes[len(cov)] += 1
    assert sizes[3] < sum(sizes.values())  # density below 1 actually bites


def test_config_round_trip():
    cfg = dataclasses.replace(
        preset("large"), custom_types=(JobTypeSpec(8, 2, ((0, 1),)),), coverage_density=0.5
    )
    doc = config_to_dict(cfg)
    back = config_from_dict(doc)
    assert back == cfg
    with pytest.raises(ValueError):
        config_from_dict({"job_types": [1]})


def test_config_rejects_fractional_integers():
    """`sp_count`, `vms_per_sp` and `job_types` holding a fractional number
    are malformed, not truncated; integral floats still load."""
    base = config_to_dict(preset("small"))
    for key, bad in (("sp_count", 2.5), ("vms_per_sp", [1, 2.5]), ("job_types", [1.5])):
        with pytest.raises(ValueError, match="malformed config document"):
            config_from_dict({**base, key: bad})
    doc = {**base, "sp_count": 3.0, "vms_per_sp": [1.0, 2.0], "job_types": [2.0]}
    assert config_from_dict(doc) == dataclasses.replace(
        preset("small"), sp_count=3, vms_per_sp=(1, 2), job_types=(2,)
    )
