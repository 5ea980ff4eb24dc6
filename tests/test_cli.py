"""End-to-end command line tests, driven through main(argv)."""
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vcauction import (
    GenConfig,
    Market,
    config_to_dict,
    generate,
    preset,
    scenario_dumps,
    scenario_loads,
)
import vcauction.harness as harness
from vcauction.cli import main
from vcauction.optimal import BudgetExceeded, verify_truthfulness_opt

from helpers import backtrack_scenario

TINY_CFG = GenConfig(job_types=(1,), sp_count=2, vms_per_sp=(1, 2))


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(TINY_CFG)))
    return str(path)


@pytest.fixture()
def tiny_scenario_file(tmp_path, tiny_config_file):
    path = tmp_path / "scenario.json"
    assert main(["generate", "--config", tiny_config_file, "--seed", "0", "--out", str(path)]) == 0
    return str(path)


def test_generate_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["generate", "--preset", "small", "--seed", "7", "--out", str(a)]) == 0
    assert main(["generate", "--preset", "small", "--seed", "7", "--out", str(b)]) == 0
    assert main(["generate", "--preset", "small", "--seed", "8", "--out", str(c)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_generate_stdout_parses(capsys):
    assert main(["generate", "--preset", "small", "--seed", "0"]) == 0
    s = scenario_loads(capsys.readouterr().out)
    assert len(s.buyers) == 7


@pytest.mark.parametrize("module", ["vcauction", "vcauction.cli"])
def test_module_entry_point_runs_from_a_source_checkout(tmp_path, module):
    """`python -m vcauction` and `python -m vcauction.cli` run the command
    with `src` on the path alone, no install."""
    out, want = tmp_path / "s.json", tmp_path / "want.json"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cmd = [sys.executable, "-m", module, "generate", "--preset", "small", "--seed", "0", "--out", str(out)]
    assert subprocess.run(cmd, env=env, cwd=tmp_path, timeout=60).returncode == 0
    assert main(["generate", "--preset", "small", "--seed", "0", "--out", str(want)]) == 0
    assert out.read_text() == want.read_text()


def test_generate_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    doc = config_to_dict(TINY_CFG)
    doc["epsilon_range"] = [0.9, 1.2]
    bad.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 2


def test_solve_matching(tmp_path, tiny_scenario_file, capsys):
    out = tmp_path / "run.json"
    assert main(["solve", tiny_scenario_file, "--mechanism", "maxuosg", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "maxuosg: ok" in printed
    doc = json.loads(out.read_text())
    assert doc["mechanism"] == "maxuosg"
    assert doc["success"]
    assert len(doc["pairs"]) == 3
    assert doc["validated"]


def test_solve_exact(tiny_scenario_file, capsys):
    assert main(["solve", tiny_scenario_file, "--mechanism", "opt"]) == 0
    printed = capsys.readouterr().out
    assert "opt: ok" in printed
    assert "winner" in printed


def test_solve_seeded_baseline_reproducible(tmp_path, tiny_scenario_file):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(
            ["solve", tiny_scenario_file, "--mechanism", "rmm", "--seed", "9", "--out", str(out)]
        ) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["pairs"] == outs[1]["pairs"]


def test_solve_bad_inputs(tmp_path, tiny_scenario_file, capsys):
    assert main(["solve", tiny_scenario_file, "--mechanism", "vcg"]) == 2
    assert main(["solve", str(tmp_path / "missing.json"), "--mechanism", "opt"]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["solve", str(garbled), "--mechanism", "opt"]) == 2
    capsys.readouterr()


def test_non_finite_input_exits_2(tmp_path, tiny_scenario_file, capsys):
    """An infinite time in a scenario file and a NaN range in a config file
    are input errors, not crashes."""
    doc = json.loads(Path(tiny_scenario_file).read_text())
    doc["jobs"][0]["components"][0]["tolerable_time"] = math.inf
    scenario = tmp_path / "inf.json"
    scenario.write_text(json.dumps(doc))
    assert main(["solve", str(scenario), "--mechanism", "opt"]) == 2
    assert "error:" in capsys.readouterr().err
    doc = config_to_dict(TINY_CFG)
    doc["alpha_range"] = [math.nan, 4.0]
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "exp.json")
    assert main(["experiment", "--config", str(config), "--trials", "1", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def test_boolean_in_a_scenario_file_exits_2(tmp_path, tiny_scenario_file, capsys):
    """A JSON `true` where a scenario holds a number is an input error, not
    the number 1."""
    doc = json.loads(Path(tiny_scenario_file).read_text())
    doc["seed"] = True
    scenario = tmp_path / "bool.json"
    scenario.write_text(json.dumps(doc))
    assert main(["solve", str(scenario), "--mechanism", "opt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_boolean_or_string_in_a_config_file_exits_2(tmp_path, capsys):
    """A JSON `true` or a numeric string where a config holds a number is an
    input error, not the number it spells."""
    for key, bad in (("sp_count", True), ("alpha_range", ["2.5", "4.0"]), ("coverage_density", "1")):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({**config_to_dict(TINY_CFG), key: bad}))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "s.json")]) == 2
        assert "malformed config document" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    """A config file holding a list, a string or a number is an input error."""
    for i, bad in enumerate(([1, 2], "abc", 3)):
        config = tmp_path / f"not_an_object_{i}.json"
        config.write_text(json.dumps(bad))
        for cmd in ("generate", "experiment"):
            argv = [cmd, "--config", str(config), "--out", str(tmp_path / f"{cmd}.json")]
            assert main(argv) == 2, (cmd, bad)
            assert "error: malformed config document" in capsys.readouterr().err


def test_non_finite_budget_is_a_usage_error(tiny_scenario_file, capsys):
    """A NaN or infinite budget would never expire, so argparse refuses it."""
    for budget in ("nan", "inf", "-inf"):
        for argv in (["verify", tiny_scenario_file], ["solve", tiny_scenario_file, "--mechanism", "opt"]):
            assert main(argv + [f"--budget-secs={budget}"]) == 2
            assert "not a finite number of seconds" in capsys.readouterr().err
    assert main(["verify", tiny_scenario_file, "--budget-secs", "1e3"]) == 0
    capsys.readouterr()


def test_negative_budget_is_a_usage_error(tiny_scenario_file, capsys):
    """A negative budget is spent before the run starts, so argparse refuses
    it, even where the run would never read the clock; 0 stays valid."""
    for argv in (
        ["verify", tiny_scenario_file],
        ["solve", tiny_scenario_file, "--mechanism", "maxuosg"],
        ["solve", tiny_scenario_file, "--mechanism", "opt"],
    ):
        assert main(argv + ["--budget-secs", "-1"]) == 2
        assert "-1 is a negative number of seconds" in capsys.readouterr().err
    assert main(["solve", tiny_scenario_file, "--mechanism", "maxuosg", "--budget-secs", "0"]) == 0
    capsys.readouterr()


def test_trials_below_one_is_a_usage_error(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "exp.json"
    for trials in ("0", "-2"):
        argv = ["experiment", "--config", tiny_config_file, "--trials", trials, "--out", str(out)]
        assert main(argv) == 2
        assert "not a positive number of trials" in capsys.readouterr().err
    assert not out.exists()


def test_verify_matching(tmp_path, tiny_scenario_file, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", tiny_scenario_file, "--out", str(out)]) == 0
    assert "0 sweep rows" not in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["violations"] == []
    with out.with_suffix(".csv").open() as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert {"seller", "bid", "won", "payment", "utility"} <= set(rows[0])


def test_verify_exact(tiny_scenario_file):
    assert main(["verify", tiny_scenario_file, "--mechanism", "opt"]) == 0


def test_verify_infeasible_is_not_a_violation(tmp_path, tiny_config_file, capsys):
    path = tmp_path / "dead.json"
    # seed 3 draws a scenario with no complete feasible allocation
    assert main(["generate", "--config", tiny_config_file, "--seed", "3", "--out", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert "nothing to verify" in capsys.readouterr().out


def test_verify_budget_exceeded(tmp_path, capsys):
    """A budget that runs out in the auction or in the sweeps says so. The
    input is C2-binding `small` seed 2, whose unbudgeted audit takes about
    3.5 s."""
    path = tmp_path / "c2.json"
    cfg = dataclasses.replace(preset("small"), lambda_range=(0.2, 0.3))
    path.write_text(scenario_dumps(generate(cfg, seed=2)))
    for budget in ("1", "0.01"):
        start = time.perf_counter()
        assert main(["verify", str(path), "--mechanism", "opt", "--budget-secs", budget]) == 0
        assert time.perf_counter() - start < 3.0
        printed = capsys.readouterr().out
        assert "budget exceeded" in printed
        assert "no feasible allocation" not in printed


def test_verify_budget_exceeded_inside_the_sweeps(tmp_path, monkeypatch, capsys):
    """A budget that runs out at the second winner's sweep, whatever the
    speed, is reported as such, and is no violation. Both sweeps get the
    audit's one market and a finite deadline."""
    calls = []

    def second_call_runs_out(s, sid, **kwargs):
        calls.append(kwargs)
        if len(calls) == 2:
            raise BudgetExceeded("sweep stopped")
        return verify_truthfulness_opt(s, sid, **kwargs)

    monkeypatch.setattr(harness, "verify_truthfulness_opt", second_call_runs_out)
    path = tmp_path / "small.json"
    path.write_text(scenario_dumps(generate(preset("small"), seed=0)))
    assert main(["verify", str(path), "--mechanism", "opt"]) == 0
    assert "opt: budget exceeded before every sweep finished" in capsys.readouterr().out
    assert len(calls) == 2
    assert isinstance(calls[0]["market"], Market) and calls[1]["market"] is calls[0]["market"]
    assert all(math.isfinite(kwargs["deadline"]) for kwargs in calls)


def test_verify_exits_1_on_a_violation(tmp_path, monkeypatch, capsys):
    """A rationality violation, for either mechanism, or a bid that beats
    truth-telling in an exact sweep is printed to stderr, and `verify`
    exits 1."""
    path = tmp_path / "small.json"
    path.write_text(scenario_dumps(generate(preset("small"), seed=0)))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "ir_violations", lambda s, run: [f"{run.mechanism}: forged"])
        for mechanism in ("maxuosg", "opt"):
            assert main(["verify", str(path), "--mechanism", mechanism]) == 1
            assert f"VIOLATION: {mechanism}: forged" in capsys.readouterr().err

    def beaten(s, sid, **kwargs):
        sweep = verify_truthfulness_opt(s, sid, **kwargs)
        return {**sweep, "dominance_violations": [sweep["rows"][0]["bid"]]}

    monkeypatch.setattr(harness, "verify_truthfulness_opt", beaten)
    assert main(["verify", str(path), "--mechanism", "opt"]) == 1
    assert "VIOLATION: opt: dominance violated for s" in capsys.readouterr().err


def test_experiment_exits_1_on_a_rationality_violation(tmp_path, tiny_config_file, monkeypatch, capsys):
    """Every violation `ir_violations` finds goes into the summary, and
    `experiment` counts them on stderr and exits 1."""
    monkeypatch.setattr(harness, "ir_violations", lambda s, run: [f"{run.mechanism}: forged"])
    out = tmp_path / "exp.json"
    assert main(["experiment", "--config", tiny_config_file, "--trials", "2", "--out", str(out)]) == 1
    assert "10 rationality violations" in capsys.readouterr().err
    assert len(json.loads(out.read_text())["ir_violations"]) == 10


def test_maxuosg_budget_exceeded(tmp_path, capsys):
    """A matching scan that backtracks past its budget reports it, in both
    commands, rather than an infeasible scenario."""
    path = tmp_path / "backtrack.json"
    path.write_text(scenario_dumps(backtrack_scenario()))
    for command in ("solve", "verify"):
        assert main([command, str(path), "--mechanism", "maxuosg", "--budget-secs", "0"]) == 0
        printed = capsys.readouterr().out
        assert "budget exceeded" in printed
        assert "no feasible allocation" not in printed


def test_experiment_writes_summary_and_rows(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "exp.json"
    code = main(
        ["experiment", "--config", tiny_config_file, "--trials", "4", "--out", str(out)]
    )
    assert code == 0
    assert "maxuosg" in capsys.readouterr().out
    summary = json.loads(out.read_text())
    assert summary["trials"] == 4
    assert summary["ir_violations"] == []
    with out.with_suffix(".csv").open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 20  # 4 trials x 5 mechanisms


def test_bench_table(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--job-type", "1", "--sp-range", "1:2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "providers" in printed and "enumeration" in printed
    rows = json.loads(out.read_text())
    assert [r["sp_count"] for r in rows] == [1, 2]
    assert all(r["enum_completed"] for r in rows)
    assert out.with_suffix(".csv").exists()


def test_bench_rejects_bad_range(tmp_path, capsys):
    assert main(["bench", "--sp-range", "3", "--out", str(tmp_path / "b.json")]) == 2
    capsys.readouterr()


def test_bench_empty_range_is_a_usage_error(tmp_path, capsys):
    """LO above HI would write an empty table; argparse refuses it."""
    out = tmp_path / "b.json"
    assert main(["bench", "--sp-range", "3:1", "--out", str(out)]) == 2
    assert "3:1 is an empty range" in capsys.readouterr().err
    assert not out.exists()


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2
    capsys.readouterr()
