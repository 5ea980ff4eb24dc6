"""Byte-exact regression outputs for every mechanism on fixed seeds.

`golden.json` holds assignments, payments, objectives (as `repr`), a digest
of each matching scan trace, the search node counts, and a digest of the
lists and sweeps that `verify_report` serialises. Any change to a
mechanism's arithmetic, tie-breaking, scan order or search order shows up
here as a mismatch. List what a change moves, one changed leaf per line as
`path: old → new`, without touching the file:

    PYTHONPATH=src:tests python3 tests/test_golden.py --diff

and regenerate the file only on purpose:

    PYTHONPATH=src:tests python3 tests/test_golden.py --write
"""
from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import vcauction
from helpers import make_tiny
from vcauction import (
    BASELINE_KINDS,
    experiment,
    generate,
    preset,
    run_baseline,
    run_matching,
    run_optimal_mechanism,
    solve_naive,
    solve_optimal,
    verify_report,
    verify_truthfulness_matching,
)

GOLDEN = Path(__file__).with_name("golden.json")


def _sid(sid) -> str:
    return f"{sid.sp_index}:{sid.vm_index}:{sid.rank}"


def _pairs(a) -> list | None:
    if a is None:
        return None
    return [[b.job_index, b.component_index, _sid(s)] for b, s in a.pairs]


def _payments(payments: dict) -> dict:
    return {_sid(k): repr(v) for k, v in sorted(payments.items())}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _trace_digest(trace) -> str:
    return _digest([list(ev) for ev in trace])


def _matching(s) -> dict:
    out = run_matching(s)
    return {
        "pairs": _pairs(out.assignment),
        "objective": repr(out.objective_value),
        "payments": _payments(out.payments),
        "trace": _trace_digest(out.match_trace),
        "trace_events": len(out.match_trace),
    }


def _baselines(s) -> dict:
    return {kind: _pairs(run_baseline(s, kind, seed=s.seed)) for kind in BASELINE_KINDS}


def _solve(res) -> dict:
    return {
        "pairs": _pairs(res.assignment),
        "objective": repr(res.objective_value),
        "explored": res.explored,
    }


def _tiny(seed: int) -> dict:
    s = make_tiny(seed)
    doc = {"maxuosg": _matching(s), "baselines": _baselines(s)}
    doc["naive"] = _solve(solve_naive(s))
    doc["optimal"] = _solve(solve_optimal(s))
    opt = run_optimal_mechanism(s)
    doc["opt"] = None if opt is None else {
        "pairs": _pairs(opt.assignment),
        "objective": repr(opt.objective_value),
        "payments": _payments(opt.payments),
        "explored": opt.explored_nodes,
    }
    return doc


def _preset(name: str, seed: int) -> dict:
    s = generate(preset(name), seed=seed)
    return {"maxuosg": _matching(s), "baselines": _baselines(s)}


def _sweep() -> dict:
    s = generate(preset("small"), seed=0)
    sid = min(run_matching(s).payments)
    report = verify_truthfulness_matching(s, sid)
    return {
        "seller": _sid(sid),
        "truthful_utility": repr(report["truthful_utility"]),
        "rows": [
            [repr(r["bid"]), r["won"], repr(r["payment"]), repr(r["utility"]),
             r["order_preserved"], r["classification"]]
            for r in report["rows"]
        ],
        "gains": [repr(b) for b in report["gains"]],
    }


# (seed, excluded seller) for the pivot re-solves: each seller is a winner of
# the seed's exact optimum, fixed here so the test skips the root solve.
PIVOTS = ((0, "0:0:1"), (1, "0:0:1"), (2, "0:0:1"))


def _pivot(seed: int, label: str) -> dict:
    s = generate(preset("small"), seed=seed)
    sid = next(sel.id for sel in s.sellers if _sid(sel.id) == label)
    return _solve(solve_optimal(s, excluded=frozenset({sid})))


def _opt_run(s) -> dict | None:
    """The whole exact auction. Node counts are left out: the root and pivot
    searches are pinned by `optimal` and `pivot`."""
    out = run_optimal_mechanism(s)
    return None if out is None else {
        "pairs": _pairs(out.assignment),
        "objective": repr(out.objective_value),
        "payments": _payments(out.payments),
    }


def _opt_small(seed: int) -> dict:
    return _opt_run(generate(preset("small"), seed=seed))


# Contact rates at which C2 binds on every `small` seed 0-9: the scan rejects
# 1 to 20,235 entries per seed, where the presets never reject one.
C2_BINDING = {"lambda_range": (0.2, 0.3)}


def _c2(seed: int) -> dict:
    s = generate(dataclasses.replace(preset("small"), **C2_BINDING), seed=seed)
    return {"maxuosg": _matching(s), "baselines": _baselines(s), "opt": _opt_run(s)}


# The serialised lists and sweeps of `verify_report`, byte for byte.
VERIFY_KEYS = ("buyer_lists", "broker_list", "pairs", "winners", "sweeps")


def _verify(seed: int) -> str:
    report, rows = verify_report(generate(preset("small"), seed=seed), "maxuosg")
    return _digest({"report": {k: report[k] for k in VERIFY_KEYS}, "rows": rows})


def compute() -> dict:
    return {
        "tiny": {str(seed): _tiny(seed) for seed in range(24)},
        "small": {str(seed): _preset("small", seed) for seed in range(10)},
        "opt_small": {str(seed): _opt_small(seed) for seed in range(3)},
        "c2": {str(seed): _c2(seed) for seed in range(10)},
        "large": {str(seed): _preset("large", seed) for seed in range(10)},
        "sweep": _sweep(),
        "verify": {str(seed): _verify(seed) for seed in range(2)},
        "pivot": {f"{seed}/{label}": _pivot(seed, label) for seed, label in PIVOTS},
    }


def test_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(compute()))
    for section in want:
        if isinstance(want[section], dict) and section != "sweep":
            for key in want[section]:
                assert got[section][key] == want[section][key], f"{section} {key}"
        else:
            assert got[section] == want[section], section
    assert got.keys() == want.keys()


def _compensated_sum(values, start=0):
    """`sum` with compensated float addition, as Python 3.12 and later add
    (exactly rounded here, by `math.fsum`); integer sums stay exact."""
    values = list(values)
    if isinstance(start, float) or any(isinstance(v, float) for v in values):
        return math.fsum([start, *values])
    return builtins.sum(values, start)


def test_outputs_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    """Every float total adds in order, as `objective` does, so a `sum`
    that compensates its rounding changes no output: not the golden file,
    nor `experiment`'s means."""
    def means() -> dict:
        summary, _ = experiment(preset("small"), trials=20)
        return {name: stats["mean_objective"] for name, stats in summary["mechanisms"].items()}

    in_order = means()
    for module in (vcauction.economics, vcauction.optimal, vcauction.matching, vcauction.harness):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert json.loads(json.dumps(compute())) == json.loads(GOLDEN.read_text())
    assert means() == in_order


def _leaves(doc, path: str = ""):
    """`(path, value)` for every scalar in `doc`, paths joined by `/`."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _leaves(value, f"{path}/{key}" if path else str(key))
    else:
        yield path, doc


def diff(old, new) -> list[str]:
    """One `path: old → new` line per leaf that differs; a leaf present on
    one side only shows as `absent` on the other."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    paths = list(before) + [p for p in after if p not in before]
    absent = object()
    show = lambda x: "absent" if x is absent else json.dumps(x)
    lines = []
    for path in paths:
        a, b = before.get(path, absent), after.get(path, absent)
        if a != b:
            lines.append(f"{path}: {show(a)} → {show(b)}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    elif sys.argv[1:] == ["--diff"]:
        got = json.loads(json.dumps(compute()))
        print("\n".join(diff(json.loads(GOLDEN.read_text()), got)) or "no change")
    else:
        sys.exit(__doc__)
