"""Benchmark for vcauction: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload experiment-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20
    python3 perfbench/run.py --workload all --seconds 1 --write-reference

Run from the repository root; the program is imported from `src/`. A run
repeats whole rounds of the workload's auctions, one at a time in this
process, until `--seconds` of auction time have been measured. Set-up
(importing vcauction, generating the scenario list, sending it through
`scenario_dumps`/`scenario_loads` and `validate_scenario`) is timed in
passes spread over the run, and its median is reported. Every output of the
first round is checked by `check.py`; later rounds must reproduce it. With
`--trace 1` the calls into each layer are timed (see `spans.py`), the spans
are written to `perfbench/out/`, and the per-layer figures replace the
end-to-end ones.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
program or an argument is missing.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# The checker's third-party imports (numpy, scipy) are paid here, before any
# set-up is timed.
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, load_scenarios

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
# One set-up pass is timed before the first auction and one more after every
# SETUP_EVERY_S of auction time, so that set-up is sampled across the whole
# run as the auctions are: this machine's speed drifts within seconds.
SETUP_EVERY_S = 2.0
# A child run in --workload all mode that outlives this is stopped.
CHILD_TIMEOUT_S = 170


class Deadline(Exception):
    """An auction ran past its workload's deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def set_up(w, tracer, label: str):
    """One set-up pass: import vcauction anew, re-running its module code,
    then load the workload's scenarios. Returns (seconds, vc, scenarios)."""
    start = perf_counter()
    for name in [n for n in sys.modules if n == "vcauction" or n.startswith("vcauction.")]:
        del sys.modules[name]
    vc = importlib.import_module("vcauction")
    if tracer is not None:
        tracer.auction = label
        tracer.install()
    scenarios = load_scenarios(vc, w)
    return perf_counter() - start, vc, scenarios


@dataclass
class Measured:
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    records: dict[int, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    rounds: int = 0


def run_auctions(w, seconds: float, seed: int, tracer) -> Measured:
    """Whole rounds in a seeded order until `seconds` of auction time, with
    set-up passes in between. The auctions use the modules and scenarios of
    a first, untimed pass that also fills the bytecode cache."""
    m = Measured()
    _, vc, scenarios = set_up(w, tracer, "warmup")
    m.setup_times.append(set_up(w, tracer, "setup:0")[0])
    rng = random.Random(seed)
    since_setup = 0.0
    while True:
        order = list(range(len(scenarios)))
        rng.shuffle(order)
        for i in order:
            s = scenarios[i]
            if tracer is not None:
                tracer.auction = f"auction:{m.rounds}:{s.seed}"
            start = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, w.deadline_s)
            try:
                out = w.auction(vc, s)
            except Deadline:
                out = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            m.times.append(perf_counter() - start)
            value = None if out is None else w.headline(out)
            m.values.append(0.0 if value is None else value)
            if value is None:
                m.failures.append((s.seed, "deadline" if out is None else "no allocation"))
            if out is not None:
                rec = w.record(out)
                if s.seed not in m.records:
                    m.records[s.seed] = rec
                    if tracer is not None:
                        tracer.auction = f"check:{s.seed}"
                    m.problems += [f"seed {s.seed}: {p}" for p in w.check(vc, s, out)]
                elif m.records[s.seed] != rec:
                    m.problems.append(f"seed {s.seed}: round {m.rounds} output differs from its first")
            del out
            since_setup += m.times[-1]
            if since_setup >= SETUP_EVERY_S:
                m.setup_times.append(set_up(w, tracer, f"setup:{len(m.setup_times)}")[0])
                since_setup = 0.0
        m.rounds += 1
        if sum(m.times) >= seconds:
            return m


def digest(records: dict, seeds) -> str:
    doc = [[seed, records.get(seed, "failed")] for seed in seeds]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def run_one(args) -> int:
    if not (SRC / "vcauction" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {SRC / 'vcauction'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Keep the collector from rescanning the checker's objects during auctions.
    gc.freeze()

    w = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None

    m = run_auctions(w, args.seconds, args.seed, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = len(m.times), len(m.failures)
    measured = sum(m.times)

    seeds = list(w.seeds)
    print(f"workload {w.name}: preset {w.preset}, overrides {dict(w.overrides)}, "
          f"scenario seeds {seeds[0]}-{seeds[-1]}, deadline {w.deadline_s} s, --seed {args.seed}")
    print(f"  {m.rounds} rounds, {attempted} auctions attempted, {failed} failed, "
          f"{measured:.3f} s of auction time, {len(m.setup_times)} set-up passes")
    for seed in sorted({s for s, _ in m.failures}):
        reasons = sorted({r for s2, r in m.failures if s2 == seed})
        print(f"  failed: scenario seed {seed} ({', '.join(reasons)})")

    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(m.setup_times), "s"),
        "auctions_per_s": ((attempted - failed) / measured, "1/s"),
        "auction_p50_ms": (statistics.median(m.times) * 1e3, "ms"),
        "uos_per_auction": (math.fsum(m.values) / attempted, "UoS"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if attempted >= 100:
        p90 = statistics.quantiles(m.times, n=10)[-1] * 1e3
        print(f"  auction_p90_ms {p90:.4f} ms (n={attempted})")
    if tracer is not None:
        print(f"  traced auctions_per_s {metrics['auctions_per_s'][0]:.4f} 1/s, "
              f"auction_p50_ms {metrics['auction_p50_ms'][0]:.4f} ms")
        metrics = layer_metrics(tracer.spans, attempted)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")

    got = digest(m.records, seeds)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(w.name)
    verdict = "matches" if got == ref else "DIFFERS FROM"
    print(f"  output digest {got} {verdict} reference {ref} (report only)")
    if args.write_reference:
        refs[w.name] = got
        REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        print(f"  reference digest for {w.name} written to {REFERENCE.relative_to(HERE.parent)}")

    for p in m.problems[:20]:
        print(f"  CHECK FAILED: {p}")
    if len(m.problems) > 20:
        print(f"  ... {len(m.problems) - 20} more check failures")
    print(json.dumps({
        "correct": not m.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not m.problems else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so that
    each reports its own peak memory."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.write_reference:
            cmd.append("--write-reference")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"workload {name}: stopped after {CHILD_TIMEOUT_S} s")
            return 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("\n".join(lines))
            print(f"workload {name}: exited with status {proc.returncode} and no result")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        status = status or proc.returncode
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output digest as the workload's reference")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
