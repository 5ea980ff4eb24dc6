"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` rebinds the public functions named in `TRACED` to timing
wrappers in every loaded `vcauction` module, so calls between modules are
timed too; the package's source is left untouched. A span is
`(name, start, end, parent, auction, attrs)`: `parent` is the index of the
enclosing span (-1 at the top), `auction` the benchmark's id for the auction
or set-up pass, and `attrs` counts read from the call's arguments and result
once the clock has stopped. Spans stay in memory until `write`.

`layer_metrics` folds the spans into the per-layer figures.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter


def _entries(args, kwargs, out):
    return {"entries": len(out.entries)}


def _scan(args, kwargs, out):
    assignment, trace = out
    kinds = Counter(ev[0] for ev in trace)
    return {"events": len(trace), "buyers": len(args[0].buyers), **kinds}


def _solve(args, kwargs, out):
    excluded = kwargs.get("excluded", args[1] if len(args) > 1 else ())
    return {"nodes": out.explored, "pivot": int(bool(excluded))}


def _kind(args, kwargs, out):
    return {"kind": (args[1] if len(args) > 1 else kwargs["kind"]).lower()}


def _points(args, kwargs, out):
    return {"points": len(out["rows"])}


# (module, function, attrs) for every call the traced run times.
TRACED = (
    ("generator", "generate", None),
    ("model", "scenario_dumps", None),
    ("model", "scenario_loads", None),
    ("model", "validate_scenario", None),
    ("economics", "assignment_feasible", None),
    ("matching", "build_buyer_list", _entries),
    ("matching", "build_broker_list", None),
    ("matching", "match", _scan),
    ("matching", "matching_payment", None),
    ("matching", "run_matching", None),
    ("matching", "verify_truthfulness_matching", _points),
    ("baselines", "run_baseline", _kind),
    ("optimal", "solve_optimal", _solve),
    ("optimal", "vcg_payment", None),
    ("optimal", "run_optimal_mechanism", None),
    ("optimal", "verify_truthfulness_opt", _points),
    ("harness", "run_mechanism", None),
    ("harness", "verify_report", None),
)

SCAN_KINDS = ("accept", "skip", "reject", "delete", "restart")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.auction = "setup"
        self.origin = perf_counter()

    def span(self, name: str, fn, attrs=None):
        """Wrap `fn` so that each call records one span named `name`."""

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.auction, {})
            if attrs is not None:
                self.spans[sid][5].update(attrs(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded vcauction modules."""
        mods = [m for n, m in list(sys.modules.items()) if n == "vcauction" or n.startswith("vcauction.")]
        for module, fname, attrs in TRACED:
            orig = getattr(sys.modules[f"vcauction.{module}"], fname)
            wrapped = self.span(f"{module}.{fname}", orig, attrs)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, auction, attrs) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "auction": auction,
                }
                doc.update(attrs)
                f.write(json.dumps(doc) + "\n")


def layer_metrics(spans, attempted: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures: set-up figures per set-up pass (median over the
    passes), auction figures per attempted auction. Times are inclusive."""
    setup: dict[str, dict[str, float]] = {}
    ms: Counter = Counter()
    counts: Counter = Counter()
    for name, start, end, parent, auction, attrs in spans:
        dt = (end - start) * 1e3
        if auction.startswith("setup:"):
            per = setup.setdefault(auction, Counter())
            if name == "generator.generate":
                per["generate"] += dt
            elif name in ("model.scenario_dumps", "model.scenario_loads"):
                per["roundtrip"] += dt
            elif name == "model.validate_scenario" and parent == -1:
                per["validate"] += dt
            continue
        if not auction.startswith("auction:"):
            continue
        if name == "baselines.run_baseline":
            ms[attrs["kind"]] += dt
        elif name == "optimal.solve_optimal":
            key = "pivot" if attrs["pivot"] else "root"
            ms[key] += dt
            counts[key + "_nodes"] += attrs["nodes"]
        elif name in ("matching.verify_truthfulness_matching", "optimal.verify_truthfulness_opt"):
            ms["sweep"] += dt
            counts["points"] += attrs["points"]
        else:
            ms[name] += dt
            counts.update(attrs)

    def per_setup(key):
        return statistics.median(p[key] for p in setup.values()) if setup else 0.0

    n = max(attempted, 1)
    solve_ms = ms["root"] + ms["pivot"]
    nodes = counts["root_nodes"] + counts["pivot_nodes"]
    out = {
        "generator.generate_ms": (per_setup("generate"), "ms"),
        "model.roundtrip_ms": (per_setup("roundtrip"), "ms"),
        "model.validate_ms": (per_setup("validate"), "ms"),
        "matching.buyer_lists_ms": (ms["matching.build_buyer_list"] / n, "ms"),
        "matching.broker_merge_ms": (ms["matching.build_broker_list"] / n, "ms"),
        "matching.list_entries": (counts["entries"] / n, "count"),
        "matching.scan_ms": (ms["matching.match"] / n, "ms"),
        "matching.scan_events": (counts["events"] / n, "count"),
    }
    for kind in SCAN_KINDS:
        out[f"matching.scan_{kind}s"] = (counts[kind] / n, "count")
    out.update({
        "matching.scan_accept_ratio": (counts["buyers"] / counts["accept"] if counts["accept"] else 0.0, "ratio"),
        "matching.pricing_ms": (ms["matching.matching_payment"] / n, "ms"),
        "economics.check_ms": (ms["economics.assignment_feasible"] / n, "ms"),
        "baselines.etpm_ms": (ms["etpm"] / n, "ms"),
        "baselines.lpm_ms": (ms["lpm"] / n, "ms"),
        "baselines.rmm_ms": (ms["rmm"] / n, "ms"),
        "optimal.root_ms": (ms["root"] / n, "ms"),
        "optimal.root_nodes": (counts["root_nodes"] / n, "count"),
        "optimal.nodes_per_s": (nodes / solve_ms * 1e3 if solve_ms else 0.0, "1/s"),
        "optimal.pivot_ms": (ms["pivot"] / n, "ms"),
        "optimal.pivot_nodes": (counts["pivot_nodes"] / n, "count"),
        "optimal.pivot_share": (ms["pivot"] / solve_ms if solve_ms else 0.0, "ratio"),
        "harness.sweep_ms": (ms["sweep"] / n, "ms"),
        "harness.sweep_points": (counts["points"] / n, "count"),
    })
    return out
