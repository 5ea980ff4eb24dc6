"""Misreport sweeps: what a seller gains (or not) by shading its bid.

The exact mechanism is dominant-strategy truthful, so no point on the grid
beats bidding the true value. The greedy matching keeps that guarantee
whenever the misreport leaves the broker list's pair order unchanged; the
sweep report flags the rare order-preserving exceptions separately.

Run: python3 demos/05_bid_sweeps.py
"""
from vcauction import (
    GenConfig,
    Market,
    build_broker_list,
    generate,
    preset,
    run_matching,
    run_optimal_mechanism,
    verify_truthfulness_matching,
    verify_truthfulness_opt,
)


def show_curve(rows, q):
    for r in rows[:: max(1, len(rows) // 7)]:
        mark = " <- true value" if abs(r["bid"] - q) < 1e-12 else ""
        state = f"wins, utility {r['utility']:+.4f}" if r["won"] else "loses"
        print(f"    bid {r['bid']:.3f}: {state}{mark}")


cfg = GenConfig(job_types=(1,), sp_count=2, vms_per_sp=(1, 2))
m = Market(generate(cfg, seed=0))
winner = next(iter(run_optimal_mechanism(m).payments))
report = verify_truthfulness_opt(m, winner)
print(f"exact auction, seller {winner.label()} "
      f"(true value {report['true_value']:.3f}):")
show_curve(report["rows"], report["true_value"])
print(f"  truthful utility {report['truthful_utility']:+.4f}, "
      f"dominant: {report['dominant']}")

m2 = Market(generate(preset("small"), seed=3))
winner2 = next(iter(run_matching(m2).payments))
mreport = verify_truthfulness_matching(build_broker_list(m2), winner2)
print(f"\ngreedy matching, seller {winner2.label()} "
      f"(true value {mreport['true_value']:.3f}):")
show_curve(mreport["rows"], mreport["true_value"])
print(f"  truthful utility {mreport['truthful_utility']:+.4f}")
print(f"  gains anywhere on the grid: {mreport['gains'] or 'none'}")
print(f"  gains with order preserved: "
      f"{mreport['order_preserving_gains'] or 'none'}")
