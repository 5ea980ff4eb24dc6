"""Greedy matching pipeline, step by step: lists, scan trace, prices.

Run: python3 demos/03_matching_walkthrough.py
"""
from collections import Counter

from vcauction import (
    Market,
    build_broker_list,
    build_buyer_list,
    generate,
    preset,
    run_matching,
    solve_optimal,
)

s = generate(preset("small"), seed=3)
print(f"scenario: {len(s.buyers)} buyers, {len(s.sellers)} sellers")

# Each buyer ranks its feasible sellers by net value; a virtual entry just
# below the cheapest real one terminates every list.
lists = [build_buyer_list(s, b) for b in s.buyers]
for lst in lists[:3]:
    head = ", ".join(
        f"{e.seller.label()}@{e.value:.3f}" for e in lst.real_entries()[:3]
    )
    print(f"  {lst.buyer.label()}: {len(lst.real_entries())} sellers "
          f"[{head}, ...], virtual floor {lst.entries[-1].value:.3f}")

# The broker merges every real entry into one list, read by market index.
broker = build_broker_list(Market(s))
print(f"broker list: {len(broker.value)} entries, "
      f"top value {broker.value[0]:.3f}")

outcome = run_matching(s)
events = Counter(ev[0] for ev in outcome.match_trace)
print(f"scan events: {dict(events)}")
print(f"matched objective: {outcome.objective_value:.4f}")

print("payments (value to buyer minus the next list entry):")
for buyer, sid in sorted(outcome.assignment.pairs):
    print(f"  {buyer.label()} -> {sid.label()}: bid {s.seller(sid).bid:.3f}, "
          f"payment {outcome.payments[sid]:.3f}")

opt = solve_optimal(s)
print(f"\nexact optimum {opt.objective_value:.4f}, "
      f"matching reaches {outcome.objective_value / opt.objective_value:.1%} of it")
