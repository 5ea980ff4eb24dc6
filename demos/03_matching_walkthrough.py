"""Greedy matching pipeline, step by step: lists, scan trace, prices.

Run: python3 demos/03_matching_walkthrough.py
"""
from collections import Counter

from vcauction import (
    DEFAULT_DELTA,
    Market,
    build_broker_list,
    generate,
    preset,
    run_matching,
    solve_optimal,
)

s = generate(preset("small"), seed=3)
print(f"scenario: {len(s.buyers)} buyers, {len(s.sellers)} sellers")

# The broker merges every buyer's feasible sellers into one list, best net
# value first, read by market index. A buyer's entries in it are its own
# ranking; a virtual entry just below the cheapest real one ends each list.
m = Market(s)
broker = build_broker_list(m)
for bi, buyer in enumerate(m.buyers[:3]):
    mine = broker.buyer == bi
    cols, values = broker.seller[mine].tolist(), broker.value[mine].tolist()
    head = ", ".join(f"{m.sellers[k].label()}@{v:.3f}" for k, v in zip(cols[:3], values[:3]))
    print(f"  {buyer.label()}: {len(cols)} sellers "
          f"[{head}, ...], virtual floor {values[-1] - DEFAULT_DELTA:.3f}")
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
