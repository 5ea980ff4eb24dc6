# Exact welfare-maximizing auction on a scenario small enough to enumerate.
#
# Run: python3 demos/02_exact_auction.py
import math

from vcauction import (
    GenConfig,
    Market,
    generate,
    run_optimal_mechanism,
    solve_naive,
    solve_optimal,
)

cfg = GenConfig(job_types=(1,), sp_count=2, vms_per_sp=(1, 2))
s = generate(cfg, seed=0)
b, n = len(s.buyers), len(s.sellers)
print(f"scenario: {b} buyers, {n} sellers")

naive = solve_naive(s)
print(f"enumeration: {naive.explored} candidate maps "
      f"(= {b}! * C({n},{b}) = {math.factorial(b) * math.comb(n, b)}), "
      f"best objective {naive.objective_value:.4f}")

res = solve_optimal(s)
print(f"branch and bound: same objective {res.objective_value:.4f}, "
      f"{res.explored} search nodes and tie-break tests")
assert abs(res.objective_value - naive.objective_value) <= 1e-9

# The mechanisms take the scenario compiled once into a `Market`.
outcome = run_optimal_mechanism(Market(s))
print("\nwinners and pivot payments:")
for buyer, sid in sorted(outcome.assignment.pairs):
    seller = s.seller(sid)
    pay = outcome.payments[sid]
    print(f"  {buyer.label()} -> {sid.label()}: bid {seller.bid:.3f}, "
          f"payment {pay:.3f}, seller utility {pay - seller.true_value:+.3f}")

# Payment = bid + (welfare with the seller) - (welfare without it), so each
# winner pockets exactly its externality and never less than its bid.
total = sum(outcome.payments.values())
print(f"\nobjective {outcome.objective_value:.4f}, payments total {total:.4f}")
