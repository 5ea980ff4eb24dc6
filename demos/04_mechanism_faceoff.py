# Matching vs the exact auction and the three baseline allocators over
# repeated random draws, every mechanism on every scenario.
#
# Run: python3 demos/04_mechanism_faceoff.py
from vcauction import experiment, preset

for name in ("small", "large"):
    summary, rows = experiment(preset(name), trials=20, preset_name=name)
    print(f"--- {name} preset, {summary['trials']} trials ---")
    for mech, stats in summary["mechanisms"].items():
        if not stats["successes"]:
            continue
        print(f"  {mech:8s} successes {stats['successes']:2d}/20  "
              f"mean objective {stats['mean_objective']:.3f}  "
              f"mean runtime {stats['mean_runtime_secs'] * 1000:.2f}ms")
    for kind, pct in summary["improvement_over_baseline_pct"].items():
        if pct is not None:
            print(f"  matching beats {kind} by {pct:+.1f}%")
    assert summary["ir_violations"] == []
    print()

print("per-trial rows carry seed, digest, objective and runtime; see the")
print("'experiment' CLI subcommand to dump them as CSV.")
