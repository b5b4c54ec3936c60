"""End-to-end teleportation: exact averages and sampled shots.

Runs the full three-node protocol at the calibrated operating point, prints
the six-state fidelity table with its measurement-outcome breakdown, and
cross-checks the analytic average against sampled Monte Carlo shots.
"""

import numpy as np

from teleportsim import harness, protocol as pt

cfg = pt.make_config("conditional")

print("== Exact six-state fidelities (conditional) ==")
fids = pt.six_state_fidelities(cfg)
for state in ("+x", "-x", "+y", "-y", "+z", "-z"):
    print(f"  {state}: {fids[state]:.4f}")
print(f"  average: {np.mean(list(fids.values())):.4f}  (classical bound 2/3)")

res = pt.run_teleportation_analytic(cfg, "+z")
print(f"\nswapped far-near state fidelity: {res.swap_fidelity:.4f}")
print(f"after storage on the receiving memory: {res.teleporter_fidelity:.4f}")
print(f"acceptance probability per started shot: {res.accept_probability:.2e}")

print("\n== Fidelity by measurement outcome (memory bit, comm bit) ==")
table = pt.per_bsm_outcome_fidelity(cfg)
for (m, c), f in sorted(table.items()):
    print(f"  outcome {m}{c}: {f:.4f}")
print("the communication-qubit 0 outcome reads out better, so those shots win")

print(f"\nno feed-forward average: {pt.no_feedforward_fidelity(cfg):.4f}"
      " (a fully mixed state, as it must be)")

print("\n== Monte Carlo shots ==")
n = 20000
kept = []
aborts: dict[str, int] = {}
for shot in range(n):
    rng = harness.shot_rng(7, "demo-teleport", shot)
    out = pt.run_teleportation_shot(cfg, "+x", rng)
    if out.aborted:
        aborts[out.aborted] = aborts.get(out.aborted, 0) + 1
    else:
        kept.append(out.fidelity)
kept_arr = np.array(kept)
print(f"{n} started shots, {len(kept)} accepted; aborts: {aborts}")
if len(kept) > 1:
    se = kept_arr.std(ddof=1) / np.sqrt(len(kept))
    ana = pt.run_teleportation_analytic(cfg, "+x").fidelity
    print(f"sampled +x fidelity {kept_arr.mean():.4f} +- {se:.4f} vs exact {ana:.4f}")
