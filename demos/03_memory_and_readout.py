"""Memory-qubit storage decay and the basis-alternating repetitive readout.

Shows the coherence benefit of the mid-sequence decoupling pulse and how the
alternating readout turns asymmetric optical readout errors into rejectable
inconsistent patterns.
"""

import numpy as np

from teleportsim import hilbert as hb, params
from teleportsim import spin_noise as sn

print("== Stored superposition under entanglement attempts ==")
fits = {
    name: sn.DecayFit(v["amplitude"], v["scale"], v["stretch"])
    for name, v in params.MEMORY_FITS.items()
}
plus = hb.qubit("m", hb.KET_PLUS)
print(f"{'attempts':>9} {'decoupled':>10} {'bare':>8}")
for n in (0, 250, 500, 1000, 2000, 5000):
    row = []
    for key in ("attempts_decoupled", "attempts_bare"):
        fit = fits[key]
        stored = hb.apply_channel(plus, sn.storage_event_channel(fit), ["m"])
        out = hb.apply_channel(stored, sn.memory_dephasing_channel(n, fit), ["m"])
        row.append(np.linalg.norm(hb.bloch_vector(out)))
    print(f"{n:>9} {row[0]:>10.3f} {row[1]:>8.3f}")
print(
    f"decay scale ratio: {fits['attempts_decoupled'].scale / fits['attempts_bare'].scale:.1f}x"
    " more attempts with the decoupling pulse\n"
)

print("== Basis-alternating repetitive readout ==")
for node in ("bob", "charlie"):
    fid, acc = sn.bar_model_curves(params.readout_params(node), 5)
    print(f"{node}: optical readout fidelities {params.COMM_READOUT[node]}")
    print(f"{'reps':>6} {'fidelity':>9} {'accepted':>9}")
    for k, (f, a) in enumerate(zip(fid, acc), start=1):
        print(f"{k:>6} {f:>9.4f} {a:>9.4f}")
    print()

print("Two repetitions already push the average infidelity below 1% while")
print("keeping close to 90% of the patterns; more repetitions mostly cost rate.")

print("\n== Sampled readout vs the exact model ==")
rng = np.random.default_rng(42)
pars = params.readout_params("bob")
n = 20000
hits = kept = 0
for i in range(n):
    m0 = i % 2
    res = sn.bar_readout(hb.qubit("m", hb.KET0 if m0 == 0 else hb.KET1), 2, pars, rng)
    if res.consistent:
        kept += 1
        hits += res.assigned == m0
fid, acc = sn.bar_model_curves(pars, 2)
print(f"sampled  : fidelity {hits / kept:.4f}, accepted {kept / n:.4f}  ({n} shots)")
print(f"exact    : fidelity {fid[1]:.4f}, accepted {acc[1]:.4f}")
