"""Photon emission from a driven three-level emitter.

Walks through the lowest layer of the simulator: calibrating the optical
pulse to a target re-excitation probability, solving the emission dynamics,
and splitting the emitted photons over detection windows.
"""

import numpy as np

from teleportsim import emitter

GAMMA = 1.0 / 12.0  # excited-state decay rate for a 12 ns lifetime
GRID = emitter.TimeGrid(horizon=200.0)

print("== Bare pi pulse ==")
pars = emitter.EmitterParams(gamma=GAMMA, alpha=0.07)
pi_pulse = emitter.PulseShape("square", np.pi / 4.0, 2.0)
sol = emitter.solve_emission(pi_pulse, pars, GRID)
print(f"2 ns pi pulse: P0={sol.p0:.4f}  P1={sol.p1:.4f}  P2={sol.p2:.4f}")
print("Re-excitation during the pulse makes the two-photon branch nonzero.")

print("\n== Calibrating to a measured double-excitation probability ==")
pulse = emitter.calibrate_pulse(0.06, emitter.PulseShape("square", 1.0, 5.0), pars, GRID)
sol = emitter.solve_emission(pulse, pars, GRID)
print(
    f"calibrated: amplitude {pulse.omega_max:.3f} rad/ns over {pulse.duration_ns} ns"
    f" (area {pulse.area() / np.pi:.3f} pi)  ->  P2 = {sol.p2:.4f}"
)

print("\n== Emission timing ==")
for t in (10.0, 30.0, 60.0):
    share = emitter.window_probabilities(sol, (0.0, t), (0.0, 190.0)).p_dz1
    print(f"{share:6.1%} of single photons emitted by t = {t:4.1f} ns")

print("\n== Detection windows ==")
for window in (15.0, 10.0, 7.5):
    wp = emitter.window_probabilities(sol, (1.5, window), (0.0, 190.0))
    print(
        f"window {window:>4.1f} ns: single photon accepted {wp.p_dz1:.3f},"
        f" both of a pair {wp.zz[0, 0]:.3f}, side-band during/after"
        f" {wp.p_db1_dur:.3f}/{wp.p_db1_aft:.3f}"
    )
