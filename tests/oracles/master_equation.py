"""Five-level master-equation oracle for the driven emitter's photon statistics.

Independent of the emitter module: integrates the Lindblad equation over the
photon-number-resolved basis {|0>, |e>, |0,1p>, |e,1p>, |0,2p>} with its own
RK4 loop.  The optical drive is held piecewise constant at each step's
midpoint amplitude, so a square pulse whose edges lie on the grid is
integrated without edge error.  |e> decays into |0,1p> and |e,1p> into
|0,2p>; after the pulse only that decay is left, so the excited populations
are carried to the horizon in closed form.  P0/P1/P2 are read at the horizon
with an excited state counted by the photons already emitted.
"""

from __future__ import annotations

import numpy as np


def master_equation_populations(
    pulse_amplitude, pulse_end: float, gamma: float, dt: float, horizon: float
) -> tuple[float, float, float]:
    """(P0, P1, P2) at ``horizon`` for one excitation attempt from |0>."""
    d = 5  # basis order: 0, e, 0+1p, e+1p, 0+2p
    l1 = np.zeros((d, d), dtype=complex)
    l1[2, 1] = np.sqrt(gamma)
    l2 = np.zeros((d, d), dtype=complex)
    l2[4, 3] = np.sqrt(gamma)
    jumps = (l1, l2)
    decay = sum(l.conj().T @ l for l in jumps)

    def rhs(rho: np.ndarray, om: float) -> np.ndarray:
        h = np.zeros((d, d), dtype=complex)
        h[1, 0] = h[0, 1] = om
        h[3, 2] = h[2, 3] = om
        out = -1j * (h @ rho - rho @ h)
        for l in jumps:
            out += l @ rho @ l.conj().T
        out -= 0.5 * (decay @ rho + rho @ decay)
        return out

    n_pulse = int(np.ceil(pulse_end / dt - 1e-9))
    om_mid = np.asarray(pulse_amplitude((np.arange(n_pulse) + 0.5) * dt), dtype=float)
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    for om in om_mid:
        k1 = rhs(rho, om)
        k2 = rhs(rho + 0.5 * dt * k1, om)
        k3 = rhs(rho + 0.5 * dt * k2, om)
        k4 = rhs(rho + dt * k3, om)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    pops = np.real(np.diag(rho))
    emitted = 1.0 - np.exp(-gamma * (horizon - n_pulse * dt))
    p0 = pops[0]
    p2 = pops[4] + pops[3] * emitted
    return float(p0), float(1.0 - p0 - p2), float(p2)
