"""Per-grid-point reference for the emitter's window tables.

On a uniform time grid, the no-jump propagators U(t_k) of a square pulse
come from the eigen-decomposition of the driven generator, the jump vectors
v_k = U(t_k)^{-1} |0> from the 2x2 inverse, and the cumulative flux A from the
trapezoid rule.  Every first-photon grid time t_k then carries its own
second-photon mass over an interval, v_k^dag (A(hi) - A(max(lo, t_k))) v_k
clipped at zero, looked up point by point in A; each table entry sums the
first-emission weight times that mass over a 0/1 indicator of the first
photon's class.  Nothing is taken from the emitter module but its parameter
and result types, so the error of this reference is first order in the grid
step, from rounding the window edges to grid points.
"""

from __future__ import annotations

import numpy as np

from teleportsim.emitter import EmitterParams, PulseShape, WindowProbabilities


def _propagators(pulse: PulseShape, gamma: float, t: np.ndarray) -> np.ndarray:
    """U(t_k) = D(t - end) exp(A tau) D(min(t, start)), D(s) = diag(1, exp(-gamma s/2)).

    exp(A tau) = sum_j exp(lambda_j tau) P_j over the eigenvalues of A and
    their spectral projectors P_j.
    """
    om = pulse.omega_max
    lam, vec = np.linalg.eig(np.array([[0.0, -1j * om], [-1j * om, -0.5 * gamma]]))
    projectors = np.einsum("ij,jl->jil", vec, np.linalg.inv(vec))
    tau = np.clip(t - pulse.start_ns, 0.0, pulse.duration_ns)
    us = np.tensordot(np.exp(np.outer(tau, lam)), projectors, axes=1)
    us[:, :, 1] *= np.exp(-0.5 * gamma * np.minimum(t, pulse.start_ns))[:, None]
    us[:, 1, :] *= np.exp(-0.5 * gamma * np.maximum(t - pulse.end_ns, 0.0))[:, None]
    return us


def grid_window_tables(
    pulse: PulseShape,
    params: EmitterParams,
    dt: float,
    horizon: float,
    zpl_window: tuple[float, float],
    psb_window: tuple[float, float],
) -> WindowProbabilities:
    t = np.arange(int(round(horizon / dt)) + 1) * dt
    g = params.gamma
    pulse_end = pulse.end_ns
    us = _propagators(pulse, g, t)
    first_rate = g * np.abs(us[:, 1, 0]) ** 2
    m = us[:, 1, :]
    flux = g * np.einsum("ki,kj->kij", m.conj(), m)
    cumulative_flux = np.zeros_like(flux)
    cumulative_flux[1:] = np.cumsum(0.5 * (flux[1:] + flux[:-1]) * dt, axis=0)
    det = us[:, 0, 0] * us[:, 1, 1] - us[:, 0, 1] * us[:, 1, 0]
    v = np.stack((us[:, 1, 1], -us[:, 1, 0]), axis=1) / det[:, None]
    chi_end = np.einsum("ij,kj->ki", us[-1], v)
    survive = np.abs(chi_end[:, 0]) ** 2 + np.abs(chi_end[:, 1]) ** 2

    def a_at(tq) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        idx = np.clip(np.searchsorted(t, tq - 1e-12), 0, len(t) - 1)
        a = cumulative_flux[idx]
        if a.shape[0] == 1:
            a = np.broadcast_to(a, (len(t), 2, 2))
        return a

    def masses(lo: float, hi: float) -> np.ndarray:
        diff = a_at(np.minimum(hi, t[-1])) - a_at(np.maximum(lo, t))
        out = np.real(np.einsum("ki,kij,kj->k", v.conj(), diff, v))
        return np.clip(out, 0.0, None)

    z_lo, z_hi = zpl_window[0], zpl_window[0] + zpl_window[1]
    b_lo, b_hi = psb_window[0], psb_window[0] + psb_window[1]
    w = np.full(len(t), dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    zin = ((t >= z_lo) & (t < z_hi)).astype(float)
    bdur = ((t >= b_lo) & (t < b_hi) & (t < pulse_end)).astype(float)
    baft = ((t >= b_lo) & (t < b_hi) & (t >= pulse_end)).astype(float)
    bout = 1.0 - bdur - baft
    zout = 1.0 - zin

    p1_mass = float(np.sum(first_rate * survive * w))
    f1 = first_rate * survive * w / p1_mass if p1_mass > 0 else w * 0.0
    p_dz1 = float(np.sum(f1 * zin))
    p_db1_dur = float(np.sum(f1 * bdur))
    p_db1_aft = float(np.sum(f1 * baft))

    m_zin = masses(z_lo, z_hi)
    m_bdur = masses(b_lo, min(b_hi, pulse_end)) if pulse_end > b_lo else np.zeros_like(t)
    m_baft = masses(max(b_lo, pulse_end), b_hi) if b_hi > pulse_end else np.zeros_like(t)
    m_tot = masses(0.0, t[-1])
    m_zout = np.clip(m_tot - m_zin, 0.0, None)
    m_bout = np.clip(m_tot - m_bdur - m_baft, 0.0, None)

    first_w = first_rate * w
    p2_mass = float(np.sum(first_w * m_tot))

    def table(first_classes, second_masses) -> np.ndarray:
        out = np.empty((len(first_classes), len(second_masses)))
        for i, fc in enumerate(first_classes):
            for j, sm in enumerate(second_masses):
                out[i, j] = float(np.sum(first_w * fc * sm)) / p2_mass if p2_mass > 0 else 0.0
        return out

    return WindowProbabilities(
        zpl_window,
        psb_window,
        pulse_end,
        p_dz1,
        p_db1_dur,
        p_db1_aft,
        table([zin, zout], [m_zin, m_zout]),
        table([bdur, baft, bout], [m_bdur, m_baft, m_bout]),
        table([zin, zout], [m_bdur, m_baft, m_bout]),
        table([bdur, baft, bout], [m_zin, m_zout]),
    )
