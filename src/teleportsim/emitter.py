"""Driven three-level emitter: photon-number statistics and emission timing.

The optically driven transition |0> <-> |e> decays at rate gamma; a photon
emission drops the system back into |0>, where the same pulse can re-excite
it, and a second emission ends the attempt.  More than two emissions are
neglected.  Between emissions the emitter evolves under the no-jump
propagator U(t) of the two-level generator A = [[0, -i Omega], [-i Omega,
-gamma/2]]: exact in closed form for square pulses, chained from exact steps
at midpoint amplitude for gaussian ones.  U alone gives the probabilities
P0/P1/P2 of emitting zero, one or two photons per attempt and the
emission-time densities needed to split photons over detection windows.

Time is in nanoseconds, rates in 1/ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class EmitterError(ValueError):
    pass


@dataclass(frozen=True)
class PulseShape:
    """Optical excitation pulse: square or (truncated) gaussian envelope."""

    kind: str
    omega_max: float  # peak Rabi amplitude, rad/ns
    duration_ns: float
    start_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("square", "gaussian"):
            raise EmitterError(f"unknown pulse kind {self.kind!r}")
        if self.duration_ns <= 0:
            raise EmitterError("pulse duration must be positive")
        if self.omega_max < 0:
            raise EmitterError("pulse amplitude must be nonnegative")

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns

    def amplitude(self, t: np.ndarray | float) -> np.ndarray | float:
        """Rabi amplitude Omega(t)."""
        t = np.asarray(t, dtype=float)
        inside = (t >= self.start_ns) & (t < self.end_ns)
        if self.kind == "square":
            return np.where(inside, self.omega_max, 0.0)
        center = self.start_ns + 0.5 * self.duration_ns
        sigma = self.duration_ns / 4.0
        return np.where(inside, self.omega_max * np.exp(-0.5 * ((t - center) / sigma) ** 2), 0.0)

    def area(self) -> float:
        """Integrated pulse area in radians (factor 2 for the Rabi convention)."""
        if self.kind == "square":
            return 2.0 * self.omega_max * self.duration_ns
        t = np.linspace(self.start_ns, self.end_ns, 4001)
        return float(2.0 * np.trapezoid(self.amplitude(t), t))


@dataclass(frozen=True)
class EmitterParams:
    """Spontaneous decay rate, bright-state population and resonant branching."""

    gamma: float  # 1/ns
    alpha: float  # population prepared in the optically bright state
    p_zpl: float = 0.03  # probability an emitted photon is resonant

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise EmitterError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 < self.p_zpl < 1.0:
            raise EmitterError(f"p_zpl must be in (0,1), got {self.p_zpl}")
        if self.gamma <= 0:
            raise EmitterError("gamma must be positive")


@dataclass(frozen=True)
class TimeGrid:
    dt: float = 0.01
    horizon: float = 200.0

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.horizon <= self.dt:
            raise EmitterError("need 0 < dt < horizon")

    @cached_property
    def times(self) -> np.ndarray:
        n = int(round(self.horizon / self.dt))
        return np.arange(n + 1) * self.dt


def _check_step(pulse: PulseShape, params: EmitterParams, grid: TimeGrid) -> None:
    if pulse.omega_max * grid.dt >= 0.05:
        raise EmitterError(
            f"time step too coarse: |H| dt = {pulse.omega_max * grid.dt:.3f} >= 0.05"
        )
    if params.gamma * grid.dt >= 0.05:
        raise EmitterError(f"time step too coarse: gamma dt = {params.gamma * grid.dt:.3f} >= 0.05")
    if pulse.end_ns > grid.horizon:
        raise EmitterError("pulse extends beyond the simulated horizon")


def _step_exponential(
    omega: np.ndarray | float, gamma: float, tau: np.ndarray | float
) -> np.ndarray:
    """exp(A tau) for the no-jump generator A = [[0, -i om], [-i om, -gamma/2]].

    A = -gamma/4 + B with B^2 = -nu^2, nu = sqrt(om^2 - gamma^2/16), so
    exp(A tau) = exp(-gamma tau/4) (cos(nu tau) + B sin(nu tau)/nu); a complex
    nu covers the overdamped side and sinc the limit nu -> 0.  Broadcasts over
    ``omega`` and ``tau``; returns shape (..., 2, 2).
    """
    omega, tau = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(tau, dtype=float))
    nu = np.sqrt(omega.astype(complex) ** 2 - gamma**2 / 16.0)
    damp = np.exp(-0.25 * gamma * tau)
    c = damp * np.cos(nu * tau)
    s = damp * tau * np.sinc(nu * tau / np.pi)  # damp * sin(nu tau) / nu
    out = np.empty(omega.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c + 0.25 * gamma * s
    out[..., 0, 1] = out[..., 1, 0] = -1j * omega * s
    out[..., 1, 1] = c - 0.25 * gamma * s
    return out


def _pulse_index(pulse: PulseShape, t: np.ndarray) -> int:
    """Index of the first time on the uniform grid ``t`` at or after the pulse end."""
    return min(int(np.ceil(pulse.end_ns / (t[1] - t[0]) - 1e-9)), len(t) - 1)


def _propagators(pulse: PulseShape, gamma: float, t: np.ndarray) -> np.ndarray:
    """No-jump propagators U(t_k) from time 0 on the uniform grid prefix ``t``.

    Square pulses are exact: U(t) = D(t - end) exp(A tau) D(min(t, start)) with
    tau the driven time and D(s) = diag(1, exp(-gamma s/2)) the free decay.
    Gaussian pulses chain the step exponential at each step's midpoint
    amplitude.  Once the drive is off, U decays freely in closed form.
    """
    n_on = _pulse_index(pulse, t)
    us = np.empty((len(t), 2, 2), dtype=complex)
    if pulse.kind == "square":
        on = t[: n_on + 1]
        tau = np.clip(on - pulse.start_ns, 0.0, pulse.duration_ns)
        us[: n_on + 1] = _step_exponential(pulse.omega_max, gamma, tau)
        us[: n_on + 1, :, 1] *= np.exp(-0.5 * gamma * np.minimum(on, pulse.start_ns))[:, None]
        us[: n_on + 1, 1, :] *= np.exp(-0.5 * gamma * np.maximum(on - pulse.end_ns, 0.0))[:, None]
    else:
        dt = t[1] - t[0]
        steps = _step_exponential(pulse.amplitude(t[:n_on] + 0.5 * dt), gamma, dt)
        us[0] = np.eye(2)
        for k in range(n_on):
            us[k + 1] = steps[k] @ us[k]
    us[n_on:] = us[n_on]
    us[n_on:, 1, :] *= np.exp(-0.5 * gamma * (t[n_on:] - t[n_on]))[:, None]
    return us


def _jump_vectors(us: np.ndarray, gamma: float, t: np.ndarray) -> np.ndarray:
    """v(t) = U(t)^{-1} |0> from the adjugate, using det U(t) = exp(-gamma t/2)."""
    return np.exp(0.5 * gamma * t)[:, None] * np.stack((us[:, 1, 1], -us[:, 1, 0]), axis=1)


def _pulse_populations(
    pulse: PulseShape, params: EmitterParams, grid: TimeGrid
) -> tuple[float, float]:
    """(P0, P2) of one excitation attempt; P1 = 1 - P0 - P2.

    P0 = |<0|U(T)|0>|^2 and P2 = sum_k w1(t_k) (1 - survive(t_k)) w_k, the
    first-emission density times the chance of a second emission by the
    horizon T, on the trapezoid rule.  After a first emission the emitter is
    back in |0>, so only first emissions while the drive is on can be
    followed by a second: the sum runs over the pulse interval and the free
    decay up to T enters in closed form.  Raises if more than 1e-6 of the
    population is still excited at T.
    """
    _check_step(pulse, params, grid)
    g = params.gamma
    t = grid.times[: _pulse_index(pulse, grid.times) + 1]
    us = _propagators(pulse, g, t)
    w1 = g * np.abs(us[:, 1, 0]) ** 2
    chi = np.einsum("ij,kj->ki", us[-1], _jump_vectors(us, g, t))
    tail = np.exp(-g * (grid.times[-1] - t[-1]))  # share of |e> at t[-1] still excited at T
    survive = np.abs(chi[:, 0]) ** 2 + tail * np.abs(chi[:, 1]) ** 2
    # The last point, at or after the pulse end, has chi = |0> and adds nothing.
    w = _trapezoid_weights(t)
    p2 = float(np.sum(w1 * (1.0 - survive) * w))
    residual = tail * float(np.abs(us[-1, 1, 0]) ** 2 + np.sum(w1 * np.abs(chi[:, 1]) ** 2 * w))
    if residual > 1e-6:
        raise EmitterError(f"excited population {residual:.2e} left at the horizon exceeds 1e-6")
    return float(np.abs(us[-1, 0, 0]) ** 2), p2


@dataclass(frozen=True)
class EmissionSolution:
    """Propagator-level emission-time structure backing window integrals."""

    times: np.ndarray
    pulse_end: float
    first_rate: np.ndarray  # w1(t): unconditional first-emission density
    survive_after_first: np.ndarray  # P(no second emission | first at t)
    jump_vectors: np.ndarray  # v(t) = U(t)^{-1} |0>, shape (n, 2)
    cumulative_flux: np.ndarray  # A(t) = gamma * int_0^t M(s)^dag M(s) ds, (n, 2, 2)

    def second_mass(self, lo: np.ndarray | float, hi: np.ndarray | float) -> np.ndarray:
        """P(second emission in [lo, hi] | first at each grid time)."""
        t = self.times
        a_hi = self._a_at(np.minimum(hi, t[-1]))
        lo_eff = np.maximum(lo, t)  # second photon cannot precede the first
        a_lo = self._a_at(lo_eff)
        diff = a_hi - a_lo
        v = self.jump_vectors
        out = np.real(np.einsum("ki,kij,kj->k", v.conj(), diff, v))
        return np.clip(out, 0.0, None)

    def _a_at(self, tq: np.ndarray | float) -> np.ndarray:
        t = self.times
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        idx = np.clip(np.searchsorted(t, tq - 1e-12), 0, len(t) - 1)
        a = self.cumulative_flux[idx]
        if a.shape[0] == 1:
            a = np.broadcast_to(a, (len(t), 2, 2))
        return a


@dataclass(frozen=True)
class EmissionProbabilities:
    """Photon-number probabilities and emission-time densities for one pulse."""

    p0: float
    p1: float
    p2: float
    times: np.ndarray = field(repr=False)
    first_density: np.ndarray = field(repr=False)  # unconditional, integrates to p1+p2
    second_density: np.ndarray = field(repr=False)  # unconditional, integrates to p2
    pulse_end: float = 0.0
    solution: EmissionSolution | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = self.p0 + self.p1 + self.p2
        if abs(s - 1.0) > 1e-6:
            raise EmitterError(f"P0+P1+P2 = {s} deviates from 1 beyond 1e-6")
        if min(self.p0, self.p1, self.p2) < -1e-9:
            raise EmitterError("negative emission probability")
        object.__setattr__(self, "p0", max(self.p0, 0.0))
        object.__setattr__(self, "p1", max(self.p1, 0.0))
        object.__setattr__(self, "p2", max(self.p2, 0.0))

    def without_double_excitation(self) -> "EmissionProbabilities":
        """Counterfactual with the two-photon branch reassigned to one photon."""
        return EmissionProbabilities(
            self.p0,
            self.p1 + self.p2,
            0.0,
            self.times,
            self.first_density,
            np.zeros_like(self.second_density),
            self.pulse_end,
            self.solution,
        )

    def with_double_excitation(self, p2: float) -> "EmissionProbabilities":
        """Counterfactual with the two-photon probability rescaled to ``p2``."""
        if not 0.0 <= p2 < self.p1 + self.p2:
            raise EmitterError(f"cannot rescale double emission to {p2}")
        scale = p2 / self.p2 if self.p2 > 0 else 0.0
        return EmissionProbabilities(
            self.p0,
            self.p1 + self.p2 - p2,
            p2,
            self.times,
            self.first_density,
            self.second_density * scale,
            self.pulse_end,
            self.solution,
        )


def solve_emission(
    pulse: PulseShape, params: EmitterParams, grid: TimeGrid | None = None
) -> EmissionProbabilities:
    """Emission statistics of one excitation attempt, starting in |0>.

    Everything follows from the no-jump propagator U(t) of the driven
    two-level system: the photon-number probabilities from
    :func:`_pulse_populations`, and on the full grid the first-emission
    density w1 = gamma |<e|U(t)|0>|^2, the survival after a first emission
    and the second-emission density.  Two guards hold to 1e-6: the excited
    population left at the horizon, and the trapezoid sum of w1 against the
    exact emission probability 1 - |U(T)|0>|^2.
    """
    grid = grid or TimeGrid()
    p0, p2 = _pulse_populations(pulse, params, grid)
    t = grid.times
    g = params.gamma
    us = _propagators(pulse, g, t)
    w1 = g * np.abs(us[:, 1, 0]) ** 2
    weights = _trapezoid_weights(t)
    quadrature = abs(np.sum(w1 * weights) - (1.0 - np.sum(np.abs(us[-1, :, 0]) ** 2)))
    if quadrature > 1e-6:
        raise EmitterError(f"first-emission quadrature residual {quadrature:.2e} exceeds 1e-6")
    m = us[:, 1, :]  # <e| U(t)
    flux = g * np.einsum("ki,kj->kij", m.conj(), m)
    a = np.zeros_like(flux)
    a[1:] = np.cumsum(0.5 * (flux[1:] + flux[:-1]) * grid.dt, axis=0)
    v = _jump_vectors(us, g, t)
    chi_end = np.einsum("ij,kj->ki", us[-1], v)
    survive = np.abs(chi_end[:, 0]) ** 2 + np.abs(chi_end[:, 1]) ** 2
    sol = EmissionSolution(t, pulse.end_ns, w1, survive, v, a)

    first_density = w1
    # Second-photon (unconditional) marginal density:
    #   w2(t) = gamma int_0^t w1(t1) |<e| U(t) v(t1)>|^2 dt1
    #         = tr[ G(t) S(t) ],  S(t) = int_0^t w1 v v^dag,  G = gamma M^dag M,
    # so a prefix sum over rank-one outer products suffices (the t1 = t term
    # vanishes because U(t) v(t) = |0> has no excited component).
    outer = (w1 * weights)[:, None, None] * np.einsum("ki,kj->kij", v, v.conj())
    s_prefix = np.cumsum(outer, axis=0)
    second_density = np.real(np.einsum("kij,kji->k", flux, s_prefix))
    second_density = np.clip(second_density, 0.0, None)
    return EmissionProbabilities(
        p0, 1.0 - p0 - p2, p2, t, first_density, second_density, pulse.end_ns, sol
    )


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.full(len(t), t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class WindowProbabilities:
    """Conditional window/epoch membership probabilities for emitted photons.

    Epoch labels split the side-band window at the pulse end: "dur" is during
    the optical pulse, "aft" after it, "out" outside the side-band window.
    Two-photon tables are indexed by (first photon class, second photon
    class) in emission-time order.
    """

    zpl_window: tuple[float, float]  # (start, length)
    psb_window: tuple[float, float]
    pulse_end: float
    p_dz1: float
    p_db1_dur: float
    p_db1_aft: float
    zz: np.ndarray  # 2x2 over (in, out)
    bb: np.ndarray  # 3x3 over (dur, aft, out)
    zb: np.ndarray  # 2x3: first photon ZPL class, second PSB class
    bz: np.ndarray  # 3x2: first photon PSB class, second ZPL class

    @property
    def p_db1(self) -> float:
        return self.p_db1_dur + self.p_db1_aft

    @property
    def p_dz2(self) -> float:
        return float(self.zz[0, 0])

    @property
    def p_dz3(self) -> float:
        return float(self.zz[0, 1] + self.zz[1, 0])

    @property
    def p_db2(self) -> float:
        return float(self.bb[:2, :2].sum())

    @property
    def p_db3(self) -> float:
        return float(self.bb[:2, 2].sum() + self.bb[2, :2].sum())

    @property
    def p_dzb1(self) -> float:
        # one ZPL + one PSB photon, both inside their windows
        return float(0.5 * (self.zb[0, :2].sum() + self.bz[:2, 0].sum()))

    @property
    def p_dzb2(self) -> float:
        # ZPL photon outside its window, PSB photon inside
        return float(0.5 * (self.zb[1, :2].sum() + self.bz[:2, 1].sum()))

    @property
    def p_dzb3(self) -> float:
        # ZPL photon inside, PSB photon outside
        return float(0.5 * (self.zb[0, 2] + self.bz[2, 0]))

    def validate(self) -> None:
        vals = [
            self.p_dz1,
            self.p_db1,
            self.p_dz2,
            self.p_dz3,
            self.p_db2,
            self.p_db3,
            self.p_dzb1,
            self.p_dzb2,
            self.p_dzb3,
        ]
        if any(v < -1e-9 or v > 1.0 + 1e-9 for v in vals):
            raise EmitterError("window probability outside [0,1]")
        if self.p_dz2 + self.p_dz3 > 1.0 + 1e-9 or self.p_db2 + self.p_db3 > 1.0 + 1e-9:
            raise EmitterError("grouped window probabilities exceed 1")


def window_probabilities(
    em: EmissionProbabilities,
    zpl_window: tuple[float, float],
    psb_window: tuple[float, float],
    pulse_end: float | None = None,
) -> WindowProbabilities:
    """Integrate emission-time densities over the detection windows.

    Windows are (start_ns, length_ns) and must lie inside the simulated
    horizon.
    """
    sol = em.solution
    if sol is None:
        raise EmitterError("emission object carries no timing solution")
    t = sol.times
    pulse_end = sol.pulse_end if pulse_end is None else pulse_end
    z_lo, z_hi = zpl_window[0], zpl_window[0] + zpl_window[1]
    b_lo, b_hi = psb_window[0], psb_window[0] + psb_window[1]
    for name, (lo, hi) in (("zpl", (z_lo, z_hi)), ("psb", (b_lo, b_hi))):
        if lo < -1e-9 or hi > t[-1] + 1e-9:
            raise EmitterError(f"{name} window [{lo}, {hi}] outside simulated horizon")

    w = _trapezoid_weights(t)
    zin = ((t >= z_lo) & (t < z_hi)).astype(float)
    bdur = ((t >= b_lo) & (t < b_hi) & (t < pulse_end)).astype(float)
    baft = ((t >= b_lo) & (t < b_hi) & (t >= pulse_end)).astype(float)
    bout = 1.0 - bdur - baft
    zout = 1.0 - zin

    # Exactly-one-photon conditional density.
    p1_mass = float(np.sum(sol.first_rate * sol.survive_after_first * w))
    f1 = sol.first_rate * sol.survive_after_first * w / p1_mass if p1_mass > 0 else w * 0.0
    p_dz1 = float(np.sum(f1 * zin))
    p_db1_dur = float(np.sum(f1 * bdur))
    p_db1_aft = float(np.sum(f1 * baft))

    # Two-photon joint tables: first photon class x second photon interval mass.
    def masses(lo: float, hi: float) -> np.ndarray:
        return sol.second_mass(lo, hi)

    m_zin = masses(z_lo, z_hi)
    m_bdur = masses(b_lo, min(b_hi, pulse_end)) if pulse_end > b_lo else np.zeros_like(t)
    m_baft = masses(max(b_lo, pulse_end), b_hi) if b_hi > pulse_end else np.zeros_like(t)
    m_tot = masses(0.0, t[-1])
    m_zout = np.clip(m_tot - m_zin, 0.0, None)
    m_bout = np.clip(m_tot - m_bdur - m_baft, 0.0, None)

    first_w = sol.first_rate * w
    p2_mass = float(np.sum(first_w * m_tot))

    def table(first_classes: list[np.ndarray], second_masses: list[np.ndarray]) -> np.ndarray:
        out = np.empty((len(first_classes), len(second_masses)))
        for i, fc in enumerate(first_classes):
            for j, sm in enumerate(second_masses):
                out[i, j] = float(np.sum(first_w * fc * sm)) / p2_mass if p2_mass > 0 else 0.0
        return out

    zz = table([zin, zout], [m_zin, m_zout])
    bb = table([bdur, baft, bout], [m_bdur, m_baft, m_bout])
    zb = table([zin, zout], [m_bdur, m_baft, m_bout])
    bz = table([bdur, baft, bout], [m_zin, m_zout])

    wp = WindowProbabilities(
        zpl_window, psb_window, pulse_end, p_dz1, p_db1_dur, p_db1_aft, zz, bb, zb, bz
    )
    wp.validate()
    return wp


def post_pulse_state(params: EmitterParams, em: EmissionProbabilities):
    """Spin-photon superposition right after the excitation pulse.

    sqrt(alpha)(sqrt(P0)|0> + sqrt(P1)|0,1p> + sqrt(P2)|0,2p>) + sqrt(1-alpha)|1>,
    photon-number resolved, before any window/branching transformations.
    """
    from .photonics import SpinPhotonState, Branch  # local import to avoid a cycle

    amps = np.zeros((2, 3), dtype=complex)
    amps[1, 0] = np.sqrt(1.0 - params.alpha)
    amps[0, 0] = np.sqrt(params.alpha * em.p0)
    amps[0, 1] = np.sqrt(params.alpha * em.p1)
    amps[0, 2] = np.sqrt(params.alpha * em.p2)
    return SpinPhotonState(branches=(Branch(amps=amps),))


def calibrate_pulse(
    target_p2: float,
    template: PulseShape,
    params: EmitterParams,
    grid: TimeGrid | None = None,
    tol: float = 1e-3,
) -> PulseShape:
    """Choose the pulse amplitude that reproduces a target re-excitation probability.

    Bisects the peak amplitude with the pulse area constrained to
    [0.8 pi, 1.2 pi] (the protocol wants near-maximal excitation); raises if
    the target cannot be bracketed there.
    """
    grid = grid or TimeGrid()
    if not 0.0 <= target_p2 < 0.5:
        raise EmitterError(f"target double-emission probability {target_p2} not in [0, 0.5)")
    area_scale = template.area() / template.omega_max if template.omega_max > 0 else None
    if area_scale is None:
        probe = PulseShape(template.kind, 1.0, template.duration_ns, template.start_ns)
        area_scale = probe.area()

    def pulse_at(om: float) -> PulseShape:
        return PulseShape(template.kind, om, template.duration_ns, template.start_ns)

    def p2_of(om: float) -> float:
        return _pulse_populations(pulse_at(om), params, grid)[1]

    om_lo = 0.8 * np.pi / area_scale
    om_hi = 1.2 * np.pi / area_scale
    p_lo, p_hi = p2_of(om_lo), p2_of(om_hi)
    if target_p2 <= p_lo:
        om_pi = np.pi / area_scale
        if abs(p2_of(om_pi) - target_p2) <= tol:
            return pulse_at(om_pi)
        raise EmitterError(
            f"target P2={target_p2} below reachable range [{p_lo:.4f}, {p_hi:.4f}]"
        )
    if target_p2 > p_hi:
        raise EmitterError(f"target P2={target_p2} above reachable range [{p_lo:.4f}, {p_hi:.4f}]")
    for _ in range(60):
        om_mid = 0.5 * (om_lo + om_hi)
        p_mid = p2_of(om_mid)
        if abs(p_mid - target_p2) < 0.2 * tol:
            break
        if p_mid < target_p2:
            om_lo = om_mid
        else:
            om_hi = om_mid
    pulse = pulse_at(0.5 * (om_lo + om_hi))
    achieved = p2_of(pulse.omega_max)
    if abs(achieved - target_p2) > tol:
        raise EmitterError(f"calibration failed: P2={achieved:.5f} vs target {target_p2}")
    return pulse
