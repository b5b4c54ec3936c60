"""Driven three-level emitter: photon-number statistics and emission timing.

The optically driven transition |0> <-> |e> decays at rate gamma; a photon
emission drops the system back into |0>, where the same pulse can re-excite
it, and a second emission ends the attempt.  More than two emissions are
neglected.  Between emissions the emitter evolves under the no-jump
propagator U(t) of the two-level generator A = [[0, -i Omega], [-i Omega,
-gamma/2]]: exact in closed form for square pulses, chained from exact steps
at midpoint amplitude for gaussian ones.  U alone gives the probabilities
P0/P1/P2 of emitting zero, one or two photons per attempt, and prefix sums
over the first emission time from which the share of photons falling in
each detection window is read off by grid index.

Time is in nanoseconds, rates in 1/ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """Grid sums of one emission solution that the window tables read.

    A first photon at t_k leaves the emitter in v_k = U(t_k)^{-1} |0>, so a
    second one falls in [t_lo, t_hi] with probability
    v_k^dag (A(t_hi) - A(max(t_lo, t_k))) v_k, A the cumulative flux.  With
    fw_k the first-emission weight, a sum of that over first photons in an
    index range needs only two prefix sums: ``vv_prefix[k]`` of
    fw v v^dag and ``vav_prefix[k]`` of fw v^dag A v over the points before
    k.  As in :func:`_pulse_populations`, only first photons while the drive
    is on can be followed by a second, so the prefix sums stop at the pulse
    end and later first photons add exactly nothing.
    """

    times: np.ndarray
    pulse_end: float
    first_rate: np.ndarray  # w1(t): unconditional first-emission density
    survive_after_first: np.ndarray  # P(no second emission | first at t)
    cumulative_flux: np.ndarray  # A(t) = gamma * int_0^t M(s)^dag M(s) ds, (n, 2, 2)
    vv_prefix: np.ndarray  # (m + 1, 2, 2), m the grid index of the pulse end
    vav_prefix: np.ndarray  # (m + 1,)

    def pair_sum(self, a: int, b: int, lo: int, hi: int) -> float:
        """sum over a <= k < b of fw_k v_k^dag (A[hi] - A[max(lo, k)]) v_k, clipped at 0.

        Up to k = lo the lower end is A[lo]; from there on it is the point's
        own A[k], held in ``vav_prefix``.  First photons at or after ``hi``
        would add a negative mass and are left out, as is everything when
        the span is empty.
        """
        if hi <= lo:
            return 0.0
        a_hi = self.cumulative_flux[hi]
        vv, vav = self.vv_prefix, self.vav_prefix
        mid_lo, mid_hi = max(a, lo), min(b, hi)
        early = np.vdot(_span(vv, a, min(b, lo)), a_hi - self.cumulative_flux[lo])
        late = np.vdot(_span(vv, mid_lo, mid_hi), a_hi) - _span(vav, mid_lo, mid_hi)
        return max(float(np.real(early + late)), 0.0)


def _span(prefix: np.ndarray, a: int, b: int) -> np.ndarray:
    """Sum of the terms a <= k < b of a zero-led prefix sum; terms past its end are 0."""
    last = len(prefix) - 1
    return prefix[min(max(a, b), last)] - prefix[min(a, last)]


@dataclass(frozen=True)
class EmissionProbabilities:
    """Photon-number probabilities for one pulse, with its grid solution."""

    p0: float
    p1: float
    p2: float
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
        return replace(self, p1=self.p1 + self.p2, p2=0.0)

    def with_double_excitation(self, p2: float) -> "EmissionProbabilities":
        """Counterfactual with the two-photon probability rescaled to ``p2``."""
        if not 0.0 <= p2 < self.p1 + self.p2:
            raise EmitterError(f"cannot rescale double emission to {p2}")
        return replace(self, p1=self.p1 + self.p2 - p2, p2=p2)


def solve_emission(
    pulse: PulseShape, params: EmitterParams, grid: TimeGrid | None = None
) -> EmissionProbabilities:
    """Emission statistics of one excitation attempt, starting in |0>.

    Everything follows from the no-jump propagator U(t) of the driven
    two-level system: the photon-number probabilities from
    :func:`_pulse_populations`, and on the full grid the first-emission
    density w1 = gamma |<e|U(t)|0>|^2, the survival after a first emission
    and the prefix sums of :class:`EmissionSolution`.  Two guards hold to
    1e-6: the excited population left at the horizon, and the trapezoid sum
    of w1 against the exact emission probability 1 - |U(T)|0>|^2.
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
    on = _pulse_index(pulse, t)
    fw = (w1 * weights)[:on]
    vv = np.zeros((on + 1, 2, 2), dtype=complex)
    vv[1:] = np.cumsum(fw[:, None, None] * np.einsum("ki,kj->kij", v[:on], v[:on].conj()), axis=0)
    vav = np.zeros(on + 1)
    vav[1:] = np.cumsum(fw * np.real(np.einsum("ki,kij,kj->k", v[:on].conj(), a[:on], v[:on])))
    sol = EmissionSolution(t, pulse.end_ns, w1, survive, a, vv, vav)
    return EmissionProbabilities(p0, 1.0 - p0 - p2, p2, sol)


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
) -> WindowProbabilities:
    """Split the emitted photons over the detection windows.

    Windows are (start_ns, length_ns), with a nonnegative length, and must
    lie inside the simulated horizon.  Every class is a range of grid
    indices, so each table entry is a few prefix-sum lookups.
    """
    sol = em.solution
    if sol is None:
        raise EmitterError("emission object carries no timing solution")
    t = sol.times
    pulse_end = sol.pulse_end
    for name, (start, length) in (("zpl", zpl_window), ("psb", psb_window)):
        if not length >= 0:
            raise EmitterError(f"{name} window length {length} is not a nonnegative number")
        if not (start >= -1e-9 and start + length <= t[-1] + 1e-9):
            raise EmitterError(
                f"{name} window [{start}, {start + length}] outside simulated horizon"
            )
    z_lo, z_hi = zpl_window[0], zpl_window[0] + zpl_window[1]
    b_lo, b_hi = psb_window[0], psb_window[0] + psb_window[1]
    n = len(t)
    # The ZPL window, then the side-band window during and after the pulse.
    zpl = [(z_lo, z_hi)]
    psb = [(b_lo, min(b_hi, pulse_end)), (max(b_lo, pulse_end), b_hi)]

    def classes(bounds: list, second: bool) -> list:
        """Index ranges of the in-window classes, then of "out", their complement.

        A first photon at t_k is in [lo, hi) by its index k; a second
        photon's span runs between the grid points at lo and hi, rounded up
        as the cumulative flux is looked up.
        """
        if second:
            end = n - 1
            edges = np.minimum(np.searchsorted(t, np.minimum(bounds, t[-1]) - 1e-12), end)
        else:
            end = n
            edges = np.searchsorted(t, bounds)
        inside = [tuple(e) for e in edges]
        return [[r] for r in inside] + [[(0, inside[0][0]), (inside[-1][1], end)]]

    # Exactly-one-photon shares: the first photon without a second.
    single = sol.first_rate * sol.survive_after_first * _trapezoid_weights(t)
    p1_mass = float(np.sum(single))
    p_dz1, p_db1_dur, p_db1_aft = (
        float(np.sum(single[a:b])) / p1_mass if p1_mass > 0 else 0.0
        for a, b in np.searchsorted(t, zpl + psb)
    )

    # Two-photon tables over (first photon class, second photon class).
    p2_mass = sol.pair_sum(0, n, 0, n - 1)

    def table(first_bounds: list, second_bounds: list) -> np.ndarray:
        rows, cols = classes(first_bounds, False), classes(second_bounds, True)
        out = np.zeros((len(rows), len(cols)))
        if p2_mass > 0:
            for i, j in np.ndindex(out.shape):
                mass = sum(sol.pair_sum(a, b, lo, hi) for a, b in rows[i] for lo, hi in cols[j])
                out[i, j] = mass / p2_mass
        return out

    zz, bb, zb, bz = table(zpl, zpl), table(psb, psb), table(zpl, psb), table(psb, zpl)
    wp = WindowProbabilities(
        zpl_window, psb_window, pulse_end, p_dz1, p_db1_dur, p_db1_aft, zz, bb, zb, bz
    )
    wp.validate()
    return wp


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
