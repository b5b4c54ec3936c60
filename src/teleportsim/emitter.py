"""Driven three-level emitter: photon-number statistics and emission timing.

The optically driven transition |0> <-> |e> decays at rate gamma; a photon
emission drops the system back into |0>, where the same pulse can re-excite
it, and a second emission ends the attempt.  More than two emissions are
neglected.  The drive is a square pulse.  Between emissions the emitter
evolves under the no-jump propagator U of the two-level generator
A = [[0, -i Omega], [-i Omega, -gamma/2]], in closed form before, during and
after the pulse, and the norm U loses is the emission probability.  So the
chance of no photon over any interval is a closed form, and only the time of
a first photon that can be followed by a second needs integrating: those
fall while the drive is on (after the pulse |0> stays dark), and a fixed
Gauss-Legendre rule per piece of the pulse, cut at the window edges, sums
them.  That gives the probabilities P0/P1/P2 of emitting zero, one or two
photons per attempt and the share of photons falling in each detection
window, with no time grid.  The closed forms take an array of drive
amplitudes as readily as one, so pulse calibration bisects P2 in batched
passes: one pass evaluates the midpoints of the next few bisection levels.

Time is in nanoseconds, rates in 1/ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


class EmitterError(ValueError):
    pass


@dataclass(frozen=True)
class PulseShape:
    """Square optical excitation pulse."""

    kind: str
    omega_max: float  # Rabi amplitude, rad/ns
    duration_ns: float
    start_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind != "square":
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
        return np.where((t >= self.start_ns) & (t < self.end_ns), self.omega_max, 0.0)

    def area(self) -> float:
        """Integrated pulse area in radians (factor 2 for the Rabi convention)."""
        return 2.0 * self.omega_max * self.duration_ns


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
    """Simulated time span: photons count from 0 up to ``horizon`` ns."""

    horizon: float = 200.0

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise EmitterError("need a positive horizon")


# Gauss-Legendre rule on [-1, 1], applied to each smooth piece of the pulse.
# It sums products of two propagator populations, which oscillate at up to
# 4 Omega, to rounding level on pieces of at most 8 rad of Rabi phase.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_PHASE_PER_PIECE = 8.0


def _driven(
    omega: np.ndarray | float, gamma: float, tau: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes on (|0>, |e>) of exp(A tau)|0> for A = [[0, -i om], [-i om, -gamma/2]].

    A = -gamma/4 + B with B^2 = -nu^2, nu = sqrt(om^2 - gamma^2/16), so
    exp(A tau) = exp(-gamma tau/4) (cos(nu tau) + B sin(nu tau)/nu); a complex
    nu covers the overdamped side, and at nu = 0 sin(nu tau)/nu is tau.
    ``omega`` is one amplitude or an array of them broadcasting against tau;
    om^2 is libm's pow, as Python's ``om**2``, at every shape.
    """
    tau = np.asarray(tau, dtype=float)
    nu = np.sqrt(np.asarray(np.float_power(omega, 2) - gamma**2 / 16.0, dtype=complex))
    damp = np.exp(-0.25 * gamma * tau)
    phase = nu * tau
    zero = nu == 0
    s = damp * np.where(zero, tau, np.sin(phase) / np.where(zero, 1.0, nu))  # damp sin(nu tau)/nu
    return damp * np.cos(phase) + 0.25 * gamma * s, -1j * omega * s


def _check_guards(left: float, quadrature: float) -> None:
    """The two 1e-6 guards of one amplitude's populations."""
    if left > 1e-6:
        raise EmitterError(f"excited population {left:.2e} left at the horizon exceeds 1e-6")
    if quadrature > 1e-6:
        raise EmitterError(f"first-emission quadrature residual {quadrature:.2e} exceeds 1e-6")


@dataclass(frozen=True)
class EmissionSolution:
    """Emission timing of one square pulse, in closed form up to the horizon.

    From |0> the emitter stays put until the pulse starts at s and follows
    exp(A (t - s))|0> until it ends at e; after that |e> decays freely.  A
    first photon at t1 resets it to |0>, so a second photon needs the drive
    still on: first photons after e come alone.  For t1 in [s, e] the chance
    of no second photon by t is the norm S(t, t1) of the no-jump state
    exp(A (min(t, e) - t1))|0>, with its |e> part decayed by
    exp(-gamma (t - e)) past e.
    """

    pulse: PulseShape
    gamma: float
    horizon: float

    def __post_init__(self) -> None:
        if self.pulse.end_ns > self.horizon:
            raise EmitterError("pulse extends beyond the simulated horizon")

    def _pulse_cuts(self, omega: np.ndarray | float) -> np.ndarray:
        """The pulse edges, with equal pieces between them short enough for the rule.

        Every amplitude in ``omega`` must need the same number of pieces.
        """
        p = self.pulse
        pieces = {
            max(math.ceil(om * p.duration_ns / _PHASE_PER_PIECE), 1)
            for om in np.atleast_1d(omega).tolist()
        }
        if len(pieces) != 1:
            raise EmitterError("amplitudes of one batch need different numbers of pulse pieces")
        return np.linspace(p.start_ns, p.end_ns, pieces.pop() + 1)

    def _first_photons(
        self, lo: np.ndarray, hi: np.ndarray, omega: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rule nodes t1 on each driven piece [lo, hi], and their weights times w1(t1).

        w1 = gamma |<e|U(t1)|0>|^2 is the density of first emissions at drive
        amplitude ``omega`` (leading axes of an array broadcast in front).
        """
        half = 0.5 * (hi - lo)[:, None]
        t1 = 0.5 * (hi + lo)[:, None] + half * _GL_X
        excited = _driven(omega, self.gamma, t1 - self.pulse.start_ns)[1]
        return t1, half * _GL_W * self.gamma * np.abs(excited) ** 2

    def _from_ground(
        self, t: np.ndarray, t0: np.ndarray, omega: np.ndarray | float
    ) -> tuple[np.ndarray, np.ndarray]:
        """|0> and |e> populations at t of the no-jump state, in |0> at t0 in the pulse.

        Their sum is S(t, t0), the chance of no photon in [t0, t]; at
        t <= t0 they are (1, 0).
        """
        end = self.pulse.end_ns
        ground, excited = _driven(omega, self.gamma, np.clip(t, t0, end) - t0)
        decay = np.exp(-self.gamma * np.maximum(t - end, 0.0))
        return np.abs(ground) ** 2, np.abs(excited) ** 2 * decay

    def _p2_and_guards(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """P2 and both unchecked guard values of :meth:`populations` per amplitude.

        ``omega`` is a 1-D array of amplitudes that need the same number of
        pulse pieces; the pulse keeps this solution's start and duration.
        The guard values are the excited population left at the horizon and
        the quadrature residual.
        """
        cuts = self._pulse_cuts(omega)
        rows = omega[:, None, None]
        t1, first = self._first_photons(cuts[:-1], cuts[1:], rows)
        ground, excited = self._from_ground(np.array(self.horizon), t1, rows)
        p2 = np.sum(first * (1.0 - ground - excited), axis=(1, 2))
        left = np.sum(first * excited, axis=(1, 2))
        # The no-jump state from the pulse start, at the pulse end and at the horizon.
        ends = np.array([cuts[-1], self.horizon])
        ground, excited = self._from_ground(ends, cuts[0], omega[:, None])
        left = excited[:, 1] + left
        exact = 1.0 - (ground[:, 0] + excited[:, 0])
        return p2, left, np.abs(np.sum(first, axis=(1, 2)) - exact)

    def populations(self) -> tuple[float, float]:
        """(P0, P2) of one excitation attempt; P1 = 1 - P0 - P2.

        P0 = |<0|U(T)|0>|^2 at the horizon T and P2 the rule's sum over first
        photons in the pulse of w1 (1 - S(T, t1)).  Two guards hold to 1e-6:
        the excited population left at T, and the rule's sum of w1 over the
        pulse against the exact emission probability 1 - |U(e)|0>|^2 there
        (the free decay after e is the same closed form on both sides), which
        fails for a drive too fast for the rule.  P2 and the guards are the
        one-amplitude case of :meth:`_p2_and_guards`.
        """
        omega = self.pulse.omega_max
        p2, left, quadrature = self._p2_and_guards(np.array([omega]))
        _check_guards(float(left[0]), float(quadrature[0]))
        # P0 is not batched: calibration never reads it.
        p0 = self._from_ground(np.array(self.horizon), self.pulse.start_ns, omega)[0]
        return float(p0), float(p2[0])

    def cell_masses(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Photon masses over the cells between sorted ``edges`` inside [0, horizon].

        Returns ``single[i]``, the probability of exactly one photon, in cell
        i, and ``pair[i, j]``, of a first photon in cell i and a second in
        cell j.  The cells are cut further at the pulse edges and the
        horizon, so the first-photon rule runs on smooth pieces only.
        """
        pulse, horizon = self.pulse, self.horizon
        edges = np.clip(edges, 0.0, horizon)
        omega = pulse.omega_max
        cuts = np.unique(np.concatenate([edges, self._pulse_cuts(omega), [horizon]]))
        lo, hi = cuts[:-1], cuts[1:]
        driven = (lo >= pulse.start_ns) & (hi <= pulse.end_ns)
        t1, first = self._first_photons(lo[driven], hi[driven], omega)
        ground, excited = self._from_ground(cuts, t1[..., None], omega)
        by_cut = first[..., None] * (1.0 - ground - excited)  # second photon by each cut
        single = np.zeros(len(lo))
        single[driven] = np.sum(first - by_cut[..., -1], axis=1)
        # First photons after the pulse: the decay of the no-jump |e> population.
        no_jump = self._from_ground(cuts, pulse.start_ns, omega)[1]
        after = lo >= pulse.end_ns
        single[after] = (no_jump[:-1] - no_jump[1:])[after]
        pair = np.zeros((len(lo), len(lo)))
        pair[driven] = np.diff(np.sum(by_cut, axis=1), axis=1)
        # Sum the cells into the caller's through cumulative sums at its edges.
        at = np.searchsorted(cuts, edges)
        single_sum = np.concatenate([[0.0], np.cumsum(single)])[at]
        pair_sum = np.pad(np.cumsum(np.cumsum(pair, axis=0), axis=1), ((1, 0), (1, 0)))
        return np.diff(single_sum), np.diff(np.diff(pair_sum[np.ix_(at, at)], axis=0), axis=1)


@dataclass(frozen=True)
class EmissionProbabilities:
    """Photon-number probabilities for one pulse, with its timing solution."""

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

    P0/P1/P2 come from :meth:`EmissionSolution.populations`, with its two
    1e-6 guards; the solution itself goes along for the window tables.
    """
    sol = EmissionSolution(pulse, params.gamma, (grid or TimeGrid()).horizon)
    p0, p2 = sol.populations()
    return EmissionProbabilities(p0, 1.0 - p0 - p2, p2, sol)


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

    def validate(self) -> None:
        tables = (self.zz, self.bb, self.zb, self.bz)
        singles = [self.p_dz1, self.p_db1_dur, self.p_db1_aft, self.p_db1]
        values = np.concatenate([singles, *(t.ravel() for t in tables)])
        if not np.all((values >= -1e-9) & (values <= 1.0 + 1e-9)):
            raise EmitterError("window probability outside [0,1]")
        sums = [float(t.sum()) for t in tables]
        if any(total > 1.0 + 1e-9 for total in sums):
            raise EmitterError("two-photon window table sums above 1")
        # Each table spreads the two-photon mass over its classes: all of it,
        # or none when the node has none.
        if not all(abs(total - 1.0) <= 1e-9 for total in sums) and any(t.any() for t in tables):
            raise EmitterError(f"two-photon window tables sum to {sums}, not 1 (or all 0)")


def window_probabilities(
    em: EmissionProbabilities,
    zpl_window: tuple[float, float],
    psb_window: tuple[float, float],
) -> WindowProbabilities:
    """Split the emitted photons over the detection windows.

    Windows are (start_ns, length_ns), with a nonnegative length, and must
    lie inside the simulated horizon.  The window edges and the pulse end
    cut the horizon into cells; every photon class is a union of cells,
    "out" the complement of a window's in-classes.
    """
    sol = em.solution
    if sol is None:
        raise EmitterError("emission object carries no timing solution")
    pulse_end = sol.pulse.end_ns
    for name, (start, length) in (("zpl", zpl_window), ("psb", psb_window)):
        if not length >= 0:
            raise EmitterError(f"{name} window length {length} is not a nonnegative number")
        if not (start >= -1e-9 and start + length <= sol.horizon + 1e-9):
            raise EmitterError(
                f"{name} window [{start}, {start + length}] outside simulated horizon"
            )
    z_lo, z_hi = zpl_window[0], zpl_window[0] + zpl_window[1]
    b_lo, b_hi = psb_window[0], psb_window[0] + psb_window[1]
    edges = np.unique(
        np.clip([0.0, z_lo, z_hi, b_lo, b_hi, pulse_end, sol.horizon], 0.0, sol.horizon)
    )
    single, pair = sol.cell_masses(edges)
    lo, hi = edges[:-1], edges[1:]

    def within(a: float, b: float) -> np.ndarray:
        return ((lo >= a) & (hi <= b)).astype(float)

    # The ZPL window, then the side-band window during and after the pulse.
    zin = within(z_lo, z_hi)
    dur, aft = within(b_lo, min(b_hi, pulse_end)), within(max(b_lo, pulse_end), b_hi)
    zpl = np.stack([zin, 1.0 - zin])
    psb = np.stack([dur, aft, 1.0 - dur - aft])

    # Exactly-one-photon shares, then the two-photon tables over (first
    # photon class, second photon class).
    p1_mass, p2_mass = np.sum(single), np.sum(pair)
    p_dz1, p_db1_dur, p_db1_aft = (
        float(c @ single / p1_mass) if p1_mass > 0 else 0.0 for c in (zin, dur, aft)
    )

    def table(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        if p2_mass > 0:
            return first @ pair @ second.T / p2_mass
        return np.zeros((len(first), len(second)))

    zz, bb, zb, bz = table(zpl, zpl), table(psb, psb), table(zpl, psb), table(psb, zpl)
    wp = WindowProbabilities(
        zpl_window, psb_window, pulse_end, p_dz1, p_db1_dur, p_db1_aft, zz, bb, zb, bz
    )
    wp.validate()
    return wp


# Bisection levels evaluated per batched pass of calibrate_pulse (15
# midpoints).  A pass costs mostly its fixed numpy overhead, and one more
# amplitude only a few percent of that.  Over the reachable ranges of the
# 5 and 6 ns templates a calibration takes 1 to 8 levels at tol 1e-3, so
# two passes at most.
_TREE_DEPTH = 4


def _midpoint_tree(lo: float, hi: float, depth: int) -> list[float]:
    """Midpoints of the next ``depth`` bisection levels of [lo, hi], heap-ordered.

    Node j halves its interval; its children 2j + 1 and 2j + 2 halve the
    lower and upper halves, with the bisection's own 0.5 * (lo + hi).
    """
    bounds, mids = [(lo, hi)], []
    for a, b in bounds:
        mid = 0.5 * (a + b)
        mids.append(mid)
        if 2 * len(mids) < 2**depth:
            bounds += [(a, mid), (mid, b)]
    return mids


def calibrate_pulse(
    target_p2: float,
    template: PulseShape,
    params: EmitterParams,
    grid: TimeGrid | None = None,
    tol: float = 1e-3,
) -> PulseShape:
    """Choose the pulse amplitude that reproduces a target re-excitation probability.

    Bisects the amplitude with the pulse area constrained to [0.8 pi,
    1.2 pi] (the protocol wants near-maximal excitation); raises if the
    target cannot be bracketed there.  The bisection is evaluated in
    batched passes: one pass computes P2 at the midpoints of the next few
    levels (``_midpoint_tree``), the first pass also at both bracket ends
    and the pi-area amplitude, and a walk down that tree then makes the
    usual steps (early exit within 0.2 tol, at most 60 halvings).  Only the
    amplitudes the walk visits are read, and each of them must pass both
    guards of :meth:`EmissionSolution.populations`.  Every amplitude in the
    bracket is one pulse piece (at most 0.6 pi of Rabi phase).
    """
    horizon = (grid or TimeGrid()).horizon
    if not 0.0 <= target_p2 < 0.5:
        raise EmitterError(f"target double-emission probability {target_p2} not in [0, 0.5)")
    area_scale = 2.0 * template.duration_ns

    def pulse_at(om: float) -> PulseShape:
        return PulseShape(template.kind, om, template.duration_ns, template.start_ns)

    om_lo = 0.8 * np.pi / area_scale
    om_hi = 1.2 * np.pi / area_scale
    om_pi = np.pi / area_scale
    sol = EmissionSolution(pulse_at(om_hi), params.gamma, horizon)
    omegas = [om_lo, om_hi, om_pi, *_midpoint_tree(om_lo, om_hi, _TREE_DEPTH)]
    values = sol._p2_and_guards(np.array(omegas))

    def p2_at(i: int) -> float:
        p2, left, quadrature = (v[i] for v in values)
        _check_guards(float(left), float(quadrature))
        return float(p2)

    p_lo, p_hi = p2_at(0), p2_at(1)
    if target_p2 <= p_lo:
        if abs(p2_at(2) - target_p2) <= tol:
            return pulse_at(om_pi)
        raise EmitterError(
            f"target P2={target_p2} below reachable range [{p_lo:.4f}, {p_hi:.4f}]"
        )
    if target_p2 > p_hi:
        raise EmitterError(f"target P2={target_p2} above reachable range [{p_lo:.4f}, {p_hi:.4f}]")
    # Walk the tree: node j of the current pass is omegas[root + j], after
    # the bracket ends and the pi-area amplitude in the first pass.
    root, node = 3, 0
    for step in range(61):
        if root + node >= len(omegas):
            omegas = _midpoint_tree(om_lo, om_hi, _TREE_DEPTH)
            values = sol._p2_and_guards(np.array(omegas))
            root, node = 0, 0
        om_mid, p_mid = omegas[root + node], p2_at(root + node)
        # After 60 halvings the amplitude is the midpoint of the last bracket.
        if step == 60 or abs(p_mid - target_p2) < 0.2 * tol:
            break
        if p_mid < target_p2:
            om_lo, node = om_mid, 2 * node + 2
        else:
            om_hi, node = om_mid, 2 * node + 1
    if abs(p_mid - target_p2) > tol:
        raise EmitterError(f"calibration failed: P2={p_mid:.5f} vs target {target_p2}")
    return pulse_at(om_mid)
