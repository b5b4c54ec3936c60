from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import emitter as em
from teleportsim.params import LINK_AB, build_link

from .oracles.master_equation import master_equation_populations
from .oracles.trajectories import simulate_jumps
from .oracles.window_tables import grid_window_tables

GAMMA = 1.0 / 12.0


@pytest.fixture(scope="module")
def grid():
    return em.TimeGrid(horizon=200.0)


@pytest.fixture(scope="module")
def params():
    return em.EmitterParams(gamma=GAMMA, alpha=0.07)


@pytest.fixture(scope="module")
def pi_pulse():
    # Square pulse of area pi over 2 ns (Rabi convention: area = 2 Omega d).
    return em.PulseShape("square", np.pi / 4.0, 2.0)


@pytest.fixture(scope="module")
def pi_emission(pi_pulse, params, grid):
    return em.solve_emission(pi_pulse, params, grid)


def test_no_drive_emits_nothing(params, grid):
    sol = em.solve_emission(em.PulseShape("square", 0.0, 2.0), params, grid)
    assert (sol.p0, sol.p1, sol.p2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)


def test_only_square_pulses():
    with pytest.raises(em.EmitterError, match="pulse kind"):
        em.PulseShape("gaussian", 0.6, 5.0)


def test_impulsive_pi_pulse_single_photon(params, grid):
    pulse = em.PulseShape("square", np.pi / 2 / 0.1, 0.1)
    sol = em.solve_emission(pulse, params, grid)
    assert sol.p1 > 0.995
    assert sol.p2 < 0.002


def test_probabilities_sum_to_one(pi_emission):
    assert pi_emission.p0 + pi_emission.p1 + pi_emission.p2 == pytest.approx(1.0, abs=1e-6)


def test_density_normalization_mean_photon_number(pi_emission):
    # First photons integrate to P1+P2 and second photons to P2; together the
    # mean photon number P1 + 2 P2.
    edges = np.linspace(0.0, 200.0, 401)
    single, pair = pi_emission.solution.cell_masses(edges)
    first, second = single.sum() + pair.sum(), pair.sum()
    assert first + second == pytest.approx(pi_emission.p1 + 2 * pi_emission.p2, abs=1e-6)
    assert single.min() >= 0
    # Second-photon mass by each time never decreases.
    assert pair.sum(axis=0).min() >= -1e-15


def test_second_density_starts_after_first(params, grid):
    # No second photon comes before the first, nor before the pulse starts.
    pulse = em.PulseShape("square", np.pi / 4.0, 2.0, start_ns=3.0)
    edges = np.concatenate([np.linspace(0.0, 6.0, 61), [200.0]])
    single, pair = em.solve_emission(pulse, params, grid).solution.cell_masses(edges)
    assert np.all(np.tril(pair, -1) == 0.0)
    assert pair[:30].sum() == 0.0 and single[:30].sum() == 0.0
    assert np.all(np.diag(pair)[30:50] > 1e-12)


def test_strong_drive_matches_master_equation(grid):
    # A drive of 40 rad over the pulse is cut into pieces the rule resolves.
    pulse = em.PulseShape("square", 20.0, 2.0)
    sol = em.solve_emission(pulse, em.EmitterParams(gamma=GAMMA, alpha=0.5), grid)
    want = master_equation_populations(pulse.amplitude, pulse.end_ns, GAMMA, 5e-4, 200.0)
    assert (sol.p0, sol.p1, sol.p2) == pytest.approx(want, abs=1e-6)


def test_quadrature_guard_rejects_unresolved_drive(monkeypatch, grid):
    # With a rule too coarse for the drive, the first-emission sum over the
    # pulse misses its exact value and nothing is returned.
    monkeypatch.setattr(em, "_GL_X", np.polynomial.legendre.leggauss(4)[0])
    monkeypatch.setattr(em, "_GL_W", np.polynomial.legendre.leggauss(4)[1])
    params = em.EmitterParams(gamma=GAMMA, alpha=0.5)
    with pytest.raises(em.EmitterError, match="quadrature"):
        em.solve_emission(em.PulseShape("square", 20.0, 2.0), params, grid)
    with pytest.raises(em.EmitterError, match="quadrature"):
        em.calibrate_pulse(0.06, em.PulseShape("square", 1.0, 5.0), params, grid)


def test_too_short_horizon_rejected(params):
    # A 5 ns pi pulse leaves about 12 % of the population excited 25 ns later.
    with pytest.raises(em.EmitterError, match="horizon"):
        em.solve_emission(
            em.PulseShape("square", np.pi / 10.0, 5.0), params, em.TimeGrid(horizon=30)
        )


@pytest.mark.parametrize(
    "pulse",
    [
        em.PulseShape("square", np.pi / 4.0, 2.0),
        em.PulseShape("square", 0.3447, 5.0),
        em.PulseShape("square", 0.3011, 6.0),
        em.PulseShape("square", 0.0, 2.0),
    ],
    ids=["pi-2ns", "ab-5ns", "bc-6ns", "no-drive"],
)
def test_master_equation_oracle_populations(pulse, params, grid):
    # The five-level master equation, integrated on a 0.01 ns grid, against
    # the propagator populations.
    sol = em.solve_emission(pulse, params, grid)
    want = master_equation_populations(pulse.amplitude, pulse.end_ns, GAMMA, 0.01, grid.horizon)
    assert (sol.p0, sol.p1, sol.p2) == pytest.approx(want, abs=1e-6)
    # P2 sums second emissions after first ones in the pulse only; the pair
    # masses over the whole horizon, cut into cells, add nothing to it.
    single, pair = sol.solution.cell_masses(np.array([0.0, 1.0, 7.0, 30.0, grid.horizon]))
    assert pair.sum() == pytest.approx(sol.p2, abs=1e-12)
    assert single.sum() + pair.sum() == pytest.approx(sol.p1 + sol.p2, abs=1e-6)


def test_calibrate_pulse_targets(params, grid):
    pulse = em.calibrate_pulse(0.06, em.PulseShape("square", 1.0, 5.0), params, grid)
    assert em.solve_emission(pulse, params, grid).p2 == pytest.approx(0.06, abs=1e-3)
    assert 0.8 * np.pi <= pulse.area() <= 1.2 * np.pi
    pulse_bc = em.calibrate_pulse(0.08, em.PulseShape("square", 1.0, 6.0), params, grid)
    assert em.solve_emission(pulse_bc, params, grid).p2 == pytest.approx(0.08, abs=1e-3)


def test_calibrate_pulse_zero_target_short_pulse(params):
    grid = em.TimeGrid(horizon=200.0)
    template = em.PulseShape("square", 1.0, 0.02)
    pulse = em.calibrate_pulse(0.0, template, params, grid)
    # Degenerate target: returns the exact-pi-area amplitude.
    assert pulse.omega_max * 2 * pulse.duration_ns == pytest.approx(np.pi, rel=1e-9)


def test_calibrate_pulse_unreachable_target(params, grid):
    with pytest.raises(em.EmitterError):
        em.calibrate_pulse(0.4, em.PulseShape("square", 1.0, 2.0), params, grid)


def _bisect_one_at_a_time(target_p2, template, params, grid, tol=1e-3):
    """Reference calibration: the bisection with one populations() call per amplitude.

    Returns the pulse and the amplitudes it evaluated, in order.
    """
    visited = []
    area_scale = 2.0 * template.duration_ns

    def pulse_at(om):
        return em.PulseShape(template.kind, om, template.duration_ns, template.start_ns)

    def p2_of(om):
        visited.append(om)
        return em.EmissionSolution(pulse_at(om), params.gamma, grid.horizon).populations()[1]

    om_lo = 0.8 * np.pi / area_scale
    om_hi = 1.2 * np.pi / area_scale
    p_lo, p_hi = p2_of(om_lo), p2_of(om_hi)
    if target_p2 <= p_lo:
        om_pi = np.pi / area_scale
        if abs(p2_of(om_pi) - target_p2) <= tol:
            return pulse_at(om_pi), visited
        raise em.EmitterError(
            f"target P2={target_p2} below reachable range [{p_lo:.4f}, {p_hi:.4f}]"
        )
    if target_p2 > p_hi:
        raise em.EmitterError(
            f"target P2={target_p2} above reachable range [{p_lo:.4f}, {p_hi:.4f}]"
        )
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
        raise em.EmitterError(f"calibration failed: P2={achieved:.5f} vs target {target_p2}")
    return pulse, visited


def _reachable(duration, params, grid):
    """P2 at both ends of the calibration bracket, 0.8 pi and 1.2 pi of area."""
    return [
        em.EmissionSolution(
            em.PulseShape("square", area / (2.0 * duration), duration), params.gamma, grid.horizon
        ).populations()[1]
        for area in (0.8 * np.pi, 1.2 * np.pi)
    ]


def _outcome(calibrate, *args, **kwargs):
    """A calibration's pulse amplitude as a hex float, or its error message."""
    try:
        pulse = calibrate(*args, **kwargs)
    except em.EmitterError as exc:
        return str(exc)
    return (pulse[0] if isinstance(pulse, tuple) else pulse).omega_max.hex()


@pytest.mark.parametrize("duration", [5.0, 6.0])
def test_batched_calibration_matches_one_at_a_time(duration, params, grid):
    # The batched passes walk the same bisection: the same amplitude to the
    # last bit at 30 targets over each template's reachable range, both ends
    # included, and the same message for targets out of range.
    template = em.PulseShape("square", 1.0, duration)
    p_lo, p_hi = _reachable(duration, params, grid)
    targets = [*np.linspace(p_lo + 1e-9, p_hi, 29), 0.5 * (p_lo + p_hi) + 1e-4]
    outcomes = []
    for target in [float(t) for t in targets] + [p_lo - 2e-3, p_hi + 1e-6]:
        outcomes.append(_outcome(_bisect_one_at_a_time, target, template, params, grid))
        assert _outcome(em.calibrate_pulse, target, template, params, grid) == outcomes[-1]
    assert "below reachable range" in outcomes[-2] and "above reachable range" in outcomes[-1]
    # Without tolerance no early exit: all 60 halvings, then the midpoint of
    # the last bracket is checked.
    target = 0.5 * (p_lo + p_hi)
    want = _outcome(_bisect_one_at_a_time, target, template, params, grid, tol=0.0)
    assert _outcome(em.calibrate_pulse, target, template, params, grid, tol=0.0) == want


def test_batched_calibration_pi_area_branch(params, grid):
    # A target at or below the bracket's lower end returns the pi-area pulse
    # when that pulse reaches it.
    template = em.PulseShape("square", 1.0, 0.02)
    want, _ = _bisect_one_at_a_time(0.0, template, params, grid)
    assert em.calibrate_pulse(0.0, template, params, grid) == want
    assert want.omega_max == np.pi / (2.0 * template.duration_ns)


def test_calibration_takes_at_most_three_passes(monkeypatch, params, grid):
    # One pass evaluates the bracket ends and the next bisection levels at
    # once; a calibration takes at most three, where one populations() call
    # per amplitude takes about ten.
    passes = []
    batch = em.EmissionSolution._p2_and_guards

    def counted(self, omega):
        passes.append(len(omega))
        return batch(self, omega)

    monkeypatch.setattr(em.EmissionSolution, "_p2_and_guards", counted)
    per_calibration, calls = [], []
    for duration in (5.0, 6.0):
        template = em.PulseShape("square", 1.0, duration)
        p_lo, p_hi = _reachable(duration, params, grid)
        for target in np.linspace(p_lo + 1e-9, p_hi, 12):
            passes.clear()
            em.calibrate_pulse(float(target), template, params, grid)
            per_calibration.append(len(passes))
            calls.append(len(_bisect_one_at_a_time(float(target), template, params, grid)[1]))
    assert max(per_calibration) <= 3
    assert 3 * sum(per_calibration) < sum(calls)


def test_calibration_guards_only_the_amplitudes_it_visits(monkeypatch, params, grid):
    # Amplitudes a pass evaluates but the walk never reaches may fail a
    # guard without effect; a visited one raises.
    template = em.PulseShape("square", 1.0, 5.0)
    want, visited = _bisect_one_at_a_time(0.05, template, params, grid)
    batch = em.EmissionSolution._p2_and_guards

    def poisoned(bad):
        def evaluate(self, omega):
            p2, left, quadrature = batch(self, omega)
            hit = np.array([bad(om) for om in omega.tolist()])
            return p2, np.where(hit, 1.0, left), np.where(hit, 1.0, quadrature)

        return evaluate

    unvisited, last = poisoned(lambda om: om not in visited), poisoned(lambda om: om == visited[-1])
    monkeypatch.setattr(em.EmissionSolution, "_p2_and_guards", unvisited)
    assert em.calibrate_pulse(0.05, template, params, grid) == want
    monkeypatch.setattr(em.EmissionSolution, "_p2_and_guards", last)
    with pytest.raises(em.EmitterError, match="excited population"):
        em.calibrate_pulse(0.05, template, params, grid)


def test_driven_at_critical_damping(params, grid):
    # At Omega = gamma / 4 the propagator frequency nu is exactly zero and
    # sin(nu tau) / nu is tau: the populations join their neighbours.
    om = params.gamma / 4.0
    at, near = (
        em.EmissionSolution(em.PulseShape("square", w, 20.0), params.gamma, grid.horizon)
        for w in (om, om * (1 + 1e-7))
    )
    assert em._driven(om, params.gamma, 1.0)[1] == pytest.approx(-1j * om * np.exp(-om), rel=1e-12)
    assert at.populations() == pytest.approx(near.populations(), abs=1e-7)


def test_p2_monotone_in_duration_at_fixed_area(params, grid):
    p2s = []
    for d in (1.0, 2.0, 3.5, 5.0, 7.0):
        pulse = em.PulseShape("square", np.pi / 2 / d, d)
        p2s.append(em.solve_emission(pulse, params, grid).p2)
    assert all(a < b for a, b in zip(p2s, p2s[1:]))


def test_window_probabilities_limits(pi_emission):
    full = em.window_probabilities(pi_emission, (0.0, 199.0), (0.0, 199.0))
    assert full.p_dz1 == pytest.approx(1.0, abs=1e-6)
    assert full.zz[0, 0] == pytest.approx(1.0, abs=1e-6)
    zero = em.window_probabilities(pi_emission, (0.0, 0.0), (0.0, 199.0))
    assert zero.p_dz1 == 0.0 and zero.zz[0, 0] == 0.0 and zero.zz[0, 1] + zero.zz[1, 0] == 0.0


def test_window_monotone_in_length(pi_emission):
    p15 = em.window_probabilities(pi_emission, (0.0, 15.0), (0.0, 199.0)).p_dz1
    p75 = em.window_probabilities(pi_emission, (0.0, 7.5), (0.0, 199.0)).p_dz1
    assert p15 > p75 > 0.0


def test_window_outside_horizon_rejected(pi_emission):
    with pytest.raises(em.EmitterError):
        em.window_probabilities(pi_emission, (0.0, 500.0), (0.0, 199.0))


def test_window_group_sums(pi_emission):
    wp = em.window_probabilities(pi_emission, (0.0, 15.0), (0.0, 199.0))
    wp.validate()
    assert wp.zz[0, 0] + wp.zz[0, 1] + wp.zz[1, 0] <= 1.0 + 1e-9
    assert wp.p_db1_dur + wp.p_db1_aft == pytest.approx(wp.p_db1)


def test_window_validation_rejects_bad_tables(pi_emission):
    # An entry outside [0, 1] and a table holding more than every pair both
    # raise, as does a NaN single-photon share.
    wp = em.window_probabilities(pi_emission, (0.0, 15.0), (0.0, 199.0))
    negative = wp.bb.copy()
    negative[0, 0] = -1e-3
    overfull = wp.zb.copy()
    overfull[0, 0] += 0.5  # every entry stays in [0, 1]
    assert np.all((overfull >= 0) & (overfull <= 1))
    for bad, match in (
        (replace(wp, bb=negative), "outside"),
        (replace(wp, p_db1_aft=float("nan")), "outside"),
        (replace(wp, zb=overfull), "sums above 1"),
    ):
        with pytest.raises(em.EmitterError, match=match):
            bad.validate()


def test_window_validation_rejects_underfull_table():
    # A rounding-level negative entry keeps every entry in range but takes
    # most of the mass out of the table: validate() sees it, not the herald.
    wp = build_link(LINK_AB).node1.windows
    zz = wp.zz.copy()
    zz[0, 0] = -1e-12
    assert zz.sum() < 0.99
    with pytest.raises(em.EmitterError, match="not 1"):
        replace(wp, zz=zz).validate()
    # All-zero tables stand for a node without two-photon mass.
    dark = em.solve_emission(em.PulseShape("square", 0.0, 2.0), em.EmitterParams(GAMMA, 0.07))
    wp = em.window_probabilities(dark, (1.5, 15.0), (0.0, 190.0))
    assert not any(t.any() for t in (wp.zz, wp.bb, wp.zb, wp.bz))
    half = replace(wp, bb=np.full((3, 3), 0.5 / 9))
    with pytest.raises(em.EmitterError, match="not 1"):
        half.validate()


def test_window_negative_length_rejected(pi_emission):
    with pytest.raises(em.EmitterError, match="negative"):
        em.window_probabilities(pi_emission, (21.5, -5.0), (0.0, 190.0))
    with pytest.raises(em.EmitterError, match="negative"):
        em.window_probabilities(pi_emission, (1.5, 15.0), (0.0, -1.0))
    with pytest.raises(em.EmitterError):
        em.window_probabilities(pi_emission, (float("nan"), 15.0), (0.0, 190.0))


def _window_cases():
    """(pulse, params, zpl window, psb window) covering the built links and edge windows."""
    params = em.EmitterParams(gamma=GAMMA, alpha=0.07)
    grid = em.TimeGrid()
    cases = []  # 16 whose edges lie on every grid of the oracle, then 20 random ones
    # The calibrated AB and BC pulses at the window starts build_link uses.
    for p2, duration in ((0.06, 5.0), (0.08, 6.0)):
        pulse = em.calibrate_pulse(p2, em.PulseShape("square", 1.0, duration), params, grid)
        for window in (15.0, 10.0, 7.5):
            cases.append((pulse, params, (1.5 + 15.0 - window, window), (0.0, 190.0)))
        # Full, zero-length, and side-band windows ending before or starting
        # after the pulse end.
        cases += [
            (pulse, params, (0.0, 200.0), (0.0, 200.0)),
            (pulse, params, (4.0, 0.0), (0.0, 0.0)),
            (pulse, params, (1.5, 15.0), (0.0, duration - 1.0)),
            (pulse, params, (1.5, 15.0), (duration + 2.0, 100.0)),
            (pulse, params, (duration, 10.0), (duration, 50.0)),
        ]
    rng = np.random.default_rng(2110)
    for _ in range(20):
        duration, start = rng.uniform(1.0, 8.0), rng.uniform(0.0, 3.0)
        omega = rng.uniform(0.8, 1.2) * np.pi / (2.0 * duration)
        pulse = em.PulseShape("square", omega, duration, start)
        pars = em.EmitterParams(gamma=1.0 / rng.uniform(10.0, 13.0), alpha=0.05)
        zpl = (rng.uniform(0.0, 20.0), rng.uniform(0.0, 30.0))
        psb_start = rng.uniform(0.0, 8.0)
        cases.append((pulse, pars, zpl, (psb_start, rng.uniform(0.0, 150.0))))
    return cases


def test_window_tables_match_grid_oracle():
    # The grid oracle rounds window edges to grid points, an error first
    # order in its step dt, and converges on the exact tables as dt shrinks.
    # Where every edge lies on the grid, each field's gap halves with dt;
    # elsewhere the rounding makes it a sawtooth, bounded by dt / 2.
    fields = ("p_dz1", "p_db1_dur", "p_db1_aft", "zz", "bb", "zb", "bz")
    steps = (0.01, 0.005, 0.0025)
    grid = em.TimeGrid()
    for i, (pulse, pars, zpl, psb) in enumerate(_window_cases()):
        got = em.window_probabilities(em.solve_emission(pulse, pars, grid), zpl, psb)
        gaps = []
        for dt in steps:
            want = grid_window_tables(pulse, pars, dt, grid.horizon, zpl, psb)
            assert (got.zpl_window, got.psb_window, got.pulse_end) == (
                want.zpl_window,
                want.psb_window,
                want.pulse_end,
            )
            gaps.append(
                [np.max(np.abs(np.subtract(getattr(got, f), getattr(want, f)))) for f in fields]
            )
        gaps = np.array(gaps)
        if i < 16:
            assert np.all(gaps[1:] <= 0.55 * gaps[:-1] + 1e-12), (pulse, zpl, psb, gaps)
        else:
            assert np.all(gaps <= 0.5 * np.array(steps)[:, None]), (pulse, zpl, psb, gaps)


@settings(max_examples=200, deadline=None)
@given(
    area=st.floats(0.2, 3.0),
    duration=st.floats(0.1, 8.0),
    start=st.floats(0.0, 5.0),
    lifetime=st.floats(8.0, 13.0),
    zpl=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    psb=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_window_tables_are_distributions(area, duration, start, lifetime, zpl, psb):
    # Each two-photon table spreads the pairs over classes that partition
    # time, so it sums to 1; full windows hold every single photon.
    grid = em.TimeGrid()
    pulse = em.PulseShape("square", area * np.pi / (2.0 * duration), duration, start)
    sol = em.solve_emission(pulse, em.EmitterParams(gamma=1.0 / lifetime, alpha=0.05), grid)

    def window(fractions: tuple[float, float]) -> tuple[float, float]:
        begin = fractions[0] * grid.horizon
        return begin, fractions[1] * (grid.horizon - begin)

    wp = em.window_probabilities(sol, window(zpl), window(psb))
    for table in (wp.zz, wp.bb, wp.zb, wp.bz):
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
    full = em.window_probabilities(sol, (0.0, grid.horizon), (0.0, grid.horizon))
    assert full.p_dz1 == pytest.approx(1.0, abs=1e-12)
    assert full.p_db1 == pytest.approx(1.0, abs=1e-12)


def test_jump_oracle_matches_master_equation(params, grid):
    # Independent quantum-jump unraveling agrees with the integrated
    # populations within 3 standard errors at 1e5 trajectories, for both a
    # plain pi pulse and the calibrated re-excitation pulse.
    rng = np.random.default_rng(2024)
    n = 100_000
    for pulse in (
        em.PulseShape("square", np.pi / 4.0, 2.0),
        em.PulseShape("square", 0.3447, 5.0),
    ):
        sol = em.solve_emission(pulse, params, grid)
        ens = simulate_jumps(pulse.amplitude, GAMMA, 150.0, 0.05, n, rng)
        for want, got in zip((sol.p0, sol.p1, sol.p2), ens.p012):
            se = np.sqrt(max(want * (1 - want), 1e-12) / n)
            assert abs(got - want) <= 3 * se + 5e-4, (pulse, want, got)


def test_jump_oracle_window_statistics(params, grid):
    # Emission-time window membership from sampled trajectories matches the
    # propagator-derived tables.
    pulse = em.PulseShape("square", 0.3447, 5.0)
    sol = em.solve_emission(pulse, params, grid)
    wp = em.window_probabilities(sol, (0.0, 15.0), (0.0, 199.0))
    rng = np.random.default_rng(7)
    n = 100_000
    ens = simulate_jumps(pulse.amplitude, GAMMA, 150.0, 0.05, n, rng)
    single = ens.n_photons == 1
    p_win = float(np.mean(ens.t_first[single] < 15.0))
    se = np.sqrt(wp.p_dz1 * (1 - wp.p_dz1) / single.sum())
    assert abs(p_win - wp.p_dz1) <= 3 * se + 2e-3
    double = ens.n_photons == 2
    both_in = float(np.mean((ens.t_first[double] < 15.0) & (ens.t_second[double] < 15.0)))
    se2 = np.sqrt(wp.zz[0, 0] * (1 - wp.zz[0, 0]) / double.sum())
    assert abs(both_in - wp.zz[0, 0]) <= 3 * se2 + 4e-3
