import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import emitter, params, photonics
from teleportsim.photonics import (
    FlagCounts,
    LinkParams,
    NodeOptics,
    branch_emission,
    build_heralded,
    calibrate_eta_zpl,
    detection_probability,
    estimate_error_probs,
    herald_correlations,
    interfere_and_herald,
    psb_conditioned_correlations,
    single_error_budget,
)

from .oracles import fock_pipeline


@pytest.fixture(scope="module")
def link_ab():
    return params.build_link(params.LINK_AB)


@pytest.fixture(scope="module")
def link_bc():
    return params.build_link(params.LINK_BC)


@pytest.fixture(scope="module")
def heralded_ab(link_ab):
    return build_heralded(link_ab)


def _simple_emission(p0, p1, p2):
    return emitter.EmissionProbabilities(p0, p1, p2)


def _flat_windows(p_dz1=0.8, p_dur=0.1, p_aft=0.85):
    rng = np.random.default_rng(0)
    zz = np.array([[0.5, 0.2], [0.2, 0.1]])
    bb = np.array([[0.05, 0.1, 0.02], [0.0, 0.6, 0.1], [0.0, 0.0, 0.13]])
    zb = np.array([[0.1, 0.6, 0.1], [0.05, 0.1, 0.05]])
    bz = np.array([[0.1, 0.05], [0.55, 0.15], [0.1, 0.05]])
    return emitter.WindowProbabilities(
        (0.0, 15.0), (0.0, 100.0), 2.0, p_dz1, p_dur, p_aft, zz, bb, zb, bz
    )


def _random_node(rng) -> NodeOptics:
    p = rng.dirichlet((2.0, 20.0, 2.0))
    em = _simple_emission(*p)
    zz = rng.dirichlet(np.ones(4)).reshape(2, 2)
    bb_flat = rng.dirichlet(np.ones(9))
    bb = bb_flat.reshape(3, 3)
    zb = rng.dirichlet(np.ones(6)).reshape(2, 3)
    bz = rng.dirichlet(np.ones(6)).reshape(3, 2)
    p_dur = rng.uniform(0.02, 0.2)
    p_aft = rng.uniform(0.2, 0.75)
    wp = emitter.WindowProbabilities(
        (0.0, 15.0), (0.0, 100.0), 2.0, rng.uniform(0.3, 0.95), p_dur, p_aft, zz, bb, zb, bz
    )
    return NodeOptics(
        alpha=rng.uniform(0.03, 0.3),
        p_zpl=rng.uniform(0.02, 0.3),
        emission=em,
        windows=wp,
        eta_zpl=rng.uniform(0.005, 0.2),
        eta_psb=rng.uniform(0.05, 0.3),
    )


def test_branch_weights_and_structure(link_ab):
    for node in (link_ab.node1, link_ab.node2):
        flags, dens = branch_emission(node)
        assert np.einsum("xsnsn->", dens).real == pytest.approx(1.0, abs=1e-9)
        for c, rho in zip(flags, dens):
            if len(c) >= 1:
                assert np.all(rho[1, :, :, :] == 0) and np.all(rho[:, :, 1, :] == 0)
            if len(c) >= 2:
                assert np.all(rho[:, 1:, :, :] == 0) and np.all(rho[:, :, :, 1:] == 0)


def test_branch_emission_dark_spin():
    node = NodeOptics(
        alpha=0.0,
        p_zpl=0.03,
        emission=_simple_emission(0.01, 0.93, 0.06),
        windows=_flat_windows(),
        eta_zpl=0.5,
        eta_psb=0.1,
    )
    flags, dens = branch_emission(node)
    assert flags == [frozenset()]
    assert dens[0, 1, 0, 1, 0].real == pytest.approx(1.0)


def test_branch_emission_lossless_single_photon():
    # Unit efficiency, pure single-photon emission, everything in window:
    # a single pure, unflagged class remains.
    node = NodeOptics(
        alpha=0.3,
        p_zpl=1.0,
        emission=_simple_emission(0.0, 1.0, 0.0),
        windows=_flat_windows(p_dz1=1.0),
        eta_zpl=1.0,
        eta_psb=1.0,
    )
    flags, dens = branch_emission(node)
    assert flags == [frozenset()]
    rho = dens[0].reshape(6, 6)
    assert np.trace(rho @ rho).real == pytest.approx(1.0)
    assert rho[3, 3].real == pytest.approx(0.7)  # spin |1>, no photon
    assert rho[1, 1].real == pytest.approx(0.3)  # spin |0>, one photon


def test_branch_emission_clips_rounding_negative_window_entries(link_ab):
    # validate() accepts entries down to -1e-9; such a chance counts as zero
    # (it used to raise "math domain error" from the square root).  The
    # both-in-window pair mass moves to both-out, so the table still sums to 1.
    node = link_ab.node1
    zz = node.windows.zz.copy()
    zz[1, 1] += zz[0, 0] + 1e-12
    zz[0, 0] = -1e-12
    for windows in (replace(node.windows, p_db1_dur=-1e-12), replace(node.windows, zz=zz)):
        windows.validate()
        flags, dens = branch_emission(replace(node, windows=windows))
        assert flags == branch_emission(node)[0]
        assert np.einsum("xsnsn->", dens) == pytest.approx(1.0, abs=1e-9)
        for rho in dens.reshape(len(flags), 6, 6):
            assert np.allclose(rho, rho.conj().T, atol=0.0)
            assert np.linalg.eigvalsh(rho).min() >= -1e-15


def _oracle_densities(node: NodeOptics) -> dict:
    """The Fock oracle's node state traced over its environment, per click set."""
    envs: dict[tuple, np.ndarray] = {}
    for (spin, kept, *env), amp in fock_pipeline.node_state(node).items():
        envs.setdefault(tuple(env), np.zeros((2, 3), dtype=complex))[spin, kept] += amp
    dens: dict[frozenset, np.ndarray] = {}
    for env, vec in envs.items():
        _, _, cdur, caft, *_ = env
        flag = frozenset(e for e, n in (("dur", cdur), ("aft", caft)) if n)
        dens[flag] = dens.get(flag, 0.0) + np.einsum("sn,tm->sntm", vec, vec.conj())
    return dens


def _assert_matches_oracle(node: NodeOptics) -> None:
    flags, dens = branch_emission(node)
    ref = _oracle_densities(node)
    assert flags == sorted(ref, key=sorted)
    for flag, rho in zip(flags, dens):
        assert np.max(np.abs(rho - ref[flag])) <= 1e-12, flag


def test_branch_emission_matches_fock_oracle(link_ab, link_bc):
    for link in (link_ab, link_bc):
        for node in (link.node1, link.node2, link.protocol_only.node1, link.protocol_only.node2):
            _assert_matches_oracle(node)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_branch_emission_matches_fock_oracle_random(seed):
    _assert_matches_oracle(_random_node(np.random.default_rng(seed)))


def test_ideal_link_heralds_bell_state():
    link = params.build_link(params.ideal_link_config())
    hl = build_heralded(link)
    assert hl.fidelity(+1) > 1 - 1e-4
    assert hl.fidelity(-1) > 1 - 1e-4
    # both-sign mirror symmetry in the ideal limit
    assert hl.p_plus == pytest.approx(hl.p_minus, rel=1e-6)


def test_no_double_bright_population_without_noise(link_ab):
    link = params.build_link(params.ideal_link_config())
    hl = build_heralded(link)
    assert hl.rho_plus.matrix[3, 3].real < 1e-9
    # Production bright-state populations, but re-excitation and dark counts
    # off: the |11> population still vanishes.
    quiet = replace(
        link_ab,
        dark_rate_hz=0.0,
        node1=replace(link_ab.node1, emission=link_ab.node1.emission.without_double_excitation()),
        node2=replace(link_ab.node2, emission=link_ab.node2.emission.without_double_excitation()),
    )
    hq = build_heralded(quiet)
    assert hq.rho_plus.matrix[3, 3].real < 1e-9
    assert hq.rho_minus.matrix[3, 3].real < 1e-9


def test_window_mismatch_rejected(link_ab, link_bc):
    with pytest.raises(photonics.PhotonicsError):
        interfere_and_herald(
            replace(link_ab, node2=replace(link_bc.node2, windows=_flat_windows()))
        )


def test_window_check_is_allclose(link_ab):
    # The window check is np.allclose's test on the (start, length) pairs.
    start, length = link_ab.node1.windows.zpl_window
    for window in ((start + 1e-12, length), (start, length * (1 + 1e-6)), (start, length + 1e-3),
                   (start, float("nan"))):
        node2 = replace(link_ab.node2, windows=replace(link_ab.node2.windows, zpl_window=window))
        close = bool(np.allclose(link_ab.node1.windows.zpl_window, window))
        if close:
            interfere_and_herald(replace(link_ab, node2=node2))
        else:
            with pytest.raises(photonics.PhotonicsError, match="mismatched"):
                interfere_and_herald(replace(link_ab, node2=node2))


def test_herald_paths_are_numpys_greedy_choice(link_ab, link_bc):
    # Every stored contraction path is the one np.einsum(optimize=True) picks
    # for its shapes, so a numpy whose greedy choice changes fails here
    # instead of moving the herald at rounding level.
    counts = {len(photonics._beam_splitter(v)[0]) for v in (0.0, 0.5, 1.0)}
    for n_cfg in counts:
        for nx in range(1, 5):
            for ny in range(1, 5):
                operands = (
                    np.zeros((n_cfg, 3, 3, 3, 3), dtype=complex),
                    np.zeros((nx, 2, 3, 2, 3)),
                    np.zeros((ny, 2, 3, 2, 3)),
                )
                want = np.einsum_path(photonics._HERALD, *operands, optimize=True)[0]
                assert photonics._HERALD_PATHS[n_cfg, nx, ny] == want
    assert len(photonics._HERALD_PATHS) == 16 * len(counts)
    assert len({tuple(p) for p in photonics._HERALD_PATHS.values()}) == 2
    # On the built links' densities the stored path gives the greedy result bit for bit.
    for link in (link_ab, link_bc, link_ab.protocol_only):
        kernel, _ = photonics._interference_kernel(link.visibility, 0.3)
        (_, dens1), (_, dens2) = link.node1.densities, link.node2.densities
        path = photonics._HERALD_PATHS[len(kernel), len(dens1), len(dens2)]
        assert np.array_equal(
            np.einsum(photonics._HERALD, kernel, dens1, dens2, optimize=path),
            np.einsum(photonics._HERALD, kernel, dens1, dens2, optimize=True),
        )


def test_beam_splitter_table_built_once_per_visibility():
    bs, clicks = photonics._beam_splitter(0.9)
    assert photonics._beam_splitter(0.9)[0] is bs
    assert not bs.flags.writeable and not clicks.flags.writeable
    # Every output configuration has exactly one click pattern.
    assert np.array_equal(clicks.sum(axis=0), np.ones(len(bs)))
    assert len(photonics._beam_splitter(1.0)[0]) < len(bs)


def test_flagged_herald_fraction(link_ab):
    # False heralds occur at the ten-percent level and are side-band flagged
    # with the side-band efficiency, so the flagged fraction sits near 1%.
    hl = build_heralded(replace(link_ab, psb_rejection=False))
    total_flag = sum(hl.flag_prob.values())
    assert 0.005 < total_flag < 0.025


def test_rejection_removes_flagged_weight(link_ab, heralded_ab):
    off = build_heralded(replace(link_ab, psb_rejection=False))
    assert heralded_ab.p_rejected > 0
    assert heralded_ab.p_success < off.p_success
    assert off.p_success == pytest.approx(
        heralded_ab.p_success + heralded_ab.p_rejected, rel=1e-9
    )


def test_rejection_never_decreases_fidelity():
    rng = np.random.default_rng(42)
    base = params.build_link(params.LINK_AB)
    for _ in range(20):
        link = replace(
            base,
            node1=replace(
                base.node1,
                alpha=rng.uniform(0.02, 0.2),
                eta_psb=rng.uniform(0.05, 0.3),
            ),
            node2=replace(base.node2, alpha=rng.uniform(0.02, 0.2)),
            visibility=rng.uniform(0.7, 1.0),
            phase_uncertainty_deg=rng.uniform(0.0, 30.0),
            dark_rate_hz=rng.uniform(0.0, 30.0),
        )
        f_on = build_heralded(replace(link, psb_rejection=True)).fidelity_avg()
        f_off = build_heralded(replace(link, psb_rejection=False)).fidelity_avg()
        assert f_on >= f_off - 1e-12


def test_herald_probability_linear_in_eta(link_ab):
    link = replace(link_ab, dark_rate_hz=0.0)
    half = replace(
        link,
        node1=replace(link.node1, eta_zpl=link.node1.eta_zpl / 2),
        node2=replace(link.node2, eta_zpl=link.node2.eta_zpl / 2),
    )
    p1 = build_heralded(link).p_success
    p2 = build_heralded(half).p_success
    assert abs(p1 / (2 * p2) - 1.0) < 0.02


def test_window_sweep_monotone():
    fids, probs = [], []
    for w in (15.0, 10.0, 7.5):
        link = params.build_link(params.LINK_AB, window_ns=w)
        hl = build_heralded(link)
        fids.append(hl.fidelity_avg())
        probs.append(hl.p_success)
    assert fids[0] <= fids[1] <= fids[2]
    assert probs[0] >= probs[1] >= probs[2]


def test_budget_rows_structure(link_ab):
    rows = {s: single_error_budget(link_ab, s) for s in photonics.BUDGET_SOURCES}
    assert all(v >= 0 for v in rows.values())
    assert rows["alpha"] > rows["dark"]
    with pytest.raises(photonics.PhotonicsError):
        single_error_budget(link_ab, "cosmic-rays")


def test_detection_probability_calibration(link_ab):
    assert detection_probability(link_ab.node1) == pytest.approx(3.4e-4, rel=1e-6)
    assert detection_probability(link_ab.node2) == pytest.approx(5.1e-4, rel=1e-6)


def test_eta_calibration_hits_target(link_ab, link_bc):
    # The closed-form root reproduces the target on the production nodes and
    # on random ones, at targets across the reachable range.
    rng = np.random.default_rng(11)
    cases = [
        (node, target)
        for link, targets in ((link_ab, params.LINK_AB), (link_bc, params.LINK_BC))
        for node, target in zip((link.node1, link.node2), targets.detection_prob)
    ]
    for _ in range(20):
        node = _random_node(rng)
        reach = detection_probability(replace(node, eta_zpl=1.0))
        cases.append((node, rng.uniform(0.01, 1.0) * reach))
    for node, target in cases:
        eta = calibrate_eta_zpl(node, target).eta_zpl
        assert 0.0 <= eta <= 1.0
        got = detection_probability(replace(node, eta_zpl=eta))
        assert got == pytest.approx(target, rel=1e-12, abs=0.0)


def test_eta_calibration_unreachable_target(link_ab):
    reach = detection_probability(replace(link_ab.node1, eta_zpl=1.0))
    for target in (1.01 * reach, -1e-6):
        with pytest.raises(photonics.PhotonicsError, match="unreachable"):
            calibrate_eta_zpl(link_ab.node1, target)


def test_budget_heralds_protocol_only_link_once(link_ab, monkeypatch):
    # Five budget rows and the combined row need six heralds: the
    # protocol-only link is shared by every row.
    calls = []
    herald = photonics.interfere_and_herald

    def counting(link):
        calls.append(link)
        return herald(link)

    monkeypatch.setattr(photonics, "interfere_and_herald", counting)
    link = replace(link_ab)  # a new object: nothing cached yet
    rows = {s: single_error_budget(link, s) for s in photonics.BUDGET_SOURCES}
    photonics.combined_infidelity(link)
    assert len(calls) == 6
    assert rows["alpha"] == 1.0 - build_heralded(link.protocol_only).fidelity_avg()


def test_link_budget_computes_each_node_once(monkeypatch):
    # A new design plus its budget holds four distinct nodes: the two
    # calibrated ones (double-excitation and combined rows) and their
    # protocol-only versions (alpha, dark, visibility and phase rows).  Each
    # node's densities are computed once, and calibrating eta_zpl takes two
    # evaluations per node.
    calls = []

    def counting(node):
        calls.append(node)
        return branch_emission(node)

    monkeypatch.setattr(photonics, "branch_emission", counting)
    for window in (15.0, 10.0):
        calls.clear()
        design = replace(params.LINK_AB, name=f"budget-count-{window:g}", double_excitation=0.05)
        link = params.build_link(design, window_ns=window)
        for source in photonics.BUDGET_SOURCES:
            single_error_budget(link, source)
        photonics.combined_infidelity(link)
        assert len(calls) == 8


def _switched_off(link: LinkParams, keep: str) -> LinkParams:
    """Every source of ``link`` but ``keep`` off, on fresh nodes that share nothing."""

    def node(n: NodeOptics) -> NodeOptics:
        if keep == "double-excitation":
            return replace(n)
        return replace(n, emission=n.emission.without_double_excitation())

    return replace(
        link,
        node1=node(link.node1),
        node2=node(link.node2),
        visibility=link.visibility if keep == "visibility" else 1.0,
        phase_uncertainty_deg=link.phase_uncertainty_deg if keep == "phase" else 0.0,
        dark_rate_hz=link.dark_rate_hz if keep == "dark" else 0.0,
    )


@pytest.mark.parametrize(
    "cfg, window",
    [
        (params.LINK_AB, 15.0),
        (replace(params.LINK_BC, psb_rejection=False), 10.0),
        (params.ideal_link_config(), 7.5),
    ],
)
def test_budget_rows_match_unshared_links(cfg, window):
    # Restoring one source onto the shared protocol-only link gives exactly
    # the rows of links built from scratch with every other source off.
    link = replace(params.build_link(cfg, window_ns=window))

    def infidelity(lk: LinkParams) -> float:
        return 1.0 - interfere_and_herald(lk).fidelity_avg()

    base = infidelity(_switched_off(link, "alpha"))
    for source in photonics.BUDGET_SOURCES:
        expected = base if source == "alpha" else infidelity(_switched_off(link, source)) - base
        assert single_error_budget(link, source) == expected
    assert photonics.combined_infidelity(link) == infidelity(
        replace(link, node1=replace(link.node1), node2=replace(link.node2))
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eta=st.floats(1e-6, 1.0))
def test_detection_probability_is_quadratic_in_eta(seed, eta):
    # One lossless evaluation fixes D(eta) = A eta + B (2 eta - eta^2): A and
    # B are its one- and two-photon marginals.
    node = _random_node(np.random.default_rng(seed))
    _, dens = branch_emission(replace(node, alpha=1.0, eta_zpl=1.0))
    _, a, b = np.einsum("xsnsn->n", dens).real
    model = a * eta + b * (2.0 * eta - eta * eta)
    got = detection_probability(replace(node, eta_zpl=eta))
    assert abs(got - model) <= 1e-14 * model


@pytest.mark.parametrize(
    "change",
    [
        {"phase_uncertainty_deg": float("nan")},
        {"phase_uncertainty_deg": float("inf")},
        {"phase_uncertainty_deg": -1.0},
        {"dark_rate_hz": float("nan")},
        {"dark_rate_hz": float("inf")},
        {"dark_rate_hz": -1.0},
        {"dark_rate_hz": 1e9},  # 15 dark counts per 15 ns window
        {"zpl_window_ns": -5.0},
        {"zpl_window_ns": float("nan")},
        {"visibility": float("nan")},
    ],
)
def test_link_rejects_bad_noise_parameters(link_ab, change):
    # Accepted, the non-finite and oversized values give NaN or negative
    # herald probabilities, and a negative window an unrelated error later.
    with pytest.raises(photonics.PhotonicsError):
        replace(link_ab, **change)


def test_link_accepts_dark_probability_up_to_one(link_ab):
    link = replace(link_ab, dark_rate_hz=1e9 / link_ab.zpl_window_ns)
    assert link.dark_rate_hz * link.zpl_window_ns * 1e-9 == 1.0


def test_correlations_z_basis(link_ab):
    hl = build_heralded(link_ab)
    z = herald_correlations(hl, "z")
    assert z["01"] + z["10"] > 0.85
    assert abs(z["01"] - z["10"]) < 0.1


def test_psb_conditioned_correlations(link_ab):
    hl = build_heralded(replace(link_ab, psb_rejection=False))
    aft = psb_conditioned_correlations(hl, "node1", "aft", "z")
    assert aft["00"] == max(aft.values())
    dur1 = psb_conditioned_correlations(hl, "node1", "dur", "z")
    assert dur1["01"] == max(dur1.values())
    dur2 = psb_conditioned_correlations(hl, "node2", "dur", "z")
    assert dur2["10"] == max(dur2.values())
    for basis in ("x", "y"):
        for node, epoch in (("node1", "aft"), ("node1", "dur"), ("node2", "aft")):
            dist = psb_conditioned_correlations(hl, node, epoch, basis)
            for v in dist.values():
                assert abs(v - 0.25) < 0.02
    with pytest.raises(photonics.PhotonicsError):
        psb_conditioned_correlations(build_heralded(link_ab), "node1", "aft")


def test_estimate_error_probs_analytic_recovery(link_ab):
    # Feeding the model's own expected rates back recovers the configured
    # parameters exactly.
    rates = photonics.expected_flag_rates(link_ab)
    n = 10**9
    counts = FlagCounts(
        n_heralds=n, n_flags={k: int(round(v * n)) for k, v in rates.items()}
    )
    est = estimate_error_probs(counts, link_ab)
    assert est["double_bright"][0] == pytest.approx(link_ab.node1.alpha, abs=1e-4)
    assert est["double_bright"][1] == pytest.approx(link_ab.node2.alpha, abs=1e-4)
    assert est["double_excitation"][0] == pytest.approx(
        link_ab.node1.emission.p2, abs=1e-4
    )
    with pytest.raises(photonics.PhotonicsError):
        estimate_error_probs(FlagCounts(0, {}), link_ab)


def test_estimate_error_probs_zero_double_excitation(link_ab):
    link = replace(
        link_ab,
        node1=replace(link_ab.node1, emission=link_ab.node1.emission.without_double_excitation()),
        node2=replace(link_ab.node2, emission=link_ab.node2.emission.without_double_excitation()),
    )
    rates = photonics.expected_flag_rates(link)
    n = 10**9
    counts = FlagCounts(n, {k: int(round(v * n)) for k, v in rates.items()})
    est = estimate_error_probs(counts, link_ab)
    assert est["double_excitation"][0] == pytest.approx(0.0, abs=1e-3)
    assert est["double_excitation"][1] == pytest.approx(0.0, abs=1e-3)


def test_fock_oracle_agreement_production(link_ab, link_bc, heralded_ab):
    for link, hl in ((link_ab, heralded_ab), (link_bc, build_heralded(link_bc))):
        ref = fock_pipeline.interfere(link)
        assert ref["p_plus"] == pytest.approx(hl.p_plus, abs=1e-12)
        assert ref["p_minus"] == pytest.approx(hl.p_minus, abs=1e-12)
        assert ref["p_rejected"] == pytest.approx(hl.p_rejected, abs=1e-12)
        assert ref["p_double"] == pytest.approx(hl.p_double, abs=1e-12)
        assert np.allclose(ref["rho_plus"], hl.rho_plus.matrix * hl.p_plus, atol=1e-12)
        assert np.allclose(ref["rho_minus"], hl.rho_minus.matrix * hl.p_minus, atol=1e-12)


def test_fock_oracle_agreement_random():
    # Branch bookkeeping equals the no-shortcut Fock pipeline on random
    # parameter sets, within 1e-9.
    rng = np.random.default_rng(123)
    for trial in range(10):
        n1, n2 = _random_node(rng), _random_node(rng)
        link = LinkParams(
            node1=n1,
            node2=n2,
            visibility=rng.uniform(0.6, 1.0),
            phase_uncertainty_deg=rng.uniform(0.0, 30.0),
            dark_rate_hz=rng.uniform(0.0, 20.0),
            zpl_window_ns=15.0,
            psb_rejection=bool(rng.integers(0, 2)),
        )
        hl = build_heralded(link)
        ref = fock_pipeline.interfere(link)
        assert ref["p_plus"] == pytest.approx(hl.p_plus, abs=1e-9), trial
        assert ref["p_minus"] == pytest.approx(hl.p_minus, abs=1e-9), trial
        assert np.allclose(ref["rho_plus"], hl.rho_plus.matrix * hl.p_plus, atol=1e-9)
        assert np.allclose(ref["rho_minus"], hl.rho_minus.matrix * hl.p_minus, atol=1e-9)
        assert ref["p_rejected"] == pytest.approx(hl.p_rejected, abs=1e-9)
        assert ref["p_double"] == pytest.approx(hl.p_double, abs=1e-9)
        if not link.psb_rejection:
            assert set(hl.flag_prob) == set(ref["flags"]), trial
            for key, val in hl.flag_prob.items():
                got = ref["flags"].get(key, 0.0) / (ref["p_plus"] + ref["p_minus"])
                assert got == pytest.approx(val, abs=1e-9)


def test_build_link_keyed_on_resolved_window():
    assert params.build_link(params.LINK_AB) is params.build_link(params.LINK_AB, window_ns=15.0)


@pytest.mark.parametrize(
    "pulse_ns, window, want",
    [
        ((5.0, 5.0), 10.0, (1, 1, 2)),  # one pulse: its tables at 15 ns and at 10 ns
        ((5.0, 5.0), 15.0, (1, 1, 1)),
        ((5.0, 6.0), 15.0, (2, 2, 2)),
    ],
)
def test_build_link_computes_each_pulse_once(monkeypatch, pulse_ns, window, want):
    # A node's emission and window tables follow from its pulse alone, so
    # nodes with equal pulses share them although their alphas differ.
    calls = dict.fromkeys(("calibrate_pulse", "solve_emission", "window_probabilities"), 0)
    for name in calls:
        def counted(*args, _f=getattr(emitter, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(emitter, name, counted)
    cfg = replace(params.LINK_AB, name=f"AB-{pulse_ns}-{window}", pulse_ns=pulse_ns)
    link = params.build_link(cfg, window_ns=window)
    assert tuple(calls.values()) == want
    shared = pulse_ns[0] == pulse_ns[1]
    assert (link.node1.emission is link.node2.emission) == shared
    assert (link.node1.windows is link.node2.windows) == shared
    assert link.node1.alpha != link.node2.alpha


def test_uncalibrated_window_rejected():
    # A window missing from a non-empty visibility table raises instead of
    # falling back to the reference window's visibility.
    with pytest.raises(photonics.PhotonicsError, match="12 ns"):
        params.build_link(params.LINK_AB, window_ns=12.0)
    # The message names the window as given, not rounded onto a calibrated one.
    message = r"a 15\.0000001 ns window \(have 15, 10, 7\.5 ns\)"
    with pytest.raises(photonics.PhotonicsError, match=message):
        params.build_link(params.LINK_AB, window_ns=15.0000001)
    # An empty table keeps the link's single visibility at every window.
    ideal = params.ideal_link_config()
    assert params.build_link(ideal, window_ns=12.0).visibility == ideal.visibility


def test_link_keeps_no_emitter_grid():
    # The emitter keeps no time grid: a built link's emissions hold three
    # floats and a closed-form solution of pulse, decay rate and horizon, so
    # the link cache holds well under 128 KiB per link.
    cfg = params.ideal_link_config("no-grid")
    for window in (15.0, 10.0):
        link = params.build_link(cfg, window_ns=window)
        for node in (link.node1, link.node2):
            sol = node.emission.solution
            assert (sol.gamma, sol.horizon) == (1.0 / params.LIFETIME_NS, params.GRID.horizon)
            assert all(np.ndim(v) == 0 for v in vars(sol.pulse).values())
    n = 3
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        links = [params.build_link(replace(cfg, name=f"no-grid-{i}")) for i in range(n)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(links) == n
    assert retained / n < 128 << 10


def test_heralded_link_collectable(link_ab):
    variant = replace(link_ab, psb_rejection=False)
    assert build_heralded(variant) is variant.heralded
    ref = weakref.ref(variant)
    del variant
    gc.collect()
    assert ref() is None
