import gc
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import hilbert as hb
from teleportsim import protocol as pt

from .oracles.analytic_states import StateOracle


@pytest.fixture(scope="module")
def noiseless():
    return pt.make_config(noiseless=True)


@pytest.fixture(scope="module")
def experiment():
    return pt.make_config("conditional")


def _ideal_bsm():
    return pt.BsmModel((1.0, 1.0), (1.0, 1.0), policy="all")


def _psi(sign, labels):
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = sign / math.sqrt(2)
    return hb.state_from_vector(v, (2, 2), labels)


def test_noiseless_identity_small(noiseless):
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        res = pt.run_teleportation_analytic(noiseless, v)
        assert res.fidelity >= 1 - 1e-9


def test_swap_perfect_bells_all_outcomes_and_signs():
    # Every Bell outcome and every herald-sign combination returns |Phi+>
    # after the frame correction; the teleported state is therefore
    # sign-independent.
    for s1 in (+1, -1):
        for s2 in (+1, -1):
            out = pt.entanglement_swap(
                _psi(s1, ("a", "m")), _psi(s2, ("cb", "cc")), _ideal_bsm(), (s1, s2)
            )
            assert len(out) == 4
            for _mc, prob, rho in out:
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert hb.fidelity(rho, hb.bell_state(("a", "n"), "phi+")) == pytest.approx(
                    1.0, abs=1e-9
                )


def test_swap_werner_closed_form():
    # Werner inputs with ideal measurement compose as
    # F = F1 F2 + (1 - F1)(1 - F2)/3, to 1e-9.
    rng = np.random.default_rng(4)
    for _ in range(5):
        f1, f2 = rng.uniform(0.3, 1.0, size=2)
        bell = hb.bell_state(("x", "y"), "psi+").matrix
        w1 = f1 * bell + (1 - f1) * np.eye(4) / 4
        w2 = f2 * bell + (1 - f2) * np.eye(4) / 4
        rho1 = hb.QuantumState((2, 2), ("a", "m"), w1)
        rho2 = hb.QuantumState((2, 2), ("cb", "cc"), w2)
        big_f1 = f1 + (1 - f1) / 4  # Bell fidelity of the mixture
        big_f2 = f2 + (1 - f2) / 4
        want = big_f1 * big_f2 + (1 - big_f1) * (1 - big_f2) / 3
        for _mc, _p, rho in pt.entanglement_swap(rho1, rho2, _ideal_bsm()):
            assert hb.fidelity(rho, hb.bell_state(("a", "n"), "phi+")) == pytest.approx(
                want, abs=1e-9
            )


def test_swap_full_noise_teleporter(experiment):
    f = pt.teleporter_fidelity(experiment)
    assert f == pytest.approx(0.61, abs=0.03)


def test_phase_corrections_cancel():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(0, 2000))
        phi = rng.uniform(0, 0.5)
        u = hb.rotation_z(n * phi) @ pt.phase_correction(n, phi)
        assert np.allclose(u / u[0, 0], np.eye(2), atol=1e-12)
    with pytest.raises(pt.ProtocolError):
        pt.phase_correction(-1, 0.1)


def test_uncompensated_phase_scrambles_coherence():
    # Stored |+> averaged over a uniform attempt count 1..1000 with the
    # pickup left uncorrected: coherence shrinks to the closed-form
    # |sum exp(i n phi)| / N.
    phi = 0.3
    ns = np.arange(1, 1001)
    expect = abs(np.exp(1j * phi * ns).sum()) / 1000
    plus = hb.qubit("m", hb.KET_PLUS)
    acc = np.zeros((2, 2), dtype=complex)
    for n in ns:
        acc += hb.apply_unitary(plus, hb.rotation_z(n * phi), ["m"]).matrix / 1000
    coh = 2 * abs(acc[0, 1])
    assert coh == pytest.approx(expect, abs=1e-12)
    assert coh < 0.01


def test_generate_link_geometric_oracle():
    hl = pt.build_heralded(pt.make_config("conditional").link_ab)
    p = 8.5e-4
    fake = replace(hl, p_plus=p / 2, p_minus=p / 2)
    rng = np.random.default_rng(11)
    draws = np.array([pt.generate_link(fake, 10**7, rng)[2] for _ in range(20000)])
    se = (1 / p) / math.sqrt(len(draws))
    assert abs(draws.mean() - 1 / p) < 3 * se


def test_generate_link_limits():
    hl = pt.build_heralded(pt.make_config(noiseless=True).link_ab)
    rng = np.random.default_rng(0)
    sure = replace(hl, p_plus=1.0, p_minus=0.0)
    assert pt.generate_link(sure, 10, rng)[2] == 1
    never = replace(hl, p_plus=0.0, p_minus=0.0)
    sign, rho, n = pt.generate_link(never, 50, rng)
    assert sign is None and rho is None and n == 50


def test_accept_probability_closed_form(noiseless):
    # Abort probability = 1 - product of the stage acceptance factors.
    cfg = replace(
        noiseless,
        bob_bsm=replace(noiseless.bob_bsm, accept_fraction=0.88, cr_pass=0.95),
        charlie_bsm=replace(
            noiseless.charlie_bsm, accept_fraction=0.88, cr_pass=0.95, policy="comm0"
        ),
    )
    res = pt.run_teleportation_analytic(cfg, "+z")
    p_bc = pt.build_heralded(cfg.link_bc).p_success
    p_timeout_ok = 1 - (1 - p_bc) ** cfg.timeout
    closed = p_timeout_ok * (0.88 * 0.95) ** 2 * 0.25
    assert res.accept_probability == pytest.approx(closed, abs=1e-6)


def test_message_bus_ordering():
    bus = pt.MessageBus()
    with pytest.raises(pt.ProtocolError):
        bus.receive("charlie", "alice")
    bus.send("charlie", "alice", bsm=(0, 1))
    bus.send("charlie", "alice", bsm=(1, 1))
    assert bus.receive("charlie", "alice")["bsm"] == (0, 1)
    assert bus.receive("charlie", "alice")["bsm"] == (1, 1)
    assert [m.payload["bsm"] for m in bus.log] == [(0, 1), (1, 1)]


def test_mc_shot_records(experiment):
    rng = np.random.default_rng(5)
    seen_abort = set()
    for _ in range(400):
        out = pt.run_teleportation_shot(experiment, "+x", rng)
        if out.aborted:
            seen_abort.add(out.aborted)
        else:
            assert out.rho is not None
            assert out.bsm_bob is not None and out.bsm_charlie is not None
            assert out.attempts_bc <= experiment.timeout
            assert out.duration_s > 0
    assert "bc_timeout" in seen_abort


def test_mc_matches_analytic(experiment):
    rng = np.random.default_rng(21)
    fids = []
    for _ in range(25000):
        out = pt.run_teleportation_shot(experiment, "+y", rng)
        if out.aborted is None:
            fids.append(out.fidelity)
    fids = np.array(fids)
    se = fids.std(ddof=1) / math.sqrt(len(fids))
    ana = pt.run_teleportation_analytic(experiment, "+y").fidelity
    assert abs(fids.mean() - ana) < 4 * se


def test_per_outcome_ordering(experiment):
    table = pt.per_bsm_outcome_fidelity(experiment)
    assert table[(0, 0)] > table[(0, 1)]
    assert table[(1, 0)] > table[(1, 1)]


def test_per_outcome_symmetric_readout_spread(experiment):
    sym = replace(
        experiment,
        charlie_bsm=replace(
            experiment.charlie_bsm, comm_fidelities=(0.955, 0.955), memory_fidelities=(0.98, 0.98)
        ),
    )
    table = pt.per_bsm_outcome_fidelity(sym)
    vals = list(table.values())
    assert max(vals) - min(vals) < 0.005


def test_no_feedforward(noiseless, experiment):
    assert pt.no_feedforward_fidelity(noiseless) == pytest.approx(0.5, abs=1e-9)
    assert pt.no_feedforward_fidelity(experiment) == pytest.approx(0.50, abs=0.01)


def test_unconditional_below_conditional(experiment):
    uncond = pt.make_config("unconditional")
    diff = pt.average_fidelity(experiment) - pt.average_fidelity(uncond)
    assert 0.01 <= diff <= 0.05


def test_tomography_estimator():
    rng = np.random.default_rng(8)
    rho = hb.qubit("alice", hb.KET0)
    assert pt.tomography(rho, "+z", (1.0, 1.0), rng, shots=100) == pytest.approx(1.0)
    mixed = hb.maximally_mixed("alice")
    est = pt.tomography(mixed, "+x", (0.93, 0.995), rng, shots=200000)
    assert est == pytest.approx(0.5, abs=0.01)


def test_tomography_unbiased_at_true_fidelity():
    rng = np.random.default_rng(9)
    target = hb.CARDINAL_STATES["+x"]
    rho = hb.QuantumState((2,), ("alice",), 0.7 * np.outer(target, target.conj()) + 0.3 * np.eye(2) / 2)
    true_f = hb.fidelity(rho, target)
    est = pt.tomography(rho, "+x", (0.93, 0.995), rng, shots=100000)
    slope = 0.93 + 0.995 - 1
    se = math.sqrt(0.25 / 100000) / slope
    assert abs(est - true_f) < 3 * se


def test_bad_config_rejected():
    with pytest.raises(pt.ProtocolError):
        pt.make_config("sideways")
    with pytest.raises(pt.ProtocolError):
        pt.BsmModel((1, 1), (1, 1), policy="whenever")
    with pytest.raises(pt.ProtocolError):
        pt.make_config(noiseless=True, timeout=0)
    with pytest.raises(pt.ProtocolError):
        pt.make_config(noiseless=True, frame_bob="diagonal")


@pytest.mark.filterwarnings("error")
def test_bad_input_vectors_rejected(noiseless):
    # Vectors that are no qubit state fail with an error naming the input,
    # not with a numpy warning and a misleading check further on; finite
    # vectors run whatever their scale.
    for vec in ([0, 0], [np.nan, 1], [1, np.inf], [-np.inf, 1j], [1, 0, 0], []):
        with pytest.raises(pt.ProtocolError, match="input vector"):
            pt.run_teleportation_analytic(noiseless, vec)
    for vec in ([1e308, 1e308j], [1e-320, 0], [3, 4j]):
        assert pt.run_teleportation_analytic(noiseless, vec).fidelity >= 1 - 1e-9


def _same_teleporter(a, b) -> bool:
    return all(
        np.array_equal(getattr(x, f.name), getattr(y, f.name))
        for x, y in ((a, b), (a.averages, b.averages))
        for f in fields(x)
        if f.name != "averages"
    )


def test_teleporter_fields():
    # A field outside ``TELEPORTER_FIELDS`` leaves the prepared teleporter
    # bit-identical, so ``replace_config`` may share it; one inside it
    # prepares a new one.
    cfg = pt.make_config("conditional", timeout=300)
    outside = {
        "charlie_bsm": replace(cfg.charlie_bsm, comm_fidelities=(0.9, 0.8), policy="all"),
        "ionization_alice": 0.2,
        "prep_init_error": 0.05,
        "prep_pulse_error": 0.07,
        "ab_cap": 17,
        "phase_a_rad": 0.7,
        "phase_b_rad": 0.3,
        "alice_readout": (0.8, 0.7),
    }
    assert {f.name for f in fields(pt.ProtocolConfig)} - pt.TELEPORTER_FIELDS == outside.keys()
    for name, value in outside.items():
        fresh = replace(cfg, **{name: value}).teleporter
        assert fresh is not cfg.teleporter and _same_teleporter(fresh, cfg.teleporter), name
        assert pt.replace_config(cfg, **{name: value}).teleporter is cfg.teleporter
    changed = pt.replace_config(cfg, ionization_alice=0.2, timeout=301)
    assert changed.teleporter is not cfg.teleporter
    assert not _same_teleporter(changed.teleporter, cfg.teleporter)


def test_config_collectable_after_analytic_run():
    cfg = pt.make_config("conditional", timeout=200)
    pt.run_teleportation_analytic(cfg, "+x")
    assert cfg.teleporter is cfg.teleporter
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None


def test_attempt_averages_match_per_attempt_channels():
    # Loop reference: one decoupling channel per attempt count, its Pauli
    # weights read back from the Kraus operators.
    cfg = pt.make_config("unconditional", bar_on=False, timeout=40)
    qa = cfg.teleporter.averages
    p = pt.build_heralded(cfg.link_bc).p_success
    alice0 = np.zeros(4)
    alice1 = np.zeros(4)
    total = 0.0
    for q in range(1, cfg.timeout + 1):
        w = p * (1.0 - p) ** (q - 1)
        ch = cfg.alice_channel(2.0 * q * cfg.attempt_period_s + cfg.alice_total_overhead_s)
        c = np.array(
            [sum(abs(np.trace(s.conj().T @ k)) ** 2 / 4.0 for k in ch.kraus) for s in hb.PAULIS]
        )
        alice0 += w * c
        alice1 += w * c * cfg.memory_fit.decay_factor(q)
        total += w
    assert qa.p_success == pytest.approx(total, rel=1e-12)
    assert np.allclose(qa.alice0, alice0 / total, rtol=0.0, atol=1e-12)
    assert np.allclose(qa.alice1, alice1 / total, rtol=0.0, atol=1e-12)


ORACLE_GRID = [
    (mode, bar, timeout)
    for mode in ("conditional", "unconditional")
    for bar in (True, False)
    for timeout in (100, 1000, 3000)
]


@pytest.mark.parametrize("mode,bar,timeout", ORACLE_GRID)
def test_analytic_matches_state_oracle(mode, bar, timeout):
    # Every result field, under the config's own policy and under "all", one
    # input at a time and as the stacked six-state batch, and Alice's state
    # for every assigned outcome with and without her correction, against
    # the branch-by-branch reference, to 1e-12.
    cfg = pt.make_config(mode, bar_on=bar, timeout=timeout)
    ref = StateOracle(cfg)
    everything = replace(cfg, charlie_bsm=replace(cfg.charlie_bsm, policy="all"))
    close = dict(rel=1e-12, abs=1e-12)
    batches = {policy: pt.six_state_results(c) for c, policy in ((cfg, None), (everything, "all"))}
    inputs, _targets = pt._cardinal_inputs(cfg)
    stacks = {correct: pt._alice_states(cfg, inputs, correct=correct) for correct in (True, False)}
    for n, which in enumerate(hb.CARDINAL_STATES):
        for c, policy in ((cfg, None), (everything, "all")):
            want = ref.result(which, policy)
            for res in (pt.run_teleportation_analytic(c, which), batches[policy][which]):
                assert np.allclose(res.rho.matrix, want["rho"], rtol=0.0, atol=1e-12)
                for name in (
                    "fidelity", "accept_probability", "teleporter_fidelity", "swap_fidelity",
                    "bob_accept_weight", "mean_attempts_bc",
                ):
                    assert getattr(res, name) == pytest.approx(want[name], **close), name
                assert res.per_outcome.keys() == want["per_outcome"].keys()
                for mc, (w, f) in want["per_outcome"].items():
                    assert res.per_outcome[mc] == pytest.approx((w, f), **close)
        for correct, alice in stacks.items():
            want = ref.alice_states(which, feed_forward=correct)
            for k, mc in enumerate(pt.BELL_OUTCOMES):
                assert np.allclose(alice[n, k], want[mc], rtol=0.0, atol=1e-12)
    table = pt.per_bsm_outcome_fidelity(cfg)
    for mc in pt.BELL_OUTCOMES:
        want = np.mean([ref.result(w, "all")["per_outcome"][mc][1] for w in hb.CARDINAL_STATES])
        assert table[mc] == pytest.approx(want, **close)
    no_ff = np.mean(
        [ref.result(w, "all", feed_forward=False)["fidelity"] for w in hb.CARDINAL_STATES]
    )
    assert pt.no_feedforward_fidelity(cfg) == pytest.approx(no_ff, **close)


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho * rng.uniform(0.1, 2.0) / np.trace(rho).real


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outer=st.sampled_from([(2, 2), (2, 1), (1, 2), (3, 2)]))
def test_bell_outcomes_positive_and_complete(seed, outer):
    # Each true outcome leaves a positive outer state, and the four traces
    # add up to tr(left) tr(right): the Bell basis is complete.
    rng = np.random.default_rng(seed)
    da, db = outer
    left, right = _random_density(rng, 2 * da), _random_density(rng, 2 * db)
    out = pt._bell_outcomes(left, right)
    assert out.shape == (4, da * db, da * db)
    for state in out:
        assert np.allclose(state, state.conj().T, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(state).min() >= -1e-12
    total = np.trace(out, axis1=1, axis2=2).sum()
    assert total == pytest.approx(np.trace(left).real * np.trace(right).real, rel=1e-12)


@pytest.mark.parametrize("timeout", [100, 1000, 3000])
def test_truncated_geometric_sums_match_full_sum(timeout):
    # Blocked and cut-off sums against one array as long as the timeout.
    for p in (1e-4, 8.5e-4, 3e-3, 0.05, 0.5):
        qs = np.arange(1, timeout + 1, dtype=float)
        pmf = p * (1.0 - p) ** (qs - 1)
        def terms(q):
            return np.column_stack([q, np.sqrt(q)])

        mass, sums = pt.truncated_geometric_sums(p, timeout, terms)
        assert mass == pytest.approx(pmf.sum(), rel=1e-12)
        assert np.allclose(sums, pmf @ terms(qs), rtol=1e-12, atol=0.0)
    mass, sums = pt.truncated_geometric_sums(1.0, timeout, lambda q: q[:, None])
    assert mass == 1.0 and sums[0] == 1.0
    with pytest.raises(pt.ProtocolError):
        pt.truncated_geometric_sums(0.0, timeout, lambda q: q[:, None])


def test_truncated_geometric_sums_bounded_work():
    # A timeout far beyond where the tail is negligible sums only up to that
    # point, and a sum that would need more than 1e7 attempts is refused
    # instead of running for hours (the ideal link heralds with p ~ 1e-13).
    mass, _ = pt.truncated_geometric_sums(1e-3, 2**70, lambda q: q[:, None])
    assert mass == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(pt.ProtocolError, match="lower the timeout"):
        pt.truncated_geometric_sums(1e-13, 2**70, lambda q: q[:, None])
    with pytest.raises(pt.ProtocolError, match="lower the timeout"):
        pt.run_teleportation_analytic(pt.make_config(noiseless=True, timeout=2**70), "+z")


def test_long_timeout_bounded_memory():
    # A timeout of 1e6 attempts allocates no array of that length (one
    # would take about 120 MB).
    cfg = pt.make_config("conditional", timeout=10**6)
    tracemalloc.start()
    try:
        res = pt.run_teleportation_analytic(cfg, "+x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    p = pt.build_heralded(cfg.link_bc).p_success
    assert res.mean_attempts_bc == pytest.approx(1.0 / p, rel=1e-9)


unit = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    prep=st.tuples(st.floats(0.0, 0.5), unit),
    ionization=unit,
    store=st.tuples(unit, unit),
    timeout=st.integers(1, 3000),
    mode=st.sampled_from(["conditional", "unconditional"]),
    bar=st.booleans(),
)
def test_stacked_inputs_property(prep, ionization, store, timeout, mode, bar):
    # Over random noise and timeouts: every per-outcome Alice state of the
    # stack is Hermitian and positive, each input's four traces add up to
    # Bob's accepted weight, and the six-state batch equals six single runs.
    cfg = pt.make_config(
        mode, bar_on=bar, timeout=timeout, prep_init_error=prep[0], prep_pulse_error=prep[1],
        ionization_alice=ionization, store_depol_bob=store[0], store_depol_charlie=store[1],
    )
    inputs, _targets = pt._cardinal_inputs(cfg)
    for correct in (True, False):
        alice = pt._alice_states(cfg, inputs, correct=correct)
        assert alice.shape == (6, 4, 2, 2)
        assert np.abs(alice - alice.conj().swapaxes(-1, -2)).max() <= 1e-12
        assert np.linalg.eigvalsh(alice).min() >= -1e-12
        traces = np.trace(alice, axis1=-2, axis2=-1).real.sum(axis=1)
        assert np.allclose(traces, cfg.teleporter.bob_weight, rtol=0.0, atol=1e-12)
    batch = pt.six_state_results(cfg)
    assert list(batch) == list(hb.CARDINAL_STATES)
    for which, res in batch.items():
        one = pt.run_teleportation_analytic(cfg, which)
        assert np.allclose(res.rho.matrix, one.rho.matrix, rtol=0.0, atol=1e-13)
        for name in ("fidelity", "accept_probability"):
            assert getattr(res, name) == pytest.approx(getattr(one, name), rel=1e-13, abs=1e-13)
        assert res.per_outcome.keys() == one.per_outcome.keys()
        for mc, (w, f) in one.per_outcome.items():
            assert res.per_outcome[mc] == pytest.approx((w, f), rel=1e-13, abs=1e-13)
