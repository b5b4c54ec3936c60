import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleportsim import hilbert as hb
from teleportsim import params, spin_noise as sn

from .oracles import bar_paths

MEM_FIT = sn.DecayFit(**params.MEMORY_FITS["attempts_decoupled"], offset=0.0)
MEM_BARE = sn.DecayFit(**params.MEMORY_FITS["attempts_bare"], offset=0.0)


def _fit(node, family):
    d = params.DECOUPLING_FITS[node][family]
    return sn.DecayFit(d["amplitude"], d["scale"], d["stretch"], offset=0.5)


def test_memory_dephasing_identity_at_zero():
    ch = sn.memory_dephasing_channel(0, MEM_FIT)
    plus = hb.qubit("m", hb.KET_PLUS)
    out = hb.apply_channel(plus, ch, ["m"])
    assert np.allclose(out.matrix, plus.matrix, atol=1e-12)


def test_memory_bloch_length_reproduces_fit():
    # Stored |+>: one-time storage event plus attempt-count dephasing gives
    # Bloch length A * exp(-(n/N)**s) to 1e-6 on a 20-point grid.
    plus = hb.qubit("m", hb.KET_PLUS)
    stored = hb.apply_channel(plus, sn.storage_event_channel(MEM_FIT), ["m"])
    for n in np.linspace(0, 6000, 20):
        out = hb.apply_channel(stored, sn.memory_dephasing_channel(n, MEM_FIT), ["m"])
        b = np.linalg.norm(hb.bloch_vector(out))
        assert b == pytest.approx(MEM_FIT.value(n), abs=1e-6)


def test_memory_scale_definition():
    plus = hb.qubit("m", hb.KET_PLUS)
    out = hb.apply_channel(plus, sn.memory_dephasing_channel(MEM_FIT.scale, MEM_FIT), ["m"])
    assert hb.bloch_vector(out)[0] == pytest.approx(1 / math.e, abs=1e-6)


def test_memory_decoupled_beats_bare():
    n = 1000
    assert MEM_FIT.value(n) / MEM_FIT.amplitude > MEM_BARE.value(n) / MEM_BARE.amplitude
    assert MEM_FIT.scale / MEM_BARE.scale > 6.0


def test_memory_channel_factor_semigroup():
    # Dephasing channels compose multiplicatively in the coherence factor;
    # the protocol must therefore always evaluate the fit at cumulative
    # attempt counts instead of composing increments.
    for l1, l2 in ((0.9, 0.7), (0.99, 0.3), (1.0, 0.5)):
        a = sn.dephasing_from_factor(l1)
        b = sn.dephasing_from_factor(l2)
        plus = hb.qubit("m", hb.KET_PLUS)
        seq = hb.apply_channel(hb.apply_channel(plus, a, ["m"]), b, ["m"])
        once = hb.apply_channel(plus, sn.dephasing_from_factor(l1 * l2), ["m"])
        assert np.allclose(seq.matrix, once.matrix, atol=1e-9)


def test_decoupling_channel_matches_fits():
    for node in ("alice", "bob", "charlie"):
        eig, sup = _fit(node, "eigen"), _fit(node, "super")
        for t in np.linspace(0.0, 1.0, 20):
            ch = sn.decoupling_channel(t, eig, sup)
            assert ch.is_cptp()
            f_eig = hb.fidelity(hb.apply_channel(hb.qubit("q", hb.KET0), ch, ["q"]), hb.KET0)
            f_sup = hb.fidelity(
                hb.apply_channel(hb.qubit("q", hb.KET_PLUS), ch, ["q"]), hb.KET_PLUS
            )
            assert f_eig == pytest.approx(eig.value(t), abs=1e-6)
            assert f_sup == pytest.approx(sup.value(t), abs=1e-6)


def test_decoupling_limits():
    eig, sup = _fit("alice", "eigen"), _fit("alice", "super")
    ch0 = sn.decoupling_channel(0.0, eig, sup)
    f_eig = hb.fidelity(hb.apply_channel(hb.qubit("q", hb.KET0), ch0, ["q"]), hb.KET0)
    f_sup = hb.fidelity(hb.apply_channel(hb.qubit("q", hb.KET_PLUS), ch0, ["q"]), hb.KET_PLUS)
    assert f_eig == pytest.approx(0.9930, abs=1e-4)
    assert f_sup == pytest.approx(0.9889, abs=1e-4)
    ch_tau = sn.decoupling_channel(eig.scale, eig, sup)
    f = hb.fidelity(hb.apply_channel(hb.qubit("q", hb.KET0), ch_tau, ["q"]), hb.KET0)
    assert f == pytest.approx(eig.amplitude / math.e + 0.5, abs=1e-6)
    ch_inf = sn.decoupling_channel(50.0, eig, sup)
    f = hb.fidelity(hb.apply_channel(hb.qubit("q", hb.KET0), ch_inf, ["q"]), hb.KET0)
    assert f == pytest.approx(0.5, abs=1e-3)


def test_decoupling_infeasible_pair_rejected():
    eig = sn.DecayFit(0.05, 1.0, 1.0, offset=0.5)
    sup = sn.DecayFit(0.49, 1.0, 1.0, offset=0.5)
    with pytest.raises(sn.SpinNoiseError):
        sn.decoupling_channel(0.0, eig, sup)


_PAULI_WEIGHTS = st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda v: sum(v) > 0)

_CHANNELS = st.one_of(
    st.floats(0.0, 1.0).map(sn.depolarizing),
    st.floats(-1.0, 1.0).map(sn.dephasing_from_factor),
    _PAULI_WEIGHTS.map(lambda v: hb.pauli_channel(*(np.array(v[1:]) / sum(v)))),
    st.floats(0.0, 5.0).map(
        lambda t: sn.decoupling_channel(t, _fit("alice", "eigen"), _fit("alice", "super"))
    ),
)


@settings(max_examples=300, deadline=None)
@given(ch=_CHANNELS)
def test_channels_are_cptp_property(ch):
    # Trace preserving: sum K^dag K = I.  Completely positive: the Choi
    # matrix, the channel applied to half of |phi+>, has no negative
    # eigenvalue.
    completeness = sum(k.conj().T @ k for k in ch.kraus)
    assert np.max(np.abs(completeness - np.eye(2))) <= 1e-12
    choi = hb.apply_channel(hb.bell_state(("ref", "q")), ch, ["q"]).matrix
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


_FIDELITY_FITS = st.builds(
    lambda a, scale, stretch: sn.DecayFit(a, scale, stretch, offset=0.5),
    st.floats(0.01, 0.5),
    st.floats(0.01, 2.0),
    st.floats(0.3, 3.0),
)


@settings(max_examples=200, deadline=None)
@given(
    eig=_FIDELITY_FITS,
    sup=_FIDELITY_FITS,
    ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
)
def test_decoupling_weights_match_channel(eig, sup, ts):
    # Realizability from the fits alone: the Z weight (1 + lz - 2 lxy) / 4 of
    # the Pauli-diagonal channel must not be negative at any t.
    lz = np.array([2.0 * eig.value(t) - 1.0 for t in ts])
    lxy = np.array([2.0 * sup.value(t) - 1.0 for t in ts])
    margin = ((1.0 + lz - 2.0 * lxy) / 4.0).min()
    assume(not -1e-9 < margin < 0.0)
    if margin < 0.0:
        with pytest.raises(sn.SpinNoiseError):
            sn.decoupling_weights(np.array(ts), eig, sup)
        return
    w = sn.decoupling_weights(np.array(ts), eig, sup)
    assert w.shape == (len(ts), 4)
    for t, row, z, xy in zip(ts, w, lz, lxy):
        # Pauli weights read back from the channel's Kraus operators.
        ch = sn.decoupling_channel(t, eig, sup)
        from_kraus = [
            sum(abs(np.trace(s.conj().T @ k)) ** 2 / 4.0 for k in ch.kraus) for s in hb.PAULIS
        ]
        assert np.allclose(row, from_kraus, rtol=0.0, atol=1e-12)
        assert np.allclose(sn.decoupling_weights(t, eig, sup), row, rtol=0.0, atol=1e-12)
        # Bloch scalings along Z and transverse reproduce the two fits.
        i, x, y, zz = row
        assert i + zz - x - y == pytest.approx(z, abs=1e-12)
        assert i + x - y - zz == pytest.approx(xy, abs=1e-12)


def test_decoupling_weights_reject_negative_time():
    with pytest.raises(sn.SpinNoiseError):
        sn.decoupling_weights(np.array([0.1, -0.1]), _fit("alice", "eigen"), _fit("alice", "super"))


def test_bar_perfect_readout():
    rng = np.random.default_rng(0)
    perfect = sn.ReadoutParams(comm_fidelities=(1.0, 1.0))
    res = sn.bar_readout(hb.qubit("m", hb.KET0), 2, perfect, rng)
    assert res.assigned == 0 and res.consistent
    assert res.pattern == (0, 1)
    f, acc = sn.bar_model_curves(perfect, 5)
    assert np.allclose(f, 1.0) and np.allclose(acc, 1.0)


def test_bar_monotonicity():
    # Double-flip paths can revive consistent-but-wrong patterns at high
    # repetition counts; the dip sits at the 1e-5 level, far below anything
    # observable, so monotonicity is asserted at that tolerance.
    f, acc = sn.bar_model_curves(params.readout_params("bob"), 5)
    assert np.all(np.diff(f) >= -2e-5)
    assert np.all(np.diff(acc) <= 1e-12)


def test_bar_matches_sampling():
    # The exact model equals the sampled readout statistics within three
    # standard errors at 1e5 shots.
    rng = np.random.default_rng(11)
    pars = params.readout_params("bob")
    f, acc = sn.bar_model_curves(pars, 2)
    n = 100_000
    ok = cons = 0
    for i in range(n):
        m0 = i % 2
        ket = hb.KET0 if m0 == 0 else hb.KET1
        res = sn.bar_readout(hb.qubit("m", ket), 2, pars, rng)
        if res.consistent:
            cons += 1
            ok += res.assigned == m0
    se_acc = math.sqrt(acc[1] * (1 - acc[1]) / n)
    assert abs(cons / n - acc[1]) < 3 * se_acc
    se_f = math.sqrt(f[1] * (1 - f[1]) / cons)
    assert abs(ok / cons - f[1]) < 3 * se_f


def _bar_readout_scalar_draws(memory, reps, pars, rng):
    """Reference readout: one scalar uniform per decision, in the sampler's order."""
    m = int(rng.uniform() < memory.normalized().matrix[1, 1].real)
    f0, f1 = pars.comm_fidelities
    pattern = []
    for k in range(1, reps + 1):
        if rng.uniform() < pars.flip_pre:
            m = 1 - m
        comm = m if k % 2 == 1 else 1 - m
        if rng.uniform() < pars.map_error:
            comm = 1 - comm
        if comm == 0:
            bit = 0 if rng.uniform() < f0 else 1
        else:
            bit = 1 if rng.uniform() < f1 else 0
        pattern.append(bit)
        if rng.uniform() < pars.flip_post:
            m = 1 - m
    expected = [pattern[0] if k % 2 == 1 else 1 - pattern[0] for k in range(1, reps + 1)]
    return pattern[0], tuple(pattern), pattern == expected


def _plain(state):
    """A bit generator's state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
def test_bar_readout_draws_match_scalar_draws(bit_generator):
    # The sampler draws its 1 + 4 reps uniforms in one call: the same values
    # as scalar draws, and the generator is left in the same state.
    prm = np.random.default_rng(2022)
    states = [hb.qubit("m", ket) for ket in (hb.KET0, hb.KET1, hb.KET_PLUS, hb.KET_MINUS_I)]
    for i in range(200):
        f0, f1, map_error, flip_pre, flip_post = prm.uniform(0.0, 1.0, 5)
        pars = sn.ReadoutParams((f0, f1), map_error, flip_pre, flip_post)
        reps = 1 + i % 5
        memory = states[i % len(states)]
        seed = int(prm.integers(2**32))
        rng, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        res = sn.bar_readout(memory, reps, pars, rng)
        assert (res.assigned, res.pattern, res.consistent) == _bar_readout_scalar_draws(
            memory, reps, pars, ref
        )
        assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)


def test_bar_rejects_bad_reps():
    bob = params.readout_params("bob")
    for max_reps in (6, 0, -1, 2.0, True, "2", None):
        with pytest.raises(sn.SpinNoiseError, match="repetition count"):
            sn.bar_model_curves(bob, max_reps)
    for reps in (0, -1, 2.0, True, "2", None):
        with pytest.raises(sn.SpinNoiseError, match="repetition count"):
            sn.bar_readout(hb.qubit("m", hb.KET0), reps, bob, np.random.default_rng(0))


@pytest.mark.parametrize(
    "fields",
    [
        {"comm_fidelities": (0.9,)},
        {"comm_fidelities": (0.9, 0.9, 0.9)},
        {"comm_fidelities": 0.9},
        {"comm_fidelities": (0.9, 0.9), "memory_effective": (0.99,)},
        {"comm_fidelities": (0.9, 0.9), "memory_effective": ()},
    ],
)
def test_readout_params_need_pairs(fields):
    with pytest.raises(sn.SpinNoiseError, match="pairs"):
        sn.ReadoutParams(**fields)


def _assert_matches_paths(r, reps):
    # The forward pass equals the 16**reps path enumeration, and the first
    # block gives the single-readout fidelities.
    f, acc = sn.bar_model_curves(r, reps)
    f_ref, acc_ref = bar_paths.enumerated_curves(r, reps)
    assert np.max(np.abs(f - f_ref)) <= 1e-12
    assert np.max(np.abs(acc - acc_ref)) <= 1e-12
    single = np.subtract(sn.single_readout_fidelities(r), bar_paths.first_block_fidelities(r))
    assert np.max(np.abs(single)) <= 1e-15


@pytest.mark.parametrize("node", ["bob", "charlie"])
def test_bar_model_matches_path_enumeration(node):
    _assert_matches_paths(params.readout_params(node), 4)


# Probabilities of 0, 1 or at least 1e-6, so that no path product underflows.
_PROB = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-6, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    f0=_PROB, f1=_PROB, map_error=_PROB, flip_pre=_PROB, flip_post=_PROB,
    reps=st.integers(1, 3),
)
def test_bar_model_matches_path_enumeration_property(f0, f1, map_error, flip_pre, flip_post, reps):
    r = sn.ReadoutParams(
        comm_fidelities=(f0, f1), map_error=map_error, flip_pre=flip_pre, flip_post=flip_post
    )
    _assert_matches_paths(r, reps)


def test_prepare_input_state_ideal():
    for which in hb.CARDINAL_STATES:
        rho = sn.prepare_input_state(which, 0.0, 0.0)
        assert hb.fidelity(rho, hb.CARDINAL_STATES[which]) == pytest.approx(1.0, abs=1e-12)


def test_prepare_input_state_average_fidelity():
    fids = [
        hb.fidelity(
            sn.prepare_input_state(w, params.PREP_INIT_ERROR, params.PREP_PULSE_ERROR),
            hb.CARDINAL_STATES[w],
        )
        for w in hb.CARDINAL_STATES
    ]
    assert np.mean(fids) == pytest.approx(0.995, abs=1e-3)


def test_prepared_inputs_match_depolarizing_channel():
    # The closed form against the Kraus sum of ``depolarizing`` applied to
    # the rotated initialized state, for every cardinal state.
    names = tuple(hb.CARDINAL_STATES)
    for p_init, p_mw in ((0.0, 0.0), (0.01, 0.02), (0.3, 0.9), (1.0, 1.0)):
        stack = sn.prepared_inputs(names, p_init, p_mw)
        assert stack.shape == (6, 2, 2)
        for which, rho in zip(names, stack):
            psi = np.outer(hb.CARDINAL_STATES[which], hb.CARDINAL_STATES[which].conj())
            want = hb.QuantumState((2,), ("q",), (1 - p_init) * psi + p_init * (np.eye(2) - psi))
            if which != "+z":
                want = hb.apply_channel(want, sn.depolarizing(p_mw), ["q"])
            assert np.allclose(rho, want.matrix, rtol=0.0, atol=1e-15)
            single = sn.prepare_input_state(which, p_init, p_mw)
            assert np.array_equal(single.matrix, rho)
    with pytest.raises(sn.SpinNoiseError):
        sn.prepared_inputs(("+z", "+w"), 0.0, 0.0)
    for p_init, p_mw in ((-0.1, 0.0), (0.0, 1.5), (np.nan, 0.0)):
        with pytest.raises(sn.SpinNoiseError):
            sn.prepared_inputs(("+x",), p_init, p_mw)


def test_prepare_plus_z_init_only():
    # +z needs no microwave pulse: fidelity is 1 - p_init exactly (population
    # transfer coefficient 1, checked against direct matrix evaluation).
    p_init = 0.01
    rho = sn.prepare_input_state("+z", p_init, 0.5)
    direct = np.diag([1 - p_init, p_init])
    assert np.allclose(rho.matrix, direct, atol=1e-12)
    assert hb.fidelity(rho, hb.KET0) == pytest.approx(1 - p_init, abs=1e-12)


def test_depolarizing_limits():
    rho = hb.qubit("q", hb.KET0)
    assert np.allclose(hb.apply_channel(rho, sn.depolarizing(0.0), ["q"]).matrix, rho.matrix)
    assert np.allclose(
        hb.apply_channel(rho, sn.depolarizing(1.0), ["q"]).matrix, np.eye(2) / 2
    )


def test_depolarizing_half_bell_closed_form():
    # Depolarizing one side of a Bell pair with p leaves fidelity 1 - 3p/4.
    bell = hb.bell_state(("a", "b"), "psi+")
    for p in (0.12, 0.14, 0.5):
        out = hb.apply_channel(bell, sn.depolarizing(p), ["b"])
        assert hb.fidelity(out, bell) == pytest.approx(1 - 0.75 * p, abs=1e-12)


def test_ionization_event_statistics():
    rng = np.random.default_rng(5)
    n = 200_000
    hits = sum(sn.ionization_event(0.007, rng) for _ in range(n))
    assert abs(hits / n - 0.007) < 3 * math.sqrt(0.007 * 0.993 / n)


def test_channels_are_cptp():
    for ch in (
        sn.memory_dephasing_channel(500, MEM_FIT),
        sn.depolarizing(0.12),
        sn.storage_event_channel(MEM_FIT),
        sn.decoupling_channel(0.01, _fit("bob", "eigen"), _fit("bob", "super")),
    ):
        assert ch.is_cptp()
