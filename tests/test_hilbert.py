import numpy as np
import pytest

from teleportsim import hilbert as hb


def test_tensor_computational_basis():
    s0 = hb.qubit("a", hb.KET0)
    s1 = hb.qubit("b", hb.KET1)
    joint = hb.tensor(s0, s1)
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(joint.matrix, expect)
    assert joint.labels == ("a", "b")


def test_tensor_then_partial_trace_recovers_factor():
    rng = np.random.default_rng(7)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho = hb.state_from_vector(v / np.linalg.norm(v), (2,), ("a",))
    joint = hb.tensor(rho, hb.maximally_mixed("b"))
    back = hb.partial_trace(joint, ["a"])
    assert np.allclose(back.matrix, rho.matrix, atol=1e-12)


def test_tensor_duplicate_label_rejected():
    with pytest.raises(hb.HilbertError):
        hb.tensor(hb.qubit("a", hb.KET0), hb.qubit("a", hb.KET1))


def test_tensor_bell_with_ancilla_fidelity():
    bell = hb.bell_state(("a", "b"), "phi+")
    joint = hb.tensor(bell, hb.qubit("c", hb.KET0))
    target = np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), hb.KET0)
    assert hb.fidelity(joint, target) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_of_bell_is_mixed():
    bell = hb.bell_state(("a", "b"), "phi+")
    red = hb.partial_trace(bell, ["b"])
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keep_order():
    s = hb.tensor(hb.qubit("a", hb.KET0), hb.qubit("b", hb.KET1))
    flipped = hb.partial_trace(s, ["b", "a"])
    assert flipped.labels == ("b", "a")
    expect = np.zeros((4, 4))
    expect[2, 2] = 1.0  # |1>_b |0>_a
    assert np.allclose(flipped.matrix, expect)


def test_partial_trace_unknown_label():
    with pytest.raises(hb.HilbertError):
        hb.partial_trace(hb.qubit("a", hb.KET0), ["nope"])


def test_identity_channel_is_noop():
    ch = hb.Channel((hb.ID2,))
    rho = hb.qubit("a", hb.KET_PLUS)
    out = hb.apply_channel(rho, ch, ["a"])
    assert np.allclose(out.matrix, rho.matrix)


def test_full_depolarizing_gives_mixed():
    ch = hb.pauli_channel(0.25, 0.25, 0.25)
    out = hb.apply_channel(hb.qubit("a", hb.KET0), ch, ["a"])
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_dephasing_half_kills_coherence():
    # p=0.5 phase flip zeroes the off-diagonals of |+><+|.
    ch = hb.pauli_channel(0.0, 0.0, 0.5)
    out = hb.apply_channel(hb.qubit("a", hb.KET_PLUS), ch, ["a"])
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_channel_on_one_qubit_of_pair():
    bell = hb.bell_state(("a", "b"), "phi+")
    out = hb.apply_channel(bell, hb.pauli_channel(0.25, 0.25, 0.25), ["b"])
    assert out.weight == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


def test_channel_completeness_enforced():
    bad = (np.sqrt(0.5) * hb.ID2,)
    with pytest.raises(hb.HilbertError):
        hb.Channel(bad)


def test_fidelity_bell():
    bell = hb.bell_state(("a", "b"), "phi+")
    assert hb.fidelity(bell, bell) == pytest.approx(1.0)
    mixed = hb.QuantumState((2, 2), ("a", "b"), np.eye(4) / 4)
    assert hb.fidelity(mixed, bell) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_werner_closed_form():
    # Werner state fidelity to the Bell target is p + (1-p)/4; checked by
    # direct matrix evaluation for a sweep of p.
    bell = hb.bell_state(("a", "b"), "phi+")
    for p in (0.0, 0.3, 0.7, 1.0):
        m = p * bell.matrix + (1 - p) * np.eye(4) / 4
        w = hb.QuantumState((2, 2), ("a", "b"), m)
        assert hb.fidelity(w, bell) == pytest.approx(p + (1 - p) / 4, abs=1e-12)


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(3)
    bell = hb.bell_state(("a", "b"), "phi+")
    for _ in range(20):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        rho = hb.QuantumState((2, 2), ("a", "b"), u @ (0.6 * bell.matrix + 0.1 * np.eye(4)) @ u.conj().T)
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        f1 = hb.fidelity(rho, u @ psi)
        rho0 = hb.QuantumState((2, 2), ("a", "b"), 0.6 * bell.matrix + 0.1 * np.eye(4))
        f0 = hb.fidelity(rho0, psi)
        assert f1 == pytest.approx(f0, abs=1e-9)


def test_bloch_vectors():
    assert hb.bloch_vector(hb.qubit("a", hb.KET0)) == pytest.approx((0, 0, 1))
    assert hb.bloch_vector(hb.maximally_mixed("a")) == pytest.approx((0, 0, 0))
    assert hb.bloch_vector(hb.qubit("a", hb.KET_PLUS)) == pytest.approx((1, 0, 0))
    with pytest.raises(hb.HilbertError):
        hb.bloch_vector(hb.maximally_mixed("a", 3))


def test_random_pauli_channels_are_cptp_and_positive():
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        ch = hb.pauli_channel(w[1], w[2], w[3])
        assert ch.is_cptp()
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = z @ z.conj().T
        rho = hb.QuantumState((2,), ("a",), m / np.trace(m).real)
        out = hb.apply_channel(rho, ch, ["a"])
        assert np.linalg.eigvalsh(out.matrix).min() > -1e-9


def test_state_invariants_enforced():
    with pytest.raises(hb.HilbertError):
        hb.QuantumState((2,), ("a",), np.array([[0.6, 0], [0, 0.6]]))
    with pytest.raises(hb.HilbertError):
        hb.QuantumState((2,), ("a",), np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(hb.HilbertError):
        hb.QuantumState((2,), ("a",), np.array([[1.5, 0], [0, -0.5]]))
