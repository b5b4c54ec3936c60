"""Phenomenological qubit noise channels and the repetitive readout scheme.

Memory-qubit storage decay under entanglement attempts and communication-qubit
decay under dynamical decoupling are modeled from fitted stretched-exponential
curves; readout, state preparation, gate depolarizing and ionization use
measured scalar parameters.  The basis-alternating repetitive readout maps the
memory qubit onto the communication qubit with an alternating convention so
that the asymmetric optical readout errors flag themselves as inconsistent
patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Channel, QuantumState, pauli_channel

EXP_TOL = 1e-6


class SpinNoiseError(ValueError):
    pass


@dataclass(frozen=True)
class DecayFit:
    """Stretched-exponential decay: amplitude * exp(-(x/scale)**stretch) + offset.

    ``scale`` is in entanglement attempts for storage fits and in seconds for
    decoupling fits; ``offset`` is 0 for Bloch-vector-length fits and 0.5 for
    average-state-fidelity fits.
    """

    amplitude: float
    scale: float
    stretch: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude <= 1.0:
            raise SpinNoiseError(f"amplitude {self.amplitude} outside (0, 1]")
        if self.scale <= 0 or self.stretch <= 0:
            raise SpinNoiseError("scale and stretch must be positive")

    def value(self, x):
        """Fit value at x (a scalar or an array)."""
        return self.amplitude * self.decay_factor(x) + self.offset

    def decay_factor(self, x):
        """Normalized decay exp(-(x/scale)**stretch), i.e. f(x)/f(0) sans offset."""
        with np.errstate(over="ignore"):  # decayed to 0 long before the power overflows
            return np.exp(-((x / self.scale) ** self.stretch))


def dephasing_from_factor(lam: float) -> Channel:
    """Pure dephasing channel whose coherence survives with factor lam."""
    if not -1.0 <= lam <= 1.0:
        raise SpinNoiseError(f"coherence factor {lam} outside [-1, 1]")
    return pauli_channel(0.0, 0.0, 0.5 * (1.0 - lam))


def memory_dephasing_channel(n_attempts: float, fit: DecayFit) -> Channel:
    """Dephasing accumulated over entanglement attempts while a state is stored.

    The stretch exponent applies to the *total* attempt count, so this channel
    is not divisible: always evaluate it once with the cumulative count rather
    than composing increments.  The fit's initial-amplitude deficit is a
    separate one-time storage event (see ``storage_event_channel``).
    """
    if n_attempts < 0:
        raise SpinNoiseError("attempt count must be nonnegative")
    return dephasing_from_factor(fit.decay_factor(n_attempts))


def storage_event_channel(fit: DecayFit) -> Channel:
    """One-time depolarizing event reproducing the fit's amplitude deficit."""
    return depolarizing(1.0 - fit.amplitude)


def depolarizing(p: float) -> Channel:
    """Replace the state by the maximally mixed state with probability p."""
    if not 0.0 <= p <= 1.0:
        raise SpinNoiseError(f"depolarizing probability {p} outside [0, 1]")
    return pauli_channel(p / 4.0, p / 4.0, p / 4.0)


def ionization_event(p_ion: float, rng: np.random.Generator) -> bool:
    """Bernoulli charge-state loss; the caller replaces the qubit by I/2."""
    if not 0.0 <= p_ion <= 1.0:
        raise SpinNoiseError(f"ionization probability {p_ion} outside [0, 1]")
    return bool(rng.uniform() < p_ion)


def decoupling_weights(t, eigen_fit: DecayFit, super_fit: DecayFit) -> np.ndarray:
    """Pauli weights (I, X, Y, Z) matching measured decoupling fidelities at time(s) t.

    The unique Pauli-diagonal channel whose Z-axis Bloch scaling follows the
    eigenstate fit and whose transverse scaling follows the superposition
    fit; either state family may decay faster.  Vectorized over ``t``: the
    result has shape ``np.shape(t) + (4,)``.  Raises when the two curves are
    not jointly realizable by a channel.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise SpinNoiseError("time must be nonnegative")
    if abs(eigen_fit.offset - 0.5) > 1e-12 or abs(super_fit.offset - 0.5) > 1e-12:
        raise SpinNoiseError("decoupling fits must be fidelity fits with offset 0.5")
    lam_z = 2.0 * eigen_fit.value(t) - 1.0
    lam_xy = 2.0 * super_fit.value(t) - 1.0
    p_xy = (1.0 - lam_z) / 4.0
    probs = np.stack(
        [(1.0 + lam_z + 2.0 * lam_xy) / 4.0, p_xy, p_xy, (1.0 + lam_z - 2.0 * lam_xy) / 4.0],
        axis=-1,
    )
    rows = probs.reshape(-1, 4)
    bad = np.flatnonzero(rows.min(axis=1) < -1e-12)
    if bad.size:
        k = bad[0]
        raise SpinNoiseError(
            f"fits not realizable as a channel at t={t.flat[k]}: weights {rows[k].tolist()}"
        )
    return np.clip(probs, 0.0, None)


def decoupling_channel(t: float, eigen_fit: DecayFit, super_fit: DecayFit) -> Channel:
    """Channel matching measured decoupling fidelities (see ``decoupling_weights``)."""
    _p_i, p_x, p_y, p_z = decoupling_weights(t, eigen_fit, super_fit)
    return pauli_channel(p_x, p_y, p_z)


@dataclass(frozen=True)
class ReadoutParams:
    """Per-node readout model.

    ``comm_fidelities`` are the optical readout assignment fidelities of the
    communication qubit for |0> and |1>; ``map_error`` flips the mapped value
    per readout block, ``flip_pre``/``flip_post`` are memory flip
    probabilities before/after each block's readout.  ``memory_effective``
    are the effective post-readout-scheme assignment fidelities used in the
    teleportation model.
    """

    comm_fidelities: tuple[float, float]
    map_error: float = 0.0
    flip_pre: float = 0.0
    flip_post: float = 0.0
    memory_effective: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        vals = (*self.comm_fidelities, self.map_error, self.flip_pre, self.flip_post,
                *self.memory_effective)
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise SpinNoiseError("readout parameters must be in [0, 1]")


@dataclass(frozen=True)
class BarResult:
    assigned: int
    pattern: tuple[int, ...]
    consistent: bool
    post_memory: QuantumState


def _expected_bit(assigned: int, block: int) -> int:
    """Outcome that block (1-based) should produce if the assignment is right."""
    return assigned if block % 2 == 1 else 1 - assigned


def bar_readout(
    memory: QuantumState, reps: int, params: ReadoutParams, rng: np.random.Generator
) -> BarResult:
    """Sample one basis-alternating repetitive readout of a memory qubit.

    Odd blocks map memory |0> to the bright communication outcome, even
    blocks map |1>; the first block assigns the state and later blocks only
    check consistency.
    """
    if reps < 1:
        raise SpinNoiseError("need at least one readout block")
    if memory.dims != (2,):
        raise SpinNoiseError("memory must be a single qubit")
    rho = memory.normalized().matrix
    m = int(rng.uniform() < rho[1, 1].real)
    f0, f1 = params.comm_fidelities
    pattern = []
    for k in range(1, reps + 1):
        if rng.uniform() < params.flip_pre:
            m = 1 - m
        comm = m if k % 2 == 1 else 1 - m
        if rng.uniform() < params.map_error:
            comm = 1 - comm
        if comm == 0:
            bit = 0 if rng.uniform() < f0 else 1
        else:
            bit = 1 if rng.uniform() < f1 else 0
        pattern.append(bit)
        if rng.uniform() < params.flip_post:
            m = 1 - m
    assigned = pattern[0]
    consistent = all(
        bit == _expected_bit(assigned, k) for k, bit in enumerate(pattern, start=1)
    )
    basis = np.zeros((2, 2), dtype=complex)
    basis[m, m] = 1.0
    return BarResult(assigned, tuple(pattern), consistent, QuantumState((2,), memory.labels, basis))


def _bar_block_distribution(params: ReadoutParams, m: int, block: int) -> list[tuple[float, int, int]]:
    """(probability, outcome bit, post-block memory) for one readout block."""
    f0, f1 = params.comm_fidelities
    out = []
    for pre_flip, p_pre in ((0, 1 - params.flip_pre), (1, params.flip_pre)):
        m1 = m ^ pre_flip
        comm_ideal = m1 if block % 2 == 1 else 1 - m1
        for map_flip, p_map in ((0, 1 - params.map_error), (1, params.map_error)):
            comm = comm_ideal ^ map_flip
            p_correct = f0 if comm == 0 else f1
            for bit, p_bit in ((comm, p_correct), (1 - comm, 1 - p_correct)):
                for post_flip, p_post in ((0, 1 - params.flip_post), (1, params.flip_post)):
                    out.append((p_pre * p_map * p_bit * p_post, bit, m1 ^ post_flip))
    return out


def bar_model_curves(
    params: ReadoutParams, max_reps: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Exact readout fidelity and accepted fraction versus repetition count.

    Enumerates every outcome/flip path (no sampling), for an unbiased 50/50
    memory input.  Fidelity is P(assignment correct | pattern consistent).
    """
    if max_reps > 5:
        raise SpinNoiseError("repetition counts above 5 are not supported")
    fidelities = np.zeros(max_reps)
    accepted = np.zeros(max_reps)
    for reps in range(1, max_reps + 1):
        p_ok = 0.0
        p_acc = 0.0
        for m0 in (0, 1):
            # paths: (prob, memory, assigned, consistent)
            paths = [(0.5, m0, None, True)]
            for block in range(1, reps + 1):
                new = []
                for prob, m, assigned, cons in paths:
                    for p, bit, m_next in _bar_block_distribution(params, m, block):
                        if p == 0.0:
                            continue
                        if block == 1:
                            new.append((prob * p, m_next, bit, True))
                        else:
                            ok = cons and bit == _expected_bit(assigned, block)
                            new.append((prob * p, m_next, assigned, ok))
                paths = new
            for prob, _m, assigned, cons in paths:
                if cons:
                    p_acc += prob
                    if assigned == m0:
                        p_ok += prob
        fidelities[reps - 1] = p_ok / p_acc if p_acc > 0 else 0.0
        accepted[reps - 1] = p_acc
    return fidelities, accepted


def single_readout_fidelities(params: ReadoutParams) -> tuple[float, float]:
    """Per-state assignment fidelities of the first readout block alone."""
    out = []
    for m0 in (0, 1):
        p_correct = sum(
            p for p, bit, _m in _bar_block_distribution(params, m0, 1) if bit == m0
        )
        out.append(p_correct)
    return (out[0], out[1])


# First column maps |0> to the named cardinal state.
_CARDINAL_ROTATIONS = {
    "+z": np.eye(2, dtype=complex),
    "-z": np.array([[0, 1], [1, 0]], dtype=complex),
    "+x": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "-x": np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2),
    "+y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
    "-y": np.array([[1, 1], [-1j, 1j]], dtype=complex) / math.sqrt(2),
}


def prepared_inputs(names, p_init: float, p_mw: float) -> np.ndarray:
    """Cardinal states degraded by initialization and microwave-gate errors.

    Returns a (n, 2, 2) stack of density matrices, one per name in ``names``.
    Initialization leaves the wrong population with probability p_init; every
    state except +z then needs a microwave rotation modeled as the ideal
    unitary followed by depolarizing noise p_mw, which on a trace-one state
    is (1 - p_mw) U rho U^dag + p_mw I/2.
    """
    unknown = [w for w in names if w not in _CARDINAL_ROTATIONS]
    if unknown:
        raise SpinNoiseError(f"unknown cardinal state {unknown[0]!r}")
    for name, p in (("initialization", p_init), ("depolarizing", p_mw)):
        if not 0.0 <= p <= 1.0:
            raise SpinNoiseError(f"{name} probability {p} outside [0, 1]")
    u = np.stack([_CARDINAL_ROTATIONS[w] for w in names])
    rho = u @ np.diag([1.0 - p_init, p_init]) @ u.conj().swapaxes(1, 2)
    p = np.array([0.0 if w == "+z" else p_mw for w in names])[:, None, None]
    return (1.0 - p) * rho + p * np.eye(2) / 2.0


def prepare_input_state(
    which: str, p_init: float, p_mw: float, label: str = "input"
) -> QuantumState:
    """One prepared cardinal state (see ``prepared_inputs``), validated."""
    return QuantumState((2,), (label,), prepared_inputs((which,), p_init, p_mw)[0])
