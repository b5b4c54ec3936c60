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


def dephasing_weights(lam: float) -> np.ndarray:
    """Pauli weights (I, X, Y, Z) of pure dephasing with coherence factor lam."""
    if not -1.0 <= lam <= 1.0:
        raise SpinNoiseError(f"coherence factor {lam} outside [-1, 1]")
    p_z = 0.5 * (1.0 - lam)
    return np.array([1.0 - p_z, 0.0, 0.0, p_z])


def dephasing_from_factor(lam: float) -> Channel:
    """Pure dephasing channel whose coherence survives with factor lam."""
    return pauli_channel(*dephasing_weights(lam)[1:])


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


def depolarizing_weights(p: float) -> np.ndarray:
    """Pauli weights (I, X, Y, Z) of ``depolarizing(p)``."""
    if not 0.0 <= p <= 1.0:
        raise SpinNoiseError(f"depolarizing probability {p} outside [0, 1]")
    q = p / 4.0
    return np.array([1.0 - q - q - q, q, q, q])


def depolarizing(p: float) -> Channel:
    """Replace the state by the maximally mixed state with probability p."""
    return pauli_channel(*depolarizing_weights(p)[1:])


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
        if np.shape(self.comm_fidelities) != (2,) or np.shape(self.memory_effective) != (2,):
            raise SpinNoiseError("comm_fidelities and memory_effective must be pairs")
        vals = (*self.comm_fidelities, self.map_error, self.flip_pre, self.flip_post,
                *self.memory_effective)
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise SpinNoiseError("readout parameters must be in [0, 1]")


@dataclass(frozen=True)
class BarResult:
    assigned: int
    pattern: tuple[int, ...]
    consistent: bool


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
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        raise SpinNoiseError(f"repetition count {reps!r} is not a whole number of blocks >= 1")
    if memory.dims != (2,):
        raise SpinNoiseError("memory must be a single qubit")
    rho = memory.normalized().matrix
    # One uniform for the memory, then four per block (pre-flip, mapping
    # error, optical readout, post-flip), drawn at once in that order.
    u = rng.uniform(size=1 + 4 * reps).tolist()
    m = int(u[0] < rho[1, 1].real)
    f0, f1 = params.comm_fidelities
    pattern = []
    for k in range(1, reps + 1):
        pre, mapping, readout, post = u[4 * k - 3 : 4 * k + 1]
        if pre < params.flip_pre:
            m = 1 - m
        comm = m if k % 2 == 1 else 1 - m
        if mapping < params.map_error:
            comm = 1 - comm
        if comm == 0:
            bit = 0 if readout < f0 else 1
        else:
            bit = 1 if readout < f1 else 0
        pattern.append(bit)
        if post < params.flip_post:
            m = 1 - m
    assigned = pattern[0]
    consistent = all(
        bit == _expected_bit(assigned, k) for k, bit in enumerate(pattern, start=1)
    )
    return BarResult(assigned, tuple(pattern), consistent)


def _flip(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def _block_matrix(params: ReadoutParams, block: int) -> np.ndarray:
    """T[m, bit, m']: probability of outcome bit and memory m' after block from memory m.

    A block is a memory pre-flip, the mapping (with its error) onto the
    communication qubit, the optical readout and a memory post-flip.  Even
    blocks map memory |1> to the bright outcome, so their rows swap.
    """
    f0, f1 = params.comm_fidelities
    r = _flip(params.map_error) @ np.array([[f0, 1.0 - f0], [1.0 - f1, f1]])
    if block % 2 == 0:
        r = r[::-1]
    return np.einsum("mb,bo,bn->mon", _flip(params.flip_pre), r, _flip(params.flip_post))


def bar_model_curves(
    params: ReadoutParams, max_reps: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Exact readout fidelity and accepted fraction versus repetition count.

    A forward pass over state[true m0, assigned a, memory m] for an unbiased
    50/50 memory input: block 1 assigns, each later block keeps only the mass
    whose outcome is consistent with the assignment.  Fidelity is
    P(assignment correct | pattern consistent).
    """
    if isinstance(max_reps, bool) or not isinstance(max_reps, int) or not 1 <= max_reps <= 5:
        raise SpinNoiseError(f"repetition count {max_reps!r} is not an integer in 1..5")
    fidelities = np.zeros(max_reps)
    accepted = np.zeros(max_reps)
    state = 0.5 * _block_matrix(params, 1)
    for reps in range(1, max_reps + 1):
        if reps > 1:
            t = _block_matrix(params, reps)
            state = np.stack(
                [state[:, a] @ t[:, _expected_bit(a, reps)] for a in (0, 1)], axis=1
            )
        p_acc = state.sum()
        fidelities[reps - 1] = np.trace(state.sum(axis=2)) / p_acc if p_acc > 0 else 0.0
        accepted[reps - 1] = p_acc
    return fidelities, accepted


def single_readout_fidelities(params: ReadoutParams) -> tuple[float, float]:
    """Per-state assignment fidelities of the first readout block alone."""
    p = _block_matrix(params, 1).sum(axis=2)
    return (float(p[0, 0]), float(p[1, 1]))


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
