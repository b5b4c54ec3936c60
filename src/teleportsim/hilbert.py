"""Dense linear algebra for small composite quantum systems.

States are density matrices over a labeled register of finite-dimensional
subsystems (qubits plus truncated photonic modes).  Everything here is a pure
function over immutable values; measurement takes an explicit random
generator.  The largest register in this project is a few hundred dimensions,
so no sparsity or tensor-network machinery is used.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_TOL = 1e-9

# Single-qubit constants used throughout the package.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (ID2, PAULI_X, PAULI_Y, PAULI_Z)
#: Basis changes taking |+> and |+i> to |0>, for x and y measurements.
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
HADAMARD_Y = np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_PLUS_I = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_MINUS_I = np.array([1, -1j], dtype=complex) / np.sqrt(2)

#: The six cardinal states, keyed the way lab notebooks label them.
CARDINAL_STATES = {
    "+x": KET_PLUS,
    "-x": KET_MINUS,
    "+y": KET_PLUS_I,
    "-y": KET_MINUS_I,
    "+z": KET0,
    "-z": KET1,
}


class HilbertError(ValueError):
    """Raised on malformed states, channels or label mismatches."""


def _as_matrix(m: np.ndarray) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise HilbertError(f"expected a square matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class QuantumState:
    """Density matrix over a labeled register of subsystems.

    ``weight`` is the trace of ``matrix``: 1.0 for a normalized state, or the
    branch probability when the state is an unnormalized conditional branch.
    Instances are immutable; operations return new states.  ``validate``
    (init-only) can be dropped for states derived by trace-preserving
    operations from already-validated inputs.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    matrix: np.ndarray
    weight: float = 1.0
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        m = _as_matrix(self.matrix)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if len(self.dims) != len(self.labels):
            raise HilbertError("dims and labels disagree in length")
        if len(set(self.labels)) != len(self.labels):
            raise HilbertError(f"duplicate labels in {self.labels}")
        d = int(np.prod(self.dims))
        if m.shape != (d, d):
            raise HilbertError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if not validate:
            return
        tr = np.trace(m)
        if abs(tr.real - self.weight) > max(TRACE_TOL, 1e-9 * abs(self.weight)) or abs(
            tr.imag
        ) > TRACE_TOL:
            raise HilbertError(f"trace {tr} does not match declared weight {self.weight}")
        # np.allclose(m, m^dagger, atol=HERM_TOL) written out; NaN fails it.
        mh = m.conj().T
        if not (np.abs(m - mh) <= HERM_TOL + 1e-5 * np.abs(mh)).all():
            raise HilbertError("matrix is not Hermitian within tolerance")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -EIG_TOL * max(1.0, self.weight):
            raise HilbertError(f"matrix has negative eigenvalue {eig.min():.3e}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise HilbertError(f"unknown label {label!r}; have {self.labels}") from None

    def normalized(self) -> "QuantumState":
        if self.weight <= 0:
            raise HilbertError("cannot normalize a zero-weight state")
        return QuantumState(self.dims, self.labels, self.matrix / self.weight, 1.0, validate=False)

    def relabeled(self, mapping: dict[str, str]) -> "QuantumState":
        labels = tuple(mapping.get(l, l) for l in self.labels)
        return QuantumState(self.dims, labels, self.matrix, self.weight, validate=False)


def state_from_vector(
    vec: Sequence[complex], dims: Iterable[int], labels: Iterable[str], weight: float | None = None
) -> QuantumState:
    """Density matrix |v><v| from an amplitude vector (need not be normalized)."""
    v = np.asarray(vec, dtype=complex).ravel()
    m = np.outer(v, v.conj())
    w = float(np.vdot(v, v).real) if weight is None else weight
    return QuantumState(tuple(dims), tuple(labels), m, w)


def qubit(label: str, ket: np.ndarray) -> QuantumState:
    return state_from_vector(ket, (2,), (label,))


def maximally_mixed(label: str, dim: int = 2) -> QuantumState:
    return QuantumState((dim,), (label,), np.eye(dim) / dim)


def bell_state(labels: tuple[str, str], which: str = "phi+") -> QuantumState:
    """One of the four Bell states on two qubits."""
    vecs = {
        "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
        "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
        "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
        "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    }
    return state_from_vector(vecs[which], (2, 2), labels)


@dataclass(frozen=True)
class Channel:
    """CPTP map given by a Kraus operator list on ``arity`` subsystems.

    ``dims`` are the dimensions of the target subsystems the channel acts on,
    in target order.  Completeness (sum K^dag K = 1) is checked at
    construction.
    """

    kraus: tuple[np.ndarray, ...]
    dims: tuple[int, ...] = (2,)

    def __post_init__(self) -> None:
        ops = tuple(_as_matrix(k) for k in self.kraus)
        d = int(np.prod(self.dims))
        for k in ops:
            if k.shape != (d, d):
                raise HilbertError(f"Kraus shape {k.shape} does not match dims {self.dims}")
        object.__setattr__(self, "kraus", ops)
        if not self.is_cptp():
            raise HilbertError("Kraus operators do not satisfy completeness")

    def is_cptp(self, tol: float = HERM_TOL) -> bool:
        d = int(np.prod(self.dims))
        acc = sum(k.conj().T @ k for k in self.kraus)
        return bool(np.allclose(acc, np.eye(d), atol=max(tol, 1e-9)))


def pauli_channel(p_x: float, p_y: float, p_z: float) -> Channel:
    p_i = 1.0 - p_x - p_y - p_z
    if min(p_i, p_x, p_y, p_z) < -1e-12:
        raise HilbertError(f"negative Pauli channel weights ({p_i}, {p_x}, {p_y}, {p_z})")
    probs = np.clip([p_i, p_x, p_y, p_z], 0.0, None)
    ops = tuple(np.sqrt(p) * s for p, s in zip(probs, PAULIS) if p > 0)
    return Channel(ops)


def _targets_first_order(state: QuantumState, targets: Sequence[str]) -> tuple[list[int], list[int]]:
    idx = [state.index(t) for t in targets]
    rest = [i for i in range(len(state.dims)) if i not in idx]
    return idx, rest


def apply_operator(state: QuantumState, op: np.ndarray, targets: Sequence[str]) -> np.ndarray:
    """Return op.rho.op^dag as a raw matrix (shared by channels and projectors)."""
    idx, rest = _targets_first_order(state, targets)
    n = len(state.dims)
    dims = state.dims
    op = _as_matrix(op)
    d_t = int(np.prod([dims[i] for i in idx]))
    if op.shape != (d_t, d_t):
        raise HilbertError(f"operator shape {op.shape} does not match target dims")
    perm = idx + rest
    t = state.matrix.reshape(dims + dims)
    # Bring target axes to the front on both sides.
    t = np.transpose(t, perm + [n + p for p in perm])
    d_r = state.dim // d_t
    t = t.reshape(d_t, d_r, d_t, d_r)
    # op[a,b] t[b,i,c,j] conj(op)[d,c] without einsum path searches.
    t = np.tensordot(op, t, axes=(1, 0))
    t = np.tensordot(t, op.conj(), axes=([2], [1]))
    t = np.transpose(t, (0, 1, 3, 2))
    t = t.reshape([dims[i] for i in perm] * 2)
    inv = np.argsort(perm)
    t = np.transpose(t, list(inv) + [n + p for p in inv])
    return t.reshape(state.dim, state.dim)


def apply_channel(state: QuantumState, channel: Channel, targets: Sequence[str]) -> QuantumState:
    """Apply a channel to the named target subsystems."""
    idx, _ = _targets_first_order(state, targets)
    t_dims = tuple(state.dims[i] for i in idx)
    if t_dims != channel.dims:
        raise HilbertError(f"channel dims {channel.dims} do not match targets {t_dims}")
    out = np.zeros_like(state.matrix)
    for k in channel.kraus:
        out = out + apply_operator(state, k, targets)
    return QuantumState(
        state.dims, state.labels, out, float(np.trace(out).real), validate=False
    )


def apply_unitary(state: QuantumState, u: np.ndarray, targets: Sequence[str]) -> QuantumState:
    out = apply_operator(state, u, targets)
    return QuantumState(state.dims, state.labels, out, state.weight, validate=False)


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Tensor product; label sets must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise HilbertError(f"duplicate labels {sorted(overlap)} in tensor product")
    return QuantumState(
        a.dims + b.dims,
        a.labels + b.labels,
        np.kron(a.matrix, b.matrix),
        a.weight * b.weight,
        validate=False,
    )


def partial_trace(state: QuantumState, keep: Sequence[str]) -> QuantumState:
    """Trace out everything except the ``keep`` labels (result in keep order)."""
    keep_idx = [state.index(k) for k in keep]
    n = len(state.dims)
    t = state.matrix.reshape(state.dims + state.dims)
    drop = [i for i in range(n) if i not in keep_idx]
    # Trace the dropped axes pairwise, back to front so indices stay valid.
    for i in sorted(drop, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    # Axes are now the kept ones in register order; permute to keep order.
    kept_sorted = sorted(keep_idx)
    m = len(kept_sorted)
    perm = [kept_sorted.index(k) for k in keep_idx]
    if m > 1:
        t = np.transpose(t, perm + [m + p for p in perm])
    dims = tuple(state.dims[i] for i in keep_idx)
    d = int(np.prod(dims)) if dims else 1
    return QuantumState(dims, tuple(keep), t.reshape(d, d), state.weight, validate=False)


def fidelity(state: QuantumState, target: np.ndarray | QuantumState) -> float:
    """Fidelity <psi|rho|psi> against a pure target state."""
    rho = state.normalized() if abs(state.weight - 1.0) > TRACE_TOL else state
    if isinstance(target, QuantumState):
        if target.dims != state.dims:
            raise HilbertError("dimension mismatch in fidelity")
        eig, vec = np.linalg.eigh(target.normalized().matrix)
        if eig[-1] < 1.0 - 1e-7:
            raise HilbertError("fidelity target must be a pure state")
        psi = vec[:, -1]
    else:
        psi = np.asarray(target, dtype=complex).ravel()
        if psi.size != state.dim:
            raise HilbertError("dimension mismatch in fidelity")
        psi = psi / np.linalg.norm(psi)
    val = float(np.real(psi.conj() @ rho.matrix @ psi))
    return float(min(max(val, 0.0), 1.0))


def bloch_vector(state: QuantumState) -> tuple[float, float, float]:
    """Bloch components (x, y, z) of a single-qubit state."""
    if state.dims != (2,):
        raise HilbertError(f"bloch_vector needs a single qubit, got dims {state.dims}")
    rho = state.normalized().matrix if abs(state.weight - 1.0) > TRACE_TOL else state.matrix
    x = float(np.real(np.trace(rho @ PAULI_X)))
    y = float(np.real(np.trace(rho @ PAULI_Y)))
    z = float(np.real(np.trace(rho @ PAULI_Z)))
    return (x, y, z)


def rotation_z(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)
