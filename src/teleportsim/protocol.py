"""Three-node teleportation protocol.

The sequence, mirroring the experiment: generate entanglement between Alice
and Bob, store Bob's half on his memory qubit, generate entanglement between
Bob and Charlie under a timeout while the memory dephases, perform a Bell
measurement at Bob (entanglement swapping), feed the outcome forward to
Charlie, store at Charlie, prepare an input state, perform Charlie's Bell
measurement, and apply Alice's conditional correction.

Two execution modes share one noise model.  The analytic mode averages
exactly over Bell outcomes, herald signs and the attempt-number
distribution: it prepares the teleporter once per configuration
(``ProtocolConfig.teleporter``) and sends the inputs through it as one
stack, so the six cardinal states take one contraction.  The teleporter is
built in three stages, each a function of only the inputs it reads
(``_stage_inputs``):

- the attempt averages (``_q_averages``): the Bob-Charlie success
  probability, timeout, Bob's memory fit, Alice's decoupling fits, attempt
  period and overhead;
- Bob's stage (``_bob_stage``): both links, Bob's Bell measurement model,
  storage depolarizing and frame;
- Charlie's storage (``_prepare_teleporter``): his storage depolarizing and
  frame, applied to Bob's stage.

``prepare_teleporters`` shares a stage between configurations whose inputs
to it are the same objects, so an error budget builds each distinct stage
once.  Storage depolarizing and Bob's memory dephasing act as Pauli weights.
Each Bell measurement is one contraction giving all four outcomes for every
input, readout errors one 4x4 confusion matrix, the feed-forward corrections
constant tables per storage frame, and the acceptance policy a mask.  The
Monte Carlo mode runs the full sequence shot by shot on one labeled state,
sampling each herald, Bell outcome and readout error, and applies the noise
as Kraus channels, independently of the analytic shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import params as defaults
from .hilbert import (
    CARDINAL_STATES,
    EIG_TOL,
    HADAMARD,
    HADAMARD_Y,
    HERM_TOL,
    ID2,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    QuantumState,
    apply_channel,
    apply_operator,
    apply_unitary,
    fidelity,
    partial_trace,
    state_from_vector,
    tensor,
)
from .photonics import HeraldedLink, LinkParams, build_heralded
from .spin_noise import (
    DecayFit,
    decoupling_channel,
    decoupling_weights,
    dephasing_from_factor,
    dephasing_weights,
    depolarizing,
    depolarizing_weights,
    ionization_event,
    prepare_input_state,
    prepared_inputs,
    single_readout_fidelities,
)


class ProtocolError(ValueError):
    pass


# Bell basis |B_mc> = (Z^m X^c (x) 1) |Phi+>, first qubit carries the indices.
# As a matrix over (first qubit, second qubit) it is Z^m X^c / sqrt(2).
BELL_OUTCOMES = tuple((m, c) for m in (0, 1) for c in (0, 1))
_BELL_MATRICES = np.stack([
    np.linalg.matrix_power(PAULI_Z, m) @ np.linalg.matrix_power(PAULI_X, c) / math.sqrt(2.0)
    for m, c in BELL_OUTCOMES
])
BELL_VECTORS = {mc: b.ravel() for mc, b in zip(BELL_OUTCOMES, _BELL_MATRICES)}


# Storage frames: the compiled swap stores the communication-qubit state on
# the nuclear spin in a rotated basis (the conditional nuclear gates are
# transverse-axis controlled), so physical memory dephasing acts along a
# logical axis set by this frame.
STORAGE_FRAMES = {"computational": ID2, "hadamard": HADAMARD, "y-conjugate": HADAMARD_Y}


def _undo(w: np.ndarray, what: str) -> np.ndarray:
    """The inverse of W, a multiple of a unitary, rescaled to determinant 1."""
    det = np.linalg.det(w)
    if abs(det) < 1e-24:
        raise ProtocolError(f"vanishing Bell projection for {what}")
    return (w / det**0.5).conj().T


def swap_correction(
    m: int, c: int, sign_ab: int, sign_bc: int, frame_bob: np.ndarray | None = None
) -> np.ndarray:
    """Charlie's frame correction after Bob's Bell measurement.

    Derived so that ideal links of either herald sign and any outcome leave
    Alice-Charlie in |Phi+>; reduces to a Pauli for the computational
    storage frame.
    """
    rb = np.eye(2, dtype=complex) if frame_bob is None else frame_bob
    psi1 = (np.kron(np.eye(2), rb) @ HeraldedLink.target_vector(sign_ab)).reshape(2, 2)
    psi2 = HeraldedLink.target_vector(sign_bc).reshape(2, 2)
    bell = BELL_VECTORS[(m, c)].reshape(2, 2)
    # <B|_{M,CB} (psi1_{A,M} psi2_{CB,CC}) : chi[a, cc] = sum psi1[a,m] B*[m,k] psi2[k,cc],
    # the state (1 (x) chi^T)|Phi+> up to scale.
    chi = psi1 @ bell.conj() @ psi2
    return _undo(chi.T, "ideal inputs")


def teleport_correction(m: int, c: int, frame_charlie: np.ndarray | None = None) -> np.ndarray:
    """Alice's correction from Charlie's Bell outcome (memory bit m, comm bit c)."""
    rc = np.eye(2, dtype=complex) if frame_charlie is None else frame_charlie
    phi = (np.kron(np.eye(2), rc) @ np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)).reshape(2, 2)
    bell = BELL_VECTORS[(m, c)].reshape(2, 2)
    # Teleporting phi_in through (1 (x) Rc)|Phi+> with <B|_{MC, in}:
    # alice[a] = sum_m phi[a, m] B*[m, k] phi_in[k]  => W = phi @ bell.conj()
    return _undo(phi @ bell.conj(), "the ideal teleporter")


_SIGNS = (+1, -1)


def _constant(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# The feed-forward corrections depend only on the storage frame, so they are
# built once: Alice's four per Charlie frame, in ``BELL_OUTCOMES`` order, and
# Charlie's (1 (x) correction) on the Alice-Charlie pair per Bob frame,
# indexed (sign ab, sign bc, Bob outcome).
_ALICE_FIX = {
    name: _constant(np.stack([teleport_correction(m, c, r) for m, c in BELL_OUTCOMES]))
    for name, r in STORAGE_FRAMES.items()
}
_PHI_PLUS = _constant(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))
#: Alice-Charlie's target state once Charlie has stored, (1 (x) Rc)|Phi+>, per frame.
_STORED_TARGETS = {
    name: _constant(np.kron(np.eye(2), r) @ _PHI_PLUS) for name, r in STORAGE_FRAMES.items()
}
_SWAP_FIX = {
    name: _constant(np.array([
        [[np.kron(np.eye(2), swap_correction(m, c, s1, s2, r)) for m, c in BELL_OUTCOMES]
         for s2 in _SIGNS]
        for s1 in _SIGNS
    ]))
    for name, r in STORAGE_FRAMES.items()
}


def _assignment(fidelities: tuple[float, float]) -> np.ndarray:
    """P(read | true) of one qubit's readout, rows read, columns true."""
    f0, f1 = fidelities
    return np.array([[f0, 1.0 - f1], [1.0 - f0, f1]])


@dataclass(frozen=True)
class BsmModel:
    """Noise and acceptance model for one node's Bell-state measurement."""

    comm_fidelities: tuple[float, float]
    memory_fidelities: tuple[float, float]
    accept_fraction: float = 1.0  # consistent repetitive-readout patterns
    cr_pass: float = 1.0
    policy: str = "comm0"  # comm0 | all

    def __post_init__(self) -> None:
        if self.policy not in ("comm0", "all"):
            raise ProtocolError(f"unknown acceptance policy {self.policy!r}")

    def accepts(self, m: int, c: int) -> bool:
        return c == 0 or self.policy == "all"

    @cached_property
    def accepted(self) -> np.ndarray:
        """Mask over ``BELL_OUTCOMES``: the assigned outcomes the policy keeps."""
        return _constant(np.array([self.accepts(*mc) for mc in BELL_OUTCOMES]))

    @cached_property
    def confusion_matrix(self) -> np.ndarray:
        """P(assigned | true) over ``BELL_OUTCOMES``, rows assigned, columns true."""
        return _constant(
            np.kron(_assignment(self.memory_fidelities), _assignment(self.comm_fidelities))
        )

    @property
    def acceptance_probability(self) -> float:
        """State-independent acceptance factor (pattern consistency and CR check)."""
        return self.accept_fraction * self.cr_pass


@dataclass(frozen=True)
class ProtocolConfig:
    """Full parameter bundle for one protocol variant."""

    link_ab: LinkParams
    link_bc: LinkParams
    bob_bsm: BsmModel
    charlie_bsm: BsmModel
    memory_fit: DecayFit  # Bob's storage dephasing vs entanglement attempts
    alice_eigen_fit: DecayFit
    alice_super_fit: DecayFit
    store_depol_bob: float = defaults.MEMORY_STORE_DEPOL["bob"]
    store_depol_charlie: float = defaults.MEMORY_STORE_DEPOL["charlie"]
    ionization_alice: float = defaults.IONIZATION_ALICE
    prep_init_error: float = defaults.PREP_INIT_ERROR
    prep_pulse_error: float = defaults.PREP_PULSE_ERROR
    timeout: int = defaults.TIMEOUT_ATTEMPTS
    ab_cap: int = 10**6
    attempt_period_s: float = defaults.ATTEMPT_PERIOD_S
    alice_total_overhead_s: float = defaults.FIXED_OVERHEAD_ALICE_S
    frame_bob: str = "computational"
    frame_charlie: str = "hadamard"

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ProtocolError("timeout must be at least one attempt")
        for f in (self.frame_bob, self.frame_charlie):
            if f not in STORAGE_FRAMES:
                raise ProtocolError(f"unknown storage frame {f!r}")

    @property
    def r_bob(self) -> np.ndarray:
        return STORAGE_FRAMES[self.frame_bob]

    @property
    def r_charlie(self) -> np.ndarray:
        return STORAGE_FRAMES[self.frame_charlie]

    def alice_channel(self, t: float):
        return decoupling_channel(t, self.alice_eigen_fit, self.alice_super_fit)

    @cached_property
    def teleporter(self) -> Teleporter:
        """The input-independent teleporter, prepared once per configuration."""
        return prepare_teleporters([self])[0]


def noiseless_config(
    mode: str, link_ab: LinkParams, link_bc: LinkParams, **overrides
) -> ProtocolConfig:
    """Every protocol noise source off, on the given links.

    ``mode`` selects Charlie's measurement policy as in ``make_config``.
    The readouts are ideal and accept every pattern the policy allows.
    """
    if mode not in ("conditional", "unconditional"):
        raise ProtocolError(f"unknown mode {mode!r}")
    flat = DecayFit(0.5, 1e15, 1.0, offset=0.5)
    cfg = ProtocolConfig(
        link_ab=link_ab,
        link_bc=link_bc,
        bob_bsm=BsmModel((1.0, 1.0), (1.0, 1.0), policy="comm0"),
        charlie_bsm=BsmModel(
            (1.0, 1.0), (1.0, 1.0), policy="comm0" if mode == "conditional" else "all"
        ),
        memory_fit=DecayFit(1.0, 1e15, 1.0),
        alice_eigen_fit=flat,
        alice_super_fit=flat,
        store_depol_bob=0.0,
        store_depol_charlie=0.0,
        ionization_alice=0.0,
        prep_init_error=0.0,
        prep_pulse_error=0.0,
    )
    return replace(cfg, **overrides)


def make_config(
    mode: str = "conditional",
    window_ns: float | None = None,
    bar_on: bool = True,
    improved_memory: bool = True,
    tailored_heralding: bool = True,
    noiseless: bool = False,
    **overrides,
) -> ProtocolConfig:
    """Assemble a protocol configuration from the calibrated defaults.

    ``mode`` selects Charlie's measurement policy; the three innovation
    toggles reproduce the upgrade ladder: repetitive readout, memory decoupling,
    and side-band herald rejection.  ``noiseless`` runs ``noiseless_config``
    on the ideal link.
    """
    if noiseless:
        link = defaults.build_link(defaults.ideal_link_config(), window_ns=window_ns)
        return noiseless_config(mode, link, link, **overrides)
    if mode not in ("conditional", "unconditional"):
        raise ProtocolError(f"unknown mode {mode!r}")

    ab_cfg = defaults.LINK_AB if tailored_heralding else replace(
        defaults.LINK_AB, psb_rejection=False
    )
    bc_cfg = defaults.LINK_BC if tailored_heralding else replace(
        defaults.LINK_BC, psb_rejection=False
    )
    ab = defaults.build_link(ab_cfg, window_ns=window_ns)
    bc = defaults.build_link(bc_cfg, window_ns=window_ns)

    readout = {node: defaults.readout_params(node) for node in ("bob", "charlie")}
    mem_key = "attempts_decoupled" if improved_memory else "attempts_bare"
    mem = defaults.MEMORY_FITS[mem_key]
    memory_fit = DecayFit(mem["amplitude"], mem["scale"], mem["stretch"])

    def bsm(node: str) -> BsmModel:
        r = readout[node]
        if bar_on:
            return BsmModel(
                comm_fidelities=r.comm_fidelities,
                memory_fidelities=r.memory_effective,
                accept_fraction=defaults.BAR_CONSISTENT_FRACTION,
                cr_pass=defaults.CR_CHECK_PASS,
                policy="comm0",
            )
        # Pre-upgrade readout: a single memory readout block, no consistency
        # filter, still conditioned on the communication-qubit 0 outcome.
        return BsmModel(
            comm_fidelities=r.comm_fidelities,
            memory_fidelities=single_readout_fidelities(r),
            accept_fraction=1.0,
            cr_pass=defaults.CR_CHECK_PASS,
            policy="comm0",
        )

    charlie = bsm("charlie")
    if mode == "unconditional":
        # Deterministic measurement: accept everything, first readout only.
        charlie = replace(
            charlie, policy="all", accept_fraction=1.0, cr_pass=1.0,
            memory_fidelities=single_readout_fidelities(readout["charlie"]),
        )

    ae = defaults.DECOUPLING_FITS["alice"]["eigen"]
    asup = defaults.DECOUPLING_FITS["alice"]["super"]
    cfg = ProtocolConfig(
        link_ab=ab,
        link_bc=bc,
        bob_bsm=bsm("bob"),
        charlie_bsm=charlie,
        memory_fit=memory_fit,
        alice_eigen_fit=DecayFit(ae["amplitude"], ae["scale"], ae["stretch"], offset=0.5),
        alice_super_fit=DecayFit(asup["amplitude"], asup["scale"], asup["stretch"], offset=0.5),
    )
    return replace(cfg, **overrides)


@dataclass(frozen=True)
class TeleportOutcome:
    """Result of one sampled shot; the analytic path returns ``AnalyticResult``."""

    rho: QuantumState | None
    fidelity: float | None = None
    bsm_bob: tuple[int, int] | None = None
    bsm_charlie: tuple[int, int] | None = None
    signs: tuple[int, int] | None = None
    attempts_ab: int | None = None
    attempts_bc: int | None = None
    aborted: str | None = None


def _sample_geometric(p: float, rng: np.random.Generator) -> int:
    if p <= 0.0:
        return np.iinfo(np.int64).max
    if p >= 1.0:
        return 1
    u = rng.uniform()
    return int(math.ceil(math.log1p(-u) / math.log1p(-p)))


def generate_link(
    hl: HeraldedLink, cap: int, rng: np.random.Generator
) -> tuple[int | None, QuantumState | None, int]:
    """Sample one heralding: (sign, conditioned state, attempts) or a timeout.

    Attempts are geometric with the per-attempt herald probability; on
    timeout the sign and state are None and the attempt count equals the cap.
    """
    if cap < 1:
        raise ProtocolError("attempt cap must be at least 1")
    n = _sample_geometric(hl.p_success, rng)
    if n > cap:
        return None, None, cap
    sign = +1 if rng.uniform() < hl.p_plus / hl.p_success else -1
    return sign, (hl.rho_plus if sign > 0 else hl.rho_minus), n


def _bell_outcomes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Unnormalized outer states for the four true Bell outcomes on the inner pair.

    ``left`` is a density matrix on (outer, inner) and ``right`` one on
    (inner, outer'); the inner subsystems are qubits, the outer ones of any
    dimension (1 when absent).  Returns <B_k| left (x) right |B_k> on (outer,
    outer') for every k in ``BELL_OUTCOMES`` order, shape (..., 4, d, d);
    leading axes of the two inputs broadcast.
    """
    da, db = left.shape[-1] // 2, right.shape[-1] // 2
    lt = left.reshape(*left.shape[:-2], da, 2, da, 2)
    rt = right.reshape(*right.shape[:-2], 2, db, 2, db)
    out = np.einsum(
        "kij,...aicx,...jbyd,kxy->...kabcd", _BELL_MATRICES.conj(), lt, rt, _BELL_MATRICES
    )
    return out.reshape(*out.shape[:-5], 4, da * db, da * db)


def _on_second(kraus, rho: np.ndarray) -> np.ndarray:
    """Kraus map on the second qubit of (a stack of) two-qubit density matrices."""
    k = np.asarray(kraus)
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    return np.einsum("kbj,...ajcl,kdl->...abcd", k, t, k.conj()).reshape(rho.shape)


_PAULI_STACK = _constant(np.stack(PAULIS))


def _pauli_on_second(weights: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Pauli channel on the second qubit of (a stack of) two-qubit density matrices.

    ``weights`` (..., 4) are the (I, X, Y, Z) probabilities; their leading
    axes broadcast against the stack's.
    """
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    out = np.einsum("...i,ibj,...ajcl,idl->...abcd", weights, _PAULI_STACK, t, _PAULI_STACK.conj())
    return out.reshape(*out.shape[:-4], 4, 4)


def entanglement_swap(
    rho_ab: QuantumState,
    rho_bc: QuantumState,
    bsm: BsmModel,
    signs: tuple[int, int] = (+1, +1),
) -> list[tuple[tuple[int, int], float, QuantumState]]:
    """Bell measurement on the middle node with feed-forward correction.

    ``rho_ab`` lives on (far node, middle memory), ``rho_bc`` on (middle
    communication qubit, near node).  Returns, per assigned outcome, its
    probability and the corrected far-near state; with ideal inputs and an
    ideal measurement every outcome yields |Phi+>.
    """
    true = _bell_outcomes(rho_ab.matrix, rho_bc.matrix)
    out = []
    for mc, state in zip(BELL_OUTCOMES, np.einsum("jk,kab->jab", bsm.confusion_matrix, true)):
        corrected = _on_second([swap_correction(mc[0], mc[1], *signs)], state)
        weight = float(np.trace(corrected).real)
        out.append((mc, weight, QuantumState((2, 2), ("far", "near"), corrected / weight)))
    return out


@dataclass(frozen=True)
class _QAverages:
    """Expectations over the truncated attempt-number distribution."""

    p_success: float
    mean_attempts: float
    dephasing: float  # E[lambda(q)]
    alice0: np.ndarray  # E[c_i(t(q))] Pauli weights of Alice's decoupling channel
    alice1: np.ndarray  # E[c_i(t(q)) lambda(q)]


_ATTEMPT_BLOCK = 4096
_MAX_ATTEMPTS = 10**7  # about 2 s of summing


def truncated_geometric_sums(p: float, timeout: int, terms) -> tuple[float, np.ndarray]:
    """Sums of p (1 - p)^(q - 1) terms(q) over the attempt count q = 1..timeout.

    ``terms`` maps an array of attempt counts to one row per count.  Returns
    the probability mass of the truncated distribution and the weighted sum
    of the rows.  Attempts are summed in fixed blocks, so memory does not
    grow with the timeout, and the sum stops once the mass left after a
    block, (1 - p)^q, is below 1e-18 of the mass summed.  Raises if that
    takes more than ``_MAX_ATTEMPTS`` attempts.
    """
    if not 0.0 < p <= 1.0:
        raise ProtocolError(f"per-attempt success probability {p} outside (0, 1]")
    if p == 1.0:
        return 1.0, np.asarray(terms(np.ones(1)))[0]
    log1m = math.log1p(-p)
    needed = min(timeout, math.log(1e-18) / log1m)
    if needed > _MAX_ATTEMPTS:
        raise ProtocolError(
            f"averaging over {needed:.3g} attempts (timeout {timeout}, success probability"
            f" {p:.3g} per attempt) exceeds {_MAX_ATTEMPTS:.0e}; lower the timeout"
        )
    mass, acc = 0.0, 0.0
    for start in range(1, timeout + 1, _ATTEMPT_BLOCK):
        qs = np.arange(start, min(start + _ATTEMPT_BLOCK, timeout + 1), dtype=float)
        pmf = p * np.exp((qs - 1.0) * log1m)
        mass += pmf.sum()
        acc = acc + pmf @ terms(qs)
        if math.exp(qs[-1] * log1m) < 1e-18 * mass:
            break
    return float(mass), acc


def _q_averages(
    link_bc: LinkParams,
    timeout: int,
    memory_fit: DecayFit,
    alice_eigen_fit: DecayFit,
    alice_super_fit: DecayFit,
    attempt_period_s: float,
    alice_total_overhead_s: float,
) -> _QAverages:
    """The attempt averages: Bob's memory dephasing and Alice's decoupling
    weights over the Bob-Charlie attempt count q = 1..timeout."""

    def terms(qs: np.ndarray) -> np.ndarray:
        lam = memory_fit.decay_factor(qs)
        with np.errstate(over="ignore"):  # a wait that overflows has decayed fully
            t_alice = 2.0 * qs * attempt_period_s + alice_total_overhead_s
        weights = decoupling_weights(t_alice, alice_eigen_fit, alice_super_fit)
        return np.column_stack([qs, lam, weights, lam[:, None] * weights])

    p = build_heralded(link_bc).p_success
    if not p > 0.0:
        raise ProtocolError(
            "the Bob-Charlie link never heralds: success probability 0 per attempt"
            f" at a {link_bc.zpl_window_ns:g} ns detection window"
        )
    mass, sums = truncated_geometric_sums(p, timeout, terms)
    sums = sums / mass
    return _QAverages(
        p_success=mass,
        mean_attempts=float(sums[0]),
        dephasing=float(sums[1]),
        alice0=sums[2:6],
        alice1=sums[6:10],
    )


#: Pauli weights of Bob's memory dephasing at coherence factor 0 and 1.
_DEPHASING_ENDS = _constant(np.stack([dephasing_weights(lam) for lam in (0.0, 1.0)]))


def _bob_stage(
    link_ab: LinkParams,
    link_bc: LinkParams,
    bob_bsm: BsmModel,
    store_depol_bob: float,
    frame_bob: str,
) -> np.ndarray:
    """Unnormalized Alice-Charlie states after Bob's swap, (2, 4, 4).

    Stacked at memory dephasing factor 0 and 1 (the state is affine in it),
    each summed over herald signs and the Bob outcomes the policy accepts,
    weighted by their probabilities, after Charlie's frame correction.
    """
    hl_ab, hl_bc = build_heralded(link_ab), build_heralded(link_bc)
    # Alice-Bob pairs per sign on (alice, mem_b): Bob stores, then dephases.
    ab = np.stack([hl_ab.rho_plus.matrix, hl_ab.rho_minus.matrix])
    ab = _on_second([STORAGE_FRAMES[frame_bob]], ab)
    ab = _pauli_on_second(depolarizing_weights(store_depol_bob), ab)
    ab = _pauli_on_second(_DEPHASING_ENDS[:, None], ab)
    bc = np.stack([hl_bc.rho_plus.matrix, hl_bc.rho_minus.matrix])  # (comm_b, comm_c)
    true = _bell_outcomes(ab[:, :, None], bc)  # lambda, sign ab, sign bc, outcome
    assigned = np.einsum("jk,lstkab->lstjab", bob_bsm.confusion_matrix, true)
    fix = _SWAP_FIX[frame_bob]
    corrected = fix @ assigned @ fix.conj().swapaxes(-1, -2)
    p_ab = np.array([hl_ab.p_plus, hl_ab.p_minus]) / hl_ab.p_success
    p_bc = np.array([hl_bc.p_plus, hl_bc.p_minus]) / hl_bc.p_success
    weights = np.einsum("s,t,k->stk", p_ab, p_bc, bob_bsm.accepted)
    return np.einsum("stk,lstkab->lab", weights, corrected)


def _check_states(states: np.ndarray, what: str) -> None:
    """Raise unless every matrix of the stack is Hermitian and positive.

    ``QuantumState``'s tolerances, checked on the whole stack at once:
    Hermitian within ``HERM_TOL`` and no eigenvalue below
    -``EIG_TOL`` max(1, trace).
    """
    if not np.all(np.isfinite(states)):
        raise ProtocolError(f"{what}: non-finite matrix entries")
    if np.abs(states - states.conj().swapaxes(-1, -2)).max() > HERM_TOL:
        raise ProtocolError(f"{what}: matrix is not Hermitian within tolerance")
    low = np.linalg.eigvalsh(states).min(axis=-1)
    weight = np.trace(states, axis1=-2, axis2=-1).real
    if np.any(low < -EIG_TOL * np.maximum(1.0, weight)):
        raise ProtocolError(f"{what}: negative eigenvalue {low.min():.3e}")


@dataclass(frozen=True)
class Teleporter:
    """The Alice-Charlie resource of one configuration, shared by every input.

    ``swapped`` holds the unnormalized Alice-Charlie states right after
    Bob's swap correction and ``stored`` the ones once Charlie has stored
    his half, each a (2, 4, 4) array at memory dephasing factor 0 and 1
    (the states are affine in it), summed over herald signs and accepted
    Bob outcomes.  Every later stage is linear in the stored state, so
    summing first is exact.  The fidelities and Bob's accepted weight are
    averaged over the attempt count.
    """

    averages: _QAverages
    swapped: np.ndarray
    stored: np.ndarray
    swap_fidelity: float
    teleporter_fidelity: float
    bob_weight: float


def _prepare_teleporter(
    qa: _QAverages, swapped: np.ndarray, store_depol_charlie: float, frame_charlie: str
) -> Teleporter:
    """The teleporter from its attempt averages and Bob's stage, once Charlie
    has stored his half on (alice, mem_c) in his storage frame."""
    r_charlie = STORAGE_FRAMES[frame_charlie]
    stored = _pauli_on_second(
        depolarizing_weights(store_depol_charlie), _on_second([r_charlie], swapped)
    )
    _check_states(stored, "stored Alice-Charlie pair")
    if not np.allclose(
        np.trace(stored, axis1=1, axis2=2), np.trace(swapped, axis1=1, axis2=2),
        rtol=1e-9, atol=1e-9,
    ):
        raise ProtocolError("storage at Charlie changed the pair's trace")
    for arr in (swapped, stored):
        arr.flags.writeable = False

    # Alice-Charlie fidelities at the two cuts.  Alice's decoupling and the
    # later measurement noise belong to the teleported state's own budget.
    swap = swapped[0] + qa.dephasing * (swapped[1] - swapped[0])
    tele = stored[0] + qa.dephasing * (stored[1] - stored[0])
    phi_vec, tele_vec = _PHI_PLUS, _STORED_TARGETS[frame_charlie]
    bob_weight = float(np.trace(swap).real)
    return Teleporter(
        averages=qa,
        swapped=swapped,
        stored=stored,
        swap_fidelity=float(np.real(phi_vec.conj() @ swap @ phi_vec) / bob_weight),
        teleporter_fidelity=float(
            np.real(tele_vec.conj() @ tele @ tele_vec) / np.trace(tele).real
        ),
        bob_weight=bob_weight,
    )


def _stage_inputs(cfg: ProtocolConfig) -> tuple[tuple, tuple, tuple]:
    """What each teleporter stage reads of a configuration, in argument order:
    the attempt averages, Bob's stage, and Charlie's storage (after the first
    two stages).  Charlie's measurement, Alice's ionization, input
    preparation and the first link's attempt cap act later."""
    return (
        (cfg.link_bc, cfg.timeout, cfg.memory_fit, cfg.alice_eigen_fit, cfg.alice_super_fit,
         cfg.attempt_period_s, cfg.alice_total_overhead_s),
        (cfg.link_ab, cfg.link_bc, cfg.bob_bsm, cfg.store_depol_bob, cfg.frame_bob),
        (cfg.store_depol_charlie, cfg.frame_charlie),
    )


def prepare_teleporters(cfgs: list[ProtocolConfig]) -> list[Teleporter]:
    """The teleporter of each configuration, every distinct stage built once.

    Configurations share a stage when every input it reads is the same
    object in both, as in configurations ``replace``d from one another;
    equal but separate objects build it again.
    """
    built: tuple[list, list, list] = ([], [], [])  # (inputs, stage) per stage

    def stage(k: int, build, inputs: tuple):
        for key, value in built[k]:
            if all(a is b for a, b in zip(key, inputs)):
                return value
        value = build(*inputs)
        built[k].append((inputs, value))
        return value

    out = []
    for cfg in cfgs:
        q_in, bob_in, charlie_in = _stage_inputs(cfg)
        qa = stage(0, _q_averages, q_in)
        swapped = stage(1, _bob_stage, bob_in)
        out.append(stage(2, _prepare_teleporter, (qa, swapped, *charlie_in)))
    return out


@dataclass(frozen=True)
class AnalyticResult:
    """Exact outcome average for one input state."""

    rho: QuantumState
    fidelity: float
    per_outcome: dict  # charlie outcome -> (weight, fidelity)
    accept_probability: float
    teleporter_fidelity: float  # stored at Charlie, before the input measurement
    swap_fidelity: float  # right after the swap correction at Charlie
    bob_accept_weight: float  # probability weight passing Bob's outcome policy
    mean_attempts_bc: float


def _input_vector(which) -> np.ndarray:
    """A pure input given as a vector, normalized; refuses what is not a qubit state."""
    vec = np.asarray(which, dtype=complex).ravel()
    if vec.shape != (2,) or not np.all(np.isfinite(vec)) or not np.any(vec):
        raise ProtocolError(f"input vector {which!r} is not a finite nonzero qubit state")
    # Scaled part by part first, so neither the norm of huge entries nor a
    # complex division by a tiny one overflows.
    scale = np.abs(vec).max()
    vec = vec.real / scale + 1j * (vec.imag / scale)
    return vec / np.linalg.norm(vec)


def _input_state(cfg: ProtocolConfig, which) -> tuple[QuantumState, np.ndarray]:
    """Input state and its pure target, for the shot-by-shot path."""
    if isinstance(which, str):
        psi = prepare_input_state(
            which, cfg.prep_init_error, cfg.prep_pulse_error, label="input"
        )
        return psi, CARDINAL_STATES[which]
    vec = _input_vector(which)
    return state_from_vector(vec, (2,), ("input",)), vec


_CARDINALS = tuple(CARDINAL_STATES)
_CARDINAL_TARGETS = _constant(np.stack(list(CARDINAL_STATES.values())))


def _cardinal_inputs(cfg: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """The six prepared cardinal inputs, (6, 2, 2), and their targets, (6, 2)."""
    inputs = prepared_inputs(_CARDINALS, cfg.prep_init_error, cfg.prep_pulse_error)
    return inputs, _CARDINAL_TARGETS


def _alice_states(
    cfg: ProtocolConfig, inputs: np.ndarray, correct: bool = True, tp: Teleporter | None = None
) -> np.ndarray:
    """Alice's unnormalized state per input and assigned Charlie outcome.

    ``inputs`` is a (n, 2, 2) stack of input density matrices; the result,
    (n, 4, 2, 2) with outcomes in ``BELL_OUTCOMES`` order, follows Charlie's
    Bell measurement of the stored state and each input, his readout
    confusion, Alice's correction (skipped when ``correct`` is off), her
    decoupling noise averaged over the attempt count jointly with Bob's
    memory dephasing, and ionization.  Charlie's acceptance policy is the
    caller's.  The stack is checked once, as a whole.  ``tp`` is
    ``cfg.teleporter`` unless given.
    """
    tp = cfg.teleporter if tp is None else tp
    true = _bell_outcomes(tp.stored, inputs[:, None])  # input, lambda, outcome
    states = np.einsum("jk,nlkab->nljab", cfg.charlie_bsm.confusion_matrix, true)
    if correct:
        u = _ALICE_FIX[cfg.frame_charlie]
        states = u @ states @ u.conj().swapaxes(-1, -2)
    # The states are affine in the dephasing factor lambda: E[c (g0 + lambda
    # (g1 - g0))] mixes g0 with weights E[c] - E[c lambda] and g1 with E[c lambda].
    qa = tp.averages
    mix = np.stack([qa.alice0 - qa.alice1, qa.alice1])
    avg = np.einsum("li,iab,nlkbc,idc->nkad", mix, _PAULI_STACK, states, _PAULI_STACK.conj())
    # Ionization replaces Alice's qubit with the maximally mixed state.
    ion = cfg.ionization_alice
    weight = np.trace(avg, axis1=-2, axis2=-1).real
    alice = (1.0 - ion) * avg + ion * weight[..., None, None] * np.eye(2) / 2.0
    _check_states(alice, "Alice's teleported states")
    return alice


def _overlaps(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """<t|rho|t> per input: ``states`` (n, ..., 2, 2), ``targets`` (n, 2)."""
    t = targets.reshape(len(targets), *(1,) * (states.ndim - 3), 2)
    return np.real(t.conj()[..., None, :] @ states @ t[..., :, None])[..., 0, 0]


def _weights_and_fidelities(alice: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-input, per-outcome weight and fidelity to the target (0 for an empty outcome)."""
    weight = np.trace(alice, axis1=-2, axis2=-1).real
    overlap = _overlaps(alice, targets)
    return weight, np.divide(overlap, weight, out=np.zeros_like(weight), where=weight > 0.0)


def _teleported(cfg: ProtocolConfig, tp: Teleporter, inputs: np.ndarray, targets: np.ndarray):
    """Per input of the (n, 2, 2) stack: the per-outcome weights and
    fidelities, the outcomes Charlie keeps, their total weight and the
    teleported state."""
    alice = _alice_states(cfg, inputs, tp=tp)
    weight, fid = _weights_and_fidelities(alice, targets)
    keep = cfg.charlie_bsm.accepted & (weight > 0.0)
    total = np.where(keep, weight, 0.0).sum(axis=1)
    if not np.all(total > 0.0):
        raise ProtocolError("no Bell outcome Charlie accepts has any weight")
    rho = np.where(keep[..., None, None], alice, 0.0).sum(axis=1) / total[:, None, None]
    _check_states(rho, "teleported state")
    return weight, fid, keep, total, rho


def _analytic_results(
    cfg: ProtocolConfig, inputs: np.ndarray, targets: np.ndarray
) -> list[AnalyticResult]:
    """One ``AnalyticResult`` per row of the (n, 2, 2) input stack."""
    tp = cfg.teleporter
    weight, fid, keep, total, rho = _teleported(cfg, tp, inputs, targets)
    fidelity = _overlaps(rho, targets)
    accept = (
        tp.averages.p_success
        * cfg.bob_bsm.acceptance_probability
        * cfg.charlie_bsm.acceptance_probability
        * total
    )
    return [
        AnalyticResult(
            rho=QuantumState((2,), ("alice",), rho[i], validate=False),
            fidelity=float(fidelity[i]),
            per_outcome={
                mc: (float(weight[i, k]), float(fid[i, k]))
                for k, mc in enumerate(BELL_OUTCOMES)
                if keep[i, k]
            },
            accept_probability=float(accept[i]),
            teleporter_fidelity=tp.teleporter_fidelity,
            swap_fidelity=tp.swap_fidelity,
            bob_accept_weight=tp.bob_weight,
            mean_attempts_bc=tp.averages.mean_attempts,
        )
        for i in range(len(inputs))
    ]


def run_teleportation_analytic(cfg: ProtocolConfig, which) -> AnalyticResult:
    """Exact average of the protocol output for one input state.

    ``which`` is a cardinal-state name (prepared with the configured
    preparation errors) or an arbitrary pure-state vector (used as is).
    Averages over herald signs, both Bell measurements (with readout
    confusion and the acceptance policy), the truncated geometric attempt
    distribution (memory dephasing and Alice's decoupling channel are
    averaged jointly), ionization, and state-preparation noise.
    """
    if isinstance(which, str):
        inputs = prepared_inputs((which,), cfg.prep_init_error, cfg.prep_pulse_error)
        target = CARDINAL_STATES[which]
    else:
        target = _input_vector(which)
        inputs = np.outer(target, target.conj())[None]
    return _analytic_results(cfg, inputs, target[None])[0]


def six_state_results(cfg: ProtocolConfig) -> dict[str, AnalyticResult]:
    """``run_teleportation_analytic`` for the six cardinal states, sent through at once."""
    return dict(zip(_CARDINALS, _analytic_results(cfg, *_cardinal_inputs(cfg))))


def six_state_fidelities(cfg: ProtocolConfig) -> dict[str, float]:
    return {w: r.fidelity for w, r in six_state_results(cfg).items()}


def average_fidelity(cfg: ProtocolConfig, teleporter: Teleporter | None = None) -> float:
    """Six-state average fidelity; ``teleporter`` is ``cfg.teleporter`` unless
    given (``prepare_teleporters`` builds several at once)."""
    tp = cfg.teleporter if teleporter is None else teleporter
    inputs, targets = _cardinal_inputs(cfg)
    rho = _teleported(cfg, tp, inputs, targets)[-1]
    return float(np.mean(_overlaps(rho, targets)))


def teleporter_fidelity(cfg: ProtocolConfig) -> float:
    """Alice-Charlie fidelity of the swapped state with all preparation noise."""
    return cfg.teleporter.swap_fidelity


def per_bsm_outcome_fidelity(cfg: ProtocolConfig) -> dict[tuple[int, int], float]:
    """Average teleported-state fidelity per assigned Charlie Bell outcome.

    Every outcome is reported, whatever Charlie's acceptance policy.
    """
    inputs, targets = _cardinal_inputs(cfg)
    fid = _weights_and_fidelities(_alice_states(cfg, inputs), targets)[1]
    return {mc: float(s / 6.0) for mc, s in zip(BELL_OUTCOMES, fid.sum(axis=0))}


def no_feedforward_fidelity(cfg: ProtocolConfig) -> float:
    """Six-state average if Alice never applied her correction.

    Uses all-outcome accounting (every Bell result weighted in), matching the
    bit-flip reanalysis of the measured data; the outcome average of
    uncorrected teleportation is the maximally mixed state, so ideal
    components give exactly one half.
    """
    inputs, targets = _cardinal_inputs(cfg)
    alice = _alice_states(cfg, inputs, correct=False)
    weight = np.trace(alice, axis1=-2, axis2=-1).real.sum(axis=1)
    return float(np.mean(_overlaps(alice.sum(axis=1) / weight[:, None, None], targets)))


def _bell_measure(
    state: QuantumState, labels: tuple[str, str], rng: np.random.Generator
) -> tuple[tuple[int, int], QuantumState]:
    """Projective Bell measurement of the ``labels`` pair.

    Returns the sampled outcome and the normalized state of the remaining
    subsystems.
    """
    pair = partial_trace(state, list(labels))
    probs = np.array(
        [
            max(float(np.real(BELL_VECTORS[mc].conj() @ pair.matrix @ BELL_VECTORS[mc])), 0.0)
            for mc in BELL_OUTCOMES
        ]
    )
    probs = probs / probs.sum()
    mc = BELL_OUTCOMES[int(rng.choice(4, p=probs))]
    proj = np.outer(BELL_VECTORS[mc], BELL_VECTORS[mc].conj())
    mat = apply_operator(state, proj, list(labels))
    post = QuantumState(state.dims, state.labels, mat, float(np.trace(mat).real))
    keep = [l for l in state.labels if l not in labels]
    return mc, partial_trace(post, keep).normalized()


def run_teleportation_shot(cfg: ProtocolConfig, which, rng: np.random.Generator) -> TeleportOutcome:
    """One sampled protocol shot, stage by stage in the experiment's order.

    Charlie's acceptance behavior follows the configured measurement policy:
    an "all" policy (deterministic measurement) never aborts there.
    """
    hl_ab = build_heralded(cfg.link_ab)
    hl_bc = build_heralded(cfg.link_bc)

    s1, rho_ab, n_ab = generate_link(hl_ab, cfg.ab_cap, rng)
    if s1 is None:
        return TeleportOutcome(rho=None, aborted="ab_cap", attempts_ab=n_ab)
    # The attempt count of the second link is independent of the stored
    # state, so a timeout can abort before any state algebra runs.
    s2, rho_bc, q = generate_link(hl_bc, cfg.timeout, rng)
    if s2 is None:
        return TeleportOutcome(rho=None, aborted="bc_timeout", attempts_ab=n_ab, attempts_bc=q)

    # Bob stores his half, which dephases over the q attempts of the second
    # link; the phase it picks up meanwhile is compensated exactly in real time.
    state = rho_ab.relabeled({"q1": "alice", "q2": "mem_b"})
    state = apply_unitary(state, cfg.r_bob, ["mem_b"])
    state = apply_channel(state, depolarizing(cfg.store_depol_bob), ["mem_b"])
    state = apply_channel(state, dephasing_from_factor(cfg.memory_fit.decay_factor(q)), ["mem_b"])
    state = tensor(state, rho_bc.relabeled({"q1": "comm_b", "q2": "comm_c"}))

    # Bob's Bell measurement (entanglement swap).
    true1, state = _bell_measure(state, ("mem_b", "comm_b"), rng)
    m1 = _flip_bit(true1[0], cfg.bob_bsm.memory_fidelities, rng)
    c1 = _flip_bit(true1[1], cfg.bob_bsm.comm_fidelities, rng)
    consistent = rng.uniform() < cfg.bob_bsm.accept_fraction
    cr_ok = rng.uniform() < cfg.bob_bsm.cr_pass
    if not (cfg.bob_bsm.accepts(m1, c1) and consistent and cr_ok):
        return TeleportOutcome(
            rho=None, aborted="bob_bsm", signs=(s1, s2), attempts_ab=n_ab,
            attempts_bc=q, bsm_bob=(m1, c1),
        )

    # Charlie: frame correction and storage.
    state = apply_unitary(state, swap_correction(m1, c1, s1, s2, cfg.r_bob), ["comm_c"])
    state = state.relabeled({"comm_c": "mem_c"})
    state = apply_unitary(state, cfg.r_charlie, ["mem_c"])
    state = apply_channel(state, depolarizing(cfg.store_depol_charlie), ["mem_c"])

    # Input preparation and Charlie's Bell measurement.
    psi_in, target = _input_state(cfg, which)
    true2, state = _bell_measure(tensor(state, psi_in), ("mem_c", "input"), rng)
    m2 = _flip_bit(true2[0], cfg.charlie_bsm.memory_fidelities, rng)
    c2 = _flip_bit(true2[1], cfg.charlie_bsm.comm_fidelities, rng)
    if cfg.charlie_bsm.policy != "all":
        consistent = rng.uniform() < cfg.charlie_bsm.accept_fraction
        cr_ok = rng.uniform() < cfg.charlie_bsm.cr_pass
        if not (cfg.charlie_bsm.accepts(m2, c2) and consistent and cr_ok):
            return TeleportOutcome(
                rho=None, aborted="charlie_bsm", signs=(s1, s2), attempts_ab=n_ab,
                attempts_bc=q, bsm_bob=(m1, c1), bsm_charlie=(m2, c2),
            )

    # Alice: decoupling noise, possible ionization, feed-forward.
    t_alice = 2.0 * q * cfg.attempt_period_s + cfg.alice_total_overhead_s
    state = apply_channel(state, cfg.alice_channel(t_alice), ["alice"])
    if ionization_event(cfg.ionization_alice, rng):
        state = QuantumState((2,), ("alice",), np.eye(2) / 2.0)
    rho = apply_unitary(state, teleport_correction(m2, c2, cfg.r_charlie), ["alice"])
    return TeleportOutcome(
        rho=rho,
        fidelity=fidelity(rho, target),
        bsm_bob=(m1, c1),
        bsm_charlie=(m2, c2),
        signs=(s1, s2),
        attempts_ab=n_ab,
        attempts_bc=q,
    )


def _flip_bit(true: int, fidelities: tuple[float, float], rng: np.random.Generator) -> int:
    keep = fidelities[0] if true == 0 else fidelities[1]
    return true if rng.uniform() < keep else 1 - true
