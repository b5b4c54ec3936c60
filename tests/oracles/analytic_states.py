"""State-by-state reference for the analytic teleportation average.

Every branch is an explicit labeled state: each herald-sign pair, each Bell
outcome as a projector on the joint register followed by a partial trace,
each readout confusion as a loop over true and assigned outcomes, and the
attempt-count distribution as one array as long as the timeout.  It uses
only ``hilbert`` primitives, the ``spin_noise`` channel builders and the
public frame corrections, never the protocol's contraction, its confusion
matrix or its attempt-sum helper.
"""

from __future__ import annotations

import math

import numpy as np

from teleportsim.hilbert import (
    CARDINAL_STATES,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    QuantumState,
    apply_channel,
    apply_operator,
    apply_unitary,
    partial_trace,
    state_from_vector,
    tensor,
)
from teleportsim.photonics import build_heralded
from teleportsim.protocol import swap_correction, teleport_correction
from teleportsim.spin_noise import (
    decoupling_weights,
    dephasing_from_factor,
    depolarizing,
    prepare_input_state,
)

OUTCOMES = tuple((m, c) for m in (0, 1) for c in (0, 1))
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)


def _bell(m: int, c: int) -> np.ndarray:
    """(Z^m X^c (x) 1)|Phi+>: the first qubit carries the indices."""
    op = np.linalg.matrix_power(PAULI_Z, m) @ np.linalg.matrix_power(PAULI_X, c)
    return np.kron(op, np.eye(2)) @ _PHI_PLUS


def _accepts(policy: str, m: int, c: int) -> bool:
    return policy == "all" or (c == 0 and (policy == "comm0" or m == 0))


def _flip(true: int, out: int, fidelities) -> float:
    keep = fidelities[true]
    return keep if out == true else 1.0 - keep


def bell_project(joint: QuantumState, pair: tuple[str, str]) -> dict:
    """Unnormalized post-measurement states of the rest, per true outcome."""
    keep = [l for l in joint.labels if l not in pair]
    out = {}
    for mc in OUTCOMES:
        vec = _bell(*mc)
        mat = apply_operator(joint, np.outer(vec, vec.conj()), list(pair))
        post = QuantumState(joint.dims, joint.labels, mat, float(np.trace(mat).real))
        out[mc] = partial_trace(post, keep)
    return out


def confuse(true_states: dict, bsm) -> dict:
    """Assigned-outcome states: each true outcome's state times P(assigned | true)."""
    out = {}
    for am, ac in OUTCOMES:
        acc = 0.0
        for (tm, tc), state in true_states.items():
            p = _flip(tm, am, bsm.memory_fidelities) * _flip(tc, ac, bsm.comm_fidelities)
            acc = acc + p * state.matrix
        out[(am, ac)] = acc
    return out


def attempt_averages(cfg) -> dict:
    p = build_heralded(cfg.link_bc).p_success
    qs = np.arange(1, cfg.timeout + 1, dtype=float)
    pmf = p * (1.0 - p) ** (qs - 1)
    total = pmf.sum()
    pmf = pmf / total
    lam = cfg.memory_fit.decay_factor(qs)
    t_alice = 2.0 * qs * cfg.attempt_period_s + cfg.alice_total_overhead_s
    weights = decoupling_weights(t_alice, cfg.alice_eigen_fit, cfg.alice_super_fit)
    return {
        "p_success": total,
        "mean_attempts": float((qs * pmf).sum()),
        "dephasing": float((lam * pmf).sum()),
        "alice0": pmf @ weights,
        "alice1": (pmf * lam) @ weights,
    }


def bob_stage(cfg, lam: float) -> QuantumState:
    """Alice-Charlie state after Bob's swap, summed over signs and accepted outcomes."""
    hl_ab, hl_bc = build_heralded(cfg.link_ab), build_heralded(cfg.link_bc)
    links = {
        "ab": {+1: (hl_ab.p_plus, hl_ab.rho_plus), -1: (hl_ab.p_minus, hl_ab.rho_minus)},
        "bc": {+1: (hl_bc.p_plus, hl_bc.rho_plus), -1: (hl_bc.p_minus, hl_bc.rho_minus)},
    }
    acc = np.zeros((4, 4), dtype=complex)
    for s1, (p1, rho1) in links["ab"].items():
        rho_ab = rho1.relabeled({"q1": "alice", "q2": "mem_b"})
        rho_ab = apply_unitary(rho_ab, cfg.r_bob, ["mem_b"])
        rho_ab = apply_channel(rho_ab, depolarizing(cfg.store_depol_bob), ["mem_b"])
        rho_ab = apply_channel(rho_ab, dephasing_from_factor(lam), ["mem_b"])
        for s2, (p2, rho2) in links["bc"].items():
            rho_bc = rho2.relabeled({"q1": "comm_b", "q2": "comm_c"})
            branches = bell_project(tensor(rho_ab, rho_bc), ("mem_b", "comm_b"))
            for mc, mat in confuse(branches, cfg.bob_bsm).items():
                if not _accepts(cfg.bob_bsm.policy, *mc):
                    continue
                state = QuantumState((2, 2), ("alice", "comm_c"), mat, validate=False)
                u = swap_correction(mc[0], mc[1], s1, s2, cfg.r_bob)
                weight = p1 * p2 / (hl_ab.p_success * hl_bc.p_success)
                acc += apply_unitary(state, u, ["comm_c"]).matrix * weight
    return QuantumState((2, 2), ("alice", "comm_c"), acc, float(np.trace(acc).real))


def store_at_charlie(cfg, state: QuantumState) -> QuantumState:
    stored = apply_unitary(state.relabeled({"comm_c": "mem_c"}), cfg.r_charlie, ["mem_c"])
    return apply_channel(stored, depolarizing(cfg.store_depol_charlie), ["mem_c"])


class StateOracle:
    """The analytic protocol of one configuration, branch by branch."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self.averages = attempt_averages(cfg)
        self.swapped = [bob_stage(cfg, lam) for lam in (0.0, 1.0)]
        self.stored = [store_at_charlie(cfg, s) for s in self.swapped]
        d = self.averages["dephasing"]
        swap = self.swapped[0].matrix + d * (self.swapped[1].matrix - self.swapped[0].matrix)
        tele = self.stored[0].matrix + d * (self.stored[1].matrix - self.stored[0].matrix)
        tele_vec = np.kron(np.eye(2), cfg.r_charlie) @ _PHI_PLUS
        self.bob_weight = float(np.trace(swap).real)
        self.swap_fidelity = float(np.real(_PHI_PLUS.conj() @ swap @ _PHI_PLUS)) / self.bob_weight
        self.teleporter_fidelity = float(
            np.real(tele_vec.conj() @ tele @ tele_vec) / np.trace(tele).real
        )

    def input_state(self, which):
        if isinstance(which, str):
            cfg = self.cfg
            psi = prepare_input_state(which, cfg.prep_init_error, cfg.prep_pulse_error)
            return psi, CARDINAL_STATES[which]
        vec = np.asarray(which, dtype=complex).ravel()
        vec = vec / np.linalg.norm(vec)
        return state_from_vector(vec, (2,), ("input",)), vec

    def alice_states(self, which, feed_forward: bool = True) -> dict:
        """Alice's unnormalized state per assigned Charlie outcome, all four."""
        cfg, qa = self.cfg, self.averages
        psi_in, _target = self.input_state(which)
        per_lambda = []
        for stored in self.stored:
            branches = bell_project(tensor(stored, psi_in), ("mem_c", "input"))
            assigned = confuse(branches, cfg.charlie_bsm)
            if feed_forward:
                for mc in OUTCOMES:
                    u = teleport_correction(*mc, cfg.r_charlie)
                    assigned[mc] = u @ assigned[mc] @ u.conj().T
            per_lambda.append(assigned)
        out = {}
        for mc in OUTCOMES:
            g0, g1 = per_lambda[0][mc], per_lambda[1][mc]
            avg = sum(w * (s @ g0 @ s.conj().T) for w, s in zip(qa["alice0"], PAULIS))
            avg = avg + sum(w * (s @ (g1 - g0) @ s.conj().T) for w, s in zip(qa["alice1"], PAULIS))
            weight = float(np.trace(avg).real)
            ion = cfg.ionization_alice
            out[mc] = (1.0 - ion) * avg + ion * weight * np.eye(2) / 2.0
        return out

    def result(self, which, policy: str | None = None, feed_forward: bool = True) -> dict:
        """Every field of the analytic result for one input, under ``policy``."""
        cfg = self.cfg
        policy = cfg.charlie_bsm.policy if policy is None else policy
        _psi, target = self.input_state(which)
        per_outcome = {}
        rho = np.zeros((2, 2), dtype=complex)
        for mc, avg in self.alice_states(which, feed_forward).items():
            weight = float(np.trace(avg).real)
            if not _accepts(policy, *mc) or weight <= 0.0:
                continue
            per_outcome[mc] = (weight, float(np.real(target.conj() @ avg @ target)) / weight)
            rho = rho + avg
        total = sum(w for w, _f in per_outcome.values())
        rho = rho / total
        accept = (
            self.averages["p_success"]
            * cfg.bob_bsm.accept_fraction
            * cfg.bob_bsm.cr_pass
            * cfg.charlie_bsm.accept_fraction
            * cfg.charlie_bsm.cr_pass
            * total
        )
        return {
            "rho": rho,
            "fidelity": float(np.real(target.conj() @ rho @ target)),
            "per_outcome": per_outcome,
            "accept_probability": accept,
            "teleporter_fidelity": self.teleporter_fidelity,
            "swap_fidelity": self.swap_fidelity,
            "bob_accept_weight": self.bob_weight,
            "mean_attempts_bc": self.averages["mean_attempts"],
        }
