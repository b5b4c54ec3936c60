"""Path-enumeration reference for the basis-alternating repetitive readout.

Lists every pre-flip, map-error, outcome and post-flip path of every block
(16 per block, so 16**reps paths per input state) and sums the probability
of the consistent ones.  Nothing is taken from the spin-noise module but its
parameter type; the block rule (odd blocks map memory |0> to the bright
outcome, even blocks map |1>) is written out here on its own.
"""

from __future__ import annotations

import numpy as np

from teleportsim.spin_noise import ReadoutParams


def _expected_bit(assigned: int, block: int) -> int:
    """Outcome that block (1-based) should produce if the assignment is right."""
    return assigned if block % 2 == 1 else 1 - assigned


def block_distribution(params: ReadoutParams, m: int, block: int) -> list[tuple[float, int, int]]:
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


def enumerated_curves(params: ReadoutParams, max_reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Readout fidelity and accepted fraction for 1..max_reps blocks, 50/50 input.

    Fidelity is P(assignment correct | pattern consistent).
    """
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
                    for p, bit, m_next in block_distribution(params, m, block):
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


def first_block_fidelities(params: ReadoutParams) -> tuple[float, float]:
    """Per-state assignment fidelities of the first readout block alone."""
    return tuple(
        sum(p for p, bit, _m in block_distribution(params, m0, 1) if bit == m0) for m0 in (0, 1)
    )
