"""Full Fock-space oracle for the heralded-link pipeline.

Carries each node's spin-photon state as one amplitude vector over explicit
photon registers and applies the pipeline as sequential mode-splitting
isometries (type split, window split, loss/detection split, beam splitter),
with no branch-table shortcut.  Basis keys per node:

    (spin, n_kept, n_zout, n_zlost, clicks_dur, clicks_aft, n_bout,
     n_blost_dur, n_blost_aft)

where n_kept is the resonant mode sent to the central station.  The central
beam splitter acts on the two kept modes with a two-temporal-mode expansion
(overlap sqrt(visibility)); relative path phase is averaged analytically via
node-2 photon-number tags.  Conditioned two-spin matrices are accumulated per
single-click pattern exactly as in the production code, but from this
independent state representation.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from teleportsim.photonics import LinkParams, NodeOptics


def _splits_one(p_parts: list[tuple[float, tuple]]) -> list[tuple[float, tuple]]:
    return [(amp, tag) for amp, tag in p_parts if amp != 0.0]


def node_state(node: NodeOptics) -> dict[tuple, complex]:
    """Amplitude dict over the per-node registers."""
    em, wp = node.emission, node.windows
    a, pz, ez, eb = node.alpha, node.p_zpl, node.eta_zpl, node.eta_psb

    state: dict[tuple, complex] = {}

    def put(key, amp):
        if amp != 0.0:
            state[key] = state.get(key, 0.0) + amp

    def basis(spin, kept=0, zout=0, zlost=0, cdur=0, caft=0, bout=0, bldur=0, blaft=0):
        return (spin, kept, zout, zlost, cdur, caft, bout, bldur, blaft)

    # Emission-number layer.
    layers = [
        (math.sqrt(1.0 - a), 1, 0),
        (math.sqrt(a * em.p0), 0, 0),
        (math.sqrt(a * em.p1), 0, 1),
        (math.sqrt(a * em.p2), 0, 2),
    ]
    for amp0, spin, n_em in layers:
        if amp0 == 0.0:
            continue
        if n_em == 0:
            put(basis(spin), amp0)
            continue
        # Type split.
        if n_em == 1:
            type_parts = [(math.sqrt(pz), (1, 0)), (math.sqrt(1.0 - pz), (0, 1))]
        else:
            type_parts = [
                (pz, (2, 0)),
                (math.sqrt(2.0 * pz * (1.0 - pz)), (1, 1)),
                ((1.0 - pz), (0, 2)),
            ]
        for amp1, (nz, nb) in _splits_one(type_parts):
            # Window split for the resonant photons.
            if nz == 0:
                z_parts = [(1.0, (0, 0))]
            elif nz == 1:
                z_parts = [
                    (math.sqrt(wp.p_dz1), (1, 0)),
                    (math.sqrt(1.0 - wp.p_dz1), (0, 1)),
                ]
            else:
                both_in, one_in = wp.zz[0, 0], wp.zz[0, 1] + wp.zz[1, 0]
                z_parts = [
                    (math.sqrt(both_in), (2, 0)),
                    (math.sqrt(one_in), (1, 1)),
                    (math.sqrt(max(1.0 - both_in - one_in, 0.0)), (0, 2)),
                ]
            # Window/epoch split for the side-band photons.
            if nb == 0:
                b_parts = [(1.0, (0, 0, 0))]  # (n_dur, n_aft, n_out)
            elif nb == 1 and nz == 1:
                # Mixed pair: joint class amplitudes, symmetrized over order.
                b_parts = None  # handled jointly below
            elif nb == 1:
                b_parts = [
                    (math.sqrt(wp.p_db1_dur), (1, 0, 0)),
                    (math.sqrt(wp.p_db1_aft), (0, 1, 0)),
                    (math.sqrt(1.0 - wp.p_db1), (0, 0, 1)),
                ]
            else:  # nb == 2
                bbt = wp.bb
                b_parts = [
                    (math.sqrt(bbt[0, 0]), (2, 0, 0)),
                    (math.sqrt(bbt[0, 1] + bbt[1, 0]), (1, 1, 0)),
                    (math.sqrt(bbt[1, 1]), (0, 2, 0)),
                    (math.sqrt(bbt[0, 2] + bbt[2, 0]), (1, 0, 1)),
                    (math.sqrt(bbt[1, 2] + bbt[2, 1]), (0, 1, 1)),
                    (math.sqrt(bbt[2, 2]), (0, 0, 2)),
                ]

            if nz == 1 and nb == 1:
                joint = []
                for zi, (z_in,) in enumerate([(1,), (0,)]):
                    for bi, bcls in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
                        p_cls = 0.5 * (wp.zb[zi, bi] + wp.bz[bi, zi])
                        joint.append((math.sqrt(p_cls), ((z_in, 1 - z_in), bcls)))
                combos = joint
            else:
                combos = [
                    (za * ba, (ztag, btag))
                    for za, ztag in z_parts
                    for ba, btag in b_parts
                ]

            for amp2, ((z_in, z_o), (b_dur, b_aft, b_o)) in _splits_one(combos):
                # Loss/detection layer: binomial splits on in-window photons.
                for k_z in range(z_in + 1):
                    amp_z = (
                        math.sqrt(math.comb(z_in, k_z))
                        * ez ** (k_z / 2.0)
                        * (1.0 - ez) ** ((z_in - k_z) / 2.0)
                    )
                    for k_d in range(b_dur + 1):
                        amp_d = (
                            math.sqrt(math.comb(b_dur, k_d))
                            * eb ** (k_d / 2.0)
                            * (1.0 - eb) ** ((b_dur - k_d) / 2.0)
                        )
                        for k_a in range(b_aft + 1):
                            amp_a = (
                                math.sqrt(math.comb(b_aft, k_a))
                                * eb ** (k_a / 2.0)
                                * (1.0 - eb) ** ((b_aft - k_a) / 2.0)
                            )
                            put(
                                basis(
                                    spin,
                                    kept=k_z,
                                    zout=z_o,
                                    zlost=z_in - k_z,
                                    cdur=k_d,
                                    caft=k_a,
                                    bout=b_o,
                                    bldur=b_dur - k_d,
                                    blaft=b_aft - k_a,
                                ),
                                amp0 * amp1 * amp2 * amp_z * amp_d * amp_a,
                            )
    return state


def interfere(link: LinkParams) -> dict:
    """Herald probabilities, conditioned matrices and flag stats, oracle path."""
    s1 = node_state(link.node1)
    s2 = node_state(link.node2)
    c = math.sqrt(link.visibility)
    s = math.sqrt(max(1.0 - link.visibility, 0.0))
    sigma = math.radians(link.phase_uncertainty_deg)
    phase = {d: math.exp(-0.5 * (sigma * d) ** 2) for d in range(5)}
    p_dark = link.dark_rate_hz * link.zpl_window_ns * 1e-9

    # Output-mode expansion per (n1, n2), modes (+A, +B, -A, -B).
    def expand(n1: int, n2: int) -> dict[tuple, float]:
        states = {(0, 0, 0, 0): 1.0}

        def apply(states, coefs):
            out = {}
            for cfg, amp in states.items():
                for m, co in coefs.items():
                    new = list(cfg)
                    new[m] += 1
                    k = tuple(new)
                    out[k] = out.get(k, 0.0) + amp * co * math.sqrt(new[m])
            return out

        r = 1.0 / math.sqrt(2.0)
        for _ in range(n1):
            states = apply(states, {0: r, 2: r})
        for _ in range(n2):
            states = apply(states, {0: c * r, 2: -c * r, 1: s * r, 3: -s * r})
        norm = math.sqrt(math.factorial(n1) * math.factorial(n2))
        return {k: v / norm for k, v in states.items()}

    expansions = {
        (n1, n2): expand(n1, n2) for n1 in range(3) for n2 in range(3) if n1 + n2 <= 2
    }

    acc = {
        "+": {"p": 0.0, "rho": np.zeros((4, 4), dtype=complex), "flags": {}},
        "-": {"p": 0.0, "rho": np.zeros((4, 4), dtype=complex), "flags": {}},
    }
    p_rejected = 0.0
    p_double = 0.0

    # Group joint components by environment; within a group amplitudes stay
    # coherent, across groups they add incoherently.
    groups: dict[tuple, dict] = {}
    for (k1, a1), (k2, a2) in product(s1.items(), s2.items()):
        spin1, n1, *env1 = k1
        spin2, n2, *env2 = k2
        if n1 + n2 > 2:
            continue
        env = (tuple(env1), tuple(env2))
        slot = groups.setdefault(env, {})
        for cfg, co in expansions[(n1, n2)].items():
            sub = slot.setdefault(cfg, {})
            vec = sub.setdefault(n2, np.zeros(4, dtype=complex))
            vec[2 * spin1 + spin2] += a1 * a2 * co

    for (env1, env2), by_cfg in groups.items():
        clicks1 = env1[2] + env1[3]  # cdur + caft at node 1
        clicks2 = env2[2] + env2[3]
        flagged = clicks1 > 0 or clicks2 > 0
        flags = []
        if env1[2]:
            flags.append(("node1", "dur"))
        if env1[3]:
            flags.append(("node1", "aft"))
        if env2[2]:
            flags.append(("node2", "dur"))
        if env2[3]:
            flags.append(("node2", "aft"))
        for cfg, by_n2 in by_cfg.items():
            rho = np.zeros((4, 4), dtype=complex)
            for n2a, va in by_n2.items():
                for n2b, vb in by_n2.items():
                    rho += phase[abs(n2a - n2b)] * np.outer(va, vb.conj())
            w = float(np.trace(rho).real)
            if w <= 0.0:
                continue
            n_plus = cfg[0] + cfg[1]
            n_minus = cfg[2] + cfg[3]
            if n_plus and n_minus:
                p_double += w
                continue
            if n_plus or n_minus:
                pat = "+" if n_plus else "-"
                wh = w * (1.0 - p_dark)
                rr = rho * (1.0 - p_dark)
                if link.psb_rejection and flagged:
                    p_rejected += wh
                    continue
                acc[pat]["p"] += wh
                acc[pat]["rho"] += rr
                for f in flags:
                    acc[pat]["flags"].setdefault(f, [0.0, np.zeros((4, 4), dtype=complex)])
                    acc[pat]["flags"][f][0] += wh
                    acc[pat]["flags"][f][1] += rr
            else:
                for pat in ("+", "-"):
                    wd = w * p_dark * (1.0 - p_dark)
                    if link.psb_rejection and flagged:
                        p_rejected += wd
                        continue
                    acc[pat]["p"] += wd
                    acc[pat]["rho"] += rho * p_dark * (1.0 - p_dark)
                    for f in flags:
                        acc[pat]["flags"].setdefault(
                            f, [0.0, np.zeros((4, 4), dtype=complex)]
                        )
                        acc[pat]["flags"][f][0] += wd
                        acc[pat]["flags"][f][1] += rho * p_dark * (1.0 - p_dark)

    return {
        "p_plus": acc["+"]["p"],
        "p_minus": acc["-"]["p"],
        "rho_plus": acc["+"]["rho"],
        "rho_minus": acc["-"]["rho"],
        "p_rejected": p_rejected,
        "p_double": p_double,
        "flags": {
            f: (
                acc["+"]["flags"].get(f, [0.0, 0])[0] + acc["-"]["flags"].get(f, [0.0, 0])[0]
            )
            for f in set(acc["+"]["flags"]) | set(acc["-"]["flags"])
        },
    }
