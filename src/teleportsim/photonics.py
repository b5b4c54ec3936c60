"""Heralded two-node entanglement through a central beam splitter.

Each node's post-pulse spin-photon state is accumulated per record of what
happened to every emitted photon: resonant photons either reach the central
station inside the detection window (a coherent mode kept in the state) or
are lost; side-band photons either fire the local side-band detector (a
classical click with a during/after-pulse epoch tag) or are lost.  Amplitudes
with different loss/click records are orthogonal after tracing the
environment.

The herald decision reads only two things from a node: the photon
configuration it sends to the beam splitter and its set of side-band flag
epochs.  Every herald output is linear in each node's density, so a node is
its flag classes (``frozenset`` of side-band epochs, at most four) and one
spin x photon density per class; one contraction per pair of flag classes
then gives the conditioned two-spin matrix of every output configuration at
once, which keeps the interference calculation exact and cheap.

The central station interferes the two kept modes on a balanced beam
splitter; partial photon distinguishability enters as a two-temporal-mode
expansion with amplitude overlap sqrt(visibility), optical path-phase
uncertainty as a Gaussian average over the relative phase, and detector dark
counts as independent per-window Bernoulli clicks.  A single click in exactly
one output detector heralds; side-band-flagged heralds are rejected when
tailored heralding is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from .emitter import EmissionProbabilities, WindowProbabilities
from .hilbert import HADAMARD, HADAMARD_Y, ID2, QuantumState, fidelity


class PhotonicsError(ValueError):
    pass


@dataclass(frozen=True)
class NodeOptics:
    """Per-node emission statistics and collection efficiencies."""

    alpha: float
    p_zpl: float
    emission: EmissionProbabilities
    windows: WindowProbabilities
    eta_zpl: float  # transmission+detection of resonant photons to/at the central station
    eta_psb: float  # transmission+detection of side-band photons at the local detector

    def __post_init__(self) -> None:
        for name in ("alpha", "p_zpl", "eta_zpl", "eta_psb"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PhotonicsError(f"{name} = {v} outside [0, 1]")

    @cached_property
    def densities(self) -> tuple[list[frozenset], np.ndarray]:
        """``branch_emission(self)``, computed once per node object."""
        return branch_emission(self)


@dataclass(frozen=True)
class LinkParams:
    """Everything defining one two-node entanglement link."""

    node1: NodeOptics
    node2: NodeOptics
    visibility: float
    phase_uncertainty_deg: float
    dark_rate_hz: float
    zpl_window_ns: float
    psb_rejection: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise PhotonicsError("visibility outside [0, 1]")
        for name in ("phase_uncertainty_deg", "dark_rate_hz", "zpl_window_ns"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise PhotonicsError(f"{name} = {v} is not a finite nonnegative number")
        p_dark = self.dark_rate_hz * self.zpl_window_ns * 1e-9
        if p_dark > 1.0:
            raise PhotonicsError(f"dark-count probability {p_dark:.3g} per window exceeds 1")

    @cached_property
    def heralded(self) -> HeraldedLink:
        """The heralded link, computed once per parameter set."""
        return interfere_and_herald(self)

    @cached_property
    def protocol_only(self) -> LinkParams:
        """This link with every error source off but the protocol (alpha) term.

        Visibility 1, no phase uncertainty, no dark counts, and both nodes
        without double excitation.  The link budget restores one source at a
        time onto this one link, so its nodes (and their densities) are
        shared by every row that keeps them switched off.
        """
        return replace(
            self,
            node1=replace(self.node1, emission=self.node1.emission.without_double_excitation()),
            node2=replace(self.node2, emission=self.node2.emission.without_double_excitation()),
            visibility=1.0,
            phase_uncertainty_deg=0.0,
            dark_rate_hz=0.0,
        )


def branch_emission(node: NodeOptics) -> tuple[list[frozenset], np.ndarray]:
    """One node's post-pulse spin x kept-mode state, summed per side-band flag class.

    Amplitudes are accumulated per environment record (resonant photons
    outside the window or lost, side-band photons outside the window, lost
    in-window side-band photons by epoch, and detected side-band epochs),
    since only amplitudes that share a record add coherently; lost
    side-band photons keep their epoch because the during/after temporal
    modes are orthogonal.  The records are then summed per flag class
    (``frozenset`` of detected side-band epochs).

    Returns the classes and their densities rho[class, s, n, s', n'] over
    spin (|0>, |1>) and detected resonant-photon number n <= 2.
    """
    em = node.emission
    wp = node.windows
    a, pz = node.alpha, node.p_zpl
    ez, eb = node.eta_zpl, node.eta_psb
    acc: dict[tuple, np.ndarray] = {}

    def add(key: tuple, spin: int, n: int, amp: float) -> None:
        if amp == 0.0:
            return
        vec = acc.setdefault(key, np.zeros((2, 3), dtype=complex))
        vec[spin, n] += amp

    def key(z_out=0, z_lost=0, b_out=0, b_lost=(), epochs=()) -> tuple:
        return (z_out, z_lost, b_out, tuple(sorted(b_lost)), tuple(sorted(epochs)))

    # No emission: spin |1> (dark state) and the alpha * P0 component share
    # the vacuum environment and stay coherent.
    add(key(), 1, 0, math.sqrt(1.0 - a))
    add(key(), 0, 0, math.sqrt(a * em.p0))

    # Exactly one photon emitted.
    one = a * em.p1
    add(key(), 0, 1, math.sqrt(one * pz * wp.p_dz1 * ez))
    add(key(z_lost=1), 0, 0, math.sqrt(one * pz * wp.p_dz1 * (1.0 - ez)))
    add(key(z_out=1), 0, 0, math.sqrt(one * pz * (1.0 - wp.p_dz1)))
    for epoch, p_e in (("dur", wp.p_db1_dur), ("aft", wp.p_db1_aft)):
        add(key(epochs=(epoch,)), 0, 0, math.sqrt(one * (1.0 - pz) * p_e * eb))
        add(key(b_lost=(epoch,)), 0, 0, math.sqrt(one * (1.0 - pz) * p_e * (1.0 - eb)))
    add(key(b_out=1), 0, 0, math.sqrt(one * (1.0 - pz) * (1.0 - wp.p_db1)))

    # Two photons emitted.
    two = a * em.p2

    # Both resonant.
    zz = two * pz * pz
    add(key(), 0, 2, math.sqrt(zz * wp.p_dz2) * ez)
    add(key(z_lost=1), 0, 1, math.sqrt(zz * wp.p_dz2) * math.sqrt(2.0 * ez * (1.0 - ez)))
    add(key(z_lost=2), 0, 0, math.sqrt(zz * wp.p_dz2) * (1.0 - ez))
    add(key(z_out=1), 0, 1, math.sqrt(zz * wp.p_dz3 * ez))
    add(key(z_out=1, z_lost=1), 0, 0, math.sqrt(zz * wp.p_dz3 * (1.0 - ez)))
    add(key(z_out=2), 0, 0, math.sqrt(zz * max(1.0 - wp.p_dz2 - wp.p_dz3, 0.0)))

    # Both side-band; the two photons form an unordered class pair, so merge
    # the (c1, c2) and (c2, c1) emission orders before taking amplitudes.
    bb = two * (1.0 - pz) ** 2
    classes = ("dur", "aft", "out")
    for i1, c1 in enumerate(classes):
        for i2, c2 in enumerate(classes[i1:], start=i1):
            p_cls = bb * (wp.bb[i1, i2] if i1 == i2 else wp.bb[i1, i2] + wp.bb[i2, i1])
            if p_cls <= 0.0:
                continue
            in1, in2 = c1 != "out", c2 != "out"
            if in1 and in2:
                add(key(epochs=(c1, c2)), 0, 0, math.sqrt(p_cls) * eb)
                if c1 == c2:
                    # Same temporal class: bosonic one-of-two detection amplitude.
                    add(
                        key(b_lost=(c1,), epochs=(c1,)),
                        0,
                        0,
                        math.sqrt(p_cls) * math.sqrt(2.0 * eb * (1.0 - eb)),
                    )
                else:
                    add(key(b_lost=(c2,), epochs=(c1,)), 0, 0, math.sqrt(p_cls * eb * (1.0 - eb)))
                    add(key(b_lost=(c1,), epochs=(c2,)), 0, 0, math.sqrt(p_cls * eb * (1.0 - eb)))
                add(key(b_lost=(c1, c2)), 0, 0, math.sqrt(p_cls) * (1.0 - eb))
            elif in1 or in2:
                c = c1 if in1 else c2
                add(key(b_out=1, epochs=(c,)), 0, 0, math.sqrt(p_cls * eb))
                add(key(b_out=1, b_lost=(c,)), 0, 0, math.sqrt(p_cls * (1.0 - eb)))
            else:
                add(key(b_out=2), 0, 0, math.sqrt(p_cls))

    # One resonant, one side-band; each emission order contributes half the
    # class probability.
    zb = two * 2.0 * pz * (1.0 - pz)
    for zi, zc in enumerate(("in", "out")):
        for bi, bc in enumerate(classes):
            p_cls = zb * 0.5 * (wp.zb[zi, bi] + wp.bz[bi, zi])
            if p_cls <= 0.0:
                continue
            z_fates = (
                [(math.sqrt(ez), dict(n=1)), (math.sqrt(1.0 - ez), dict(z_lost=1))]
                if zc == "in"
                else [(1.0, dict(z_out=1))]
            )
            b_fates = (
                [
                    (math.sqrt(eb), dict(epochs=(bc,))),
                    (math.sqrt(1.0 - eb), dict(b_lost=(bc,))),
                ]
                if bc != "out"
                else [(1.0, dict(b_out=1))]
            )
            for (za, zf), (ba, bf) in product(z_fates, b_fates):
                n = zf.get("n", 0)
                add(
                    key(
                        z_out=zf.get("z_out", 0),
                        z_lost=zf.get("z_lost", 0),
                        b_out=bf.get("b_out", 0),
                        b_lost=bf.get("b_lost", ()),
                        epochs=bf.get("epochs", ()),
                    ),
                    0,
                    n,
                    math.sqrt(p_cls) * za * ba,
                )

    groups: dict[frozenset, list[np.ndarray]] = {}
    total = 0.0
    for k, amps in sorted(acc.items()):
        epochs = k[4]
        total += float(np.sum(np.abs(amps) ** 2))
        if epochs and np.any(np.abs(amps[1, :]) > 0):
            raise PhotonicsError("side-band-flagged branch has spin-|1> amplitude")
        if len(epochs) >= 2 and np.any(np.abs(amps[:, 1:]) > 0):
            raise PhotonicsError("double side-band branch has resonant photon amplitude")
        groups.setdefault(frozenset(epochs), []).append(amps)
    if abs(total - 1.0) > 1e-9:
        raise PhotonicsError(f"branch weights sum to {total}, not 1")
    flags = sorted(groups, key=sorted)
    dens = []
    for c in flags:
        amps = np.array(groups[c])
        dens.append(np.einsum("bsn,btm->sntm", amps, amps.conj()))
    return flags, np.array(dens)


def detection_probability(node: NodeOptics) -> float:
    """P(at least one resonant photon detected at the central station | bright state)."""
    _, dens = branch_emission(replace(node, alpha=1.0))
    return float(np.sum(np.einsum("xsnsn->n", dens).real[1:]))


def calibrate_eta_zpl(node: NodeOptics, target: float) -> NodeOptics:
    """Set eta_zpl so the bright-state detection probability matches the target.

    One resonant photon in the window is detected with probability eta and
    two with 1 - (1 - eta)^2, so the detection probability is exactly
    D(eta) = A eta + B (2 eta - eta^2), where A and B are the chances that
    one and two resonant photons of the bright state land in the window.
    Both are read off one lossless evaluation (alpha = 1, eta = 1) as its
    n = 1 and n = 2 photon-number marginals.  The small root of
    D(eta) = target is checked against a second evaluation to 1e-9
    relative.
    """
    _, dens = branch_emission(replace(node, alpha=1.0, eta_zpl=1.0))
    _, a, b = np.einsum("xsnsn->n", dens).real.tolist()
    d_one = a + b  # D(1)
    if not 0.0 <= target <= d_one:
        raise PhotonicsError(f"detection probability target {target} unreachable")
    slope = a + 2.0 * b  # D'(0)
    # Small root of B eta^2 - (A + 2B) eta + target = 0, in the form without
    # cancellation; the discriminant is at least A^2 when target <= D(1).
    root = slope + math.sqrt(max(slope * slope - 4.0 * b * target, 0.0))
    eta = min(2.0 * target / root, 1.0) if target > 0.0 else 0.0
    calibrated = replace(node, eta_zpl=eta)
    residual = abs(detection_probability(calibrated) - target)
    if residual > 1e-9 * target:
        raise PhotonicsError(f"eta_zpl calibration residual {residual:.2e} exceeds 1e-9 relative")
    return calibrated


# Beam splitter output modes, in order: (+A, +B, -A, -B) where +/- are the two
# detectors and A/B the two temporal modes (A: node 1's wave packet, B: the
# orthogonal part of node 2's).
_VACUUM = (0, 0, 0, 0)


def _apply_creation(state: dict, coefs: dict[int, complex]) -> dict:
    out: dict[tuple, complex] = {}
    for cfg, amp in state.items():
        for mode, coef in coefs.items():
            if coef == 0.0:
                continue
            new = list(cfg)
            new[mode] += 1
            out_key = tuple(new)
            out[out_key] = out.get(out_key, 0.0) + amp * coef * math.sqrt(new[mode])
    return out


def _bs_maps(visibility: float) -> dict[tuple[int, int], dict[tuple, complex]]:
    """Output Fock amplitudes for (n1, n2) input photons, n1+n2 <= 2."""
    c = math.sqrt(visibility)
    s = math.sqrt(max(1.0 - visibility, 0.0))
    r = 1.0 / math.sqrt(2.0)
    op1 = {0: r, 2: r}  # node-1 photon -> (+A + -A)/sqrt(2)
    op2 = {0: c * r, 2: -c * r, 1: s * r, 3: -s * r}
    maps = {}
    for n1 in range(3):
        for n2 in range(3 - n1):
            state = {_VACUUM: 1.0}
            for _ in range(n1):
                state = _apply_creation(state, op1)
            for _ in range(n2):
                state = _apply_creation(state, op2)
            norm = math.sqrt(math.factorial(n1) * math.factorial(n2))
            maps[(n1, n2)] = {cfg: amp / norm for cfg, amp in state.items()}
    return maps


def _pattern(cfg: tuple) -> str:
    n_plus = cfg[0] + cfg[1]
    n_minus = cfg[2] + cfg[3]
    if n_plus and n_minus:
        return "both"
    if n_plus:
        return "+"
    if n_minus:
        return "-"
    return "none"


def _interference_kernel(visibility: float, sigma: float) -> tuple[np.ndarray, list[str]]:
    """Beam splitter and phase average as one kernel over output configurations.

    Returns K[cfg, n1, n2, n1', n2'] = M[cfg, n1, n2] M*[cfg, n1', n2'] G[n2, n2']
    and each configuration's click pattern, where M holds the output Fock
    amplitudes of ``_bs_maps`` (zero for n1 + n2 > 2) and G is the
    Gaussian-averaged relative-phase factor between components that took a
    different number of photons from node 2.
    """
    maps = _bs_maps(visibility)
    cfgs = sorted({cfg for amps in maps.values() for cfg in amps})
    index = {cfg: k for k, cfg in enumerate(cfgs)}
    bs = np.zeros((len(cfgs), 3, 3), dtype=complex)
    for (n1, n2), amps in maps.items():
        for cfg, coef in amps.items():
            bs[index[cfg], n1, n2] = coef
    d = np.arange(3)
    phase = np.exp(-0.5 * (sigma * (d[:, None] - d[None, :])) ** 2)
    kernel = np.einsum("knm,klp,mp->knmlp", bs, bs.conj(), phase)
    return kernel, [_pattern(cfg) for cfg in cfgs]


@dataclass(frozen=True)
class HeraldedLink:
    """Per-herald-sign success probabilities and conditioned two-spin states."""

    p_plus: float
    p_minus: float
    rho_plus: QuantumState
    rho_minus: QuantumState
    p_rejected: float  # flagged would-be heralds removed by tailored heralding
    p_double: float  # multi-detector patterns, always discarded
    flag_prob: dict  # (node, epoch) -> P(flag | herald), when rejection is off
    flag_states: dict  # (node, epoch) -> conditioned QuantumState

    @property
    def p_success(self) -> float:
        return self.p_plus + self.p_minus

    @staticmethod
    def target_vector(sign: int) -> np.ndarray:
        """(|01> + sign |10>) / sqrt(2), the state a herald of that sign announces."""
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0 / math.sqrt(2.0)
        v[2] = sign / math.sqrt(2.0)
        return v

    def fidelity(self, sign: int = +1) -> float:
        rho = self.rho_plus if sign > 0 else self.rho_minus
        return fidelity(rho, self.target_vector(sign))

    def fidelity_avg(self) -> float:
        """Herald-probability-weighted fidelity over both detector signs.

        Interference between the two nodes' photon-loss branches makes the
        two heralds' states differ slightly beyond mirror symmetry; pooled
        statistics correspond to this weighted average.
        """
        return (
            self.p_plus * self.fidelity(+1) + self.p_minus * self.fidelity(-1)
        ) / self.p_success


def interfere_and_herald(link: LinkParams) -> HeraldedLink:
    """Interfere the link's two kept modes and condition on single-detector clicks.

    One contraction of the two nodes' flag-class densities (``densities``,
    from ``branch_emission``) with the beam-splitter/phase kernel gives the
    unnormalized two-spin matrix of every output configuration for every
    pair of flag classes.  Coefficient vectors over the configurations then
    apply the click patterns and dark counts: a single click heralds its
    detector's sign (times the chance of no dark count), no click heralds
    either sign through one dark count, and clicks in both detectors are
    discarded.  Flagged class pairs are rejected when tailored heralding is
    on.  Photon numbers above two in total are truncated; their weight, from
    the nodes' photon-number marginals, must stay below 1e-6.

    Returns herald probabilities per detector sign, the conditioned
    (normalized) two-spin states, rejected/discarded weights, and the
    side-band flag statistics used for tailored-heralding analysis.
    """
    if not np.allclose(link.node1.windows.zpl_window, link.node2.windows.zpl_window):
        raise PhotonicsError("nodes have mismatched detection windows")
    classes1, dens1 = link.node1.densities
    classes2, dens2 = link.node2.densities

    # Truncated weight: both nodes' photon-number marginals, n1 + n2 > 2.
    n_marg1 = np.einsum("xsnsn->n", dens1).real
    n_marg2 = np.einsum("ysnsn->n", dens2).real
    n = np.arange(3)
    dropped = float(np.sum(np.outer(n_marg1, n_marg2)[n[:, None] + n[None, :] > 2]))
    if dropped > 1e-6:
        raise PhotonicsError(f"truncated photon weight {dropped:.2e} too large")

    kernel, patterns = _interference_kernel(
        link.visibility, math.radians(link.phase_uncertainty_deg)
    )
    # rho[x, y, cfg] over spins (s1 s2, s1' s2'), for node-1 class x, node-2 class y.
    rho = np.einsum("knmlp,xanbl,ycmdp->xykacbd", kernel, dens1, dens2, optimize=True)
    rho = rho.reshape(rho.shape[:3] + (4, 4))
    weight = np.einsum("xykii->xyk", rho).real

    p_dark = link.dark_rate_hz * link.zpl_window_ns * 1e-9
    dark = p_dark * (1.0 - p_dark)
    # Herald coefficient per sign (+, -) and configuration: one click in that
    # detector and no dark count, or no click and one dark count.
    coef = np.array(
        [
            [1.0 - p_dark if pat == sign else dark if pat == "none" else 0.0 for pat in patterns]
            for sign in ("+", "-")
        ]
    )
    heralded = np.einsum("sk,xykij->sxyij", coef, rho)
    both = np.array([pat == "both" for pat in patterns])
    p_double = float(np.sum(weight[:, :, both]))
    # Class pairs whose herald-capable configurations carry weight record flags.
    seen = np.sum(weight[:, :, ~both], axis=2) > 0.0

    acc = np.zeros((2, 4, 4), dtype=complex)
    flag_rho: dict[tuple, np.ndarray] = {}
    p_rejected = 0.0
    for x, c1 in enumerate(classes1):
        for y, c2 in enumerate(classes2):
            pair = heralded[:, x, y]
            if link.psb_rejection and (c1 or c2):
                p_rejected += float(np.trace(pair.sum(axis=0)).real)
                continue
            acc += pair
            if seen[x, y]:
                for f in [("node1", e) for e in c1] + [("node2", e) for e in c2]:
                    flag_rho[f] = flag_rho.get(f, 0.0) + pair.sum(axis=0)

    def normalize(m: np.ndarray, p: float) -> QuantumState:
        return QuantumState((2, 2), ("q1", "q2"), m / p if p > 0 else np.eye(4) / 4.0)

    p_plus, p_minus = (float(p) for p in np.einsum("sii->s", acc).real)
    total = p_plus + p_minus
    flag_prob = {}
    flag_states = {}
    for f in sorted(flag_rho):
        w = float(np.trace(flag_rho[f]).real)
        flag_prob[f] = w / total if total > 0 else 0.0
        flag_states[f] = normalize(flag_rho[f], w)

    return HeraldedLink(
        p_plus=p_plus,
        p_minus=p_minus,
        rho_plus=normalize(acc[0], p_plus),
        rho_minus=normalize(acc[1], p_minus),
        p_rejected=p_rejected,
        p_double=p_double,
        flag_prob=flag_prob,
        flag_states=flag_states,
    )


def build_heralded(link: LinkParams) -> HeraldedLink:
    """Heralded link for a parameter set (``link.heralded``, computed once per link)."""
    return link.heralded


# The link fields each error source restores onto the protocol-only link.
_SOURCE_FIELDS = {
    "dark": ("dark_rate_hz",),
    "visibility": ("visibility",),
    "double-excitation": ("node1", "node2"),
    "phase": ("phase_uncertainty_deg",),
}
BUDGET_SOURCES = ("alpha", *_SOURCE_FIELDS)


def single_error_budget(link: LinkParams, source: str) -> float:
    """Bell-state infidelity attributed to one error source.

    The "alpha" row is the infidelity of ``link.protocol_only``, where only
    the protocol (bright-state population) term is left.  Every other row
    restores its one source onto that link (the link's dark-count rate,
    visibility, phase uncertainty, or its nodes with double excitation) and
    returns the infidelity increase over the protocol-only link, as the
    experiment's link error budget does.
    """
    if source not in BUDGET_SOURCES:
        raise PhotonicsError(f"unknown error source {source!r}")
    ideal = link.protocol_only
    base = 1.0 - build_heralded(ideal).fidelity_avg()
    if source == "alpha":
        return base
    restored = replace(ideal, **{f: getattr(link, f) for f in _SOURCE_FIELDS[source]})
    with_src = 1.0 - build_heralded(restored).fidelity_avg()
    return with_src - base


def combined_infidelity(link: LinkParams) -> float:
    return 1.0 - build_heralded(link).fidelity_avg()


_BASIS_ROT = {"z": ID2, "x": HADAMARD, "y": HADAMARD_Y}


def _basis_probabilities(rho: np.ndarray, basis: str) -> dict[str, float]:
    """Joint two-spin outcome probabilities in one basis, keyed (node1 bit, node2 bit)."""
    uu = np.kron(_BASIS_ROT[basis], _BASIS_ROT[basis])
    probs = np.real(np.diag(uu @ rho @ uu.conj().T))
    return {f"{i >> 1}{i & 1}": float(probs[i]) for i in range(4)}


def psb_conditioned_correlations(
    hl: HeraldedLink, node: str, epoch: str, basis: str = "z"
) -> dict[str, float]:
    """Joint measurement outcomes of the two spins given a side-band flag.

    ``node`` is "node1"/"node2", ``epoch`` "dur"/"aft", basis one of z/x/y.
    Outcome keys are two-bit strings (node1 bit, node2 bit).
    """
    key = (node, epoch)
    if key not in hl.flag_states:
        raise PhotonicsError(f"no flagged events recorded for {key}")
    return _basis_probabilities(hl.flag_states[key].matrix, basis)


def herald_correlations(hl: HeraldedLink, basis: str = "z", sign: int = +1) -> dict[str, float]:
    """Joint outcome distribution of the heralded state, no flag conditioning."""
    return _basis_probabilities((hl.rho_plus if sign > 0 else hl.rho_minus).matrix, basis)


@dataclass(frozen=True)
class FlagCounts:
    """Observed herald/flag counters from sampled link generation."""

    n_heralds: int
    n_flags: dict  # (node, epoch) -> count
    n_attempts: int | None = None  # when known, the herald rate joins the fit


def expected_flag_rates(link: LinkParams) -> dict:
    """Per-herald flag probabilities of the link model with rejection off."""
    hl = build_heralded(replace(link, psb_rejection=False))
    return dict(hl.flag_prob)


_FLAG_KEYS = (("node1", "dur"), ("node2", "dur"), ("node1", "aft"), ("node2", "aft"))


def _with_error_probs(link: LinkParams, theta: np.ndarray) -> LinkParams:
    """Link variant with per-node (double-excitation, bright-population) set."""
    p2_1, p2_2, a1, a2 = theta
    return replace(
        link,
        node1=replace(
            link.node1, alpha=a1, emission=link.node1.emission.with_double_excitation(p2_1)
        ),
        node2=replace(
            link.node2, alpha=a2, emission=link.node2.emission.with_double_excitation(p2_2)
        ),
    )


def estimate_error_probs(counts: FlagCounts, link: LinkParams) -> dict:
    """Estimate per-node double-excitation and double-bright error probabilities.

    During-pulse side-band flags mark a double excitation at that node,
    after-pulse flags mark both nodes bright; the observed per-herald flag
    rates are corrected for the side-band detection efficiency, window
    acceptance and herald pairing by inverting the link model's (linear)
    flag-rate response around its calibrated design point.  When the attempt
    count is known, the per-attempt herald probability joins the fit as a
    fifth, far more precise observable, pinning the bright-state populations.
    """
    if link.node1.eta_psb <= 0 or link.node2.eta_psb <= 0:
        raise PhotonicsError("side-band efficiency must be positive")
    if counts.n_heralds <= 0:
        raise PhotonicsError("no heralds in flag statistics")
    theta0 = np.array(
        [
            link.node1.emission.p2,
            link.node2.emission.p2,
            link.node1.alpha,
            link.node2.alpha,
        ]
    )
    use_heralds = counts.n_attempts is not None

    def observables(theta: np.ndarray) -> np.ndarray:
        hl = build_heralded(replace(_with_error_probs(link, theta), psb_rejection=False))
        flags = np.array([hl.flag_prob.get(k, 0.0) for k in _FLAG_KEYS])
        if use_heralds:
            return np.append(flags, hl.p_success)
        return flags

    observed = np.array([counts.n_flags.get(k, 0) / counts.n_heralds for k in _FLAG_KEYS])
    var = np.maximum(observed, 1e-12) / counts.n_heralds
    if use_heralds:
        p_obs = counts.n_heralds / counts.n_attempts
        observed = np.append(observed, p_obs)
        var = np.append(var, max(p_obs, 1e-15) / counts.n_attempts)

    base = observables(theta0)
    n_obs = len(observed)
    jac = np.empty((n_obs, 4))
    for j in range(4):
        step = 0.25 * theta0[j] if theta0[j] > 0 else 0.01
        up = theta0.copy()
        up[j] += step
        jac[:, j] = (observables(up) - base) / step
    weights = 1.0 / var
    lhs = jac.T @ (weights[:, None] * jac)
    rhs = jac.T @ (weights * (observed - base))
    theta = theta0 + np.linalg.solve(lhs, rhs)
    theta = np.clip(theta, 0.0, 1.0)
    return {
        "double_excitation": (float(theta[0]), float(theta[1])),
        "double_bright": (float(theta[2]), float(theta[3])),
    }
