"""Heralded two-node entanglement through a central beam splitter.

Each emitted photon falls in one of five time classes (resonant inside or
outside the detection window, side-band during or after the pulse or outside
its window) and meets one fate there: a resonant photon in the window is kept
(it reaches the central station, a coherent mode of the state) or lost, a
side-band photon in its window fires the local side-band detector (a
classical click tagged with its epoch) or is lost, and a photon outside is
simply out.  One fixed table of these per-photon fates (``_FATES``) lists
every outcome of up to two photons; a node only supplies the chances.  An
outcome's environment record is its non-kept fates, and amplitudes with
different records are orthogonal after tracing the environment.

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
from functools import cached_property, lru_cache

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


# Each photon time class and its fates as (fate, chance), the chance an index
# into (1, eta_zpl, 1 - eta_zpl, eta_psb, 1 - eta_psb).  Every fate but
# "kept" stays in the environment; lost side-band photons keep their epoch,
# since the during/after temporal modes are orthogonal.
_FATES = (
    (("kept", 1), ("zpl lost", 2)),  # resonant, inside the detection window
    (("zpl out", 0),),  # resonant, outside it
    (("dur", 3), ("dur lost", 4)),  # side-band, during the pulse
    (("aft", 3), ("aft lost", 4)),  # side-band, after the pulse
    (("psb out", 0),),  # side-band, outside its window
)
_CLICKS = ("dur", "aft")


def _outcome_table() -> tuple:
    """Every emission outcome of a node: a source and one fate per photon.

    The sources, in ``branch_emission``'s order, are the dark spin |1>, the
    bright vacuum, one photon per time class and two photons per ordered
    class pair; summing over ordered pairs and fates merges the two emission
    orders into the bosonic sqrt(C(2, k)) amplitudes.  A record is the sorted
    non-kept fates, so each (record, spin, kept n) entry has one source.

    Returns per outcome its source, two fate chances (unit for no photon)
    and flat (record, spin, n) entry; the flag classes in sort order; the
    class x record membership; and each record's click count.
    """
    fates = [(c, fate, q) for c, options in enumerate(_FATES) for fate, q in options]
    k = len(_FATES)
    outcomes = [(0, (), 1), (1, (), 0)]  # (source, photon fates, spin)
    outcomes += [(2 + c, (f,), 0) for f, (c, _, _) in enumerate(fates)]
    outcomes += [
        (2 + k + k * c1 + c2, (f1, f2), 0)
        for f1, (c1, _, _) in enumerate(fates)
        for f2, (c2, _, _) in enumerate(fates)
    ]
    keys = []
    for _, fs, spin in outcomes:
        record = tuple(sorted(fates[f][1] for f in fs if fates[f][1] != "kept"))
        keys.append((record, spin, len(fs) - len(record)))
    records = sorted({record for record, _, _ in keys})
    row = {record: r for r, record in enumerate(records)}
    flags = [frozenset(f for f in record if f in _CLICKS) for record in records]
    classes = sorted(set(flags), key=sorted)
    return (
        np.array([src for src, _, _ in outcomes]),
        np.array([[fates[f][2] for f in fs] + [0] * (2 - len(fs)) for _, fs, _ in outcomes]),
        np.array([6 * row[record] + 3 * spin + n for record, spin, n in keys]),
        classes,
        np.array([[f == c for f in flags] for c in classes], dtype=float),
        np.array([sum(f in _CLICKS for f in record) for record in records]),
    )


_SOURCE, _CHANCE, _ENTRY, _CLASSES, _MEMBERS, _RECORD_CLICKS = _outcome_table()


def branch_emission(node: NodeOptics) -> tuple[list[frozenset], np.ndarray]:
    """One node's post-pulse spin x kept-mode state, summed per side-band flag class.

    The node fills in the chances of the fixed outcome table built from
    ``_FATES``: each source's chance (bright-state population, photon-number
    probability, resonant fraction and window tables) times the chance of
    each photon's fate.  The chances are summed per (environment record,
    spin, kept-photon number), and their square roots are the amplitudes:
    coherent within a record, orthogonal across records.  A rounding-level
    negative chance counts as zero.  The records are then summed per flag
    class (``frozenset`` of detected side-band epochs); classes without
    weight are left out.

    Returns the classes and their densities rho[class, s, n, s', n'] over
    spin (|0>, |1>) and detected resonant-photon number n <= 2.
    """
    em, wp = node.emission, node.windows
    a, pz = node.alpha, node.p_zpl
    kind = np.array([pz, pz, 1.0 - pz, 1.0 - pz, 1.0 - pz])  # resonant or side-band
    single = kind * [wp.p_dz1, 1.0 - wp.p_dz1, wp.p_db1_dur, wp.p_db1_aft, 1.0 - wp.p_db1]
    pair = np.outer(kind, kind) * np.block([[wp.zz, wp.zb], [wp.bz, wp.bb]])
    source = np.concatenate([[1.0 - a, a * em.p0], a * em.p1 * single, a * em.p2 * pair.ravel()])
    fate = np.array([1.0, node.eta_zpl, 1.0 - node.eta_zpl, node.eta_psb, 1.0 - node.eta_psb])
    outcome = source[_SOURCE] * fate[_CHANCE[:, 0]] * fate[_CHANCE[:, 1]]
    chance = np.bincount(_ENTRY, outcome, minlength=6 * len(_RECORD_CLICKS))
    chance = np.clip(chance, 0.0, None).reshape(-1, 2, 3)
    total = float(chance.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise PhotonicsError(f"branch weights sum to {total}, not 1")
    amps = np.sqrt(chance)
    if np.any(amps[_RECORD_CLICKS >= 1, 1]):
        raise PhotonicsError("side-band-flagged branch has spin-|1> amplitude")
    if np.any(amps[_RECORD_CLICKS >= 2, :, 1:]):
        raise PhotonicsError("double side-band branch has resonant photon amplitude")
    present = _MEMBERS @ np.any(amps, axis=(1, 2)) > 0
    dens = np.einsum("cr,rsn,rtm->csntm", _MEMBERS[present], amps, amps)
    return [c for c, p in zip(_CLASSES, present) if p], dens


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


_PATTERNS = ("+", "-", "none", "both")


@lru_cache(maxsize=8)
def _beam_splitter(visibility: float) -> tuple[np.ndarray, np.ndarray]:
    """The beam splitter's table at one visibility, as read-only arrays.

    Returns bs[cfg, n1, n2], the output Fock amplitudes of ``_bs_maps`` over
    the sorted output configurations (zero for n1 + n2 > 2), and
    clicks[p, cfg], whether a configuration's click pattern is
    ``_PATTERNS[p]``.  Only the visibility changes the table, so it is built
    once per visibility.
    """
    maps = _bs_maps(visibility)
    cfgs = sorted({cfg for amps in maps.values() for cfg in amps})
    index = {cfg: k for k, cfg in enumerate(cfgs)}
    bs = np.zeros((len(cfgs), 3, 3), dtype=complex)
    for (n1, n2), amps in maps.items():
        for cfg, coef in amps.items():
            bs[index[cfg], n1, n2] = coef
    clicks = np.array([[_pattern(cfg) == p for cfg in cfgs] for p in _PATTERNS])
    bs.flags.writeable = clicks.flags.writeable = False
    return bs, clicks


def _interference_kernel(visibility: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Beam splitter and phase average as one kernel over output configurations.

    Returns K[cfg, n1, n2, n1', n2'] = M[cfg, n1, n2] M*[cfg, n1', n2'] G[n2, n2']
    and the click masks of ``_beam_splitter``, where M is its table and G
    the Gaussian-averaged relative-phase factor between components that
    took a different number of photons from node 2.
    """
    bs, clicks = _beam_splitter(visibility)
    d = np.arange(3)
    phase = np.exp(-0.5 * (sigma * (d[:, None] - d[None, :])) ** 2)
    kernel = np.einsum("knm,klp,mp->knmlp", bs, bs.conj(), phase)
    return kernel, clicks


# The herald contraction: kernel, node-1 densities, node-2 densities.
_HERALD = "knmlp,xanbl,ycmdp->xykacbd"


def _herald_paths() -> dict[tuple[int, int, int], list]:
    """numpy's greedy path for ``_HERALD`` per (configurations, node-1 classes, node-2 classes).

    The beam splitter has fewer output configurations at visibility 0 or 1
    than in between, and a node has one to four flag classes.  The greedy
    choice depends on the shapes (two different paths occur), so each
    shape keeps its own.
    """
    paths = {}
    for n_cfg in {len(_beam_splitter(v)[0]) for v in (0.0, 0.5, 1.0)}:
        for nx in range(1, len(_CLASSES) + 1):
            for ny in range(1, len(_CLASSES) + 1):
                operands = (
                    np.empty((n_cfg, 3, 3, 3, 3), dtype=complex),
                    np.empty((nx, 2, 3, 2, 3)),
                    np.empty((ny, 2, 3, 2, 3)),
                )
                paths[n_cfg, nx, ny] = np.einsum_path(_HERALD, *operands, optimize=True)[0]
    return paths


_HERALD_PATHS = _herald_paths()


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
    pair of flag classes.  The contraction follows numpy's greedy path for
    its shapes, found once at import (``_HERALD_PATHS``), and the kernel
    starts from the beam-splitter table of the link's visibility, built
    once per visibility (``_beam_splitter``).  Coefficient vectors over the
    configurations then apply the click patterns and dark counts: a single
    click heralds its detector's sign (times the chance of no dark count),
    no click heralds either sign through one dark count, and clicks in both
    detectors are discarded.  Flagged class pairs are rejected when tailored
    heralding is on, which leaves only the unflagged pair; with it off,
    every pair heralds and its flags are tallied.  Photon numbers above two
    in total are truncated; their weight, from the nodes' photon-number
    marginals, must stay below 1e-6.

    Returns herald probabilities per detector sign, the conditioned
    (normalized) two-spin states, rejected/discarded weights, and the
    side-band flag statistics used for tailored-heralding analysis.
    """
    # np.allclose's test, written out for two (start, length) pairs.
    for a, b in zip(link.node1.windows.zpl_window, link.node2.windows.zpl_window):
        if not abs(a - b) <= 1e-8 + 1e-5 * abs(b):
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

    kernel, clicks = _interference_kernel(
        link.visibility, math.radians(link.phase_uncertainty_deg)
    )
    # rho[x, y, cfg] over spins (s1 s2, s1' s2'), for node-1 class x, node-2 class y.
    path = _HERALD_PATHS[len(kernel), len(dens1), len(dens2)]
    rho = np.einsum(_HERALD, kernel, dens1, dens2, optimize=path)
    rho = rho.reshape(rho.shape[:3] + (4, 4))
    weight = np.einsum("xykii->xyk", rho).real

    p_dark = link.dark_rate_hz * link.zpl_window_ns * 1e-9
    dark = p_dark * (1.0 - p_dark)
    # Herald coefficient per sign (+, -) and configuration: one click in that
    # detector and no dark count, or no click and one dark count.
    sign, none, both = clicks[:2], clicks[2], clicks[3]
    coef = (1.0 - p_dark) * sign + dark * none
    heralded = np.einsum("sk,xykij->sxyij", coef, rho)
    p_double = float(np.sum(weight[:, :, both]))

    acc = np.zeros((2, 4, 4), dtype=complex)
    flag_rho: dict[tuple, np.ndarray] = {}
    p_rejected = 0.0
    if link.psb_rejection:
        # Only the pair of unflagged classes, where both nodes have one, heralds.
        flagged = np.array([[bool(c1 or c2) for c2 in classes2] for c1 in classes1])
        acc += heralded[:, ~flagged].sum(axis=1)
        p_rejected = float(np.einsum("sfii->", heralded[:, flagged]).real)
    else:
        # Class pairs whose herald-capable configurations carry weight record flags.
        seen = np.sum(weight[:, :, ~both], axis=2) > 0.0
        for x, c1 in enumerate(classes1):
            for y, c2 in enumerate(classes2):
                pair = heralded[:, x, y]
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
