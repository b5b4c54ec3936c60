"""Experiment-calibrated default parameters and link construction.

Values mirror the three-node experiment this simulator reproduces: per-link
bright-state populations, detection probabilities, side-band efficiencies,
interference visibility, phase uncertainty and dark-count rate, plus the
memory/communication qubit noise fits and readout fidelities used by the
protocol layer.  Parameters the experiment does not pin down (pulse shape,
attempt period, overhead durations, per-window visibilities below 15 ns) are
calibration inputs and marked as such.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import emitter, photonics, spin_noise

LIFETIME_NS = 12.0  # excited-state lifetime (calibration input)
GRID = emitter.TimeGrid(horizon=200.0)
PSB_WINDOW = (0.0, 190.0)  # side-band monitoring spans pulse and decay


@dataclass(frozen=True)
class LinkConfig:
    """Raw per-link configuration, before pulse/efficiency calibration."""

    name: str
    alpha: tuple[float, float]
    detection_prob: tuple[float, float]  # per-photon, given the bright state
    psb_efficiency: float
    double_excitation: float  # target P2 for pulse calibration
    visibility: float
    phase_uncertainty_deg: float
    dark_rate_hz: float
    window_ns: float = 15.0
    pulse_ns: tuple[float, float] = (5.0, 5.0)  # calibration input
    window_start_ns: float = 1.5  # detection window opens mid-pulse (calibration)
    psb_rejection: bool = True
    # Interference visibility per detection window length; shorter windows
    # reject late, spectrally diffused photons (calibration inputs below 15 ns).
    visibility_by_window: tuple = ((15.0, 0.90), (10.0, 0.91), (7.5, 0.92))


LINK_AB = LinkConfig(
    name="AB",
    alpha=(0.07, 0.05),
    detection_prob=(3.4e-4, 5.1e-4),
    psb_efficiency=0.10,
    double_excitation=0.06,
    visibility=0.90,
    phase_uncertainty_deg=21.0,
    dark_rate_hz=10.0,
    pulse_ns=(5.0, 5.0),
)

LINK_BC = LinkConfig(
    name="BC",
    alpha=(0.05, 0.10),
    detection_prob=(4.3e-4, 2.4e-4),
    psb_efficiency=0.12,
    double_excitation=0.08,
    visibility=0.90,
    phase_uncertainty_deg=12.0,
    dark_rate_hz=10.0,
    pulse_ns=(6.0, 6.0),
)

# Links one process can need: AB and BC, with side-band rejection on and off,
# and the ideal link of noiseless runs, each at every calibrated window (15).
# Other links, such as new designs, are built once and not reused, so they
# only evict.
_LINKS_KEPT = (2 * 2 + 1) * len(LinkConfig.visibility_by_window)


def _pulse_emission(
    pars: emitter.EmitterParams, pulse_ns: float, p2_target: float
) -> emitter.EmissionProbabilities:
    """Emission of a node's pulse, calibrated to the re-excitation target."""
    if p2_target > 0.0:
        pulse = emitter.calibrate_pulse(
            p2_target, emitter.PulseShape("square", 1.0, pulse_ns), pars, GRID
        )
        return emitter.solve_emission(pulse, pars, GRID)
    # Idealized source: exact-pi-area pulse with the re-excitation branch off.
    pulse = emitter.PulseShape("square", np.pi / (2.0 * pulse_ns), pulse_ns)
    return emitter.solve_emission(pulse, pars, GRID).without_double_excitation()


def _build_node(
    pars: emitter.EmitterParams,
    em: emitter.EmissionProbabilities,
    wp: emitter.WindowProbabilities,
    detection_prob: float,
    eta_psb: float,
) -> photonics.NodeOptics:
    node = photonics.NodeOptics(
        alpha=pars.alpha,
        p_zpl=pars.p_zpl,
        emission=em,
        windows=wp,
        eta_zpl=0.02,
        eta_psb=eta_psb,
    )
    return photonics.calibrate_eta_zpl(node, detection_prob)


def build_link(cfg: LinkConfig, window_ns: float | None = None) -> photonics.LinkParams:
    """Calibrate pulses and efficiencies for a link configuration.

    ``window_ns`` overrides the detection window; the visibility then follows
    the per-window table, and a window the table lacks is an error (a link
    with an empty table keeps its single visibility at every window).
    Efficiencies are always calibrated against the detection probabilities
    at the reference window (the one the experiment quotes), so shorter
    windows genuinely lose photons.  The ``_LINKS_KEPT`` most recent links
    are kept per (configuration, resolved window), so ``window_ns=None`` and
    the configuration's own window return the same object.
    """
    return _build_link(cfg, cfg.window_ns if window_ns is None else window_ns)


def _ns(window: float) -> str:
    """A window length that reads back as the same float: 15.0000001, 12, 7.5."""
    return str(float(window)).removesuffix(".0")


@lru_cache(maxsize=_LINKS_KEPT)
def _build_link(cfg: LinkConfig, window: float) -> photonics.LinkParams:
    table = dict(cfg.visibility_by_window)
    if table and window not in table:
        raise photonics.PhotonicsError(
            f"link {cfg.name}: no visibility calibrated for a {_ns(window)} ns window"
            f" (have {', '.join(_ns(w) for w in table)} ns)"
        )
    vis = table.get(window, cfg.visibility)
    pars = [emitter.EmitterParams(gamma=1.0 / LIFETIME_NS, alpha=a) for a in cfg.alpha]
    # Shorter windows keep their trailing edge: the early, re-excitation
    # contaminated photons are dropped first.
    start = cfg.window_start_ns + max(cfg.window_ns - window, 0.0)
    # A node's emission and window tables follow from its pulse, not from its
    # bright-state population, so nodes with equal pulse lengths share them:
    # the tables at the reference window (for the efficiency) and at this one.
    sources = {}
    for node_pars, pulse_ns in zip(pars, cfg.pulse_ns):
        if pulse_ns not in sources:
            em = _pulse_emission(node_pars, pulse_ns, cfg.double_excitation)
            ref = emitter.window_probabilities(
                em, (cfg.window_start_ns, cfg.window_ns), PSB_WINDOW
            )
            if window != cfg.window_ns:
                here = emitter.window_probabilities(em, (start, window), PSB_WINDOW)
            else:
                here = ref
            sources[pulse_ns] = em, ref, here
    nodes = []
    for i, node_pars in enumerate(pars):
        em, ref, here = sources[cfg.pulse_ns[i]]
        node = _build_node(node_pars, em, ref, cfg.detection_prob[i], cfg.psb_efficiency)
        nodes.append(node if here is ref else replace(node, windows=here))
    return photonics.LinkParams(
        node1=nodes[0],
        node2=nodes[1],
        visibility=vis,
        phase_uncertainty_deg=cfg.phase_uncertainty_deg,
        dark_rate_hz=cfg.dark_rate_hz,
        zpl_window_ns=window,
        psb_rejection=cfg.psb_rejection,
    )


def ideal_link_config(name: str = "ideal") -> LinkConfig:
    """A link with every imperfection off and a vanishing protocol error."""
    return LinkConfig(
        name=name,
        alpha=(1e-10, 1e-10),
        detection_prob=(3.4e-4, 3.4e-4),
        psb_efficiency=0.10,
        double_excitation=0.0,
        visibility=1.0,
        phase_uncertainty_deg=0.0,
        dark_rate_hz=0.0,
        visibility_by_window=(),
    )


# Memory-qubit storage decay under continued entanglement attempts, fitted as
# amplitude * exp(-(n / n_scale) ** stretch): with/without the mid-sequence
# decoupling pulse, with entanglement attempts running or an equivalent wait.
MEMORY_FITS = {
    "attempts_decoupled": {"amplitude": 0.875, "scale": 5327.0, "stretch": 1.13},
    "attempts_bare": {"amplitude": 0.806, "scale": 848.0, "stretch": 1.21},
    "wait_decoupled": {"amplitude": 0.884, "scale": 5239.0, "stretch": 1.94},
    "wait_bare": {"amplitude": 0.807, "scale": 880.0, "stretch": 1.37},
}

# Communication-qubit average state fidelity during dynamical decoupling,
# fitted as amplitude * exp(-(t / tau_s) ** stretch) + 0.5, per node, for
# eigenstates and superposition states.
DECOUPLING_FITS = {
    "alice": {
        "eigen": {"amplitude": 0.4930, "scale": 0.459, "stretch": 1.04},
        "super": {"amplitude": 0.4889, "scale": 0.54, "stretch": 1.07},
    },
    "bob": {
        "eigen": {"amplitude": 0.4738, "scale": 0.130, "stretch": 1.41},
        "super": {"amplitude": 0.4634, "scale": 0.177, "stretch": 1.47},
    },
    "charlie": {
        "eigen": {"amplitude": 0.4897, "scale": 0.357, "stretch": 1.67},
        "super": {"amplitude": 0.4936, "scale": 0.56, "stretch": 0.92},
    },
}

# Readout and gate noise used in the teleportation model.
COMM_READOUT = {"bob": (0.93, 0.995), "charlie": (0.92, 0.99)}
MEMORY_READOUT_EFFECTIVE = {"bob": (0.99, 0.99), "charlie": (0.98, 0.98)}
MEMORY_STORE_DEPOL = {"bob": 0.12, "charlie": 0.14}
IONIZATION_ALICE = 0.007
PREP_INIT_ERROR = 1.2e-3
PREP_PULSE_ERROR = 8e-3

# Basis-alternating readout per-block parameters (calibrated to the measured
# two-repetition fidelities and accepted fractions).
BAR_PARAMS = {
    "bob": {"map_error": 0.02, "flip_pre": 0.005, "flip_post": 0.005},
    "charlie": {"map_error": 0.02, "flip_pre": 0.015, "flip_post": 0.005},
}


def readout_params(node: str) -> spin_noise.ReadoutParams:
    """The calibrated readout model of node "bob" or "charlie"."""
    return spin_noise.ReadoutParams(
        comm_fidelities=COMM_READOUT[node],
        memory_effective=MEMORY_READOUT_EFFECTIVE[node],
        **BAR_PARAMS[node],
    )


BAR_CONSISTENT_FRACTION = 0.88
TIMEOUT_ATTEMPTS = 1000

# Timing model (calibration inputs; the experiment reports only end-to-end
# event rates).
ATTEMPT_PERIOD_S = 5.5e-6
CR_CHECK_PASS = 0.95
FIXED_OVERHEAD_ALICE_S = 2.0e-3  # swap + phase stabilization + messaging
CYCLE_OVERHEAD_S = 0.5  # per-cycle charge/resonance checks + stabilization
BSM_OVERHEAD_S = 5e-3  # Bob's Bell-state measurement after a successful cycle
CHARLIE_STAGE_S = 5e-3  # Charlie's stage (rotation and readout) per event
EVENT_OVERHEAD_S = 20.0  # per-event calibration and dead time
