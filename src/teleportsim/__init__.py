"""Simulator of a three-node spin-qubit network teleportation experiment.

Layers, bottom up:

- :mod:`teleportsim.hilbert` -- dense density-matrix algebra.
- :mod:`teleportsim.emitter` -- driven three-level emitter and photon
  emission statistics.
- :mod:`teleportsim.photonics` -- heralded two-node entanglement with
  side-band flagging, losses, interference and dark counts.
- :mod:`teleportsim.spin_noise` -- phenomenological memory/communication
  qubit noise channels and the basis-alternating repetitive readout.
- :mod:`teleportsim.protocol` -- the three-node protocol: link generation,
  entanglement swapping, teleportation and feed-forward, averaged exactly
  or sampled shot by shot.
- :mod:`teleportsim.harness` -- scenario runner, error budgets, rate model,
  reports; :mod:`teleportsim.cli` exposes it as a command line tool.
"""

__version__ = "0.1.0"
