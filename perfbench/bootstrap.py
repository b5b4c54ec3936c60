"""Locate the simulator in the checkout and time its set-up.

Set-up is what every workload pays before its first op: importing the
package (numpy included), assembling the default conditional configuration
and building the heralded state of both default links.  ``make_config`` only
calibrates the links; ``build_heralded`` is otherwise paid lazily by the
first Monte Carlo shot, so it is counted here and not as an op.

This module imports nothing from the simulator at import time, so the import
cost lands inside the timed region of :func:`timed_setup`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    """Put ``src`` on the import path, or exit 2 when the checkout lacks it."""
    if not (SRC / "teleportsim" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def timed_setup():
    """Import the package and build the default links; returns (seconds, config)."""
    t0 = time.perf_counter()
    from teleportsim import cli, photonics, protocol  # noqa: F401  (cli pulls in every layer)

    cfg = protocol.make_config("conditional")
    photonics.build_heralded(cfg.link_ab)
    photonics.build_heralded(cfg.link_bc)
    return time.perf_counter() - t0, cfg
