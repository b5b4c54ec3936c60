"""Time the simulator's set-up in a fresh interpreter and print it as JSON.

Run from the checkout root: ``python3 perfbench/probe.py``.  ``run.py``
starts this a few times per run and reports the median as ``setup_s``.
"""

import json

import bootstrap

if __name__ == "__main__":
    bootstrap.require_source()
    seconds, _cfg = bootstrap.timed_setup()
    print(json.dumps({"setup_s": seconds}))
