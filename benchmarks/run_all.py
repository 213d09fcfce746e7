#!/usr/bin/env python
"""Run the whole benchmark suite and write BENCH_PR1.json.

Thin CLI over :mod:`repro.tools.benchrunner`; see that module for the
report format and flags (``--smoke``, ``--seed``, ``--only``, ``--output``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.tools.benchrunner import main

if __name__ == "__main__":
    raise SystemExit(main())
