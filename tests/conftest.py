"""Test set-up: the benchmark's oracles are importable as `oracles`.

bench/oracles.py computes B, B'/B, fiber completeness and hull distances
without any code from blaschkelab, so the tests check the root finders
against it.  Its 50-digit cross-checks need mpmath; tests that use them
call pytest.importorskip("mpmath") first.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
