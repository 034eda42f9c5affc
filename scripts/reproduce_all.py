#!/usr/bin/env python3
"""Run ``mparray reproduce`` on each built-in reference design.

Each run prints what ``reproduce`` prints: its summary line, the published
element count, minimality, min_phase and the witness.  The exit status is
the number of designs whose exit code is not the expected one: 0 for
design1-3, and 2 for the 27-element pencil, whose Chebyshev optimum
(-29.6024 dB) cannot meet its -30 dB bound; the pencil-beam criterion of
tests/test_acceptance.py checks that the pencil sits at that optimum.
"""
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mparray.cli import main as mparray
from mparray.designs import EXPECTED_ELEMENTS

EXPECTED_EXIT = {"pencil": 2}  # bands unmet by design; every other key exits 0


def main() -> int:
    misses = 0
    with tempfile.TemporaryDirectory() as tmp:
        for key in EXPECTED_ELEMENTS:
            code = mparray(["reproduce", key, "--out", str(Path(tmp) / key)])
            if code != EXPECTED_EXIT.get(key, 0):
                print(f"{key}: exit {code}, expected {EXPECTED_EXIT.get(key, 0)}")
                misses += 1
    return misses


if __name__ == "__main__":
    sys.exit(main())
