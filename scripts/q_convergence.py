#!/usr/bin/env python3
"""Sweep the Toeplitz expansion factor and watch the weights settle.

For each built-in flat-top design, factor the same prototype at a ladder
of expansion factors and print how far the weights move from the finest
run, with and without Newton polish.
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mparray import builtin_spec, find_min_order, spectral_factorize

FACTORS = (5, 10, 15, 30, 60, 120)


def sweep(key: str) -> None:
    result = find_min_order(builtin_spec(key))
    g = result.prototype.taps
    runs: dict[bool, list] = {False: [], True: []}
    expansions = []
    for factor in FACTORS:
        for newton in (False, True):
            weights, diag = spectral_factorize(g, expansion_factor=factor,
                                               newton=newton)
            runs[newton].append(weights.c)
        expansions.append(diag.expansion)
    print(f"{key} (N={result.order}): max weight move vs Q={expansions[-1]}")
    print(f"  {'Q/N':>5}  {'Q':>5}  {'raw':>10}  {'newton':>10}")
    for i, factor in enumerate(FACTORS[:-1]):
        raw = float(np.max(np.abs(runs[False][i] - runs[False][-1])))
        ref = float(np.max(np.abs(runs[True][i] - runs[True][-1])))
        print(f"  {factor:>5}  {expansions[i]:>5}  {raw:10.3e}  {ref:10.3e}")


def main() -> int:
    for key in ("design1", "design2", "design3"):
        sweep(key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
