#!/usr/bin/env python3
"""Vary the Toeplitz expansion Q around the symbol-sized one and watch the weights settle.

For each built-in flat-top design, extract the factor of the same
prototype at multiples of the Q that spectral_factorize sizes from the
symbol, and print how far the weights move from the finest run, raw and
after Newton polish.  One banded Cholesky factor, of the section at the
largest Q, serves every Q: its column Q'+N-1 is the extraction at Q'.
Exits 1 if doubling the symbol-sized Q moves the raw extraction by more
than 1e-6.
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mparray import builtin_spec, find_min_order
from mparray.spectral_factor import cholesky_banded, refine_newton

MULTIPLES = (0.125, 0.25, 0.5, 1, 2, 4)
BOUND = 1e-6


def sweep(key: str) -> bool:
    result = find_min_order(builtin_spec(key))
    g = result.prototype.taps
    gamma, q = result.report.gamma, result.report.expansion
    expansions = [max(1, round(k * q)) for k in MULTIPLES]
    # Cholesky factors nest: column Q'+N-1 of the factor of the largest
    # section is the last column of the (Q'+N)-dimensional one's, bit for bit.
    fact = cholesky_banded(g, expansions[-1], gamma)
    raw = [fact[::-1, e + result.order - 1] for e in expansions]
    polished = [refine_newton(c, g, gamma)[0] for c in raw]
    print(f"{key} (N={result.order}): symbol-sized Q={q}, "
          f"max weight move vs Q={expansions[-1]}")
    print(f"  {'Q/Qs':>5}  {'Q':>6}  {'raw':>10}  {'newton':>10}")
    for k, e, c, p in zip(MULTIPLES[:-1], expansions, raw, polished):
        print(f"  {k:>5}  {e:>6}  {np.max(np.abs(c - raw[-1])):10.3e}  "
              f"{np.max(np.abs(p - polished[-1])):10.3e}")
    doubled = float(np.max(np.abs(raw[MULTIPLES.index(1)] - raw[MULTIPLES.index(2)])))
    print(f"  raw move doubling Qs: {doubled:.3e} (bound {BOUND:g})")
    return doubled <= BOUND


def main() -> int:
    ok = [sweep(key) for key in ("design1", "design2", "design3")]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
