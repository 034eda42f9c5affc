#!/usr/bin/env python3
"""Run the four built-in reference designs and print their headline numbers.

Exit status is the number of designs that miss their published result: a
flat-top design judged by the rule of ``mparray reproduce`` (its bands
unmet, a zero outside the unit circle, or more elements than the published
count), or a pencil whose sidelobes are not at the Chebyshev optimum
1/T_M(y1) for its element count (the 27-element pencil cannot reach its
-30 dB bound, so that bound is not the judge).  A clean reproduction
exits 0.
"""
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mparray import builtin_spec, design_pencil, evaluate, find_min_order
from mparray.designs import EXPECTED_ELEMENTS, PENCIL_STOP_EDGE

PENCIL_TOL_DB = 1e-4


def flat_top_designs() -> int:
    failures = 0
    for key in ("design1", "design2", "design3"):
        spec = builtin_spec(key)
        t0 = time.perf_counter()
        result = find_min_order(spec)
        elapsed = time.perf_counter() - t0
        report = result.report
        published = EXPECTED_ELEMENTS[key]
        failures += not (report.feasible and report.min_phase
                         and result.order <= published)
        print(f"{key}: N={result.order} (published {published})  "
              f"sidelobes {report.max_sidelobe_db:.4f} dB  "
              f"ripple {report.flattop_ripple_db:.4f} dB  "
              f"max|z| {report.zero_max_radius:.9f}  ({elapsed:.2f} s)")
        print(f"  gamma {report.gamma:.4e}  autocorr residual "
              f"{report.autocorr_residual:.3e}  Q {report.expansion}")
        for lv in report.bands:
            print(f"  {lv.kind:>4} band [{lv.u_lo:.4f}, {lv.u_hi:.4f}]  "
                  f"achieved {lv.achieved_db:8.4f} dB  "
                  f"margin {lv.margin_db:+.4f} dB")
    return failures


def chebyshev_pencil_db(element_count: int, edge: float) -> float:
    """Least sidelobe level of an array with unit peak at u = 0, in dB.

    1/T_M(y1) with M = (element_count-1)/2 and y1 = (3 - cos edge)/(1 + cos
    edge).  The same closed form is derived in ``_chebyshev_pencil_level``
    of tests/test_acceptance.py (criterion 4); keep the two in step.
    """
    x_edge = math.cos(edge)
    y1 = (3.0 - x_edge) / (1.0 + x_edge)
    half_order = (element_count - 1) // 2
    return -20.0 * math.log10(math.cosh(half_order * math.acosh(y1)))


def pencil_design() -> int:
    proto = design_pencil()
    report = evaluate(proto.taps, builtin_spec("pencil"))
    circle = float(np.max(np.abs(np.abs(report.zeros) - 1.0)))
    sll = report.max_sidelobe_db
    optimum_db = chebyshev_pencil_db(len(proto.taps), PENCIL_STOP_EDGE)
    print(f"pencil: N={len(proto.taps)}  sidelobes {sll:.4f} dB  "
          f"max||z|-1| {circle:.3e}  "
          f"{'min phase' if report.min_phase else 'zeros on circle'}")
    print(f"  optimum ripple delta {proto.delta:.6f} "
          f"({20.0 * math.log10(proto.delta):.4f} dB); a 27-tap equiripple "
          f"design cannot reach -30 dB")
    print(f"  Chebyshev optimum {optimum_db:.4f} dB, "
          f"off by {abs(sll - optimum_db):.1e} dB (tolerance {PENCIL_TOL_DB:g})")
    return int(abs(sll - optimum_db) > PENCIL_TOL_DB)


def main() -> int:
    failures = flat_top_designs()
    failures += pencil_design()
    return failures


if __name__ == "__main__":
    sys.exit(main())
