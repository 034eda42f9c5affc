"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all)
before asserting, so a red criterion still reports its measured numbers.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mparray import (PrototypeBand, allpass_variants, apply_steering,
                     design1_spec, design2_spec, design3_spec, design_pencil,
                     find_min_order, partial_energy_profile,
                     polynomial_zeros, spectral_factorize)
from mparray.analysis import array_factor
from mparray.designs import DESIGN3_STOP_EDGE
from mparray.prototype import to_prototype_spec
from mparray.spectral_factor import (MIN_EXPANSION, autocorrelation, cholesky_banded,
                                     find_gamma, refine_newton, verify_factorization)

from conftest import ORACLE_SEED, make_min_phase
from equioscillation import count_alternations, equioscillation_extrema

FULL_GRID = np.linspace(-math.pi, math.pi, 8192)
PENCIL_EDGE = 0.1 * math.pi


def _emit(idx: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx:02d} {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_design1_reproduction():
    t0 = time.perf_counter()
    result = find_min_order(design1_spec())
    elapsed = time.perf_counter() - t0
    sll = result.report.max_sidelobe_db
    ripple = result.report.flattop_ripple_db
    max_radius = float(np.max(np.abs(polynomial_zeros(result.weights.c))))
    ok = (result.order == 6 and sll <= -52.0 and ripple <= 0.25
          and max_radius <= 1.0 + 1e-6 and elapsed < 2.0)
    _emit(1, ok, f"design1: N={result.order}, sidelobes {sll:.4f} dB, "
                 f"ripple {ripple:.4f} dB, max|z| {max_radius:.6f}, "
                 f"{elapsed:.2f} s")
    assert result.order == 6
    assert sll <= -52.0
    assert ripple <= 0.25
    assert max_radius <= 1.0 + 1e-6
    assert elapsed < 2.0


def test_criterion_02_design2_reproduction():
    t0 = time.perf_counter()
    result = find_min_order(design2_spec())
    elapsed = time.perf_counter() - t0
    sll = result.report.max_sidelobe_db
    ripple = result.report.flattop_ripple_db
    ok = (result.order == 14 and sll <= -21.0 and ripple <= 1.18
          and elapsed < 2.0)
    _emit(2, ok, f"design2: N={result.order}, sidelobes {sll:.4f} dB, "
                 f"ripple {ripple:.4f} dB, {elapsed:.2f} s")
    assert result.order == 14
    assert sll <= -21.0
    assert ripple <= 1.18
    assert elapsed < 2.0


def test_criterion_03_design3_asymmetric_spec(design3):
    c = design3.weights.c
    db = array_factor(c, FULL_GRID)
    neg = db[FULL_GRID <= -DESIGN3_STOP_EDGE]
    pos = db[FULL_GRID >= DESIGN3_STOP_EDGE]
    neg_sll, pos_sll = float(neg.max()), float(pos.max())
    ripple = design3.report.flattop_ripple_db
    real = bool(np.isrealobj(c))
    phase_flips = int(np.sum(np.asarray(c) < 0.0))
    ok = (design3.order == 14 and neg_sll <= -30.0 and pos_sll <= -20.0
          and ripple <= 0.5 and real and phase_flips > 0)
    _emit(3, ok, f"design3: N={design3.order}, sidelobes {neg_sll:.4f} dB "
                 f"(u<0) / {pos_sll:.4f} dB (u>0), ripple {ripple:.4f} dB, "
                 f"real weights with {phase_flips} sign flips")
    assert design3.order == 14
    assert neg_sll <= -30.0
    assert pos_sll <= -20.0
    assert ripple <= 0.5
    assert real and phase_flips > 0


def _chebyshev_pencil_level(element_count: int, edge: float) -> float:
    """Least sidelobe amplitude of an element_count array with unit peak at u = 0.

    The symmetric pattern is a degree-M polynomial in x = cos u
    (M = (element_count-1)/2) whose largest value on the stop region
    x in [-1, cos edge] is least, given the value 1 at x = 1, for the
    Chebyshev polynomial T_M scaled to that region: the level is
    1/T_M(y1) with y1 = (3 - cos edge)/(1 + cos edge).  Any phase,
    minimum phase included, does no better: |pattern|^2 is a nonnegative
    degree-2M polynomial in x, and T_2M + 1 = 2 T_M^2 gives it the same
    optimum.  scripts/reproduce_all.py ``chebyshev_pencil_db`` repeats
    this closed form in dB; keep the two in step.
    """
    half_order = (element_count - 1) // 2
    x_edge = math.cos(edge)
    y1 = (3.0 - x_edge) / (1.0 + x_edge)
    return 1.0 / math.cosh(half_order * math.acosh(y1))


def _pencil_sidelobe_db(taps) -> float:
    u = np.linspace(0.0, math.pi, 8192)
    db = array_factor(taps, u)
    return float(db[u >= PENCIL_EDGE].max())


def test_criterion_04_pencil_beam(pencil):
    taps = pencil.taps
    zeros = polynomial_zeros(taps)
    circle_dev = float(np.max(np.abs(np.abs(zeros) - 1.0)))
    sll = _pencil_sidelobe_db(taps)
    level = _chebyshev_pencil_level(27, PENCIL_EDGE)
    optimum_db = 20.0 * math.log10(level)
    sll_29 = _pencil_sidelobe_db(design_pencil(29).taps)
    ok = (len(taps) == 27 and len(zeros) == 26
          and circle_dev <= 1e-3 and abs(sll - optimum_db) <= 1e-4
          and pencil.delta == pytest.approx(level, rel=1e-12)
          and sll_29 <= -30.0)
    _emit(4, ok, f"pencil: {len(taps)} taps, {len(zeros)} zeros, "
                 f"max||z|-1| {circle_dev:.3e}, sidelobes {sll:.4f} dB "
                 f"(27-tap Chebyshev optimum {optimum_db:.4f} dB); "
                 f"29 taps {sll_29:.4f} dB (bound -30.0)")
    assert len(taps) == 27
    assert len(zeros) == 26
    assert circle_dev <= 1e-3
    # -30 dB is out of reach at 27 taps; the design must sit at the optimum.
    assert abs(sll - optimum_db) <= 1e-4
    assert pencil.delta == pytest.approx(level, rel=1e-12)
    # 29 is the next count design_pencil accepts, and the first to reach -30 dB.
    assert sll_29 <= -30.0


@pytest.mark.parametrize("element_count", [27, 29])
def test_pencil_peaks_at_its_level(element_count):
    proto = design_pencil(element_count)
    assert abs(proto.taps.sum() - 1.0) <= 1e-13  # A(0) = 1
    u = np.linspace(PENCIL_EDGE, math.pi, 2 ** 16)
    # u = 0 holds the 0 dB main-lobe peak A(0) = 1, so the sidelobe peak
    # relative to it is the sidelobe level itself.
    db = array_factor(proto.taps, np.append(0.0, u))
    assert db[0] == 0.0
    peak = 10.0 ** (float(db[1:].max()) / 20.0)
    assert peak == pytest.approx(proto.delta, rel=1e-12)


def test_criterion_05_factorization_round_trip():
    rng = np.random.default_rng(ORACLE_SEED)
    t0 = time.perf_counter()
    worst_raw = worst_refined = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        c = make_min_phase(rng, n)
        g = autocorrelation(c)
        raw, _ = spectral_factorize(g)
        refined, _ = spectral_factorize(g, newton=True)
        worst_raw = max(worst_raw, float(np.max(np.abs(raw.c - c))))
        worst_refined = max(worst_refined, float(np.max(np.abs(refined.c - c))))
    elapsed = time.perf_counter() - t0
    ok = worst_raw <= 1e-6 and worst_refined <= 1e-12 and elapsed < 30.0
    _emit(5, ok, f"round trip over 200 random arrays: raw {worst_raw:.3e} "
                 f"(bound 1e-6), refined {worst_refined:.3e} (bound 1e-12), "
                 f"{elapsed:.1f} s")
    assert worst_raw <= 1e-6
    assert worst_refined <= 1e-12
    assert elapsed < 30.0


def test_criterion_06_autocorrelation_residual(design1, design2, design3):
    details = []
    ok = True
    for label, result in (("design1", design1), ("design2", design2),
                          ("design3", design3)):
        g = result.prototype.taps
        # Q sized from the symbol: exp(-2Qt) <= t/4 for the outermost zero's
        # distance t from the circle, never below 30 N or MIN_EXPANSION.
        t = find_gamma(g)[2]
        assert result.report.expansion == max(
            30 * result.order, MIN_EXPANSION, math.ceil(math.log(4.0 / t) / (2.0 * t)))
        resid = float(np.max(np.abs(verify_factorization(result.weights, g))))
        bound = 1e-8 * float(np.max(np.abs(g)))
        ok = ok and resid <= bound
        details.append(f"{label} {resid:.3e}")
    _emit(6, ok, "factorization residual vs 1e-8*||g||_inf: " + ", ".join(details))
    for label, result in (("design1", design1), ("design2", design2),
                          ("design3", design3)):
        g = result.prototype.taps
        resid = float(np.max(np.abs(verify_factorization(result.weights, g))))
        assert resid <= 1e-8 * float(np.max(np.abs(g))), label


def test_criterion_07_expansion_stability(design1, design2, design3):
    # The raw extraction (last column of the section's factor) at the
    # symbol-sized Q the design used and at 2Q; the polished moves are shown.
    details = []
    moves = []
    for label, result in (("design1", design1), ("design2", design2),
                          ("design3", design3)):
        g = result.prototype.taps
        gamma, q = result.report.gamma, result.report.expansion
        raw = [cholesky_banded(g, e, gamma)[::-1, -1] for e in (q, 2 * q)]
        polished = [refine_newton(c, g, gamma)[0] for c in raw]
        move = float(np.max(np.abs(raw[0] - raw[1])))
        moves.append(move)
        details.append(f"{label} Q={q} {move:.3e} "
                       f"(polished {np.max(np.abs(polished[0] - polished[1])):.1e})")
    ok = all(m <= 1e-6 for m in moves)
    _emit(7, ok, "raw extraction change doubling the symbol-sized Q: " + ", ".join(details))
    assert all(m <= 1e-6 for m in moves)


def test_criterion_08_partial_energy_dominance(design1):
    c = design1.weights.c
    base = partial_energy_profile(c)
    energy = float(base[-1])
    variants = allpass_variants(c)
    excess = max(float(np.max(partial_energy_profile(v) - base))
                 for v in variants)
    end_dev = max(abs(float(partial_energy_profile(v)[-1]) - energy)
                  for v in variants)
    strict = min(float(np.max(base - partial_energy_profile(v)))
                 for v in variants[1:])
    ok = (len(variants) == 32 and excess <= 1e-9 * energy
          and end_dev <= 1e-9 * energy and strict >= 1e-9 * energy)
    _emit(8, ok, f"{len(variants)} variants: max excess {excess:.3e}, "
                 f"endpoint dev {end_dev:.3e}, min strict deficit {strict:.3e}")
    assert len(variants) == 32
    assert excess <= 1e-9 * energy
    assert end_dev <= 1e-9 * energy
    assert strict >= 1e-9 * energy


def test_criterion_09_equioscillation(design1, design2, design3, pencil):
    # An exchange design of degree M has M+1 free coefficients plus its level:
    # M+2 alternations.  The pencil spends one coefficient on A(0) = 1: M+1.
    # Each winning count was designed once, on the plan.
    def degree(proto):
        return (len(proto.taps) - 1) // 2

    cases = [(key, result.prototype, to_prototype_spec(spec()), degree(result.prototype) + 2)
             for key, result, spec in (("design1", design1, design1_spec),
                                       ("design2", design2, design2_spec),
                                       ("design3", design3, design3_spec))]
    cases.append(("pencil", pencil, (PrototypeBand(PENCIL_EDGE, math.pi, 0.0, 1.0),),
                  degree(pencil) + 1))
    counts = {label: count_alternations(equioscillation_extrema(proto, bands, points=2 ** 14),
                                        proto.delta, rel_tol=1e-6)
              for label, proto, bands, _ in cases}
    ok = all(counts[label] >= required for label, _, _, required in cases)
    _emit(9, ok, "alternations found/required: " + ", ".join(
        f"{label} {counts[label]}/{required}" for label, _, _, required in cases))
    for label, _, _, required in cases:
        assert counts[label] >= required, label


def test_criterion_10_steering_invariance(design1):
    c = design1.weights.c
    u0 = 0.7
    steered = array_factor(apply_steering(c, u0), FULL_GRID)
    shifted = array_factor(c, FULL_GRID - u0)
    db_dev = float(np.max(np.abs(steered - shifted)))
    ok = db_dev <= 1e-9
    _emit(10, ok, f"pattern translation under u0=0.7: max deviation "
                  f"{db_dev:.3e} dB (bound 1e-9)")
    assert db_dev <= 1e-9


def test_weights_match_published_fixture(design1, design2, design3, pencil):
    # Reference weights written with repr floats; 1e-12 absolute is the
    # tolerance the designs are held to across machines (LAPACK rounding).
    published = json.loads(
        (Path(__file__).parent / "data" / "published_weights.json").read_text())
    got = {"design1": design1.weights.c, "design2": design2.weights.c,
           "design3": design3.weights.c, "pencil27": pencil.taps,
           "pencil29": design_pencil(29).taps}
    for name, c in got.items():
        want = np.array(published[name])
        assert c.shape == want.shape, name
        assert np.max(np.abs(c - want)) <= 1e-12, name
