"""Seeded input generators of the benchmark.

These are the benchmark's own copies: the test suite's oracle may change
with a test refactor, the benchmark's inputs may not.  Every draw comes
from a ``numpy.random.Generator`` seeded by ``--seed``, so one seed always
gives the same inputs.  The parameter ranges below are listed in
``perfbench/README.md`` as well.
"""
from __future__ import annotations

import math

import numpy as np

# Minimum-phase oracle: element counts cycle through a seeded permutation
# of this inclusive range, so every window of 31 draws holds each size once.
ORACLE_N = (2, 32)
HOT_RADIUS = (0.88, 0.95)

# Lifted variant: the centre autocorrelation tap is lowered by this share
# of max G, so G dips below zero (for about 98 % of draws) and the
# factorizer has to lift it.
LIFT_DROP = (0.01, 0.20)

# Low-pass sweep: two bands at half-wavelength spacing.  The size parameter
# is (|stop level| + SIZE_OFFSET_DB) / transition width in dB per rad of u;
# the minimal element count comes out near 0.18 times it.  Stop level and
# pass edge (as a share of the room the transition leaves) are stratified
# on a SWEEP_GRID of cells, one request per cell, because the exchange
# fails in one corner of that plane (deep stop bands with wide pass
# bands): every pool then holds the same number of requests there.  Size
# and ripple form a Latin hypercube over the same requests.
SWEEP_SPACING = 0.5
SWEEP_STOP_DB = (-70.0, -20.0)
SWEEP_RIPPLE_DB = (0.25, 2.0)
SWEEP_SIZE = (32.0, 50.0)
SIZE_OFFSET_DB = 12.0
SWEEP_GRID = (12, 8)
SWEEP_PASS_EDGE_MIN = 0.2
SWEEP_STOP_WIDTH_MIN = 0.3
SWEEP_MAX_ORDER = 32

FFT_POINTS = 1 << 14


def min_phase(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random real length-n excitation with every zero inside radius 0.95.

    Conjugate-pair angles take distinct sectors of (0, pi) and radii
    distinct rings, which keeps the recovery well conditioned; one zero
    (the "hot" one) lands in HOT_RADIUS so the radius cap is exercised.
    """
    m = n - 1
    pairs = m // 2
    zeros = []
    hot = int(rng.integers(0, pairs + (m % 2)))
    for i in range(pairs):
        ang = np.pi * (i + 0.5 + 0.25 * rng.uniform(-1, 1)) / pairs
        ang = min(max(ang, 0.12 * np.pi), 0.88 * np.pi)
        if i == hot:
            r = rng.uniform(*HOT_RADIUS)
        else:
            r = 0.35 + 0.4 * (i + 0.25 + 0.5 * rng.random()) / pairs
        zeros += [r * np.exp(1j * ang), r * np.exp(-1j * ang)]
    if m % 2:
        r = rng.uniform(*HOT_RADIUS) if hot == pairs else rng.uniform(0.3, 0.6)
        zeros.append(complex(r if rng.random() < 0.5 else -r))
    c = np.real(np.poly(zeros))
    c = c / np.max(np.abs(c))
    return c if c.sum() > 0 else -c


def symbol(taps) -> np.ndarray:
    """G(u) = sum_m g[N-1+m] e^{-imu} of symmetric taps, on FFT_POINTS of [0, 2pi)."""
    taps = np.asarray(taps, float)
    n = (len(taps) + 1) // 2
    a = np.zeros(FFT_POINTS)
    a[:n] = taps[n - 1:]
    a[FFT_POINTS - n + 1:] = taps[:n - 1]
    return np.fft.fft(a).real


def sizes(rng: np.random.Generator, count: int) -> list[int]:
    """``count`` element counts from back-to-back seeded permutations of ORACLE_N."""
    lo, hi = ORACLE_N
    out: list[int] = []
    while len(out) < count:
        out.extend(int(n) for n in rng.permutation(np.arange(lo, hi + 1)))
    return out[:count]


def oracle_inputs(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Known minimum-phase excitations for the raw and Newton round trip."""
    return [min_phase(rng, n) for n in sizes(rng, count)]


def lifted_inputs(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Autocorrelation taps whose symbol, for almost every draw, dips below zero.

    Each is the autocorrelation of a fresh oracle draw with the centre tap
    lowered by a seeded LIFT_DROP share of max G.  A draw whose min G
    exceeds the drop (a short array with its zeros far from the circle)
    stays nonnegative and needs no lift.
    """
    out = []
    for n in sizes(rng, count):
        c = min_phase(rng, n)
        g = np.correlate(c, c, mode="full")
        g[n - 1] -= rng.uniform(*LIFT_DROP) * float(symbol(g).max())
        out.append(g)
    return out


def lowpass_specs(rng: np.random.Generator) -> list[dict]:
    """One request per SWEEP_GRID cell, as plain request dicts.

    SWEEP_SIZE starts high enough that the widest transition still leaves
    SWEEP_PASS_EDGE_MIN of pass band and SWEEP_STOP_WIDTH_MIN of stop band.
    """
    def scale(unit, lo_hi):
        return lo_hi[0] + (lo_hi[1] - lo_hi[0]) * unit

    rows, cols = SWEEP_GRID
    count = rows * cols
    cell = np.array([(i, j) for i in range(rows) for j in range(cols)])
    stop_u = (cell[:, 0] + rng.random(count)) / rows
    edge_u = (cell[:, 1] + rng.random(count)) / cols
    size_u, ripple_u = (np.array([rng.permutation(count) for _ in range(2)])
                        + rng.random((2, count))) / count
    specs = []
    for k in rng.permutation(count):
        stop_db = scale(stop_u[k], SWEEP_STOP_DB)
        transition = (SIZE_OFFSET_DB - stop_db) / scale(size_u[k], SWEEP_SIZE)
        edge_max = math.pi - SWEEP_STOP_WIDTH_MIN - transition
        pass_edge = scale(edge_u[k], (SWEEP_PASS_EDGE_MIN, edge_max))
        specs.append({
            "spacing_wavelengths": SWEEP_SPACING,
            "bands": [
                {"u_lo": 0.0, "u_hi": pass_edge, "kind": "pass",
                 "ripple_db": scale(ripple_u[k], SWEEP_RIPPLE_DB)},
                {"u_lo": pass_edge + transition, "u_hi": math.pi,
                 "kind": "stop", "max_level_db": stop_db},
            ],
        })
    return specs
