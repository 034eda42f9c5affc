"""The benchmark's workloads: what one op is, and how its outcome is checked.

Every op ends in exactly one outcome:

  verified            output passed every check
  expected_by_design  the pencil beam's exit 2, which the paper's bound forces
  clean_infeasible    InfeasibleSpecError, a clean refusal of the request
  clean_unmet         OrderSearchError, no element count up to the cap works
  failed:<Type>       any other exception escaped the call
  wrong:<check>       an output failed the named check

The first four count as success.  A ``wrong`` outcome is *refuted* when the
program vouched for the output (exit code 0, a returned search result, a
Newton polish reported as kept, or its own residual figure) and the
independent check says otherwise; any refuted output makes the run
incorrect.  Known defects the program reports honestly, such as a
``RemezConvergenceError`` or an under-lifted factor with Newton rejected,
are failures but not refutations.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import mparray
import mparray.cli

import checks
import inputs


@dataclass(frozen=True)
class Outcome:
    label: str
    ok: bool
    refuted: bool = False


VERIFIED = Outcome("verified", True)
EXPECTED_BY_DESIGN = Outcome("expected_by_design", True)


def wrong(check: str, vouched: bool) -> Outcome:
    return Outcome(f"wrong:{check}", False, refuted=vouched)


def crashed(err: BaseException) -> Outcome:
    return Outcome(f"failed:{type(err).__name__}", False)


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    # Exception types that are a clean outcome of this op, mapped to it.
    clean: tuple[tuple[type, Outcome], ...] = ()
    # Untimed preparation, run just before the call.
    before: Callable[[], None] = lambda: None

    def run(self) -> tuple[float, Outcome]:
        """Untimed preparation, the timed call, then the untimed check."""
        self.before()
        err = result = None
        t0 = time.perf_counter()
        try:
            result = self.call()
        except Exception as exc:  # every escaping exception is a classified outcome
            err = exc
        elapsed = time.perf_counter() - t0
        try:
            return elapsed, self.judge(result, err)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # An output that cannot even be read back is a wrong output.
            return elapsed, wrong(f"unreadable_output:{type(exc).__name__}", False)

    def judge(self, result, err: Exception | None) -> Outcome:
        if err is not None:
            for kind, outcome in self.clean:
                if isinstance(err, kind):
                    return outcome
            return crashed(err)
        return self.check(result)


# ----------------------------------------------------------------- reference

# The paper's published outcomes: exit code and element count per design.
PUBLISHED = {"design1": (0, 6), "design2": (0, 14), "design3": (0, 14),
             "pencil": (2, 27)}
PENCIL_SIDELOBE_DB = -29.6024
PENCIL_TOL_DB = 1e-3
PENCIL_CIRCLE_TOL = 1e-3
WEIGHTS_MATCH_TOL = 1e-12


def spec_dict(spec) -> dict:
    """JSON design request for a DesignSpec, as `mparray design --spec` reads it."""
    bands = []
    for b in spec.bands:
        entry = {"u_lo": b.u_lo, "u_hi": b.u_hi, "kind": b.kind}
        if b.ripple_db is not None:
            entry["ripple_db"] = b.ripple_db
        if b.max_level_db is not None:
            entry["max_level_db"] = b.max_level_db
        bands.append(entry)
    return {"name": spec.name, "spacing_wavelengths": spec.spacing_wavelengths,
            "angle_unit": "u_rad", "bands": bands}


def read_weights(path: Path) -> np.ndarray:
    rows = path.read_text().strip().splitlines()[1:]
    c = np.array([complex(float(re), float(im))
                  for _, re, im in (row.split(",") for row in rows)])
    return c.real.copy() if np.all(c.imag == 0.0) else c


def fresh(out: Path) -> Callable[[], None]:
    """Remove an output directory, so a check never reads a stale artifact."""
    return lambda: shutil.rmtree(out, ignore_errors=True)


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return mparray.cli.main(argv)


def _margins(report: dict) -> list:
    return [b["margin_db"] for b in report["bands"]]


class Reference:
    """The four published designs through the CLI, in-process.

    The pool runs, per design in a seeded order, ``reproduce`` and then
    ``analyze`` on the weights it wrote; after design1 it also runs
    ``design --spec`` on design1's request, the command a user runs on a
    request file.  That ninth op also keeps the op mix from splitting
    exactly in half, where the median would sit between two op kinds.
    """

    name = "reference"
    nonzero = ("cli.main", "prototype.find_min_order", "prototype.design_prototype",
               "equiripple.remez_design", "spectral_factor.spectral_factorize",
               "spectral_factor.find_gamma", "spectral_factor.cholesky",
               "spectral_factor.refine_newton", "analysis.array_factor",
               "analysis.pattern_metrics", "analysis.polynomial_zeros",
               "designs.design_pencil")
    zero = ()

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.specs: dict[str, dict] = {}
        for key in PUBLISHED:
            self.specs[key] = spec_dict(mparray.builtin_spec(key))
            (workdir / f"{key}.json").write_text(json.dumps(self.specs[key]))
        self.reports: dict[str, dict] = {}
        self.pool = []
        for key in np.random.default_rng(seed).permutation(list(PUBLISHED)):
            self.pool += [self._reproduce(str(key)), self._analyze(str(key))]
            if key == "design1":
                self.pool.append(self._design(str(key)))

    def _out(self, key: str, command: str) -> Path:
        return self.dir / f"{key}-{command}"

    def _reproduce(self, key: str) -> Op:
        out = self._out(key, "reproduce")
        argv = ["reproduce", key, "--out", str(out)]

        def check(rc) -> Outcome:
            want_rc, count = PUBLISHED[key]
            vouched = rc == 0
            if rc != want_rc:
                return wrong("exit_code", vouched)
            c = read_weights(out / "weights.csv")
            report = json.loads((out / "report.json").read_text())
            self.reports[key] = report
            if len(c) != count:
                return wrong("element_count", vouched)
            bands = self.specs[key]["bands"]
            if key == "pencil":
                for level in (report["max_sidelobe_db"], checks.max_sidelobe_db(c, bands)):
                    if abs(level - PENCIL_SIDELOBE_DB) > PENCIL_TOL_DB:
                        return wrong("sidelobe_level", vouched)
                if np.max(np.abs(checks.zero_radii(c) - 1.0)) > PENCIL_CIRCLE_TOL:
                    return wrong("zeros_on_circle", vouched)
                return EXPECTED_BY_DESIGN
            if min(_margins(report)) < 0.0 or not report["min_phase"]:
                return wrong("report_margins", vouched)
            if checks.band_shortfalls(c, bands):
                return wrong("bands", vouched)
            if not checks.is_min_phase(c):
                return wrong("min_phase", vouched)
            return VERIFIED

        return Op(f"reproduce {key}", lambda: run_cli(argv), check, before=fresh(out))

    def _analyze(self, key: str) -> Op:
        src = self._out(key, "reproduce")
        out = self._out(key, "analyze")
        argv = ["analyze", "--weights", str(src / "weights.csv"),
                "--spec", str(self.dir / f"{key}.json"), "--out", str(out)]

        def check(rc) -> Outcome:
            want_rc, count = PUBLISHED[key]
            vouched = rc == 0
            if rc != want_rc:
                return wrong("exit_code", vouched)
            report = json.loads((out / "report.json").read_text())
            if report["element_count"] != count:
                return wrong("element_count", vouched)
            published = self.reports.get(key)
            if published is None or _margins(report) != _margins(published) \
                    or report["min_phase"] != published["min_phase"]:
                return wrong("analyze_matches_reproduce", vouched)
            return EXPECTED_BY_DESIGN if key == "pencil" else VERIFIED

        return Op(f"analyze {key}", lambda: run_cli(argv), check, before=fresh(out))

    def _design(self, key: str) -> Op:
        out = self._out(key, "design")
        argv = ["design", "--spec", str(self.dir / f"{key}.json"), "--out", str(out)]

        def check(rc) -> Outcome:
            want_rc, count = PUBLISHED[key]
            vouched = rc == 0
            if rc != want_rc:
                return wrong("exit_code", vouched)
            c = read_weights(out / "weights.csv")
            if len(c) != count:
                return wrong("element_count", vouched)
            reproduced = read_weights(self._out(key, "reproduce") / "weights.csv")
            if len(reproduced) != count or \
                    np.max(np.abs(c - reproduced)) > WEIGHTS_MATCH_TOL:
                return wrong("design_matches_reproduce", vouched)
            if checks.band_shortfalls(c, self.specs[key]["bands"]):
                return wrong("bands", vouched)
            if not checks.is_min_phase(c):
                return wrong("min_phase", vouched)
            return VERIFIED

        return Op(f"design {key}", lambda: run_cli(argv), check, before=fresh(out))


# -------------------------------------------------------------------- factor

FACTOR_POOL = 512
REPORTED_RESIDUAL_TOL = 1e-12


def _reported_residual_ok(diag, weights, taps) -> bool:
    """The program's own residual figure agrees with the recomputed one."""
    true = checks.residual(weights.c, taps, weights.gamma_used)
    scale = float(np.max(np.abs(taps)))
    return abs(diag.autocorr_residual - true) <= REPORTED_RESIDUAL_TOL * max(scale, 1.0)


class Factor:
    """``spectral_factorize`` alone on seeded taps; no Remez, no CLI.

    The pool holds FACTOR_POOL triples: an oracle excitation factored raw
    and with Newton, each checked against the known weights, and one
    lifted input factored with Newton, checked for its residual and zero
    radii.
    """

    name = "factor"
    nonzero = ("spectral_factor.spectral_factorize", "spectral_factor.find_gamma",
               "spectral_factor.cholesky", "spectral_factor.refine_newton")
    zero = ("cli.main", "equiripple.remez_design", "prototype.find_min_order",
            "prototype.design_prototype", "designs.design_pencil",
            "analysis.array_factor", "analysis.pattern_metrics",
            "analysis.polynomial_zeros")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.oracle = inputs.oracle_inputs(rng, FACTOR_POOL)
        self.oracle_taps = [np.correlate(c, c, mode="full") for c in self.oracle]
        self.lifted = inputs.lifted_inputs(rng, FACTOR_POOL)
        self.pool = [op for k in range(FACTOR_POOL)
                     for op in (self._oracle(k, newton=False),
                                self._oracle(k, newton=True), self._lifted(k))]

    def _oracle(self, k: int, newton: bool) -> Op:
        c, g = self.oracle[k], self.oracle_taps[k]
        tol = checks.ORACLE_NEWTON_TOL if newton else checks.ORACLE_RAW_TOL

        def check(result) -> Outcome:
            weights, diag = result
            if not _reported_residual_ok(diag, weights, g):
                return wrong("reported_residual", True)
            if len(weights.c) != len(c) or np.max(np.abs(weights.c - c)) > tol:
                return wrong("oracle_newton" if newton else "oracle_raw", False)
            return VERIFIED

        label = "newton" if newton else "raw"
        return Op(f"oracle {label} n={len(c)}",
                  lambda: mparray.spectral_factorize(g, newton=newton), check)

    def _lifted(self, k: int) -> Op:
        g = self.lifted[k]

        def check(result) -> Outcome:
            weights, diag = result
            if not _reported_residual_ok(diag, weights, g):
                return wrong("reported_residual", True)
            bound = checks.RESIDUAL_REL_TOL * float(np.max(np.abs(g)))
            resid_ok = checks.residual(weights.c, g, weights.gamma_used) <= bound
            radius_ok = checks.is_min_phase(weights.c)
            if resid_ok and radius_ok:
                return VERIFIED
            # Newton reported as kept vouches for the residual.
            vouched = diag.refined and not resid_ok
            if weights.gamma_used < checks.lift_needed(g):
                return wrong("under_lift", vouched)
            return wrong("residual" if not resid_ok else "zero_radius", vouched)

        return Op(f"lifted n={(len(g) + 1) // 2}",
                  lambda: mparray.spectral_factorize(g, newton=True), check)


# --------------------------------------------------------------------- sweep


def design_spec(request: dict):
    bands = tuple(mparray.BandSpec(b["u_lo"], b["u_hi"], b["kind"],
                                   ripple_db=b.get("ripple_db"),
                                   max_level_db=b.get("max_level_db"))
                  for b in request["bands"])
    return mparray.DesignSpec(spacing_wavelengths=request["spacing_wavelengths"],
                              bands=bands, name="sweep")


class Sweep:
    """Seeded two-band low-pass requests through ``find_min_order``.

    The pool is one request per cell of inputs.SWEEP_GRID (see inputs.py).
    """

    name = "sweep"
    nonzero = ("prototype.find_min_order", "prototype.design_prototype",
               "equiripple.remez_design", "spectral_factor.spectral_factorize",
               "spectral_factor.find_gamma", "spectral_factor.cholesky",
               "spectral_factor.refine_newton", "analysis.array_factor",
               "analysis.pattern_metrics", "analysis.polynomial_zeros")
    zero = ("cli.main", "designs.design_pencil")

    def __init__(self, seed: int, workdir: Path):
        self.requests = inputs.lowpass_specs(np.random.default_rng(seed))
        self.specs = [design_spec(r) for r in self.requests]
        self.limits = mparray.SearchLimits(max_order=inputs.SWEEP_MAX_ORDER)
        self.pool = [self._design(k) for k in range(len(self.requests))]

    def _design(self, k: int) -> Op:
        request, spec = self.requests[k], self.specs[k]

        def check(result) -> Outcome:
            c = result.weights.c
            if len(c) != result.order:
                return wrong("element_count", True)
            if checks.band_shortfalls(c, request["bands"]):
                return wrong("bands", True)
            if not checks.is_min_phase(c):
                # The report's own min-phase verdict is what the program vouches for.
                return wrong("min_phase", result.report.min_phase)
            return VERIFIED

        clean = ((mparray.InfeasibleSpecError, Outcome("clean_infeasible", True)),
                 (mparray.OrderSearchError, Outcome("clean_unmet", True)))
        edges = request["bands"][0]["u_hi"], request["bands"][1]["u_lo"]
        return Op(f"lowpass {edges[0]:.3f}/{edges[1]:.3f}",
                  lambda: mparray.find_min_order(spec, self.limits), check, clean)


WORKLOADS = {w.name: w for w in (Reference, Factor, Sweep)}
