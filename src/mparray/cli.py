"""Command line front end: design, reproduce, analyze.

Artifacts written to the output directory:

  weights.csv   index,re,im           excitation, exact round-trip floats
  pattern.csv   u_rad,theta_deg,magnitude_db   over u in [-pi, pi]
  zeros.csv     re,im,radius          pattern zeros
  report.json   the design report

Exit codes: 0 success, 1 usage or input errors, 2 bands unmet (the best
attempt is still written).  reproduce exits 0 only when its report is
feasible and minimum phase with no more elements than the published count.

Options beyond the inputs and --out: --max-n caps the element search
(design, reproduce) and --grid sets the resolution of pattern.csv.  Every
tolerance is fixed: the factorization is Newton-polished with the lift
margin spectral_factor.GAMMA_MARGIN, and a design is minimum phase when no
zero lies more than analysis.ZERO_RADIUS_TOL outside the unit circle.

Design requests are JSON objects:

    {
      "name": "lowpass",                  // optional
      "spacing_wavelengths": 0.5,
      "angle_unit": "u_rad",              // or "theta_deg"
      "steering_angle_rad": 0.0,          // optional, radians of theta
      "bands": [
        {"u_lo": 0.0, "u_hi": 0.68, "kind": "pass", "ripple_db": 0.25},
        {"u_lo": 2.72, "u_hi": 3.14159265, "kind": "stop", "max_level_db": -52}
      ]
    }

With angle_unit "theta_deg" the band edges are read as theta in degrees,
each in [-90, 90], and converted through u = 2*pi*spacing*sin(theta) on load.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# pattern_metrics is not called here; perfbench/spans.py wraps it at this lookup site.
from .analysis import (ZERO_RADIUS_TOL, apply_steering, array_factor,
                       pattern_metrics, polynomial_zeros)
from .designs import EXPECTED_ELEMENTS, builtin_spec, design_pencil
from .prototype import OrderSearchError, SearchLimits, evaluate, find_min_order
from .spec_model import BandSpec, DesignSpec, theta_to_u, validate_spec


PATTERN_POINTS = 8192  # pattern.csv samples over [0, pi]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for unmet bands
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(value, field: str) -> float:
    """A JSON number as a float; strings, booleans and nulls are input errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def _required(entry: dict, key: str, owner: str):
    """``entry[key]``; a missing key is an input error naming it and its owner."""
    if key not in entry:
        raise ValueError(f"{owner} is missing required key {key!r}")
    return entry[key]


def load_design_spec(path: str | Path) -> DesignSpec:
    """Read and validate a JSON design request."""
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a design request is a JSON object")
    spacing = _number(_required(data, "spacing_wavelengths", "the request"),
                      "spacing_wavelengths")
    angle_unit = data.get("angle_unit", "u_rad")
    if angle_unit not in ("u_rad", "theta_deg"):
        raise ValueError(f"angle_unit must be 'u_rad' or 'theta_deg', got {angle_unit!r}")

    def edge(entry: dict, key: str, owner: str) -> float:
        """A band edge in u; theta past endfire is an input error (sin folds it)."""
        field = f"{owner}.{key}"
        value = _number(_required(entry, key, owner), field)
        if angle_unit == "u_rad":
            return value
        if not abs(value) <= 90.0:
            raise ValueError(f"{field} must be a theta in [-90, 90] degrees, got {value!r}")
        return theta_to_u(math.radians(value), spacing)

    entries = _required(data, "bands", "the request")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("bands must be a list of JSON objects")
    bands = []
    for i, entry in enumerate(entries):
        level = {key: None if entry.get(key) is None
                 else _number(entry[key], f"bands[{i}].{key}")
                 for key in ("ripple_db", "max_level_db")}
        owner = f"bands[{i}]"
        bands.append(BandSpec(
            u_lo=edge(entry, "u_lo", owner),
            u_hi=edge(entry, "u_hi", owner),
            kind=_required(entry, "kind", owner),
            **level))
    spec = DesignSpec(
        spacing_wavelengths=spacing,
        bands=tuple(bands),
        steering_angle_rad=_number(data.get("steering_angle_rad", 0.0),
                                   "steering_angle_rad"),
        name=str(data.get("name", path.stem)))
    return validate_spec(spec)


def _read_weights(path: str | Path) -> np.ndarray:
    """Weights CSV whose indices are 0..N-1, each once, with N >= 1.

    Every entry must be finite and at least one nonzero: an all-zero
    excitation has no pattern to normalize or judge.
    """
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0].strip().lower() != "index,re,im":
        raise ValueError(f"{path}: expected a CSV with header 'index,re,im'")
    entries = [line.split(",") for line in rows[1:]]
    if not entries or sorted(int(k) for k, _, _ in entries) != list(range(len(entries))):
        raise ValueError(f"{path}: indices must be 0..N-1, each once, with N >= 1")
    c = np.zeros(len(entries), complex)
    for k, re, im in entries:
        c[int(k)] = complex(float(re), float(im))
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{path}: weights must be finite")
    if not np.any(c):
        raise ValueError(f"{path}: weights are all zero")
    if np.all(c.imag == 0.0):
        return c.real.copy()
    return c


def _pattern_rows(u, theta, db) -> list[str]:
    """The pattern.csv rows of the samples u: one %-format over the slice."""
    values = np.column_stack([u, theta, db]).ravel().tolist()
    return ("\n".join(["%.12g,%.6f,%.4f"] * len(u)) % tuple(values)).split("\n")


def _pattern_text(c, spacing: float, points: int) -> str:
    """pattern.csv over u in [-pi, pi], ``points`` samples on each half.

    The grid is odd and theta_deg (nan where |u| is past the visible limit
    2*pi*spacing) is computed on u >= 0 and mirrored.  The pattern is one
    ``array_factor`` call over every u.  Only the u >= 0 rows are
    formatted for real weights: |C| is then even, so each u < 0 row is the
    text of its u > 0 row with u and a finite theta negated.  Complex
    weights are formatted on both halves.  The rows are made in blocks of
    512 samples and joined per block, so only a block's row strings and
    floats are alive at a time.
    """
    half = np.linspace(0.0, math.pi, points)
    visible = 2.0 * math.pi * spacing
    theta = np.where(half <= visible * (1.0 + 1e-12),
                     np.degrees(np.arcsin(np.clip(half / visible, 0.0, 1.0))), np.nan)
    db = array_factor(c, np.concatenate([-half[:0:-1], half]))
    pos, neg = db[points - 1:], db[points - 1::-1]  # at u = half and at u = -half
    real = np.isrealobj(c)
    seen = np.count_nonzero(np.isfinite(theta))  # theta is finite on half[:seen]
    upper = _pattern_rows(half[:1], theta[:1], pos[:1])  # u = 0 has no mirror
    lower = []
    for lo in range(1, points, 512):
        k = slice(lo, lo + 512)
        rows = _pattern_rows(half[k], theta[k], pos[k])
        upper.append("\n".join(rows))
        if real:
            cut = max(seen - lo, 0)
            rows = (["-" + row.replace(",", ",-", 1) for row in rows[:cut]]
                    + ["-" + row for row in rows[cut:]])
        else:
            rows = _pattern_rows(-half[k], -theta[k], neg[k])
        lower.append("\n".join(reversed(rows)))
    return "\n".join(["u_rad,theta_deg,magnitude_db", *reversed(lower), *upper, ""])


def _write_artifacts(out: Path, c, spacing: float, zeros, report,
                     points: int) -> None:
    """Write the four artifacts of the module docstring, each text joined once."""
    artifacts = {
        "weights.csv": "\n".join(["index,re,im"] + [
            f"{k},{z.real!r},{z.imag!r}"
            for k, z in enumerate(np.asarray(c, complex).tolist())] + [""]),
        "pattern.csv": _pattern_text(c, spacing, points),
        "zeros.csv": "\n".join(["re,im,radius"] + [
            f"{z.real:.12g},{z.imag:.12g},{abs(z):.12g}" for z in zeros.tolist()] + [""]),
        "report.json": json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out / name).write_text(text)


def _search(spec: DesignSpec, limits: SearchLimits):
    """The least-count design of ``spec``: the trial ``find_min_order`` hands back.

    When no count meets the bands the search's best attempt, with its own
    report, is returned instead, for the caller to write and exit 2 on.  A
    search in which no trial produced weights has nothing to write: its
    OrderSearchError propagates, an exit 1.
    """
    try:
        return find_min_order(spec, limits)
    except OrderSearchError as err:
        if err.best.report is None:
            raise
        print(f"bands unmet up to {limits.max_order} elements; "
              f"writing the best attempt ({err.best.order} elements)", file=sys.stderr)
        return err.best


def _steered(c, spec: DesignSpec | None, sign: float):
    """``c`` steered by ``sign`` times the request's steering angle (``c`` if unsteered)."""
    if spec is None or spec.steering_angle_rad == 0.0:
        return c
    return apply_steering(c, sign * theta_to_u(spec.steering_angle_rad,
                                               spec.spacing_wavelengths))


def _publish(args, spec: DesignSpec, c, report) -> None:
    """Write ``c`` steered by ``spec`` and its report to ``--out``, and print a summary."""
    out = Path(args.out)
    c_out = _steered(c, spec, 1.0)
    # steering rotates the zeros
    zeros = report.zeros if c_out is c else polynomial_zeros(c_out)
    _write_artifacts(out, c_out, spec.spacing_wavelengths, zeros, report,
                     args.grid)
    print(f"{report.name or 'design'}: {report.element_count} elements, "
          f"sidelobes {report.max_sidelobe_db:.4f} dB, "
          f"ripple {report.flattop_ripple_db:.4f} dB -> {out}")


def run_design(args) -> int:
    limits = SearchLimits(args.max_n)
    spec = load_design_spec(args.spec)
    result = _search(spec, limits)
    _publish(args, spec, result.weights.c, result.report)
    return 0 if result.report.feasible else 2


def run_reproduce(args) -> int:
    """``design`` on a built-in request (the pencil's taps are closed form)."""
    key = args.design
    limits = SearchLimits(args.max_n)
    spec = builtin_spec(key)
    if key == "pencil":
        c = design_pencil().taps
        report = evaluate(c, spec)
    else:
        result = _search(spec, limits)
        c, report = result.weights.c, result.report
    _publish(args, spec, c, report)
    published = EXPECTED_ELEMENTS[key]
    print(f"published {published} elements, minimality {report.minimality}, "
          f"min_phase {report.min_phase} (zero_max_radius {report.zero_max_radius:.9f})")
    for line in report.witness:
        print(f"  {line}")
    met = report.feasible and report.min_phase and report.element_count <= published
    return 0 if met else 2


def run_analyze(args) -> int:
    c = _read_weights(args.weights)
    out = Path(args.out)
    spec = load_design_spec(args.spec) if args.spec else None
    # The bands are stated for the unsteered pattern, as design judges them;
    # the artifacts keep the file's own weights and zeros.
    judged = _steered(c, spec, -1.0)
    report = evaluate(judged, spec,
                      name=Path(args.weights).stem if spec is None else None)
    zeros = report.zeros if judged is c else polynomial_zeros(c)
    spacing = 0.5 if spec is None else spec.spacing_wavelengths
    _write_artifacts(out, c, spacing, zeros, report, args.grid)
    outside = np.count_nonzero(np.abs(zeros) > 1.0 + ZERO_RADIUS_TOL)
    verdict_txt = "minimum phase" if report.min_phase else \
        f"not minimum phase ({outside} zeros outside)"
    print(f"{len(c)} elements, {verdict_txt} -> {out}")
    return 0 if report.feasible else 2


def _pattern_points(text: str) -> int:
    """The ``--grid`` value: pattern.csv holds at least u = 0 and u = pi."""
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 points, got {points}")
    return points


def _add_common(p) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=_pattern_points, default=PATTERN_POINTS,
                   help="pattern.csv points over [0, pi] (default %(default)s); "
                        "the bands are judged exactly, not on this grid")


def _add_search(p) -> None:
    p.add_argument("--max-n", type=int, default=SearchLimits.max_order,
                   help="largest element count the search may try (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mparray",
                     description="Minimum-phase excitation synthesis for "
                                 "uniformly spaced linear arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design from a JSON band request")
    p_design.add_argument("--spec", required=True, help="JSON design request")
    _add_common(p_design)
    _add_search(p_design)
    p_design.set_defaults(func=run_design)

    p_rep = sub.add_parser("reproduce", help="run a built-in reference design")
    p_rep.add_argument("design", choices=sorted(EXPECTED_ELEMENTS),
                       help="which reference design to run")
    _add_common(p_rep)
    _add_search(p_rep)
    p_rep.set_defaults(func=run_reproduce)

    p_an = sub.add_parser("analyze", help="analyze an excitation from file")
    p_an.add_argument("--weights", required=True, help="weights CSV (index,re,im)")
    p_an.add_argument("--spec", help="optional JSON design request to check against")
    _add_common(p_an)
    p_an.set_defaults(func=run_analyze)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError:  # a ValueError, but not an input error
        raise
    # SpecValidationError, InfeasibleSpecError and JSONDecodeError are ValueErrors.
    except (ValueError, KeyError, OSError, OrderSearchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
