"""Command line front end: design, reproduce, analyze.

Artifacts written to the output directory:

  weights.csv   index,re,im           excitation, exact round-trip floats
  pattern.csv   u_rad,theta_deg,magnitude_db   over u in [-pi, pi]
  zeros.csv     re,im,radius          pattern zeros
  report.json   the design report

Exit codes: 0 success, 1 usage or input errors, 2 bands unmet (the best
attempt is still written).  reproduce exits 0 only when its report is
feasible and minimum phase with no more elements than the published count.

The one option beyond the inputs and --out, --max-n, caps the element
search (design, reproduce).  pattern.csv always has PATTERN_POINTS samples
on each half of [-pi, pi]; its u_rad,theta_deg text is built once per
spacing in a process, and each write formats only magnitude_db.  Every
tolerance is fixed: the factorization is Newton-polished with the lift
margin spectral_factor.GAMMA_MARGIN, and a design is minimum phase when
no zero lies more than analysis.ZERO_RADIUS_TOL outside the unit circle.

Design requests are JSON objects:

    {
      "name": "lowpass",                  // optional, default the file stem
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
import functools
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
from .spec_model import BandSpec, DesignSpec, theta_to_u


PATTERN_POINTS = 8192  # pattern.csv samples over [0, pi]
_BLOCK_ROWS = 512  # pattern.csv rows per %-format


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for unmet bands
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(value, field: str) -> float:
    """A JSON number as a float; strings, booleans, nulls and huge ints are input errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # json reads any integer literal, however long
        raise ValueError(f"{field} must be a number in float range") from None


def _required(entry: dict, key: str, owner: str):
    """``entry[key]``; a missing key is an input error naming it and its owner."""
    if key not in entry:
        raise ValueError(f"{owner} is missing required key {key!r}")
    return entry[key]


def load_design_spec(path: str | Path) -> DesignSpec:
    """Read a JSON design request; DesignSpec checks what it states."""
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
    name = path.stem if data.get("name") is None else data["name"]
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    return DesignSpec(
        spacing_wavelengths=spacing,
        bands=tuple(bands),
        steering_angle_rad=_number(data.get("steering_angle_rad", 0.0),
                                   "steering_angle_rad"),
        name=name)


def _read_weights(path: str | Path) -> np.ndarray:
    """Weights CSV whose indices are 0..N-1, each once, with N >= 1.

    Every entry must be finite and at least one nonzero: an all-zero
    excitation has no pattern to normalize or judge.  A row that is not
    an integer and two floats is an input error naming its 1-based line.
    """
    text = Path(path).read_text()
    rows = text.strip().splitlines()
    if not rows or rows[0].strip().lower() != "index,re,im":
        raise ValueError(f"{path}: expected a CSV with header 'index,re,im'")
    header_line = text[:len(text) - len(text.lstrip())].count("\n") + 1
    weights = {}
    for line, row in enumerate(rows[1:], header_line + 1):
        try:  # a wrong field count fails the unpacking, a ValueError too
            k, re, im = row.split(",")
            weights[int(k)] = complex(float(re), float(im))
        except ValueError:
            raise ValueError(f"{path}: line {line}: expected index,re,im, "
                             f"got {row!r}") from None
    # a repeated index leaves fewer keys than rows
    if not weights or sorted(weights) != list(range(len(rows) - 1)):
        raise ValueError(f"{path}: indices must be 0..N-1, each once, with N >= 1")
    c = np.array([weights[k] for k in range(len(weights))])
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{path}: weights must be finite")
    if not np.any(c):
        raise ValueError(f"{path}: weights are all zero")
    if np.all(c.imag == 0.0):
        return c.real.copy()
    return c


@functools.lru_cache(maxsize=4)
def _pattern_template(spacing: float, points: int):
    """pattern.csv's u grid (read-only), ``stops`` and its text with magnitude_db as ``%.4f``.

    u and theta_deg (nan past the visible limit |u| = 2*pi*spacing) are odd
    in u whatever the weights, so only the u >= 0 rows are formatted: a
    u < 0 row is its u > 0 row's text with u and a finite theta negated.
    The text is made and kept in blocks of at most _BLOCK_ROWS rows, split
    in u at ``stops``, one %-format each, so that only one block's floats
    and row strings are alive at a time: that bounds the peak RSS of a write.
    """
    half = np.linspace(0.0, math.pi, points)
    visible = 2.0 * math.pi * spacing
    theta = np.where(half <= visible * (1.0 + 1e-12),
                     np.degrees(np.arcsin(np.clip(half / visible, 0.0, 1.0))), np.nan)
    seen = np.count_nonzero(np.isfinite(theta))  # theta is finite on half[:seen]
    bounds = [0, *range(1, points, _BLOCK_ROWS), points]  # u = 0, with no mirror, alone
    pos, neg = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = ("%.12g,%.6f,%%.4f\n" * (hi - lo) % tuple(np.column_stack(
            [half[lo:hi], theta[lo:hi]]).ravel().tolist())).splitlines(keepends=True)
        pos.append("".join(rows))
        if lo:
            cut = max(seen - lo, 0)
            mirror = (["-" + row.replace(",", ",-", 1) for row in rows[:cut]]
                      + ["-" + row for row in rows[cut:]])
            neg.append("".join(reversed(mirror)))
    sizes = np.diff(bounds)
    stops = np.cumsum([*sizes[:0:-1], *sizes])[:-1]  # the u < 0 blocks mirror the u > 0 ones
    u = np.concatenate([-half[:0:-1], half])
    u.flags.writeable = False  # shared by every write at this key
    return u, tuple(stops.tolist()), (*reversed(neg), *pos)


def _pattern_text(c, spacing: float, points: int) -> str:
    """pattern.csv of ``c``: one ``array_factor`` call over the template's u."""
    u, stops, blocks = _pattern_template(spacing, points)
    return "".join(["u_rad,theta_deg,magnitude_db\n", *(
        block % tuple(db.tolist())
        for block, db in zip(blocks, np.split(array_factor(c, u), stops)))])


def _write_artifacts(out: Path, c, spacing: float, zeros, report) -> None:
    """Write the four artifacts, each joined once (pattern.csv formats only magnitude_db)."""
    artifacts = {
        "weights.csv": "\n".join(["index,re,im"] + [
            f"{k},{z.real!r},{z.imag!r}"
            for k, z in enumerate(np.asarray(c, complex).tolist())] + [""]),
        "pattern.csv": _pattern_text(c, spacing, PATTERN_POINTS),
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
    _write_artifacts(out, c_out, spec.spacing_wavelengths, zeros, report)
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
    _write_artifacts(out, c, spacing, zeros, report)
    outside = np.count_nonzero(np.abs(zeros) > 1.0 + ZERO_RADIUS_TOL)
    verdict_txt = "minimum phase" if report.min_phase else \
        f"not minimum phase ({outside} zeros outside)"
    print(f"{len(c)} elements, {verdict_txt} -> {out}")
    return 0 if report.feasible else 2


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
    p_design.add_argument("--out", required=True, help="output directory")
    _add_search(p_design)
    p_design.set_defaults(func=run_design)

    p_rep = sub.add_parser("reproduce", help="run a built-in reference design")
    p_rep.add_argument("design", choices=sorted(EXPECTED_ELEMENTS),
                       help="which reference design to run")
    p_rep.add_argument("--out", required=True, help="output directory")
    _add_search(p_rep)
    p_rep.set_defaults(func=run_reproduce)

    p_an = sub.add_parser("analyze", help="analyze an excitation from file")
    p_an.add_argument("--weights", required=True, help="weights CSV (index,re,im)")
    p_an.add_argument("--spec", help="optional JSON design request to check against")
    p_an.add_argument("--out", required=True, help="output directory")
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
