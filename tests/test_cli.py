import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal.windows import chebwin

import mparray.cli as cli_module
import mparray.prototype as prototype_module
from mparray import (OrderSearchError, RemezConvergenceError, SearchLimits,
                     apply_steering, builtin_spec, design1_spec, design_pencil,
                     evaluate, find_min_order)
from mparray.analysis import array_factor
from mparray.cli import (PATTERN_POINTS, _build_parser, _pattern_text,
                         _read_weights, load_design_spec, main)

PASS_EDGE = math.pi * math.sin(0.2182)
STOP_EDGE = math.pi * math.sin(math.pi / 3.0)


def write_spec(path, *, angle_unit="u_rad", spacing=0.5, steering=0.0,
               bands=None, name="lowpass"):
    if bands is None:
        bands = [
            {"u_lo": 0.0, "u_hi": PASS_EDGE, "kind": "pass", "ripple_db": 0.25},
            {"u_lo": STOP_EDGE, "u_hi": math.pi, "kind": "stop",
             "max_level_db": -52.0},
        ]
    path.write_text(json.dumps({
        "name": name,
        "spacing_wavelengths": spacing,
        "angle_unit": angle_unit,
        "steering_angle_rad": steering,
        "bands": bands,
    }))


def read_report(out):
    return json.loads((out / "report.json").read_text())


def write_request(path, spec):
    """The JSON request for a DesignSpec, as `design --spec` reads it."""
    path.write_text(json.dumps({
        "name": spec.name,
        "spacing_wavelengths": spec.spacing_wavelengths,
        "steering_angle_rad": spec.steering_angle_rad,
        "bands": [{"u_lo": b.u_lo, "u_hi": b.u_hi, "kind": b.kind,
                   "ripple_db": b.ripple_db, "max_level_db": b.max_level_db}
                  for b in spec.bands],
    }))


FACTORIZATION_KEYS = ("gamma", "symbol_min", "autocorr_residual", "expansion",
                      "refined")


def test_design_writes_artifacts(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out = tmp_path / "out"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 0

    for name in ("weights.csv", "pattern.csv", "zeros.csv", "report.json"):
        assert (out / name).exists()
    report = read_report(out)
    assert report["element_count"] == 6
    assert report["feasible"] is True
    assert report["min_phase"] is True
    assert report["max_sidelobe_db"] <= -52.0
    assert report["minimality"] == "route_only"
    # The exchange's level at 5 elements is the witness: it passed 1 on
    # the third reference.
    assert report["witness"] == ["equiripple level >= 1.8408 > 1 on the plan (iteration 3)"]
    assert report["symbol_min"] < 0.0 < report["gamma"]
    assert "purge_residual" not in report and "lambda_min_estimate" not in report
    assert len(_read_weights(out / "weights.csv")) == 6

    header = (out / "pattern.csv").read_text().splitlines()[0]
    assert header == "u_rad,theta_deg,magnitude_db"


def test_design_runs_are_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["design", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["design", "--spec", str(spec), "--out", str(out2)]) == 0
    for name in ("weights.csv", "pattern.csv", "zeros.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_degree_bands_match_u_bands(tmp_path):
    u_spec, deg_spec = tmp_path / "u.json", tmp_path / "deg.json"
    write_spec(u_spec)
    write_spec(deg_spec, angle_unit="theta_deg", bands=[
        {"u_lo": 0.0, "u_hi": math.degrees(0.2182), "kind": "pass",
         "ripple_db": 0.25},
        {"u_lo": 60.0, "u_hi": 90.0, "kind": "stop", "max_level_db": -52.0},
    ])
    out_u, out_deg = tmp_path / "u", tmp_path / "deg"
    assert main(["design", "--spec", str(u_spec), "--out", str(out_u)]) == 0
    assert main(["design", "--spec", str(deg_spec), "--out", str(out_deg)]) == 0
    cu = _read_weights(out_u / "weights.csv")
    cd = _read_weights(out_deg / "weights.csv")
    assert cd == pytest.approx(cu, abs=1e-9)


def test_theta_edge_past_endfire_exits_one(tmp_path, capsys):
    # sin folds 100 deg onto 80 deg: the stop band would be met as [30, 80] deg.
    spec, out = tmp_path / "deg.json", tmp_path / "o"
    write_spec(spec, angle_unit="theta_deg", bands=[
        {"u_lo": 0.0, "u_hi": 10.0, "kind": "pass", "ripple_db": 0.5},
        {"u_lo": 30.0, "u_hi": 100.0, "kind": "stop", "max_level_db": -30.0},
    ])
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 1
    assert "error: bands[1].u_hi must be a theta in [-90, 90]" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_spec_exits_one(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, bands=[
        {"u_lo": 0.0, "u_hi": 1.0, "kind": "pass", "ripple_db": 0.25},
        {"u_lo": 1.5, "u_hi": 2.0, "kind": "pass", "ripple_db": 0.25},
    ])
    assert main(["design", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_and_malformed_inputs_exit_one(tmp_path):
    out = str(tmp_path / "o")
    assert main(["design", "--spec", str(tmp_path / "nope.json"),
                 "--out", out]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["design", "--spec", str(bad), "--out", out]) == 1


# Every exchange of this request's search converges, and it meets the bands
# at 14 elements; the test below forces the exchange at 13 to fail.
EXCHANGE_FAILURE_BANDS = [
    {"u_lo": 0.0, "u_hi": 1.1147, "kind": "pass", "ripple_db": 2.0},
    {"u_lo": 1.7247, "u_hi": math.pi, "kind": "stop", "max_level_db": -47.54},
]


def test_exchange_failure_is_a_failed_trial_not_a_crash(tmp_path, capsys, monkeypatch):
    real = prototype_module.design_prototype

    def fails_at_13(plan, n, start=None, **kwargs):
        if n == 13:
            raise RemezConvergenceError("forced", 1)
        return real(plan, n, start, **kwargs)

    monkeypatch.setattr(prototype_module, "design_prototype", fails_at_13)
    spec = tmp_path / "spec.json"
    write_spec(spec, bands=EXCHANGE_FAILURE_BANDS)
    out = tmp_path / "out"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 0
    for name in ("weights.csv", "pattern.csv", "zeros.csv", "report.json"):
        assert (out / name).exists()
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    # The failed exchange at one element fewer backs no minimality claim.
    report = read_report(out)
    assert report["element_count"] == 14
    assert report["witness"] == ["exchange failed: forced"]
    assert report["minimality"] == "unproven"


def test_non_finite_prototype_taps_end_in_exit_two(tmp_path, capsys):
    # The stop band ends short of pi, so the final taps of this request are
    # read outside the reference nodes; they stay finite, no count meets the
    # bands, and the search ends with its best attempt.  That attempt is
    # ranked by its least band margin, so a near-flat pattern (stop band at
    # -0.0000 dB, 19 elements) wins it; with the conservative plan it was a
    # 36-element pattern missing both bands.
    spec = tmp_path / "spec.json"
    write_spec(spec, name="short_stop", bands=[
        {"u_lo": 0.0, "u_hi": 0.5596160170328854, "kind": "pass",
         "ripple_db": 0.8900416182032752},
        {"u_lo": 1.2309532909585377, "u_hi": 1.6471045872554742, "kind": "stop",
         "max_level_db": -57.77033050100829}])
    out = tmp_path / "out"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 2
    for name in ("weights.csv", "pattern.csv", "zeros.csv", "report.json"):
        assert (out / name).stat().st_size > 0
    report = read_report(out)
    assert report["element_count"] == 19 and report["feasible"] is False
    assert [w.split(" [")[0] for w in report["witness"]] == ["stop band"]
    err = capsys.readouterr().err
    assert "bands unmet" in err and "error:" not in err


def test_numerical_failure_is_not_an_input_error(tmp_path, monkeypatch):
    # LinAlgError is a ValueError, but it is the program's failure, not the
    # request's: main lets it through instead of exiting 1.
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr("mparray.cli.find_min_order", fails)
    spec = tmp_path / "spec.json"
    write_spec(spec)
    with pytest.raises(np.linalg.LinAlgError, match="forced"):
        main(["design", "--spec", str(spec), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("field, value", [
    ("ripple_db", "0.25"), ("spacing_wavelengths", "0.5"),
    ("steering_angle_rad", True), ("u_hi", "1.0"), ("max_level_db", False),
    ("spacing_wavelengths", None),
    pytest.param("max_level_db", -(10**400), id="max_level_db-400_digits"),
    pytest.param("spacing_wavelengths", 10**400, id="spacing_wavelengths-400_digits")])
def test_non_numeric_request_fields_exit_one(tmp_path, capsys, field, value):
    request = {"spacing_wavelengths": 0.5, "steering_angle_rad": 0.0, "bands": [
        {"u_lo": 0.0, "u_hi": 1.0, "kind": "pass", "ripple_db": 0.25},
        {"u_lo": 2.0, "u_hi": math.pi, "kind": "stop", "max_level_db": -40.0}]}
    if field in request:
        request[field] = value
    else:
        request["bands"][1 if field == "max_level_db" else 0][field] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(request))
    assert main(["design", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err and f"{field} must be a number" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("name, expected", [
    (None, "spec"), ("wide", "wide"), ({"a": 1}, None), (7, None)],
    ids=["null", "string", "object", "number"])
def test_request_name_is_a_string_or_the_file_stem(tmp_path, capsys, name, expected):
    # A null name is an absent one, as for ripple_db and max_level_db.
    spec, out = tmp_path / "spec.json", tmp_path / "o"
    write_spec(spec, name=name)
    code = main(["design", "--spec", str(spec), "--out", str(out)])
    captured = capsys.readouterr()
    if expected is None:
        assert code == 1 and not out.exists()
        assert f"error: name must be a string, got {name!r}" in captured.err
    else:
        assert code == 0 and read_report(out)["name"] == expected
        assert captured.out.startswith(f"{expected}: 6 elements")


@pytest.mark.parametrize("request_json", [
    [0.5], {"spacing_wavelengths": 0.5, "bands": 5},
    {"spacing_wavelengths": 0.5, "bands": [1, 2]}])
def test_malformed_request_shapes_exit_one(tmp_path, capsys, request_json):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(request_json))
    assert main(["design", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("band, key", [
    (None, "spacing_wavelengths"), (None, "bands"),
    (0, "u_lo"), (1, "u_hi"), (1, "kind")])
def test_missing_request_keys_exit_one(tmp_path, capsys, band, key):
    request = {"spacing_wavelengths": 0.5, "bands": [
        {"u_lo": 0.0, "u_hi": 1.0, "kind": "pass", "ripple_db": 0.25},
        {"u_lo": 2.0, "u_hi": math.pi, "kind": "stop", "max_level_db": -40.0}]}
    del (request if band is None else request["bands"][band])[key]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(request))
    assert main(["design", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    owner = "the request" if band is None else f"bands[{band}]"
    err = capsys.readouterr().err
    assert f"error: {owner} is missing required key '{key}'" in err
    assert "Traceback" not in err


def test_zero_width_stop_band_exits_one(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, bands=[
        {"u_lo": 0.0, "u_hi": 0.68, "kind": "pass", "ripple_db": 0.25},
        {"u_lo": 2.0, "u_hi": 2.0, "kind": "stop", "max_level_db": -52.0},
        {"u_lo": 2.72, "u_hi": math.pi, "kind": "stop", "max_level_db": -52.0}])
    assert main(["design", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "u_lo < u_hi" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:  # pattern.csv's resolution is fixed
        main(["reproduce", "design1", "--out", "o", "--grid", "5"])
    assert exc.value.code == 1


def test_grid_sets_only_the_pattern_rows(tmp_path, monkeypatch):
    # PATTERN_POINTS = 5 samples [0, pi] at 5 points, mirrored to 9 rows
    # over [-pi, pi].  The bands are judged exactly, not on the grid, so
    # the weights and the report match a default run byte for byte.
    coarse, fine = tmp_path / "coarse", tmp_path / "fine"
    assert main(["reproduce", "design1", "--out", str(fine)]) == 0
    monkeypatch.setattr("mparray.cli.PATTERN_POINTS", 5)
    assert main(["reproduce", "design1", "--out", str(coarse)]) == 0
    rows = (coarse / "pattern.csv").read_text().splitlines()[1:]
    u = [float(row.split(",")[0]) for row in rows]
    assert u == pytest.approx(np.linspace(-math.pi, math.pi, 9), rel=1e-11)
    for name in ("weights.csv", "report.json"):
        assert (coarse / name).read_bytes() == (fine / name).read_bytes()


def test_unreachable_bands_write_best_attempt(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out = tmp_path / "out"
    code = main(["design", "--spec", str(spec), "--out", str(out), "--max-n", "3"])
    assert code == 2
    assert "bands unmet" in capsys.readouterr().err
    report = read_report(out)
    assert report["feasible"] is False
    assert report["element_count"] == 3
    assert report["witness"]
    assert report["minimality"] is None
    assert len(_read_weights(out / "weights.csv")) == 3
    with pytest.raises(OrderSearchError) as err:
        find_min_order(load_design_spec(spec), SearchLimits(max_order=3))
    assert report["witness"] == list(err.value.best.violations)
    assert report == json.loads(json.dumps(err.value.best.report.to_dict()))


def test_reproduce_with_unreachable_bands_writes_best_attempt(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce", "design1", "--out", str(out), "--max-n", "3"]) == 2
    captured = capsys.readouterr()
    assert "bands unmet" in captured.err
    assert "published 6 elements" in captured.out
    for name in ("weights.csv", "pattern.csv", "zeros.csv", "report.json"):
        assert (out / name).exists()
    report = read_report(out)
    assert report["feasible"] is False
    assert report["element_count"] == 3
    assert report["minimality"] is None
    assert len(_read_weights(out / "weights.csv")) == 3
    with pytest.raises(OrderSearchError) as err:
        find_min_order(builtin_spec("design1"), SearchLimits(max_order=3))
    assert report["witness"] == list(err.value.best.violations)
    assert report == json.loads(json.dumps(err.value.best.report.to_dict()))
    lines = captured.out.splitlines()
    assert all(f"  {line}" in lines for line in report["witness"])


def test_reproduce_design1_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce", "design1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = read_report(out)
    assert report["element_count"] == 6
    assert report["min_phase"] is True
    assert "published 6 elements" in lines[1]
    # exit 0: the witness is the bracket that rules out 5 elements
    assert report["witness"] == ["equiripple level >= 1.8408 > 1 on the plan (iteration 3)"]
    assert f"  {report['witness'][0]}" in lines


def test_reproduce_design3_checks_real_weights(tmp_path):
    out = tmp_path / "out"
    assert main(["reproduce", "design3", "--out", str(out)]) == 0
    c = _read_weights(out / "weights.csv")
    assert c.dtype == np.float64  # imaginary parts all exactly zero
    assert np.min(c) < 0.0


def test_reproduce_pencil_reports_sidelobe_shortfall(tmp_path, capsys):
    out = tmp_path / "out"
    # 27 elements cannot reach -30 dB: the Chebyshev optimum at edge 0.1 pi
    # is -29.60 dB (closed form in acceptance criterion 4). The run must
    # say so, not hide it.
    assert main(["reproduce", "pencil", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "published 27 elements" in lines[1]
    assert ("  stop band [0.314159, 3.14159]: "
            "achieved -29.6024 dB vs bound -30.0000 dB") in lines
    report = read_report(out)
    assert report["element_count"] == 27
    assert abs(report["zero_max_radius"] - 1.0) <= 1e-3  # zeros on the unit circle
    assert abs(report["zero_min_radius"] - 1.0) <= 1e-3


def test_analyze_round_trips_design_artifacts(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out, out2 = tmp_path / "out", tmp_path / "out2"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["analyze", "--weights", str(out / "weights.csv"),
                 "--spec", str(spec), "--out", str(out2)]) == 0
    designed, analyzed = read_report(out), read_report(out2)
    for key in ("name", "element_count", "bands", "max_sidelobe_db",
                "flattop_ripple_db", "min_phase", "zero_max_radius"):
        assert analyzed[key] == designed[key]


def test_analyze_without_spec_flags_max_phase(tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("index,re,im\n0,0.5,0.0\n1,1.0,0.0\n")
    out = tmp_path / "out"
    assert main(["analyze", "--weights", str(weights), "--out", str(out)]) == 0
    assert "not minimum phase (1 zeros outside)" in capsys.readouterr().out
    report = read_report(out)
    assert report["min_phase"] is False
    assert report["zero_max_radius"] == pytest.approx(2.0)


@pytest.mark.parametrize("key", ["design1", "design2", "design3"])
def test_analyze_reports_what_reproduce_reports(tmp_path, key):
    request = tmp_path / "request.json"
    write_request(request, builtin_spec(key))
    out, out2 = tmp_path / "out", tmp_path / "out2"
    assert main(["reproduce", key, "--out", str(out)]) == 0
    assert main(["analyze", "--weights", str(out / "weights.csv"),
                 "--spec", str(request), "--out", str(out2)]) == 0
    reproduced, analyzed = read_report(out), read_report(out2)
    assert analyzed.keys() == reproduced.keys()
    for field in FACTORIZATION_KEYS + ("witness", "minimality"):
        del reproduced[field], analyzed[field]
    assert analyzed == reproduced


def test_analyze_of_the_pencil_equals_its_reproduce(tmp_path):
    request = tmp_path / "pencil.json"
    write_request(request, builtin_spec("pencil"))
    out, out2 = tmp_path / "out", tmp_path / "out2"
    assert main(["reproduce", "pencil", "--out", str(out)]) == 2
    assert main(["analyze", "--weights", str(out / "weights.csv"),
                 "--spec", str(request), "--out", str(out2)]) == 2
    assert (out2 / "report.json").read_bytes() == (out / "report.json").read_bytes()
    report = read_report(out)
    assert len(report["witness"]) == 1 and report["witness"][0].startswith("stop band")


def test_analyze_without_spec_writes_the_design_schema(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out, out2 = tmp_path / "out", tmp_path / "out2"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["analyze", "--weights", str(out / "weights.csv"),
                 "--out", str(out2)]) == 0
    designed, analyzed = read_report(out), read_report(out2)
    assert analyzed.keys() == designed.keys()
    assert analyzed["bands"] == [] and analyzed["witness"] == []
    assert analyzed["max_sidelobe_db"] is None
    assert analyzed["flattop_ripple_db"] is None
    for key in ("element_count", "zero_count", "zero_max_radius", "min_phase"):
        assert analyzed[key] == designed[key]


def test_parser_defaults_are_the_search_defaults():
    parser = _build_parser()
    for command in ("design --spec s.json", "reproduce design1"):
        args = parser.parse_args(command.split() + ["--out", "o"])
        assert SearchLimits(args.max_n) == SearchLimits()


@pytest.mark.parametrize("command", ["design --spec {spec}", "reproduce design1",
                                     "reproduce pencil"])
def test_max_n_below_one_is_an_input_error(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    out = tmp_path / "out"
    argv = command.format(spec=spec).split() + ["--out", str(out), "--max-n", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "max_order" in err and "got 0" in err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    "0,1.0,0.0\n5,0.5,0.0\n",    # index past the end
    "0,1.0,0.0\n0,0.5,0.0\n",    # repeated index, 1 missing
    "-1,1.0,0.0\n0,0.5,0.0\n",   # negative index
    "",                          # header only
    "0,1.0,0.0\n1,nan,0.0\n",    # not a number
    "0,1.0,0.0\n1,0.5,inf\n",    # infinite
    "0,0.0,0.0\n1,0.0,0.0\n",    # no excitation at all
], ids=["out_of_range", "repeated", "negative", "header_only", "nan", "inf",
        "all_zero"])
def test_analyze_rejects_bad_weight_indices(tmp_path, capsys, body):
    weights = tmp_path / "weights.csv"
    weights.write_text("index,re,im\n" + body)
    assert main(["analyze", "--weights", str(weights),
                 "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("body, line, row", [
    ("0,1.0,0.0\n0,1.0\n", 3, "0,1.0"),               # two fields
    ("0,1.0,0.0,2.0\n", 2, "0,1.0,0.0,2.0"),          # four fields
    ("0,1.0,0.0\n\n1,0.5,0.0\n", 3, ""),              # a blank line inside
    ("0,1.0,0.0\n1,abc,0\n", 3, "1,abc,0"),           # not a float
    ("x,1,0\n", 2, "x,1,0"),                          # not an integer
], ids=["two_fields", "four_fields", "blank_line", "bad_float", "bad_index"])
def test_malformed_weights_rows_name_the_file_and_line(tmp_path, capsys, body, line, row):
    weights = tmp_path / "w.csv"
    weights.write_text("index,re,im\n" + body)
    assert main(["analyze", "--weights", str(weights),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {weights}: line {line}: expected index,re,im, got {row!r}\n"
    assert not (tmp_path / "o").exists()


def test_analyze_rejects_bad_weights_header(tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("re,im\n0.5,0.0\n")
    assert main(["analyze", "--weights", str(weights),
                 "--out", str(tmp_path / "o")]) == 1
    assert "index,re,im" in capsys.readouterr().err


def test_steered_design_writes_complex_weights(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, steering=0.3)
    out = tmp_path / "out"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 0
    c = _read_weights(out / "weights.csv")
    assert np.iscomplexobj(c)
    assert np.max(np.abs(c.imag)) > 0.0
    report = read_report(out)
    assert report["steering_angle_rad"] == pytest.approx(0.3)
    assert report["min_phase"] is True


def test_analyze_judges_a_steered_design_unsteered(tmp_path):
    spec = tmp_path / "spec.json"
    write_spec(spec, steering=0.3)
    out, out2 = tmp_path / "out", tmp_path / "out2"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["analyze", "--weights", str(out / "weights.csv"),
                 "--spec", str(spec), "--out", str(out2)]) == 0
    designed, analyzed = read_report(out), read_report(out2)
    assert [b["margin_db"] for b in analyzed["bands"]] == \
        pytest.approx([b["margin_db"] for b in designed["bands"]], abs=1e-9)
    assert analyzed["feasible"] is True and analyzed["min_phase"] is True
    # The artifacts keep the file's own (steered) weights and zeros.
    for name in ("weights.csv", "zeros.csv"):
        assert (out2 / name).read_text() == (out / name).read_text()


def test_complex_weights_are_judged_against_their_peak_at_negative_u(design1, tmp_path):
    # design1's weights plus a Chebyshev lobe steered to u = -1.6, twice
    # design1's peak: |C| is not even and peaks at u < 0, where the cosine
    # of no critical point leads, so design1's bands read relative to a
    # [0, pi] peak would pass.  Against the true peak the pass band lies
    # about 6.26 dB down.
    c = np.zeros(40, complex)
    c[:6] = design1.weights.c
    peak = np.abs(np.fft.fft(design1.weights.c, 1 << 16)).max()
    lobe = chebwin(40, at=100)
    c += apply_steering(lobe, -1.6) * (2.0 * peak / lobe.sum())
    spec = design1_spec()
    report = evaluate(c, spec)
    u = np.linspace(-math.pi, math.pi, 400_001)
    db = array_factor(c, u)
    band = spec.bands[0]
    depth = -db[(u >= band.u_lo) & (u <= band.u_hi)].min()
    assert not report.feasible
    assert report.bands[0].achieved_db == pytest.approx(depth, abs=1e-3)
    weights, request = tmp_path / "weights.csv", tmp_path / "design1.json"
    weights.write_text("index,re,im\n" + "".join(
        f"{k},{z.real!r},{z.imag!r}\n" for k, z in enumerate(c.tolist())))
    write_request(request, spec)
    assert main(["analyze", "--weights", str(weights), "--spec", str(request),
                 "--out", str(tmp_path / "out")]) == 2


def test_pattern_marks_invisible_angles(tmp_path):
    # Past the stop band nothing bounds the pattern, and the route's designs
    # peak there, outside the pass band and outside visible space, so the
    # request ends unmet (exit 2).  The best attempt is ranked by its least
    # band margin, and a near-flat pattern wins that ranking: its witness is
    # the stop band at -0.0000 dB (with the conservative plan it was the
    # pass band's ripple).
    spec = tmp_path / "spec.json"
    write_spec(spec, spacing=0.25, bands=[
        {"u_lo": 0.0, "u_hi": 0.5, "kind": "pass", "ripple_db": 1.0},
        {"u_lo": 1.0, "u_hi": 1.5, "kind": "stop", "max_level_db": -25.0},
    ])
    out = tmp_path / "out"
    assert main(["design", "--spec", str(spec), "--out", str(out)]) == 2
    assert read_report(out)["witness"] == [
        "stop band [1, 1.5]: achieved -0.0000 dB vs bound -25.0000 dB"]
    rows = (out / "pattern.csv").read_text().splitlines()[1:]
    thetas = [r.split(",")[1] for r in rows]
    assert "nan" in thetas  # u beyond the visible region of 0.25-lambda spacing
    visible = [t for t in thetas if t != "nan"]
    assert visible and all(-90.0 <= float(t) <= 90.0 for t in visible)


def _reference_pattern_csv(c, spacing, points):
    """pattern.csv as a per-row loop writes it: one f-string per u."""
    half = np.linspace(0.0, math.pi, points)
    u = np.concatenate([-half[:0:-1], half])
    visible = 2.0 * math.pi * spacing
    lines = ["u_rad,theta_deg,magnitude_db"]
    for ui, db in zip(u.tolist(), array_factor(c, u).tolist()):
        theta_txt = "nan"
        if abs(ui) <= visible * (1.0 + 1e-12):
            theta_txt = f"{math.degrees(math.asin(min(1.0, max(-1.0, ui / visible)))):.6f}"
        lines.append(f"{ui:.12g},{theta_txt},{db:.4f}")
    return "\n".join(lines) + "\n"


_TAP = st.floats(-2.0, 2.0)


@given(st.one_of(st.lists(_TAP, min_size=1, max_size=32),
                 st.lists(st.builds(complex, _TAP, _TAP), min_size=1, max_size=32)),
       st.floats(0.1, 1.0), st.integers(2, 300))
@example(design_pencil().taps.tolist(), 0.5, PATTERN_POINTS)
@example([1.0, -1.0], 0.5, 101)  # a null at u = 0: -inf
@example([0.3, 1.1, 0.4], 0.25, 101)  # past the visible limit: nan
@example(design_pencil().taps.tolist(), 0.25, PATTERN_POINTS)  # 8,192 nan rows
@example([0.3, 1.1, 0.4], 0.25, 8193)  # the visible limit pi/2 is a grid point
@example([0.3, 1.1, 0.4], 0.5, 2)  # only u = -pi, 0 and pi
@example([1.0], 0.5, 101)  # a flat pattern
@example([0.3 + 0j, 1.1 + 0j, -0.4 + 0j], 0.5, 101)  # complex dtype, real values
@settings(deadline=None)
def test_pattern_csv_matches_the_per_row_writer(c, spacing, points):
    assert _pattern_text(np.array(c), spacing, points) == \
        _reference_pattern_csv(np.array(c), spacing, points)



def test_pattern_template_is_keyed_by_spacing_and_points():
    # The u_rad,theta_deg text is cached per (spacing, points): writes at
    # other keys in between neither evict nor corrupt it, and real and
    # complex weights share it.
    template = cli_module._pattern_template
    keys = [(0.5, PATTERN_POINTS), (0.25, PATTERN_POINTS), (0.5, 101),
            (0.5, PATTERN_POINTS)]
    for c in (np.array([0.3, 1.1, 0.4]), np.array([0.3 + 0.2j, 1.1, 0.4 - 0.5j])):
        for spacing, points in keys:
            before = template.cache_info()
            assert _pattern_text(c, spacing, points) == \
                _reference_pattern_csv(c, spacing, points)
        after = template.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    u = template(0.5, PATTERN_POINTS)[0]
    with pytest.raises(ValueError):
        u[0] = 0.0


# Fields of a request the fuzzer may break, and what it breaks them with.
_FIELDS = (("spacing_wavelengths",), ("steering_angle_rad",), ("angle_unit",),
           ("bands", 0, "u_hi"), ("bands", 0, "ripple_db"),
           ("bands", 1, "u_lo"), ("bands", 1, "max_level_db"), ("bands", 1, "kind"))
_MISSING = object()
_BAD_VALUES = (math.nan, math.inf, -math.inf, "0.5", True, False, None,
               1e308, -1e308, 10**400, -(10**400), _MISSING)


@st.composite
def design_requests(draw):
    """A low-pass request, well formed or (a third of the time) with one field broken.

    Well-formed draws include theta_deg edges, steering, a zero-width pass
    band, a stop band touching the pass band and a zero-width stop band.
    """
    unit = draw(st.sampled_from(["u_rad", "theta_deg"]))
    top = math.pi if unit == "u_rad" else 90.0
    pass_hi = draw(st.floats(0.05 * top, 0.5 * top))
    stop_lo = draw(st.floats(pass_hi + 0.2 * top, 0.95 * top))
    shape = draw(st.sampled_from(["gap", "gap", "gap", "touching", "zero_pass",
                                  "zero_stop"]))
    if shape == "touching":
        stop_lo = pass_hi
    elif shape == "zero_pass":
        pass_hi = 0.0
    elif shape == "zero_stop":
        stop_lo = top
    request = {
        "spacing_wavelengths": draw(st.sampled_from([0.5, 0.25])),
        "angle_unit": unit,
        "steering_angle_rad": draw(st.sampled_from([0.0, 0.0, 0.3, -1.2])),
        "bands": [
            {"u_lo": 0.0, "u_hi": pass_hi, "kind": "pass",
             "ripple_db": draw(st.floats(0.1, 3.0))},
            {"u_lo": stop_lo, "u_hi": top, "kind": "stop",
             "max_level_db": draw(st.floats(-40.0, -10.0))},
        ],
    }
    broken = draw(st.integers(0, 3 * len(_FIELDS) - 1))
    if broken < len(_FIELDS):
        *path, key = _FIELDS[broken]
        target = request
        for step in path:
            target = target[step]
        value = draw(st.sampled_from(_BAD_VALUES))
        if value is _MISSING:
            del target[key]
        else:
            target[key] = value
    return request


def _lowpass(pass_hi=0.8, stop_lo=1.6, max_level_db=-20.0, ripple_db=0.5):
    return {"spacing_wavelengths": 0.5, "bands": [
        {"u_lo": 0.0, "u_hi": pass_hi, "kind": "pass", "ripple_db": ripple_db},
        {"u_lo": stop_lo, "u_hi": math.pi, "kind": "stop",
         "max_level_db": max_level_db}]}


@settings(max_examples=40, deadline=None)
@given(design_requests())
@example(_lowpass(stop_lo=0.8))                 # touching bands
@example(_lowpass(ripple_db=math.nan))
@example(_lowpass(max_level_db=-1e308))         # a weight 1/delta2' that overflows
def test_design_requests_end_in_a_clean_exit(request):
    # Per-example directories: tmp_path would be shared by every example.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "request.json", Path(tmp) / "out"
        path.write_text(json.dumps(request))
        try:
            spec = load_design_spec(path)
        except (ValueError, KeyError):  # what main reports as exit 1
            spec = None
        else:
            assert all(math.isfinite(b.u_lo) and math.isfinite(b.u_hi)
                       for b in spec.bands)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["design", "--spec", str(path), "--out", str(out),
                         "--max-n", "8"])
        assert code in (0, 1, 2)
        assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
        if code == 1:
            assert "error:" in stderr.getvalue()
            assert not out.exists()
        else:
            assert spec is not None
            for name in ("weights.csv", "pattern.csv", "zeros.csv", "report.json"):
                assert (out / name).stat().st_size > 0
