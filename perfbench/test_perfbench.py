"""Tests of the benchmark itself: smoke runs, determinism, and checks that bite.

    python3 -m pytest perfbench -q

Two runs spawn the benchmark from the command line; everything else runs
in-process on tiny pools.
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _check_result(result: dict, trace: bool) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    return values


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_line_run_prints_the_result_last(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "factor",
                           "--seed", "3", "--seconds", "0.01", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    values = _check_result(_last_json(proc.stdout), trace == "1")
    if trace == "1":
        assert values["equiripple.remez_design.calls"] == 0
        assert values["cli.main.calls"] == 0
        assert values["spectral_factor.cholesky.calls"] > 0


@pytest.fixture
def tiny_pools(monkeypatch):
    monkeypatch.setattr(workloads, "FACTOR_POOL", 6)
    monkeypatch.setattr(inputs, "SWEEP_GRID", (3, 2))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["reference", "factor", "sweep"])
def test_smoke_run_of_each_workload(tiny_pools, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", trace]) == 0
    values = _check_result(_last_json(capsys.readouterr().out), trace == "1")
    if trace == "0":
        return
    if workload == "reference":
        assert values["cli.main.calls"] == 9
        assert values["designs.design_pencil.busy_s"] > 0
    else:
        assert values["cli.main.calls"] == 0
        assert (values["equiripple.remez_design.calls"] > 0) == (workload == "sweep")


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "factor",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------- inputs


def test_inputs_repeat_for_a_seed():
    a = inputs.lifted_inputs(np.random.default_rng(5), 40)
    b = inputs.lifted_inputs(np.random.default_rng(5), 40)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert inputs.lowpass_specs(np.random.default_rng(5)) == \
        inputs.lowpass_specs(np.random.default_rng(5))


def test_oracle_draws_are_min_phase_across_the_size_range():
    rng = np.random.default_rng(2)
    drawn = inputs.oracle_inputs(rng, 31)
    assert sorted(len(c) for c in drawn) == list(range(2, 33))
    for c in drawn:
        assert checks.zero_radii(c).max() <= 0.95 + 1e-9


def test_lifted_inputs_mostly_dip_below_zero():
    dips = [checks.lift_needed(g) > 0.0
            for g in inputs.lifted_inputs(np.random.default_rng(3), 62)]
    assert sum(dips) >= 0.9 * len(dips)


def test_sweep_pool_is_stratified():
    specs = inputs.lowpass_specs(np.random.default_rng(4))
    rows, cols = inputs.SWEEP_GRID
    assert len(specs) == rows * cols
    lo, hi = inputs.SWEEP_SIZE
    size_slices, stop_slices = [], []
    for s in specs:
        pass_band, stop_band = s["bands"]
        size = (inputs.SIZE_OFFSET_DB - stop_band["max_level_db"]) / \
            (stop_band["u_lo"] - pass_band["u_hi"])
        size_slices.append(int((size - lo) / (hi - lo) * len(specs)))
        stop_lo, stop_hi = inputs.SWEEP_STOP_DB
        stop_slices.append(int((stop_band["max_level_db"] - stop_lo) / (stop_hi - stop_lo) * rows))
        assert pass_band["u_hi"] >= inputs.SWEEP_PASS_EDGE_MIN
        assert np.pi - stop_band["u_lo"] >= inputs.SWEEP_STOP_WIDTH_MIN - 1e-12
    assert sorted(size_slices) == list(range(len(specs)))
    assert sorted(stop_slices) == sorted(list(range(rows)) * cols)


# ---------------------------------------------------------------- checks bite


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """A Reference workload with design1 reproduced once, and its check."""
    wl = workloads.Reference(1, tmp_path_factory.mktemp("reference"))
    op = wl._reproduce("design1")
    elapsed, outcome = op.run()
    assert outcome == workloads.VERIFIED
    return wl, op


def _rewrite_weights(path: Path, c) -> None:
    path.write_text("index,re,im\n" + "".join(
        f"{k},{complex(v).real!r},{complex(v).imag!r}\n" for k, v in enumerate(c)))


def test_sign_flipped_weight_is_refuted(reproduced):
    wl, op = reproduced
    path = wl._out("design1", "reproduce") / "weights.csv"
    c = workloads.read_weights(path)
    bad = c.copy()
    bad[2] = -bad[2]
    _rewrite_weights(path, bad)
    try:
        outcome = op.check(0)
    finally:
        _rewrite_weights(path, c)
    assert outcome == workloads.Outcome("wrong:bands", False, refuted=True)


def test_zero_outside_the_unit_circle_is_refuted(reproduced):
    wl, op = reproduced
    path = wl._out("design1", "reproduce") / "weights.csv"
    c = workloads.read_weights(path)
    zeros = np.roots(c)
    i = int(np.argmax(np.abs(zeros)))
    moved = zeros.copy()
    moved[i] = 1.0 / np.conj(zeros[i])  # same magnitude pattern, zero reflected out
    if abs(zeros[i].imag) > 0:
        j = int(np.argmin(np.abs(zeros - np.conj(zeros[i]))))
        moved[j] = 1.0 / np.conj(zeros[j])
    bad = np.real(np.poly(moved)) * c[0]
    _rewrite_weights(path, bad)
    try:
        outcome = op.check(0)
    finally:
        _rewrite_weights(path, c)
    assert outcome == workloads.Outcome("wrong:min_phase", False, refuted=True)


def test_wrong_element_count_is_refuted(reproduced):
    wl, op = reproduced
    path = wl._out("design1", "reproduce") / "weights.csv"
    c = workloads.read_weights(path)
    _rewrite_weights(path, np.append(c, 0.0))
    try:
        outcome = op.check(0)
    finally:
        _rewrite_weights(path, c)
    assert outcome == workloads.Outcome("wrong:element_count", False, refuted=True)


def test_unexpected_exit_code_is_a_failure(reproduced):
    wl, op = reproduced
    assert op.check(2) == workloads.Outcome("wrong:exit_code", False, refuted=False)


def test_corrupted_factor_is_flagged():
    wl = workloads.Factor(7, Path("."))
    op = wl._oracle(5, newton=True)
    weights, diag = op.call()
    assert op.check((weights, diag)) == workloads.VERIFIED
    bad = weights.c.copy()
    bad[0] = -bad[0]
    flipped = dataclasses.replace(weights, c=bad)
    assert op.check((flipped, diag)) == \
        workloads.Outcome("wrong:reported_residual", False, refuted=True)


def test_under_lift_is_named():
    wl = workloads.Factor(7, Path("."))
    for k in range(workloads.FACTOR_POOL):
        op = wl._lifted(k)
        weights, diag = op.call()
        outcome = op.check((weights, diag))
        if outcome != workloads.VERIFIED:
            break
    else:
        pytest.skip("no under-lifted input in the pool")
    assert outcome.label == "wrong:under_lift"
    assert not outcome.refuted and not diag.refined


def test_sweep_check_refutes_a_corrupted_design():
    wl = workloads.Sweep(11, Path("."))
    for k in range(len(wl.specs)):
        op = wl._design(k)
        elapsed, outcome = op.run()
        if outcome == workloads.VERIFIED:
            break
    result = op.call()
    bad = result.weights.c.copy()
    bad[-1] = -bad[-1]
    corrupted = dataclasses.replace(result, weights=dataclasses.replace(result.weights, c=bad))
    assert op.check(corrupted).refuted


def test_exceptions_are_classified():
    import mparray
    clean = ((mparray.OrderSearchError, workloads.Outcome("clean_unmet", True)),)

    def boom():
        raise RuntimeError("stall")

    op = workloads.Op("x", boom, lambda r: workloads.VERIFIED, clean)
    assert op.run()[1] == workloads.Outcome("failed:RuntimeError", False)

    def unmet():
        raise mparray.OrderSearchError("none", None)

    op = workloads.Op("y", unmet, lambda r: workloads.VERIFIED, clean)
    assert op.run()[1] == workloads.Outcome("clean_unmet", True)


# ---------------------------------------------------------------- spans


def test_wrappers_install_and_uninstall_cleanly():
    tracer = spans.Tracer()
    assert spans.installed() == []
    tracer.install()
    try:
        assert len(spans.installed()) == len(spans.SITES)
        with pytest.raises(RuntimeError):
            spans.Tracer().install()
    finally:
        tracer.uninstall()
    assert spans.installed() == []


@pytest.fixture
def small_factor(monkeypatch):
    monkeypatch.setattr(workloads, "FACTOR_POOL", 20)
    return lambda seed: workloads.Factor(seed, Path("."))


def test_untraced_run_refuses_installed_wrappers(small_factor):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(run.BenchError):
            run.measure(small_factor(1), 0.001, spans)
    finally:
        tracer.uninstall()


def test_traced_counts_repeat_per_pass_and_self_time_nests(small_factor):
    one, two = spans.Tracer(), spans.Tracer()
    res_one = run.measure(small_factor(9), 0.001, spans, one)
    # Twice the first run's op time asks for a second pass, however fast the machine.
    res_two = run.measure(small_factor(9), 2 * sum(res_one["busy"].values()), spans, two)
    assert res_one["passes"] == 1 < res_two["passes"]
    assert res_two["runs"] == res_two["passes"] * 60
    m_one = one.layer_metrics(res_one["passes"], 0.0)
    m_two = two.layer_metrics(res_two["passes"], 0.0)
    for name in ("spectral_factor.cholesky.calls", "spectral_factor.cholesky.flops",
                 "spectral_factor.find_gamma.calls", "spectral_factor.refine_newton.calls"):
        assert isinstance(m_two[name], int)
        assert m_one[name] == m_two[name] > 0
    sf = one.stats["spectral_factor.spectral_factorize"]
    assert 0.0 <= sf.self_s <= sf.busy_s


def test_untraced_outcome_counts_do_not_depend_on_run_length(small_factor):
    short = run.measure(small_factor(4), 0.001, spans)
    long = run.measure(small_factor(4), 2 * short["busy"][False], spans)
    assert short["runs"] == 60 < long["runs"]
    assert short["outcomes"] == long["outcomes"]
    assert sum(long["outcomes"].values()) == 60
    assert short["failed"] == long["failed"]


def test_remez_iterations_repeat():
    counts = []
    for _ in range(2):
        wl = workloads.Sweep(2, Path("."))
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl._design(0).run()
        finally:
            tracer.uninstall()
        counts.append(tracer.stats["equiripple.remez_design"].work)
    assert counts[0] == counts[1] > 0


def test_missing_expected_span_is_an_error(small_factor):
    wl = small_factor(1)
    wl.nonzero = wl.nonzero + ("analysis.array_factor",)
    with pytest.raises(run.BenchError, match="analysis.array_factor"):
        run.measure(wl, 0.01, spans, spans.Tracer())


def test_speed_probe_samples_between_untraced_ops(small_factor, monkeypatch):
    import speed
    monkeypatch.setattr(speed, "INTERVAL_S", 0.0)
    probe = speed.SpeedProbe()
    res = run.measure(small_factor(2), 0.001, spans, probe=probe)
    # One sample before the first op, one after every op, one at the end.
    assert len(probe.samples) == res["runs"] + 2 == 62
    assert probe.scale_at(1) == pytest.approx(speed.REFERENCE_S / np.mean(probe.samples[:2]))
    assert len(res["scaled"]) == 60 and min(res["scaled"]) > 0
