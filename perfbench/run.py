"""Benchmark of mparray: one process, one closed-loop client, in-process calls.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout, never from an installed copy.  Workloads (see
workloads.py and README.md): ``reference``, ``factor`` and ``sweep``.

Each workload draws a fixed pool of ops from ``--seed`` at set-up, and a
run goes round the pool, every op at least once, until the op time
reaches ``--seconds``.

``--trace 0`` measures the end-to-end metrics; an op's latency is the
median of its runs.  Set-up time is the median over PROBES fresh
processes, each timed from spawn until its inputs are ready.  Every time
is scaled to a reference machine speed, measured around it by a fixed
kernel (see speed.py); the measured values are printed beside.

``--trace 1`` measures the per-layer metrics: each op runs once with span
wrappers installed and once without, in alternating order, and figures
are per pass, so counts repeat exactly for a seed.  The difference
between traced and untraced op time is the tracing overhead.

Every op's output is checked.  Lines before the last describe the run; the
last line of standard output is the JSON result.  Exit code 0 means a
result was printed; any other code means the benchmark could not run.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported anywhere in the process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
PROBES = 5
# Kernel samples taken just before and just after each set-up probe.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def import_program():
    """Import mparray from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    try:
        import mparray
        import spans
        import speed
        import workloads
    except ImportError as err:
        raise BenchError(f"cannot import the program from {SRC}: {err}") from err
    where = Path(mparray.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"mparray was imported from {where}, not from {SRC}")
    return spans, speed, workloads


def declared_metrics() -> tuple[dict, dict]:
    """Metric name -> unit for the end-to-end and per-layer lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe_setup(args) -> float:
    """Seconds from spawning a fresh benchmark process until its first op could run."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def quantile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(wl, seconds: float, spans, tracer=None, probe=None) -> dict:
    """Ops of the workload's pool, in pool order and round and round, for ``seconds``.

    Untraced (``tracer`` None), the run stops at the first op boundary
    after every op has run once and the op time has reached ``seconds``.
    An op's latency is the median of its runs: on a shared machine the
    speed drifts in phases of seconds, and a median over the whole run
    follows that drift far less than a minimum does.  Traced, the run
    stops at a pass boundary, and every op runs once untraced and once
    traced per pass, in alternating order, so per-pass counts are exact.
    A speed ``probe`` samples the machine's speed between untraced ops,
    outside the op time, and each op run is also scaled by the samples
    taken just before and just after it.

    Outcomes are counted per op of the pool, not per run: an op's outcome
    is a function of its input, so ``attempted`` and ``failed`` repeat
    for a seed however many runs the time allows.  An op whose outcome
    changes between its runs is a failure of its own (``unsteady``).
    """
    if spans.installed():
        raise BenchError(f"span wrappers installed before the run: {spans.installed()}")
    pool = wl.pool
    n = len(pool)
    times: list[list[float]] = [[] for _ in pool]
    marks: list[list[int]] = [[] for _ in pool]
    labels: list[set] = [set() for _ in pool]
    oks = [0] * n
    refuted: list[str] = []
    busy = {False: 0.0, True: 0.0}
    if probe is not None:
        probe.sample()
    k = 0
    while k < n or sum(busy.values()) < seconds or (tracer is not None and k % n):
        i = k % n
        op = pool[i]
        modes = (False,) if tracer is None else \
            ((True, False) if (k // n + i) % 2 else (False, True))
        for traced in modes:
            if traced:
                tracer.install()
            elif spans.installed():
                raise BenchError(f"span wrappers installed during an untraced op: "
                                 f"{spans.installed()}")
            try:
                dt, outcome = op.run()
            finally:
                if traced:
                    tracer.uninstall()
            busy[traced] += dt
            labels[i].add(outcome.label)
            if outcome.refuted:
                refuted.append(f"{op.name}: {outcome.label}")
            if traced == (tracer is not None):
                times[i].append(dt)
                oks[i] += outcome.ok
        if probe is not None:
            marks[i].append(len(probe.samples))
            probe.sample_due()
        k += 1
    if probe is not None:
        probe.sample()
    if spans.installed():
        raise BenchError(f"span wrappers installed after the run: {spans.installed()}")
    if tracer is not None:
        problems = tracer.check_expected(wl.nonzero, wl.zero)
        if problems:
            raise BenchError(f"{wl.name}: " + "; ".join(problems))
    outcomes = Counter(next(iter(ls)) if len(ls) == 1 else "unsteady" for ls in labels)
    latencies = [statistics.median(t) for t in times]
    successes = sum(ok / len(t) for ok, t in zip(oks, times))
    res = {"latencies": latencies, "outcomes": outcomes, "refuted": refuted,
           "busy": busy, "passes": k // n, "runs": k,
           "failed": sum(ok < len(t) for ok, t in zip(oks, times)),
           "goodput": successes / sum(latencies)}
    if probe is not None:
        res["scaled"] = [statistics.median(dt * probe.scale_at(m) for dt, m in zip(t, ms))
                         for t, ms in zip(times, marks)]
        res["scaled_goodput"] = successes / sum(res["scaled"])
    return res


def run(args) -> int:
    spans, speed, workloads = import_program()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        e2e_units, layer_units = declared_metrics()
        if args.trace:
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            tracer = spans.Tracer()
            res = measure(wl, args.seconds, spans, tracer)
            metrics = tracer.layer_metrics(res["passes"],
                                           res["busy"][True] - res["busy"][False])
            units = layer_units
        else:
            probe = speed.SpeedProbe()
            raw_setups, setups = [], []
            for _ in range(PROBES):
                before = [probe.sample() for _ in range(SETUP_SAMPLES)]
                raw_setups.append(probe_setup(args))
                around = before + [probe.sample() for _ in range(SETUP_SAMPLES)]
                setups.append(raw_setups[-1] * speed.REFERENCE_S / statistics.median(around))
            probe.samples.clear()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            res = measure(wl, args.seconds, spans, probe=probe)
            lat, scaled = res["latencies"], res["scaled"]
            raw = {"setup_s": statistics.median(raw_setups), "ops_per_s": res["goodput"],
                   "op_s_p50": quantile(lat, 50), "op_s_p90": quantile(lat, 90)}
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": res["scaled_goodput"],
                "op_s_p50": quantile(scaled, 50),
                "op_s_p90": quantile(scaled, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only once empty: another run may still use it
        except OSError:
            pass

    if set(metrics) != set(units):
        raise BenchError(f"computed metrics {sorted(set(metrics) ^ set(units))} "
                         f"disagree with BENCHMARK.json")
    outcomes = res["outcomes"]
    n = attempted = len(res["latencies"])
    failed = res["failed"]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} ops, {res['runs']} op runs, {failed} ops failed")
    print("outcomes (per op): "
          + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    if args.trace:
        print(f"tracing overhead: {res['busy'][True]:.3f} s traced vs "
              f"{res['busy'][False]:.3f} s untraced op time over {res['passes']} "
              f"passes; per-layer figures are per pass")
        for name, base in tracer.ratio_bases().items():
            print(f"  {name}: {base} (all passes)")
    else:
        print(f"times are scaled to the reference speed (speed.py) by the kernel "
              f"samples around them ({len(probe.samples)} in the run, median "
              f"{statistics.median(probe.samples) * 1e3:.3f} ms against "
              f"{speed.REFERENCE_S * 1e3:.3f} ms); measured values in brackets")
        print(f"  setup_s      {metrics['setup_s']:.4f} s [{raw['setup_s']:.4f}] (median of "
              f"{PROBES} set-ups, each scaled by the median of {2 * SETUP_SAMPLES} samples "
              f"around it; measured: " + ", ".join(f"{s:.3f}" for s in raw_setups) + ")")
        print(f"  ops_per_s    {metrics['ops_per_s']:.4f} 1/s [{raw['ops_per_s']:.4f}] "
              f"(successful ops per second of per-op latency; "
              f"{res['busy'][False]:.3f} s op time in all)")
        print(f"  op_s_p50     {metrics['op_s_p50']:.5f} s [{raw['op_s_p50']:.5f}] (n={n} "
              f"ops, each the median of its runs, {res['runs'] / n:.2f} runs per op)")
        print(f"  op_s_p90     {metrics['op_s_p90']:.5f} s [{raw['op_s_p90']:.5f}] (n={n}, "
              f"{sum(x > metrics['op_s_p90'] for x in scaled)} beyond)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {failed / attempted:.4f} ({failed}/{attempted} ops)")
    for line in res["refuted"][:20]:
        print(f"refuted: {line}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not res["refuted"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reference", "factor", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
