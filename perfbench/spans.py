"""Per-layer spans recorded from outside the program, at its lookup sites.

The package imports with ``from .x import y``, so each module holds its
own reference to the functions it calls.  A wrapper therefore has to
replace every name where it is looked up, not the definition.  SITES lists
those lookup sites and the span each one records; a refactor that moves a
call to a site not listed here shows up as an expected span with zero
calls, which ``Tracer.check_expected`` turns into an error.

Spans nest on a stack (the benchmark is single-threaded): a span's self
time is its duration minus the time of the spans it directly caused.
Spans are aggregated per name as they close, which keeps a long run's
memory flat.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

SITES = {
    ("mparray", "find_min_order"): "prototype.find_min_order",
    ("mparray", "spectral_factorize"): "spectral_factor.spectral_factorize",
    ("mparray.cli", "main"): "cli.main",
    ("mparray.cli", "find_min_order"): "prototype.find_min_order",
    ("mparray.cli", "design_pencil"): "designs.design_pencil",
    ("mparray.cli", "array_factor"): "analysis.array_factor",
    ("mparray.cli", "polynomial_zeros"): "analysis.polynomial_zeros",
    ("mparray.cli", "pattern_metrics"): "analysis.pattern_metrics",
    ("mparray.prototype", "remez_design"): "equiripple.remez_design",
    ("mparray.prototype", "design_prototype"): "prototype.design_prototype",
    ("mparray.prototype", "spectral_factorize"): "spectral_factor.spectral_factorize",
    ("mparray.prototype", "array_factor"): "analysis.array_factor",
    ("mparray.prototype", "pattern_metrics"): "analysis.pattern_metrics",
    ("mparray.prototype", "polynomial_zeros"): "analysis.polynomial_zeros",
    ("mparray.designs", "remez_design"): "equiripple.remez_design",
    ("mparray.spectral_factor", "find_gamma"): "spectral_factor.find_gamma",
    ("mparray.spectral_factor", "cholesky_banded"): "spectral_factor.cholesky_banded",
    ("mparray.spectral_factor", "refine_newton"): "spectral_factor.refine_newton",
    ("scipy.linalg", "cholesky_banded"): "spectral_factor.cholesky",
}

_MARK = "__perfbench_span__"


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    # Span-specific work counts, filled by _observe.
    work: int = 0
    useful: int = 0


def _observe(name: str, stats: SpanStats, args, result, err) -> None:
    """Work counts taken where the work happens."""
    if name == "equiripple.remez_design":
        # Iterations of the returned prototype, or of the exchange that stalled.
        source = result if err is None else err
        stats.work += getattr(source, "iterations", 0)
    elif name == "spectral_factor.cholesky" and err is None:
        rows, dim = args[0].shape  # upper banded storage: bw = rows - 1
        stats.work += dim * (rows - 1) ** 2
    elif name == "analysis.array_factor":
        stats.work += len(args[0]) * len(args[1])
    elif name == "spectral_factor.refine_newton" and err is None:
        stats.useful += bool(result[1])
    elif name == "prototype.find_min_order" and err is None:
        stats.useful += 1


def installed() -> list[str]:
    """Lookup sites that currently hold a benchmark wrapper."""
    out = []
    for (mod, attr) in SITES:
        module = importlib.import_module(mod)
        if hasattr(getattr(module, attr), _MARK):
            out.append(f"{mod}.{attr}")
    return out


class Tracer:
    """Installs span wrappers at SITES and aggregates what they record."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._stack: list[list[float]] = []
        self._originals: dict[tuple[str, str], object] = {}

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            err = result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                stats.failed += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.busy_s += dt
                stats.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                if result is not None or err is not None:
                    _observe(name, stats, args, result, err)

        setattr(span, _MARK, name)
        return span

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for (mod, attr), name in SITES.items():
            module = importlib.import_module(mod)
            original = getattr(module, attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{mod}.{attr} already holds a wrapper")
            self._originals[(mod, attr)] = original
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for (mod, attr), original in self._originals.items():
            setattr(importlib.import_module(mod), attr, original)
        self._originals.clear()

    def check_expected(self, nonzero: tuple[str, ...], zero: tuple[str, ...]) -> list[str]:
        """Problems with the span call counts a workload is known to produce."""
        problems = [f"expected span {n} recorded no calls" for n in nonzero
                    if self.stats[n].calls == 0]
        problems += [f"span {n} recorded {self.stats[n].calls} calls, expected none"
                     for n in zero if self.stats[n].calls != 0]
        return problems

    def layer_metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, per pass over the op pool.

        Every pass runs the same ops, so a count divides exactly; a
        fraction means the program did different work on the same input.
        """
        def per_pass(x):
            return x // passes if isinstance(x, int) and x % passes == 0 else x / passes

        s = defaultdict(SpanStats, {
            name: SpanStats(*(per_pass(v) for v in astuple(st)))
            for name, st in self.stats.items()})
        remez = s["equiripple.remez_design"]
        fmo = s["prototype.find_min_order"]
        sf = s["spectral_factor.spectral_factorize"]
        chol = s["spectral_factor.cholesky"]
        newton = s["spectral_factor.refine_newton"]
        cli = s["cli.main"]

        def ratio(num: float, base: float) -> float:
            return num / base if base else 0.0

        out = {
            "equiripple.remez_design.calls": remez.calls,
            "equiripple.remez_design.busy_s": remez.busy_s,
            "equiripple.remez_design.iterations": remez.work,
            "equiripple.remez_design.failed": remez.failed,
            "prototype.find_min_order.calls": fmo.calls,
            "prototype.find_min_order.busy_s": fmo.busy_s,
            "prototype.find_min_order.self_s": fmo.self_s,
            "prototype.design_prototype.calls": s["prototype.design_prototype"].calls,
            "prototype.attempts_per_verified": ratio(
                s["prototype.design_prototype"].calls, fmo.useful),
            "spectral_factor.spectral_factorize.calls": sf.calls,
            "spectral_factor.spectral_factorize.busy_s": sf.busy_s,
            "spectral_factor.spectral_factorize.self_s": sf.self_s,
            "spectral_factor.spectral_factorize.failed": sf.failed,
            "spectral_factor.find_gamma.calls": s["spectral_factor.find_gamma"].calls,
            "spectral_factor.find_gamma.busy_s": s["spectral_factor.find_gamma"].busy_s,
            "spectral_factor.cholesky.calls": chol.calls,
            "spectral_factor.cholesky.busy_s": chol.busy_s,
            "spectral_factor.cholesky.flops": chol.work,
            "spectral_factor.cholesky_per_factorization": ratio(chol.calls, sf.calls),
            "spectral_factor.refine_newton.calls": newton.calls,
            "spectral_factor.refine_newton.busy_s": newton.busy_s,
            "spectral_factor.refine_newton.kept_ratio": ratio(newton.useful, newton.calls),
            "analysis.array_factor.samples": s["analysis.array_factor"].work,
            "cli.main.calls": cli.calls,
            "cli.main.busy_s": cli.busy_s,
            "cli.self_s": cli.self_s,
            "designs.design_pencil.busy_s": s["designs.design_pencil"].busy_s,
            "trace.overhead_s": overhead_s / passes,
        }
        for fn in ("array_factor", "pattern_metrics", "polynomial_zeros"):
            out[f"analysis.{fn}.calls"] = s[f"analysis.{fn}"].calls
            out[f"analysis.{fn}.busy_s"] = s[f"analysis.{fn}"].busy_s
        return out

    def ratio_bases(self) -> dict[str, str]:
        """The base of every ratio in layer_metrics, for the printed summary."""
        s = self.stats
        return {
            "prototype.attempts_per_verified":
                f"{s['prototype.design_prototype'].calls} attempts / "
                f"{s['prototype.find_min_order'].useful} verified searches",
            "spectral_factor.cholesky_per_factorization":
                f"{s['spectral_factor.cholesky'].calls} Choleskys / "
                f"{s['spectral_factor.spectral_factorize'].calls} factorizations",
            "spectral_factor.refine_newton.kept_ratio":
                f"{s['spectral_factor.refine_newton'].useful} kept / "
                f"{s['spectral_factor.refine_newton'].calls} calls",
        }
