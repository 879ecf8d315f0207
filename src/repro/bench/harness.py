"""Timing and table-formatting utilities shared by the benchmarks.

The paper reports milliseconds per instance in Table 1; these helpers
measure in the same unit and render aligned text tables so that the
benchmark output can be compared to the paper's side by side (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..datalog.backends import get_backend
from ..datalog.evaluate import EvaluationStats
from ..datalog.setengine import SetDatabase


def time_ms(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock time of ``fn()`` in milliseconds."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        best = min(best, elapsed)
    return best


def format_ms(value: float | None) -> str:
    """Milliseconds with paper-style precision; None renders as "-"
    (the paper's out-of-memory dash)."""
    if value is None:
        return "-"
    if value < 10:
        return f"{value:.1f}"
    return f"{value:.0f}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A plain aligned text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)


@dataclass
class BackendRun:
    """One backend's cost on one workload instance."""

    backend: str
    ms: float
    facts_derived: int
    rule_firings: int


def compare_backends(
    program,
    edb,
    query=None,
    backends: Sequence[str] | None = None,
    repeat: int = 3,
    cache=None,
) -> list[BackendRun]:
    """Head-to-head evaluation of the same workload on several backends.

    ``backends`` defaults to every shipped backend when a ``query`` is
    given and to the non-goal-directed ones otherwise (the magic
    backend needs a query; naming it explicitly without one is still
    an error).  Each backend gets one warm-up run (so the
    compiled-program cache is hot and the timings measure
    per-structure work, which is what the backends differ on), then
    best-of-``repeat`` wall clock.

    The EDB is interned into a :class:`SetDatabase` **once per compare
    run** (ROADMAP item (e)): interning backends receive that database
    and start each evaluation from a cheap
    :meth:`~repro.datalog.setengine.SetDatabase.snapshot` instead of
    re-paying the per-tuple structure load, while the tuple-at-a-time
    ``naive`` oracle keeps receiving the value-level EDB it operates on.
    """
    if backends is None:
        backends = (
            ("naive", "semi-naive", "magic")
            if query is not None
            else ("naive", "semi-naive")
        )
    interned_edb = None  # built on the first backend that can use it
    runs: list[BackendRun] = []
    for name in backends:
        backend = get_backend(name, cache)
        if hasattr(backend, "evaluate_interned"):
            if interned_edb is None:
                interned_edb = SetDatabase.from_edb(edb)
            source = interned_edb
        else:
            source = edb
        # every backend accepts query=; non-goal-directed ones ignore it
        backend.evaluate(program, source, query=query)  # warm-up / cache fill
        stats = EvaluationStats()
        backend.evaluate(program, source, query=query, stats=stats)
        ms = time_ms(
            lambda: backend.evaluate(program, source, query=query),
            repeat=repeat,
        )
        runs.append(
            BackendRun(name, ms, stats.facts_derived, stats.rule_firings)
        )
    return runs


@dataclass
class LinearityReport:
    """Least-squares fit diagnostics for 'is the scaling linear?'."""

    slope: float
    intercept: float
    r_squared: float

    @property
    def is_convincingly_linear(self) -> bool:
        return self.r_squared > 0.9


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> LinearityReport:
    """Ordinary least squares y = a*x + b with R^2."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate x values")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearityReport(slope, intercept, r_squared)
