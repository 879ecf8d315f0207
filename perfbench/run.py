"""The repository's request benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload forest-w1 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Every timing is host-calibrated (see ``calibrate.py``).  The
last line of standard output is the result object; the line before it
holds diagnostics (raw wall times, raw kernel times, the tail's
percentile and sample count).  Exits 2 when the program's sources are
not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metric -> unit (tracing off)
END_TO_END = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (the traced run); a layer the workload's
#: request path does not pass through reads 0
PER_LAYER = {
    "core.compile_ms": "ms",
    "core.program_rules": "count",
    "core.program_classes": "count",
    "treewidth.decompose_ms": "ms",
    "treewidth.normalize_ms": "ms",
    "treewidth.validate_ms": "ms",
    "treewidth.encode_ms": "ms",
    "treewidth.td_nodes": "count",
    "treewidth.atd_facts": "count",
    "datalog.evaluate_ms": "ms",
    "core.decode_ms": "ms",
    "datalog.ground_rules": "count",
    "datalog.bindings_explored": "count",
    "datalog.rules_pruned": "count",
    "datalog.peak_live_rules": "count",
    "datalog.cache_hit_share": "share",
    "problems.construct_ms": "ms",
    "problems.prepare_ms": "ms",
    "problems.encode_ms": "ms",
    "datalog.seminaive_evaluate_ms": "ms",
    "datalog.facts_derived": "count",
    "service.overhead_ms_p50": "ms",
    "service.shards_per_request": "count",
    "service.peak_queue_depth": "count",
    "service.worker_restarts": "count",
    "decompose.exponent": "ratio",
    "validate.exponent": "ratio",
    "normalize.exponent": "ratio",
    "encode.exponent": "ratio",
    "evaluate.exponent": "ratio",
    "trace.coverage": "share",
    "trace.overhead_share": "share",
}

#: a run makes at least this many requests, however long they take
MIN_REQUESTS = 20


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _service_stats(service) -> dict:
    stats = service.stats
    return {
        "completed": stats.completed,
        "shards": stats.shards_dispatched,
        "peak_queue_depth": stats.peak_queue_depth,
        "worker_restarts": stats.worker_restarts,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny=False):
    """One benchmark run; returns ``(result, diagnostics)``."""
    import timing
    from workloads import WORKLOADS

    plan = timing.CpuPlan()
    plan.pin_client()
    try:
        return _run(WORKLOADS[name], plan, seed, seconds, trace, tiny)
    finally:
        plan.release()


def _run(kind, plan, seed, seconds, trace, tiny):
    import timing
    from calibrate import KERNEL_NOMINAL_MS

    workload = kind(tiny=tiny, plan=plan)
    items = workload.inputs(seed)
    cal = timing.Calibrator()
    # service requests run on the worker CPUs; calibrate them there
    wcal = timing.Calibrator(plan.workers) if workload.service else None
    checked = []  # every Samples whose answers count
    diagnostics = {"workload": kind.name, "seed": seed, "trace": int(trace)}
    measure = _traced_run if trace else _end_to_end_run
    metrics, extra_failed = measure(
        workload,
        items,
        seed,
        seconds,
        2 if tiny else MIN_REQUESTS,
        tiny,
        cal,
        wcal,
        checked,
        diagnostics,
    )
    attempted = sum(len(s.outcomes) for s in checked)
    failed = sum(s.failed for s in checked) + extra_failed
    diagnostics.update(
        failed_share=failed / attempted if attempted else 1.0,
        kernel_nominal_ms=KERNEL_NOMINAL_MS,
        kernel_ms_p50=timing.median(cal.kernels_ms),
        kernel_runs=len(cal.kernels_ms),
    )
    if wcal is not None:
        diagnostics["worker_kernel_ms_p50"] = timing.median(wcal.kernels_ms)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    return result, diagnostics


def _end_to_end_run(
    workload, items, _seed, seconds, min_requests, tiny, cal, wcal, checked,
    diagnostics,
):
    """Set up ``workload.setup_repeats`` times, then the closed loop with
    tracing off; returns
    ``(end-to-end metrics, extra failures)``."""
    import loops
    import timing

    extra_failed = 0
    ctx, setups = loops.timed_setup(
        workload, cal, 1 if tiny else workload.setup_repeats, warm_cal=wcal
    )
    try:
        if workload.service:
            samples = loops.service_loop(
                ctx.handle, items, seconds, min_requests, workload.workers(),
                wcal,
            )
            workers = [p.pid for p in multiprocessing.active_children()]
            rss = timing.peak_rss_mb(workers)
            extra_failed += _compare_inprocess(workload, ctx, items, samples)
        else:
            samples = loops.closed_loop(
                lambda x: workload.solve(ctx, x),
                items,
                seconds,
                min_requests,
                cal,
            )
            rss = timing.peak_rss_mb()
    finally:
        workload.stop(ctx)
    checked.append(samples)
    tail_ms, tail_pct = timing.tail(samples.ms)
    raw_tail, _ = timing.tail(samples.raw_ms)
    diagnostics.update(
        requests=len(samples.ms),
        tail_percentile=tail_pct,
        raw_setup_s=[r / 1000.0 for r, _ in setups],
        raw_request_ms_p50=timing.median(samples.raw_ms),
        raw_request_ms_tail=raw_tail,
    )
    metrics = {
        "setup_s": timing.median([ms for _, ms in setups]) / 1000.0,
        "request_ms_p50": timing.median(samples.ms),
        "request_ms_tail": tail_ms,
        "throughput_rps": samples.throughput_rps(),
        "peak_rss_mb": rss,
    }
    return metrics, extra_failed


def _compare_inprocess(workload, ctx, items, samples) -> int:
    """Service answers that differ from the in-process solver's on the
    same input; answers already counted as failed are skipped."""
    reference = {}
    bad = 0
    for key, (answer, expected) in zip(samples.keys, samples.outcomes):
        if isinstance(answer, Exception) or answer != expected:
            continue
        if key not in reference:
            try:
                reference[key] = workload.solve(ctx, items[key][0])
            except Exception as exc:  # a failed reference is a mismatch
                reference[key] = exc
        if reference[key] != answer:
            bad += 1
    return bad


def _traced_run(
    workload, items, seed, seconds, min_requests, tiny, cal, wcal, checked,
    diagnostics,
):
    """Set-up, an untraced loop, the traced loop and the scaling probe;
    returns ``(per-layer metrics, extra failures)``."""
    import loops
    import timing
    from workloads import compile_counters

    service = workload.service
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    extra_failed = 0
    timer = loops.SpanTimer()
    ctx, ((raw, calibrated),) = loops.timed_setup(
        workload, cal, 1, timer, warm_cal=wcal
    )
    factor = calibrated / raw
    for name, ms in timer.ms.items():
        metrics[name] = ms * factor
    try:
        solver = ctx.solver if service else ctx
        if hasattr(solver, "compiled"):
            metrics.update(compile_counters(solver))
        solve = lambda x: workload.solve(ctx, x)  # noqa: E731
        traced = lambda x, span: workload.traced(ctx, x, span)  # noqa: E731
        if service:
            before = _service_stats(ctx.service)
            front = loops.service_loop(
                ctx.handle,
                items,
                seconds,
                min_requests,
                workload.workers(),
                wcal,
            )
            after = _service_stats(ctx.service)
            checked.append(front)
            extra_failed += _compare_inprocess(workload, ctx, items, front)
            inner_seconds = seconds / 2.0
        else:
            inner_seconds = seconds
        untraced = loops.closed_loop(
            solve, items, inner_seconds, min_requests, cal
        )
        run = loops.traced_loop(traced, items, inner_seconds, min_requests, cal)
        checked += [untraced, run.samples]
        if workload.probe is not None:
            exponents, probe_samples = loops.scaling_probe(
                traced, workload.probe, seed, tiny, cal
            )
            metrics.update(exponents)
            checked.append(probe_samples)
    finally:
        workload.stop(ctx)

    for name, values in run.spans.items():
        metrics[name] = timing.median(values)
    counters = dict(run.counters)
    hits = sum(counters.pop("_cache_hits", ()))
    lookups = sum(counters.pop("_cache_lookups", ()))
    metrics["datalog.cache_hit_share"] = hits / lookups if lookups else 1.0
    for name, values in counters.items():
        metrics[name] = timing.median(values)

    untraced_p50 = timing.median(untraced.ms)
    traced_p50 = timing.median(run.samples.ms)
    covered = sum(timing.median(v) for v in run.spans.values())
    metrics["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    if service:
        inproc = {}
        for key, ms in zip(untraced.keys, untraced.ms):
            inproc.setdefault(key, []).append(ms)
        inproc = {key: timing.median(v) for key, v in inproc.items()}
        overhead = timing.median(
            [ms - inproc[k] for k, ms in zip(front.keys, front.ms) if k in inproc]
        )
        front_p50 = timing.median(front.ms)
        completed = after["completed"] - before["completed"]
        metrics.update(
            {
                "service.overhead_ms_p50": overhead,
                "service.shards_per_request": (
                    (after["shards"] - before["shards"]) / completed
                    if completed
                    else 0.0
                ),
                "service.peak_queue_depth": after["peak_queue_depth"],
                "service.worker_restarts": after["worker_restarts"],
                "trace.coverage": (covered + overhead) / front_p50,
            }
        )
        diagnostics["service_request_ms_p50"] = front_p50
    else:
        metrics["trace.coverage"] = covered / untraced_p50
    diagnostics.update(
        untraced_request_ms_p50=untraced_p50,
        traced_request_ms_p50=traced_p50,
        traced_requests=len(run.samples.ms),
    )
    return metrics, extra_failed


def main(argv=None) -> int:
    _bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, diagnostics = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
