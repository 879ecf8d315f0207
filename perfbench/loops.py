"""Measurement loops: set-up, closed-loop requests (in process and
through the service), the traced loop, and the scaling probe.

Every timed unit is bracketed by calibration-kernel runs (see
:class:`timing.Calibrator`).  Answers are kept and compared with the
oracle's after the loop, outside the timed region.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import as_completed

import inputs
from timing import Sampler, median, now, since_ms
from workloads import passthrough


class Samples:
    """Calibrated and raw latencies of one loop, plus its answers."""

    def __init__(self):
        self.ms = []  # calibrated
        self.raw_ms = []
        self.keys = []  # index of the input each request used
        self.outcomes = []  # (answer or exception, expected)
        self.busy_s = 0.0  # calibrated seconds the loop was serving

    def add(self, key, raw_ms, factor, answer, expected) -> None:
        self.keys.append(key)
        self.raw_ms.append(raw_ms)
        self.ms.append(raw_ms * factor)
        self.outcomes.append((answer, expected))

    @property
    def failed(self) -> int:
        bad = 0
        for answer, expected in self.outcomes:
            if isinstance(answer, Exception):
                bad += 1
                if bad == 1:
                    print(f"request failed: {answer!r}", file=sys.stderr)
            elif answer != expected:
                bad += 1
        return bad

    def throughput_rps(self) -> float:
        return len(self.ms) / self.busy_s if self.busy_s else 0.0


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed request is counted, not fatal
        return exc


class SpanTimer:
    """A span recorder: wall milliseconds per span name."""

    def __init__(self):
        self.ms = {}

    def __call__(self, name, fn, *args):
        start = now()
        try:
            return fn(*args)
        finally:
            self.ms[name] = self.ms.get(name, 0.0) + since_ms(start)


#: the seed of the warm-up inputs: fixed, so that set-up does not vary
#: with the run's seed (the cost of one request varies with its input)
WARM_SEED = 0


def timed_setup(workload, cal, repeats: int, span=passthrough, warm_cal=None):
    """Build and warm the workload ``repeats`` times; keep the last.

    The build is calibrated by ``cal`` (the client's CPU) and sampled
    throughout; the warm-up by ``warm_cal`` (the service workers' CPUs,
    which serve it) or else ``cal``.  Returns ``(context, [(raw ms,
    calibrated ms) per set-up])``, the kernel runs' time left out."""
    items = workload.inputs(WARM_SEED)
    warm_cal = warm_cal or cal
    ctx = None
    setups = []
    for _ in range(repeats):
        if ctx is not None:
            workload.stop(ctx)
            cal.refresh()
        with Sampler() as sampler:
            start = now()
            ctx = workload.build(span)
            built = since_ms(start) - sampler.paused_ms
        calibrated = built * cal.scale(sampler.kernels_ms)
        if warm_cal is not cal:
            warm_cal.refresh()
        start = now()
        try:
            workload.warm(ctx, items)
        except BaseException:
            workload.stop(ctx)
            raise
        warmed = since_ms(start)
        calibrated += warmed * warm_cal.scale()
        setups.append((built + warmed, calibrated))
    return ctx, setups


def _keep_going(start, seconds, count, min_requests) -> bool:
    return count < min_requests or (now() - start) < seconds


def closed_loop(solve, items, seconds, min_requests, cal) -> Samples:
    """One client, one request at a time, cycling through ``items``."""
    samples = Samples()
    start = now()
    i = 0
    while _keep_going(start, seconds, i, min_requests):
        key = i % len(items)
        x, expected = items[key]
        t = now()
        answer = _call(solve, x)
        raw = since_ms(t)
        factor = cal.scale()
        samples.add(key, raw, factor, answer, expected)
        samples.busy_s += raw * factor / 1000.0
        i += 1
    return samples


def service_loop(handle, items, seconds, min_requests, outstanding, cal):
    """One client sending rounds of ``outstanding`` requests (one per
    worker) and waiting for each round; the kernel runs between rounds,
    while the workers are idle."""
    samples = Samples()
    start = now()
    i = 0
    while _keep_going(start, seconds, i, min_requests):
        sent = {}
        t_round = now()
        for n in range(i, i + outstanding):
            key = n % len(items)
            sent[handle.submit(items[key][0])] = (key, now())
        i += outstanding
        results = []
        for future in as_completed(sent):
            raw = since_ms(sent[future][1])
            results.append((sent[future][0], raw, _call(future.result)))
        wall = since_ms(t_round)
        factor = cal.scale()
        samples.busy_s += wall * factor / 1000.0
        for key, raw, answer in results:
            samples.add(key, raw, factor, answer, items[key][1])
    return samples


class Traced:
    """Spans and counters of the traced loop, per request."""

    def __init__(self):
        self.spans = {}  # name -> calibrated ms per request
        self.counters = {}  # name -> value per request
        self.samples = Samples()


def traced_loop(traced, items, seconds, min_requests, cal) -> Traced:
    """The closed loop over the workload's traced request path."""
    out = Traced()
    start = now()
    i = 0
    while _keep_going(start, seconds, i, min_requests):
        key = i % len(items)
        x, expected = items[key]
        span = SpanTimer()
        t = now()
        result = _call(traced, x, span)
        raw = since_ms(t)
        factor = cal.scale()
        answer, counters = (
            (result, {}) if isinstance(result, Exception) else result
        )
        out.samples.add(key, raw, factor, answer, expected)
        out.samples.busy_s += raw * factor / 1000.0
        for name, ms in span.ms.items():
            out.spans.setdefault(name, []).append(ms * factor)
        for name, value in counters.items():
            out.counters.setdefault(name, []).append(value)
        i += 1
    return out


#: probe sizes (vertex counts) per input family; tiny runs use the
#: second row
PROBE_SIZES = {
    "forest": ((200, 400, 800), (20, 40, 80)),
    "ladder": ((25, 50, 100), (4, 8, 16)),  # ladder columns
}
PROBE_REPEATS = 3
#: the layers whose growth the probe fits, by span name
PROBE_LAYERS = {
    "decompose.exponent": "treewidth.decompose_ms",
    "validate.exponent": "treewidth.validate_ms",
    "normalize.exponent": "treewidth.normalize_ms",
    "encode.exponent": "treewidth.encode_ms",
    "evaluate.exponent": "datalog.evaluate_ms",
}


def _probe_inputs(family, size, rng):
    if family == "forest":
        return inputs.forest_inputs(rng, size, PROBE_REPEATS)
    return inputs.plain_ladder_inputs(size, PROBE_REPEATS)


def log_log_slope(points) -> float:
    """Least-squares slope of log(ms) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(ms, 1e-6)) for _, ms in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def scaling_probe(traced, family, seed, tiny, cal):
    """Time the traced request path at three sizes; returns the fitted
    exponent of each probed layer and the probe's samples."""
    sizes = PROBE_SIZES[family][1 if tiny else 0]
    rng = inputs.rng_for(f"probe-{family}", seed)
    per_size = []
    samples = Samples()
    for size in sizes:
        run = traced_loop(
            traced, _probe_inputs(family, size, rng), 0, PROBE_REPEATS, cal
        )
        per_size.append((size, run))
        samples.outcomes += run.samples.outcomes
    exponents = {
        metric: log_log_slope(
            [(size, median(run.spans.get(span, []))) for size, run in per_size]
        )
        for metric, span in PROBE_LAYERS.items()
    }
    return exponents, samples
