"""The benchmark runner: time one workload for a while, check, report.

One run measures one workload in this process on the default execution
config (``ExecutionConfig()``: backend ``auto``, so ``vector``,
in-process, no worker pool). It repeats *units* of work -- each with a
fresh setup, followed by :data:`EXTRA_SETUPS` timed setups whose inputs
are discarded -- for ``seconds`` (warm-up included): a unit starts
while the run's end is more than half a typical unit away, so a run
lasts ``seconds`` give or take half a unit, and at least
:data:`MIN_UNITS` units run. The reference loop of
:mod:`perfbench.speed` is timed just before and just after each unit;
the unit's times (its setups included) are scaled to reference speed by
the mean of those two probes. Then it reports medians of the scaled
times:

- untraced runs (``trace=False``) report the end-to-end metrics;
- traced runs (``trace=True``) alternate untraced and traced units, so
  the same run yields the per-layer metrics (medians over its traced
  units) and ``trace.overhead_frac`` (traced over untraced median
  wall, minus 1). Their spans are written as one ``flashflow-trace/1``
  file at the end and validated.

Every unit's outputs are digested and checked; all digests of a run
must be equal and equal to the digest any earlier run in the same
output directory recorded for the same workload, size and seed. After
a change that alters outputs on purpose, delete that record
(``.perfbench_out/digests/``) so the new outputs are recorded.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import statistics
import time
import traceback

import numpy
from repro.obs import (
    NULL_TRACER,
    JsonlTraceWriter,
    Tracer,
    get_registry,
    run_manifest,
    use_tracer,
)
from repro.obs.validate import TraceValidationError, validate_trace

from perfbench import layers, speed
from perfbench.workloads import WORKLOADS, UnitResult

#: Units per run at least: two give the in-run determinism check (and,
#: when traced, one traced and one untraced unit).
MIN_UNITS = 2
#: Setups timed after each unit, inputs discarded. Setup is cheap, so
#: extra setups spread over the whole run steady the setup_s median.
EXTRA_SETUPS = 3
#: Setups per run at least; a run short of them tops up at its end.
MIN_SETUPS = 15
#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer, the median stands in for it.
MIN_TAIL = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "period_p50_s": "s",
    "period_p90_s": "s",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in layers.SELF_TIME_METRICS},
    **{name: "s" for name in layers.INCLUSIVE_METRICS},
    "kernel.specs_compiled": "count",
    "kernel.specs_fallback": "count",
    "kernel.compiled_frac": "ratio",
    "api.rounds": "count",
    "api.measurements": "count",
    "api.retried": "count",
    "api.slots": "count",
    "core.cells_checked": "count",
    "service.journal_bytes": "bytes",
    "shadow.horizons": "count",
    "trace.overhead_frac": "ratio",
}


def tail_percentile(values: list[float], q: float) -> tuple[float, float]:
    """The ``q``-th percentile of ``values`` and the ``q`` actually used.

    Falls back to the median when fewer than :data:`MIN_TAIL` samples
    lie beyond the ``q``-th percentile.
    """
    if len(values) * (100 - q) / 100 < MIN_TAIL:
        q = 50
    return float(numpy.percentile(values, q)), q


def _counter(name: str) -> int:
    return get_registry().counter(name).value


class Samples:
    """Everything a run measured, unit by unit."""

    def __init__(self):
        #: Scaled to reference speed, like every time below but the raw ones.
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.periods: list[float] = []
        self.traced_wall_s: list[float] = []
        #: Unscaled setup and untraced unit wall times, for the report.
        self.raw_setup_s: list[float] = []
        self.raw_wall_s: list[float] = []
        #: The reference loop's time at each probe, seconds.
        self.probes: list[float] = []
        self.layers: list[dict[str, float]] = []
        #: The traced units' spans, as recorded (``repro.obs.Span``).
        self.spans: list = []
        self.results: list[UnitResult] = []


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: pathlib.Path,
    size: str = "full",
) -> dict:
    """Measure one workload and return the final JSON line's object.

    The object has the keys ``correct``, ``attempted``, ``failed`` and
    ``metrics``; the human-readable report is printed line by line.
    """
    load1, load5, _ = os.getloadavg()
    manifest = run_manifest(
        name, seed, "auto",
        size=size, numpy=numpy.__version__,
        loadavg_1m=load1, loadavg_5m=load5,
    )
    deadline = time.perf_counter() + seconds
    workload = WORKLOADS[name](size)
    work_dir = out_dir / "work" / name
    # Lazy imports and first-call caches fill on a smoke-size unit, so
    # the first timed unit is not an outlier.
    smoke = WORKLOADS[name]("smoke")
    inputs = smoke.setup(seed, work_dir)
    try:
        smoke.run(inputs)
    finally:
        smoke.discard(inputs)

    def timed_setup(setups: list[float]):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, work_dir)
        setups.append(time.perf_counter() - t0)
        workload.discard(inputs)

    def scale(before: float, after: float) -> float:
        """The factor to reference speed between two probes."""
        samples.probes += [before, after]
        return speed.REFERENCE_S / statistics.fmean((before, after))

    tracer = Tracer()
    samples = Samples()
    #: The last unit's wall time, which sets how long a probe lasts.
    wall_s = 0.0
    #: Seconds each pass of the loop took: setups, unit and check.
    passes: list[float] = []
    unit = 0
    while unit < MIN_UNITS or (
        time.perf_counter() + statistics.median(passes) / 2 < deadline
    ):
        pass_started = time.perf_counter()
        traced = trace and unit % 2 == 1
        setups: list[float] = []
        with use_tracer(tracer if traced else NULL_TRACER) as active:
            first_span = len(tracer.spans)
            retried = _counter("campaign.retried")
            with active.span("bench.setup", workload=name, unit=unit):
                t0 = time.perf_counter()
                inputs = workload.setup(seed, work_dir)
                if not traced:
                    setups.append(time.perf_counter() - t0)
            outputs, error = None, None
            before = speed.probe(wall_s)
            with active.span("bench.unit", workload=name, unit=unit):
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    outputs = workload.run(inputs)
                except Exception:  # a crashing unit is a reported failure
                    error = traceback.format_exc(limit=4)
                wall_s = time.perf_counter() - t0
                cpu_s = time.process_time() - c0
            after = speed.probe(wall_s)
        try:
            result = (
                workload.check(inputs, outputs) if error is None else None
            )
        except Exception:
            error = traceback.format_exc(limit=4)
        finally:
            workload.discard(inputs)
        if error is not None:
            # A unit that raises or fails its check fails all its relays.
            n = workload.expected(inputs)
            result = UnitResult("error", n, n, [error])
        elif result.problems:
            result.failed = result.attempted
        samples.results.append(result)
        for _ in range(EXTRA_SETUPS):
            timed_setup(setups)
        factor = scale(before, after)
        samples.raw_setup_s.extend(setups)
        samples.setup_s.extend(s * factor for s in setups)
        if traced:
            spans = tracer.spans[first_span:]
            samples.spans.extend(spans)
            samples.traced_wall_s.append(wall_s * factor)
            metrics = layers.layer_metrics([span.to_dict() for span in spans])
            for metric in metrics:
                if PER_LAYER_UNITS[metric] == "s":
                    metrics[metric] *= factor
            metrics["api.retried"] = _counter("campaign.retried") - retried
            for key in ("core.cells_checked", "service.journal_bytes"):
                metrics[key] = result.counts.get(key, 0)
            samples.layers.append(metrics)
        else:
            samples.raw_wall_s.append(wall_s)
            samples.wall_s.append(wall_s * factor)
            samples.cpu_s.append(cpu_s * factor)
            periods = result.periods if result.periods is not None else [wall_s]
            samples.periods.extend(p * factor for p in periods)
        passes.append(time.perf_counter() - pass_started)
        unit += 1

    if len(samples.setup_s) < MIN_SETUPS:
        before, setups = speed.probe(), []
        while len(samples.setup_s) + len(setups) < MIN_SETUPS:
            timed_setup(setups)
        factor = scale(before, speed.probe())
        samples.raw_setup_s.extend(setups)
        samples.setup_s.extend(s * factor for s in setups)

    return _report(name, seed, size, trace, out_dir, samples, manifest)


def _check_digests(name, size, seed, out_dir, results) -> list[str]:
    """All units agree, and agree with earlier runs of this seed."""
    digests = sorted({r.digest for r in results})
    if len(digests) != 1:
        return [f"units disagree: {len(digests)} distinct output digests"]
    record = out_dir / "digests" / f"{name}-{size}-{seed}.txt"
    if record.exists():
        previous = record.read_text().strip()
        if previous != digests[0]:
            return [f"digest {digests[0][:12]} differs from {previous[:12]} "
                    f"recorded in {record} by an earlier run; delete that "
                    f"file if the outputs changed on purpose"]
    elif digests[0] != "error":
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(digests[0] + "\n")
        tmp.replace(record)
    return []


def _report(name, seed, size, trace, out_dir, samples: Samples,
            manifest: dict) -> dict:
    results = samples.results
    problems = [p for r in results for p in r.problems]
    problems += _check_digests(name, size, seed, out_dir, results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    lines = [
        f"perfbench {name} seed={seed} size={size} trace={int(trace)}: "
        f"{len(results)} units ({len(samples.wall_s)} untraced, "
        f"{len(samples.traced_wall_s)} traced), {len(samples.setup_s)} setups",
    ]

    period_p90, p90_used = tail_percentile(samples.periods, 90)
    end_to_end = {
        "setup_s": statistics.median(samples.setup_s),
        "wall_s": statistics.median(samples.wall_s),
        "cpu_s": statistics.median(samples.cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "period_p50_s": statistics.median(samples.periods),
        "period_p90_s": period_p90,
    }
    counts = {
        "setup_s": len(samples.setup_s),
        "wall_s": len(samples.wall_s),
        "cpu_s": len(samples.cpu_s),
        "peak_rss_mb": 1,
        "period_p50_s": len(samples.periods),
        "period_p90_s": len(samples.periods),
    }
    probe = statistics.median(samples.probes)
    lines.append(
        f"times scaled to reference speed: reference loop median "
        f"{probe * 1e3:.3f} ms over {len(samples.probes)} probes, "
        f"{speed.REFERENCE_S * 1e3:.3f} ms at reference speed; unscaled "
        f"medians: setup_s {statistics.median(samples.raw_setup_s):.6f}, "
        f"wall_s {statistics.median(samples.raw_wall_s):.6f}"
    )
    lines.append(f"{'end-to-end metric':24s} {'value':>14s} {'unit':6s} samples")
    for metric, value in end_to_end.items():
        lines.append(
            f"{metric:24s} {value:14.6f} {END_TO_END_UNITS[metric]:6s} {counts[metric]}"
        )
    if p90_used != 90:
        lines.append(
            f"  (period_p90_s reports the median: p90 needs {MIN_TAIL} "
            f"periods beyond it, the run has {len(samples.periods)} in all)"
        )
    lines.append(
        f"{'failed_frac':24s} {failed / max(1, attempted):14.6f} {'ratio':6s} "
        f"{failed}/{attempted} relays"
    )

    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    if trace:
        per_layer = {
            metric: statistics.median(m[metric] for m in samples.layers)
            for metric in samples.layers[0]
        }
        per_layer["trace.overhead_frac"] = (
            statistics.median(samples.traced_wall_s)
            / statistics.median(samples.wall_s) - 1.0
        )
        lines.append("")
        lines.append(
            f"per-layer self time over {len(samples.layers)} traced "
            f"unit(s), setup included:"
        )
        lines.append(
            layers.render_table([span.to_dict() for span in samples.spans])
        )
        lines.append("")
        lines.append(f"{'per-layer metric':28s} {'value':>14s} unit")
        for metric in PER_LAYER_UNITS:
            lines.append(
                f"{metric:28s} {per_layer[metric]:14.6f} {PER_LAYER_UNITS[metric]}"
            )
        metrics = {k: (per_layer[k], u) for k, u in PER_LAYER_UNITS.items()}
        path = out_dir / f"trace-{name}-{seed}.jsonl"
        writer = JsonlTraceWriter(path, manifest)
        for span in samples.spans:
            writer.write_span(span)
        writer.finish(get_registry())
        try:
            stats = validate_trace(path)
            lines.append(f"trace: {path} ({stats['spans']} spans, valid)")
        except TraceValidationError as exc:
            problems.append(f"trace {path} invalid: {exc}")

    correct = not problems
    lines.append(
        f"check: PASS -- output digest {results[0].digest[:16]} on all "
        f"{len(results)} units" if correct else "check: FAIL"
    )
    lines.extend(f"  problem: {p}" for p in problems)
    provenance = {
        key: manifest[key]
        for key in ("scenario", "seed", "size", "cpu_count", "python",
                    "numpy", "git_rev", "loadavg_1m", "loadavg_5m")
    }
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    for line in lines:
        print(line)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
