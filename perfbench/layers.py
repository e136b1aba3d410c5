"""Per-layer numbers from a recorded span tree.

Spans come from the public recording :class:`repro.obs.Tracer` as
``flashflow-trace/1`` span records (dicts with ``id``, ``parent``,
``name``, ``start_unix``, ``wall_seconds``, ``cpu_seconds`` and
``attrs``). Two kinds are mixed in one tree: the benchmark's own spans
around the public calls it makes (``bench.setup``, ``bench.unit``,
``tornet.synthesize``, ``torflow.weights``, ...) and the spans the
program already emits (``campaign > period > round > round.*``,
``service.*``, ``shadow.*``).

A span's *self time* is its wall time minus the part of its interval
that its children cover. Self times of every span in a tree therefore
add up to the wall time of its roots; the roots are the benchmark's
``bench.setup``/``bench.unit`` spans, whose self time is the
"unspanned" time no deeper span accounts for.
"""

from __future__ import annotations

#: The benchmark's root spans: one per traced setup and one per unit.
ROOT_SPANS = ("bench.setup", "bench.unit")

#: Per-layer time metrics: the sum of the self times of these spans.
SELF_TIME_METRICS = {
    "kernel.compile_s": ("round.compile",),
    "kernel.execute_s": ("round.execute", "round.drain", "kernel.chunk"),
    "kernel.settle_s": ("round.settle",),
    "kernel.analytic_s": ("round.analytic",),
    "core.fallback_s": ("round.fallback", "round.stateful"),
    "api.pack_s": ("round.pack",),
    "api.round_self_s": ("round",),
    "api.fold_s": ("round.fold",),
    "api.resolve_s": ("campaign.resolve",),
    "service.period_self_s": ("service.period",),
    "service.publish_s": ("service.publish",),
    "service.churn_s": ("service.churn.applied",),
    "shadow.horizon_s": ("shadow.horizon",),
    "shadow.churn_s": ("shadow.churn",),
}

#: Benchmark-timed calls: the whole wall time of the benchmark's span,
#: children included, because the call is the unit of interest.
INCLUSIVE_METRICS = {
    "torflow.weights_s": "torflow.weights",
    "shadow.flashflow_weights_s": "shadow.flashflow_weights",
    "shadow.perf_run_s": "shadow.perf_run",
    "tornet.synthesize_s": "tornet.synthesize",
}


def _end(span: dict) -> float:
    return span["start_unix"] + span["wall_seconds"]


def adopt_orphans(spans: list[dict]) -> list[dict]:
    """Parent root spans opened on worker threads under their caller.

    The tracer parents through a per-thread stack, so a span opened on
    an executor thread (the daemon runs each period's campaign off the
    event loop) becomes a root. It belongs to the innermost span whose
    interval contains its midpoint. Returns copies; input is unchanged.
    """
    spans = [dict(span) for span in spans]
    for span in spans:
        if span["parent"] is not None or span["name"] in ROOT_SPANS:
            continue
        middle = span["start_unix"] + span["wall_seconds"] / 2
        hosts = [
            other for other in spans
            if other is not span
            and other["start_unix"] <= middle <= _end(other)
            and other["wall_seconds"] >= span["wall_seconds"]
        ]
        if hosts:
            span["parent"] = min(hosts, key=lambda s: s["wall_seconds"])["id"]
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> wall time not covered by the span's children."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        kids = children.get(span["id"], [])
        if not kids:
            out[span["id"]] = span["wall_seconds"]
            continue
        # Children measured with the same clocks as their parent can
        # stick out by a clock tick; clip so self time never goes
        # negative and the tree's self times still add up.
        lo, hi = span["start_unix"], _end(span)
        covered = _covered([(k["start_unix"], _end(k)) for k in kids], lo, hi)
        out[span["id"]] = max(0.0, span["wall_seconds"] - covered)
    return out


def layer_rows(spans: list[dict]) -> dict[str, dict]:
    """Span name -> ``{self_s, count, cpu_s}``; roots become "unspanned".

    ``cpu_s`` is the spans' own recorded CPU time (children included,
    on the span's thread).
    """
    spans = adopt_orphans(spans)
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        name = "unspanned" if span["name"] in ROOT_SPANS else span["name"]
        row = rows.setdefault(name, {"self_s": 0.0, "count": 0, "cpu_s": 0.0})
        row["self_s"] += selfs[span["id"]]
        row["count"] += 1
        if name != "unspanned":
            row["cpu_s"] += span["cpu_seconds"]
    return rows


def traced_wall(spans: list[dict]) -> float:
    """Wall seconds of the benchmark's root spans."""
    return sum(s["wall_seconds"] for s in spans if s["name"] in ROOT_SPANS)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced unit (setup + unit spans)."""
    spans = adopt_orphans(spans)
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in named(name))

    metrics = {
        metric: sum(selfs[s["id"]] for name in names for s in named(name))
        for metric, names in SELF_TIME_METRICS.items()
    }
    for metric, name in INCLUSIVE_METRICS.items():
        metrics[metric] = sum(s["wall_seconds"] for s in named(name))
    fallback = attr_sum("round.fallback", "n_specs") + attr_sum(
        "round.stateful", "n_specs"
    )
    compiled = attr_sum("round.compile", "n_specs") - attr_sum(
        "round.fallback", "n_specs"
    )
    metrics.update({
        "kernel.specs_compiled": compiled,
        "kernel.specs_fallback": fallback,
        "kernel.compiled_frac": (
            compiled / (compiled + fallback) if compiled + fallback else 0.0
        ),
        "api.rounds": len(named("round")),
        "api.measurements": attr_sum("round", "n_jobs"),
        "api.slots": attr_sum("round", "slots_packed"),
        "shadow.horizons": len(named("shadow.horizon")),
    })
    return metrics


def render_table(spans: list[dict]) -> str:
    """Self time, count and CPU per span name, plus the arithmetic check."""
    rows = layer_rows(spans)
    wall = traced_wall(spans)
    lines = [f"{'layer (span)':28s} {'self_s':>10s} {'share':>7s} {'count':>7s} {'cpu_s':>10s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        cpu = "" if name == "unspanned" else f"{row['cpu_s']:10.4f}"
        lines.append(
            f"{name:28s} {row['self_s']:10.4f} {share:7.1%} {row['count']:7d} {cpu:>10s}"
        )
    total = sum(row["self_s"] for row in rows.values())
    lines.append(f"{'total self':28s} {total:10.4f}   traced wall {wall:.4f}")
    return "\n".join(lines)

