"""The vectorized shadow flow kernel and its backend registry.

:class:`repro.shadow.simulator.NetworkSimulator` historically walked
every simulated second in Python: gather each background circuit's
demand, look up its congested RTT, cap it by the flow-control window,
then advance benchmark transfers one attribute write at a time. This
module lowers a whole simulation horizon onto flat numpy arrays, the
same way :mod:`repro.kernel` lowered measurement rounds:

- **flow table** (:func:`build_flow_table`): circuit state compiled to
  arrays -- ``[C, 3]`` relay ids, base RTTs, and a precomputed
  ``[span, C]`` offered-demand matrix -- rebuilt only at circuit-churn
  events (every ``circuit_lifetime_seconds``), not every second. The
  AR(1) innovations for the whole span are pre-drawn from each
  generator's own RNG in exactly the per-second order the stateful walk
  consumes them, so values are bit-identical.
- **vectorized congested RTT**: per-relay load ratios from the previous
  second turn into effective RTTs and window caps for every flow in a
  handful of elementwise array ops.
- **batched transfer advancement** (:func:`run_flow_kernel`):
  TTFB/TTLB/timeout bookkeeping for all active benchmark transfers as
  array ops; only start/finish *events* touch Python objects.

**Bit-identity.** The kernel reproduces the stateful walk's results
exactly under fixed seeds (the oracle suite in
``tests/shadow/test_flow_oracle.py`` asserts ``==`` on every metric).
Two transcendental functions need care: numpy's SIMD ``np.exp`` /
``np.power`` are *not* bit-identical to CPython's ``math.exp`` /
``**`` on this toolchain, so the demand matrix applies ``math.exp``
element-by-element at churn time (amortized over the span) and the
per-transfer scheduling-luck factor ``luck ** severity`` is computed
with scalar CPython pow at event granularity. Everything else --
add/mul/div, gathers, 3-wide means, ``np.minimum``, ``np.bincount`` --
is the same IEEE-754 operation either way.

Two backends: ``stateful`` keeps the
historical per-second Python walk alive, ``vector`` (the ``auto``
default) runs this kernel. Selection order: explicit ``backend=``
argument, then the ``FLASHFLOW_SHADOW_BACKEND`` environment variable,
then ``auto``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.tornet.circuit import CIRCUIT_WINDOW_CELLS, STREAM_WINDOW_CELLS
from repro.units import CELL_LEN

_EPS = 1e-6

#: Offered-demand/capacity ratio at which a relay's circuit scheduler
#: starts being unfair (queues grow, EWMA starves bursty circuits), and
#: the ratio at which the unfairness is fully developed.
OVERLOAD_ONSET = 1.10
OVERLOAD_FULL = 1.60

#: Environment variable consulted when the caller leaves the shadow
#: backend unset.
SHADOW_BACKEND_ENV_VAR = "FLASHFLOW_SHADOW_BACKEND"

#: Window-cap numerators, grouped exactly as ``circuit_rate_cap``
#: computes them (``(window_cells * CELL_LEN) * 8.0``), so dividing by
#: an RTT array reproduces the scalar helper bit for bit.
_BG_WINDOW_BITS = min(CIRCUIT_WINDOW_CELLS, STREAM_WINDOW_CELLS * 2) * CELL_LEN * 8.0
_BENCH_WINDOW_BITS = min(CIRCUIT_WINDOW_CELLS, STREAM_WINDOW_CELLS * 1) * CELL_LEN * 8.0


def waterfill(
    path_idx: np.ndarray, caps: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Exact max-min fair rates for flows over 3-relay paths.

    ``path_idx`` is [F, 3] relay indices, ``caps`` [F] per-flow caps,
    ``capacity`` [R] per-relay forwarding capacity. Returns rates [F].

    The waterfilling is the batch-freezing variant: each round either
    freezes every flow whose cap-residual is below the tightest resource
    level (in one vector operation) or saturates at least one relay, so
    rounds stay far below the flow count.
    """
    n_flows = path_idx.shape[0]
    n_relays = capacity.shape[0]
    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates
    active = caps > 0
    remaining = capacity.astype(float).copy()

    for _ in range(2 * (n_flows + n_relays) + 8):
        if not active.any():
            break
        act_paths = path_idx[active]
        counts = np.bincount(act_paths.ravel(), minlength=n_relays)
        used = counts > 0
        with np.errstate(divide="ignore"):
            levels = np.where(used, remaining / np.maximum(counts, 1), np.inf)
        level = levels.min()

        residual = caps[active] - rates[active]
        if np.isinf(level) or (residual > level + _EPS).sum() == 0:
            # Every remaining flow fits under the tightest resource level:
            # give each its full residual and finish.
            np.subtract.at(
                remaining,
                act_paths.ravel(),
                np.repeat(residual, 3),
            )
            rates[active] = caps[active]
            active[:] = False
            break

        batch = residual <= level + _EPS
        if batch.any():
            # Freeze all cap-limited flows below the level in one shot.
            batch_paths = act_paths[batch]
            np.subtract.at(
                remaining,
                batch_paths.ravel(),
                np.repeat(residual[batch], 3),
            )
            idx = np.flatnonzero(active)[batch]
            rates[idx] = caps[idx]
            active[idx] = False
            continue

        # Advance everyone by the level; at least one relay saturates.
        rates[active] += level
        remaining -= level * counts
        saturated = remaining <= _EPS
        if saturated.any():
            crossing = saturated[path_idx].any(axis=1) & active
            active &= ~crossing

    return rates


# ---------------------------------------------------------------------------
# The background flow table
# ---------------------------------------------------------------------------

@dataclass
class FlowTable:
    """Background circuits lowered to arrays for one churn-to-churn span."""

    #: First simulated second this table is valid for.
    start: int
    #: Seconds until the next circuit-churn event (>= 1).
    span: int
    #: [C, 3] relay indices per background circuit.
    path_idx: np.ndarray
    #: [C] base (uncongested) circuit RTTs, seconds.
    base_rtt: np.ndarray
    #: [span, C] offered demand, bit/s, precomputed for the whole span.
    demand: np.ndarray
    #: [C] AR(1) log-state after the final row, written back onto the
    #: circuit objects at the next rebuild so survivors stay in sync.
    final_log_state: np.ndarray
    #: The live circuit objects, in table order.
    circuits: list

    @property
    def n_flows(self) -> int:
        return self.path_idx.shape[0]

    def writeback_states(self) -> None:
        """Sync the evolved AR(1) states onto the circuit objects."""
        for circuit, value in zip(self.circuits, self.final_log_state):
            circuit.log_state = float(value)


def build_flow_table(
    background: list,
    index: dict[str, int],
    now: int,
    horizon: int,
    prev: FlowTable | None = None,
) -> FlowTable:
    """Compile the background circuits into a :class:`FlowTable`.

    Refreshes every generator's circuits (the churn event), pre-draws
    each generator's AR(1) innovations for the span until the next
    churn, and precomputes the whole span's demand matrix. All RNG
    draws happen through the generators' own ``random.Random`` streams
    in the exact order the stateful per-second walk consumes them.
    """
    if prev is not None:
        prev.writeback_states()
    for generator in background:
        generator.refresh_circuits(now)

    circuits = [c for gen in background for c in gen.circuits]
    expiries = [
        circuit.built_at + generator.circuit_lifetime
        for generator in background
        for circuit in generator.circuits
    ]
    next_churn = min(expiries) if expiries else horizon
    span = max(1, min(next_churn, horizon) - now)

    n_circuits = len(circuits)
    if n_circuits == 0:
        return FlowTable(
            start=now,
            span=span,
            path_idx=np.zeros((0, 3), dtype=np.int64),
            base_rtt=np.zeros(0),
            demand=np.zeros((span, 0)),
            final_log_state=np.zeros(0),
            circuits=[],
        )

    path_idx = np.array(
        [[index[fp] for fp in c.path] for c in circuits], dtype=np.int64
    )
    base_rtt = np.array([c.rtt for c in circuits])
    states = np.array([c.log_state for c in circuits])
    per_circuit = np.empty(n_circuits)
    correction = np.empty(n_circuits)
    rho = np.empty(n_circuits)
    blocks = []
    offset = 0
    for generator in background:
        count = len(generator.circuits)
        pc, corr = generator.demand_constants()
        per_circuit[offset : offset + count] = pc
        correction[offset : offset + count] = corr
        rho[offset : offset + count] = generator.rho
        blocks.append(generator.draw_noise_block(span))
        offset += count
    noise = np.concatenate(blocks, axis=1)

    # Evolve the AR(1) recurrence one second at a time (cheap: one [C]
    # multiply-add per second of span) -- reassociating it into a scan
    # would not be bit-identical.
    logs = np.empty((span, n_circuits))
    for second in range(span):
        states = rho * states + noise[second]
        logs[second] = states
    # math.exp element-by-element: numpy's SIMD exp differs from libm in
    # the last ulp for ~5% of inputs, which would break bit-identity
    # with the stateful walk's per-second math.exp.
    exps = np.fromiter(
        map(math.exp, logs.ravel().tolist()),
        dtype=np.float64,
        count=span * n_circuits,
    ).reshape(span, n_circuits)
    demand = (per_circuit * exps) * correction

    return FlowTable(
        start=now,
        span=span,
        path_idx=path_idx,
        base_rtt=base_rtt,
        demand=demand,
        final_log_state=states,
        circuits=circuits,
    )


def finalize_relay_stats(
    metrics,
    fingerprints: list[str],
    util_acc: np.ndarray,
    peak: np.ndarray,
    load_history: list[np.ndarray],
    measured_seconds: int,
) -> None:
    """Fold the per-relay accumulators into the metrics dicts."""
    if not measured_seconds:
        return
    p95 = np.percentile(np.stack(load_history), 95, axis=0)
    for i, fp in enumerate(fingerprints):
        metrics.relay_utilization[fp] = float(util_acc[i] / measured_seconds)
        metrics.relay_peak_throughput[fp] = float(peak[i])
        metrics.relay_p95_throughput[fp] = float(p95[i])


# ---------------------------------------------------------------------------
# The vectorized horizon walk
# ---------------------------------------------------------------------------

def run_flow_kernel(simulator, prepared):
    """Walk a prepared simulation horizon on the vectorized flow kernel.

    ``simulator`` is a :class:`repro.shadow.simulator.NetworkSimulator`;
    ``prepared`` is its :meth:`_prepare` output (generators, benchmark
    clients, metrics, pre-drawn relay noise). Returns the populated
    :class:`repro.shadow.simulator.SimulationMetrics`, bit-identical to
    the stateful walk's.

    Instrumentation sits at event granularity: one ``shadow.horizon``
    span for the whole walk plus a ``shadow.churn`` child per circuit-
    churn flow-table rebuild -- never inside the per-second array ops.
    """
    tracer = get_tracer()
    with tracer.span(
        "shadow.horizon",
        horizon=prepared.horizon,
        n_relays=simulator._capacity.shape[0],
        n_benchmarks=len(prepared.benchmarks),
    ) as span:
        metrics, churns = _walk_horizon(simulator, prepared, tracer)
    span.set(churns=churns)
    get_registry().counter("shadow.churns").inc(churns)
    return metrics


def _walk_horizon(simulator, prepared, tracer):
    config = simulator.config
    capacity = simulator._capacity
    index = simulator._index
    n_relays = capacity.shape[0]
    background = prepared.background
    benchmarks = prepared.benchmarks
    metrics = prepared.metrics
    relay_noise = prepared.relay_noise
    horizon = prepared.horizon
    warmup = config.warmup_seconds
    access_bits = config.client_access_bits
    cap_floor = np.maximum(capacity, 1.0)

    util_acc = np.zeros(n_relays)
    peak = np.zeros(n_relays)
    load_history: list[np.ndarray] = []
    prev_util = np.zeros(n_relays)
    measured_seconds = 0

    # Benchmark transfers as per-client array slots; the flow rows for a
    # second are the active slots in client order (matching the stateful
    # walk's iteration order exactly).
    n_bench = len(benchmarks)
    b_active = np.zeros(n_bench, dtype=bool)
    b_path = np.zeros((n_bench, 3), dtype=np.int64)
    b_rtt = np.zeros(n_bench)
    b_luck = np.zeros(n_bench)
    b_remaining = np.zeros(n_bench)
    b_timeout = np.zeros(n_bench)
    b_started = np.zeros(n_bench, dtype=np.int64)
    b_first = np.zeros(n_bench, dtype=bool)
    b_ttfb = np.zeros(n_bench)

    table: FlowTable | None = None
    next_rebuild = 0
    churns = 0

    for now in range(horizon):
        # --- Event: circuit churn (rebuild the flow table) ------------
        if now == next_rebuild:
            with tracer.span("shadow.churn", now=now):
                table = build_flow_table(
                    background, index, now, horizon, prev=table
                )
            next_rebuild = now + table.span
            churns += 1
        n_bg = table.n_flows
        bg_demand = table.demand[now - table.start]

        # --- Event: benchmark transfer starts -------------------------
        for j, client in enumerate(benchmarks):
            if b_active[j]:
                continue
            transfer = client.maybe_start(now)
            if transfer is None:
                continue
            b_active[j] = True
            b_path[j] = [index[fp] for fp in transfer.path]
            b_rtt[j] = transfer.rtt
            b_luck[j] = transfer.luck
            b_remaining[j] = transfer.remaining_bytes
            b_timeout[j] = transfer.timeout
            b_started[j] = transfer.record.started_at
            b_first[j] = False
            b_ttfb[j] = 0.0
        active = np.flatnonzero(b_active)

        # --- Vectorized congested RTTs and per-flow caps --------------
        bg_queue = prev_util[table.path_idx].mean(axis=1)
        bg_caps = np.minimum(
            bg_demand,
            _BG_WINDOW_BITS
            / (table.base_rtt * (1.0 + 2.5 * (bg_queue * bg_queue))),
        )
        if active.size:
            a_path = b_path[active]
            a_queue = prev_util[a_path].mean(axis=1)
            cur_rtt = b_rtt[active] * (1.0 + 2.5 * (a_queue * a_queue))
            bench_caps = np.minimum(
                _BENCH_WINDOW_BITS / cur_rtt, access_bits
            )
            path_all = np.concatenate([table.path_idx, a_path])
            cap_all = np.concatenate([bg_caps, bench_caps])
        else:
            path_all, cap_all = table.path_idx, bg_caps

        rates = waterfill(path_all, cap_all, capacity * relay_noise[now])

        # Oversubscription per relay: offered demand vs capacity.
        offered_load = np.bincount(
            path_all.ravel(),
            weights=np.repeat(cap_all, 3),
            minlength=n_relays,
        )
        oversub = offered_load / cap_floor

        # --- Batched benchmark-transfer advancement -------------------
        if active.size:
            bench_rates = rates[n_bg:].copy()
            worst = oversub[a_path].max(axis=1)
            overloaded = worst > OVERLOAD_ONSET
            if overloaded.any():
                severity = np.minimum(
                    1.0,
                    (worst - OVERLOAD_ONSET)
                    / (OVERLOAD_FULL - OVERLOAD_ONSET),
                )
                for k in np.flatnonzero(overloaded):
                    # Scalar CPython pow: np.power is not bit-identical
                    # to ``luck ** severity`` on SIMD numpy builds.
                    bench_rates[k] *= (
                        float(b_luck[active[k]]) ** float(severity[k])
                    )

            elapsed = now + 1 - b_started[active]
            fresh = (~b_first[active]) & (bench_rates > 0)
            if fresh.any():
                serialization = np.minimum(
                    b_timeout[active],
                    (1024.0 * 8.0) / np.maximum(bench_rates, 1.0),
                )
                ttfb = (elapsed - 1) + 1.5 * cur_rtt + serialization
                started_idx = active[fresh]
                b_ttfb[started_idx] = ttfb[fresh]
                b_first[started_idx] = True

            rate_bytes = bench_rates / 8.0
            b_remaining[active] -= rate_bytes
            remaining = b_remaining[active]
            done = remaining <= 0
            timed_out = (~done) & (elapsed >= b_timeout[active])
            finished = done | timed_out
            if finished.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    overshoot = np.where(
                        bench_rates > 0, -remaining / rate_bytes, 0.0
                    )
                ttlb = elapsed - overshoot + 1.5 * cur_rtt
                for k in np.flatnonzero(finished):
                    j = int(active[k])
                    client = benchmarks[j]
                    record = client.active.record
                    if b_first[j]:
                        record.ttfb = float(b_ttfb[j])
                    if done[k]:
                        record.ttlb = float(ttlb[k])
                        if record.ttfb is None:
                            record.ttfb = record.ttlb
                    else:
                        record.timed_out = True
                    client.finish_active(now)
                    b_active[j] = False

        # --- Record ---------------------------------------------------
        relay_load = np.bincount(
            path_all.ravel(),
            weights=np.repeat(rates, 3),
            minlength=n_relays,
        )
        prev_util = np.minimum(1.0, relay_load / cap_floor)
        if now >= warmup:
            metrics.throughput_series.append(float(relay_load.sum()))
            util_acc += prev_util
            peak = np.maximum(peak, relay_load)
            load_history.append(relay_load)
            measured_seconds += 1

    finalize_relay_stats(
        metrics,
        simulator._fingerprints,
        util_acc,
        peak,
        load_history,
        measured_seconds,
    )
    return metrics, churns


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

class ShadowFlowBackend:
    """Base class: runs one prepared simulation, returns its metrics."""

    name = "base"

    def run(self, simulator, weights: dict[str, float]):
        raise NotImplementedError


class StatefulFlowBackend(ShadowFlowBackend):
    """The historical per-second Python walk (debugging granularity).

    ``memoize=False`` disables the congested-window memo so tests can
    prove the memo never changes results.
    """

    name = "stateful"

    def __init__(self, memoize: bool = True):
        self.memoize = memoize

    def run(self, simulator, weights):
        return simulator._run_stateful(weights, memoize=self.memoize)


class VectorFlowBackend(ShadowFlowBackend):
    """The vectorized flow kernel (the ``auto`` default)."""

    name = "vector"

    def run(self, simulator, weights):
        return run_flow_kernel(simulator, simulator._prepare(weights))


_BACKENDS: dict[str, ShadowFlowBackend] = {}


def register_shadow_backend(backend: ShadowFlowBackend) -> ShadowFlowBackend:
    """Add a backend instance to the registry (name taken from the class)."""
    _BACKENDS[backend.name] = backend
    return backend


register_shadow_backend(StatefulFlowBackend())
register_shadow_backend(VectorFlowBackend())


def shadow_backend_names() -> list[str]:
    """Registered shadow backend names (for docs/CLIs/validation)."""
    return sorted(_BACKENDS)


def resolve_shadow_backend_name(explicit: str | None = None) -> str:
    """Apply the selection order; ``auto`` resolves to ``vector``.

    The resolved name is validated against the registry *here*, before
    any simulation work starts: a typo'd ``FLASHFLOW_SHADOW_BACKEND``
    (or explicit name) fails fast with a :class:`ConfigurationError`
    naming the registered backends instead of surfacing as a raw
    ``KeyError`` mid-simulation.
    """
    env = os.environ.get(SHADOW_BACKEND_ENV_VAR)
    if explicit:
        name, source = explicit, "backend argument"
    elif env:
        name, source = env, f"the {SHADOW_BACKEND_ENV_VAR} environment variable"
    else:
        name, source = "auto", "default"
    if name == "auto":
        return VectorFlowBackend.name
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown shadow backend {name!r} (from {source}); "
            f"known backends: auto, {', '.join(shadow_backend_names())}"
        )
    return name


def get_shadow_backend(name: str) -> ShadowFlowBackend:
    """Look up a backend by name; raises with the known names listed."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown shadow backend {name!r}; "
            f"known backends: {', '.join(shadow_backend_names())}"
        ) from None
