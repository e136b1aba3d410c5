"""Flow-level network simulator (the Shadow stand-in, paper §7).

Each simulated second:

1. background (Markov) clients refresh circuits and offer demand;
2. benchmark clients start transfers on fresh weighted circuits;
3. every circuit becomes a flow over its three relays, and a vectorised
   exact max-min waterfilling allocates rates subject to per-relay
   forwarding capacity and per-flow caps (demand, circuit windows,
   client access links);
4. benchmark transfers advance, recording TTFB/TTLB/timeouts;
5. per-relay throughput and utilisation are accumulated.

Execution is pluggable (:mod:`repro.shadow.flows`): the default
``vector`` backend compiles each horizon onto the flow kernel's arrays
(flow table rebuilt only at circuit churn, congested RTTs and transfer
bookkeeping as batched array ops), while ``backend="stateful"`` keeps
the historical per-second Python walk. Both are bit-identical under
fixed seeds; selection order is explicit ``backend=`` argument, then
the ``FLASHFLOW_SHADOW_BACKEND`` environment variable, then ``auto``
(= ``vector``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rng import fork_numpy
from repro.shadow.benchclient import BenchmarkClient
from repro.shadow.config import ShadowConfig, ShadowNetwork
from repro.shadow.flows import (
    OVERLOAD_FULL,
    OVERLOAD_ONSET,
    finalize_relay_stats,
    get_shadow_backend,
    resolve_shadow_backend_name,
    waterfill,
)
from repro.shadow.trafficgen import MarkovLoadGenerator
from repro.tornet.circuit import circuit_rate_cap
from repro.tornet.consensus import Consensus, RouterStatus
from repro.tornet.pathsel import PathSelector

__all__ = [
    "NetworkSimulator",
    "PreparedSimulation",
    "SimulationMetrics",
    "waterfill",
    "OVERLOAD_ONSET",
    "OVERLOAD_FULL",
]

#: Entries kept in the stateful walk's congested-window memo before it
#: stops growing (the memo is exact, so capping it only costs hits;
#: entries are one per distinct background circuit, so the cap is a
#: safety valve, not a working-set bound).
_WINDOW_MEMO_MAX = 1 << 18


@dataclass
class SimulationMetrics:
    """Everything a performance run records (after warmup)."""

    #: Summed per-relay forwarded traffic each second (bit/s) -- every
    #: flow byte crosses three relays (Figure 9c's metric).
    throughput_series: list[float] = field(default_factory=list)
    #: Mean utilisation per relay over the run.
    relay_utilization: dict[str, float] = field(default_factory=dict)
    #: Max per-second forwarded traffic per relay (the observed-bandwidth
    #: signal TorFlow's self-reports are built from), bit/s.
    relay_peak_throughput: dict[str, float] = field(default_factory=dict)
    #: 95th-percentile per-second forwarded traffic per relay, bit/s --
    #: the *sustained* peak a short warmup run can stand in for the live
    #: network's 5-day observed-bandwidth window with.
    relay_p95_throughput: dict[str, float] = field(default_factory=dict)
    #: Benchmark clients with their transfer records.
    clients: list[BenchmarkClient] = field(default_factory=list)

    def ttlb(self, size: int) -> list[float]:
        values: list[float] = []
        for client in self.clients:
            values.extend(client.ttlb_values(size))
        return values

    def ttfb(self) -> list[float]:
        values: list[float] = []
        for client in self.clients:
            values.extend(client.ttfb_values())
        return values

    def error_rates(self) -> list[float]:
        return [c.error_rate() for c in self.clients]

    def transfers_completed(self) -> int:
        return sum(
            sum(1 for r in c.records if not r.timed_out)
            for c in self.clients
        )

    def transfers_failed(self) -> int:
        return sum(
            sum(1 for r in c.records if r.timed_out) for c in self.clients
        )

    def median_throughput(self) -> float:
        if not self.throughput_series:
            return 0.0
        return float(np.median(self.throughput_series))


@dataclass
class PreparedSimulation:
    """One run's resolved inputs, shared by every execution backend."""

    background: list[MarkovLoadGenerator]
    benchmarks: list[BenchmarkClient]
    metrics: SimulationMetrics
    #: [horizon, R] pre-drawn per-second relay capacity jitter.
    relay_noise: np.ndarray
    horizon: int


class NetworkSimulator:
    """Runs one performance simulation under a given weight assignment."""

    def __init__(self, network: ShadowNetwork, seed: int = 0):
        self.network = network
        self.config = network.config
        self.seed = seed
        self._fingerprints = sorted(network.relays.relays)
        self._index = {fp: i for i, fp in enumerate(self._fingerprints)}
        self._capacity = np.array(
            [network.relays[fp].true_capacity for fp in self._fingerprints]
        )

    def _consensus(self, weights: dict[str, float]) -> Consensus:
        consensus = Consensus(valid_after=0)
        for fp in self._fingerprints:
            relay = self.network.relays[fp]
            consensus.add(
                RouterStatus(
                    fingerprint=fp,
                    weight=max(weights.get(fp, 0.0), 0.0),
                    flags=relay.flags,
                )
            )
        return consensus

    def run(
        self, weights: dict[str, float], backend: str | None = None
    ) -> SimulationMetrics:
        """Simulate ``sim_seconds`` + warmup under ``weights``.

        ``backend`` selects the flow-execution backend
        (:mod:`repro.shadow.flows`); results are bit-identical for every
        choice, so the knob only trades speed for granularity.
        """
        name = resolve_shadow_backend_name(backend)
        return get_shadow_backend(name).run(self, weights)

    def _prepare(self, weights: dict[str, float]) -> PreparedSimulation:
        """Resolve one run's clients and noise (RNG order is canonical).

        Every backend starts from this exact draw sequence: path
        selector, the numpy noise fork, background generators, then
        benchmark clients -- so backend choice can never shift a seed.
        """
        config = self.config
        selector = PathSelector(self._consensus(weights), seed=self.seed)
        rtt_sampler = self.network.sample_circuit_rtt
        rng_np = fork_numpy(self.seed, "shadow-sim")

        total_capacity = float(self._capacity.sum())
        offered = (
            total_capacity
            * config.utilization_target
            / 3.0
            * config.load_multiplier
        )
        per_client = offered / max(1, config.n_markov_clients)
        # Enough circuits per client that typical per-circuit demand stays
        # well under the circuit flow-control window (real Tor clients
        # multiplex across many circuits; small test configs would
        # otherwise window-cap their offered load).
        n_circuits = max(3, int(per_client / 3e6) + 1)
        background = [
            MarkovLoadGenerator(
                name=f"markov{i}",
                base_demand=per_client,
                selector=selector,
                rtt_sampler=rtt_sampler,
                circuit_lifetime=config.circuit_lifetime_seconds,
                n_circuits=n_circuits,
                seed=self.seed * 100003 + i,
            )
            for i in range(config.n_markov_clients)
        ]
        benchmarks = [
            BenchmarkClient(
                name=f"bench{i}",
                selector=selector,
                rtt_sampler=rtt_sampler,
                sizes=config.benchmark_sizes,
                timeouts=config.benchmark_timeouts,
                pause_seconds=config.benchmark_pause_seconds,
                seed=self.seed * 200003 + i,
            )
            for i in range(config.n_benchmark_clients)
        ]

        horizon = config.warmup_seconds + config.sim_seconds
        # One batched draw for the whole horizon (engine-kernel style
        # noise batching): row ``now`` holds exactly the values a
        # per-second ``rng_np.normal(1.0, 0.02, n_relays)`` call would
        # have drawn, so results are bit-identical.
        relay_noise = np.clip(
            rng_np.normal(1.0, 0.02, (horizon, len(self._fingerprints))),
            0.85,
            1.15,
        )
        return PreparedSimulation(
            background=background,
            benchmarks=benchmarks,
            metrics=SimulationMetrics(clients=benchmarks),
            relay_noise=relay_noise,
            horizon=horizon,
        )

    def _run_stateful(
        self, weights: dict[str, float], memoize: bool = True
    ) -> SimulationMetrics:
        """The historical per-second Python walk (``backend="stateful"``).

        ``memoize`` enables the congested-window memo for background
        circuits: the window cap is a pure function of (path ids, base
        RTT, previous-second queue factor), so a second in which a
        circuit's RTT and load ratio are unchanged reuses the cached
        cap instead of recomputing it. The memo holds one entry per
        circuit -- keyed (ids, rtt), storing the last (queue factor,
        window) pair -- and the comparison is exact, no bucketing
        approximation, so results are identical either way
        (``tests/shadow/test_flow_oracle.py`` asserts it).
        """
        config = self.config
        prepared = self._prepare(weights)
        background = prepared.background
        benchmarks = prepared.benchmarks
        metrics = prepared.metrics
        relay_noise = prepared.relay_noise
        horizon = prepared.horizon

        n_relays = len(self._fingerprints)
        util_acc = np.zeros(n_relays)
        peak = np.zeros(n_relays)
        load_history: list[np.ndarray] = []
        #: Previous second's per-relay utilisation: congested relays queue
        #: cells, inflating effective circuit RTT and shrinking the
        #: window-limited throughput (Tor's fixed windows over growing
        #: queues -- the mechanism behind slow transfers in loaded Tor).
        prev_util = np.zeros(n_relays)
        measured_seconds = 0
        #: id(circuit) -> (rtt, queue_factor, window): each circuit's
        #: last computed window, valid while its RTT and load ratio are
        #: unchanged. The window is a pure function of the (rtt, queue
        #: factor) pair verified on every hit, so even an id collision
        #: (address reuse after churn) cannot return a wrong value.
        window_memo: dict[int, tuple[float, float, float]] | None = (
            {} if memoize else None
        )

        def congested_rtt(base_rtt: float, relay_ids: tuple[int, ...]) -> float:
            queue_factor = float(prev_util[list(relay_ids)].mean())
            return base_rtt * (1.0 + 2.5 * (queue_factor * queue_factor))

        for now in range(horizon):
            # --- Collect this second's flows ---------------------------
            paths: list[tuple[int, int, int]] = []
            caps: list[float] = []
            owners: list[BenchmarkClient | None] = []

            for generator in background:
                for circuit, demand in generator.demands(now):
                    ids = tuple(self._index[fp] for fp in circuit.path)
                    if window_memo is None:
                        window = circuit_rate_cap(
                            congested_rtt(circuit.rtt, ids), n_streams=2
                        )
                    else:
                        queue_factor = float(prev_util[list(ids)].mean())
                        key = id(circuit)
                        cached = window_memo.get(key)
                        if (
                            cached is not None
                            and cached[0] == circuit.rtt
                            and cached[1] == queue_factor
                        ):
                            window = cached[2]
                        else:
                            window = circuit_rate_cap(
                                circuit.rtt
                                * (1.0 + 2.5 * (queue_factor * queue_factor)),
                                n_streams=2,
                            )
                            if (
                                cached is not None
                                or len(window_memo) < _WINDOW_MEMO_MAX
                            ):
                                window_memo[key] = (
                                    circuit.rtt,
                                    queue_factor,
                                    window,
                                )
                    paths.append(ids)
                    caps.append(min(demand, window))
                    owners.append(None)

            for client in benchmarks:
                client.maybe_start(now)
                transfer = client.active
                if transfer is None:
                    continue
                ids = tuple(self._index[fp] for fp in transfer.path)
                # Benchmark downloads are single-stream (torperf-style),
                # so the 500-cell stream window binds.
                transfer.current_rtt = congested_rtt(transfer.rtt, ids)
                window = circuit_rate_cap(transfer.current_rtt, n_streams=1)
                paths.append(ids)
                caps.append(min(window, config.client_access_bits))
                owners.append(client)

            path_idx = np.array(paths, dtype=np.int64).reshape(-1, 3)
            cap_arr = np.array(caps)
            rates = waterfill(
                path_idx, cap_arr, self._capacity * relay_noise[now]
            )

            # Oversubscription per relay: offered demand vs capacity.
            offered_load = np.bincount(
                path_idx.ravel(),
                weights=np.repeat(cap_arr, 3),
                minlength=n_relays,
            )
            oversub = offered_load / np.maximum(self._capacity, 1.0)

            # --- Advance benchmark transfers ----------------------------
            for flow_i, owner in enumerate(owners):
                if owner is None:
                    continue
                rate = float(rates[flow_i])
                transfer = owner.active
                if transfer is not None:
                    # Tor's per-circuit EWMA scheduling is unfair under
                    # overload: circuits through a heavily oversubscribed
                    # relay do not get their max-min share -- unlucky ones
                    # starve almost completely (the source of transfer
                    # timeouts in loaded Tor networks, paper Fig 9b).
                    worst = float(
                        oversub[[self._index[fp] for fp in transfer.path]].max()
                    )
                    if worst > OVERLOAD_ONSET:
                        severity = min(
                            1.0,
                            (worst - OVERLOAD_ONSET)
                            / (OVERLOAD_FULL - OVERLOAD_ONSET),
                        )
                        rate *= transfer.luck ** severity
                owner.advance(now, rate)

            # --- Record -------------------------------------------------
            relay_load = np.bincount(
                path_idx.ravel(),
                weights=np.repeat(rates, 3),
                minlength=n_relays,
            )
            prev_util = np.minimum(
                1.0, relay_load / np.maximum(self._capacity, 1.0)
            )
            if now >= config.warmup_seconds:
                metrics.throughput_series.append(float(relay_load.sum()))
                util_acc += prev_util
                peak = np.maximum(peak, relay_load)
                load_history.append(relay_load)
                measured_seconds += 1

        finalize_relay_stats(
            metrics,
            self._fingerprints,
            util_acc,
            peak,
            load_history,
            measured_seconds,
        )
        return metrics
