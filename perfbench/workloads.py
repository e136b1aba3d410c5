"""The benchmark's four workloads: inputs from a seed, one unit, its checks.

Each workload has three parts the runner keeps apart:

- ``setup(seed, work_dir)`` builds the unit's inputs: network synthesis
  and scenario construction, daemon construction, or the shadow
  ``build_network``. Inputs are stateful (relays evolve while they are
  measured), so every unit gets a fresh setup. Timed as ``setup_s``.
- ``run(inputs)`` is one unit of work through public entry points only.
  Timed as ``wall_s``/``cpu_s``.
- ``check(inputs, outputs)`` digests the outputs and checks the paper's
  properties on them, outside the timed region.

The program only ever sees the generated ``Scenario``, ``ServiceConfig``
or ``ShadowConfig``; the seed is the benchmark's. Spans opened here
(``tornet.synthesize``, ``torflow.weights``, ...) go to the ambient
tracer, which is the no-op null tracer in untraced runs.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from unittest import mock

from repro.api import (
    AdversaryMix,
    AdversarySpec,
    Campaign,
    ExecutionConfig,
    NetworkSpec,
    Scenario,
    UtilizationBackground,
)
from repro.obs import get_tracer

#: Median |1 - estimate/truth| a cold whole-network campaign must stay
#: under (the paper's Figure 6 accuracy, with headroom for the seed).
MAX_MEDIAN_ERROR = 0.11

ATTACK_BEHAVIORS = ("collusion", "ratio-cheater", "traffic-liar", "forger")


@dataclass
class UnitResult:
    """What one unit produced, reduced to what the runner reports."""

    #: Content hash of every output the unit must reproduce exactly.
    digest: str
    #: Relays (relay-periods for the daemon) expected to end accepted.
    attempted: int
    #: Of those, the ones that did not.
    failed: int
    #: Output-check violations; empty when the unit is correct.
    problems: list[str] = field(default_factory=list)
    #: Latency of each measurement period in the unit, seconds; None
    #: when the unit counts as one period (its wall time is the latency).
    periods: list[float] | None = None
    #: Per-layer counts read from the unit's public results.
    counts: dict[str, float] = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def estimates_text(estimates: dict[str, float]) -> str:
    """Canonical text of an estimate map (``repr`` round-trips floats)."""
    return "\n".join(f"{fp} {z!r}" for fp, z in sorted(estimates.items()))


def _synthesize(spec: NetworkSpec, seed: int):
    with get_tracer().span("tornet.synthesize", n_relays=spec.n_relays):
        return spec.build(seed)


# ----------------------------------------------------------------------
# tor-campaign / attack-campaign
# ----------------------------------------------------------------------


@dataclass
class CampaignInputs:
    scenario: Scenario
    n_relays: int
    #: fingerprint -> behaviour name for the adversarial relays.
    adversaries: dict[str, str] = field(default_factory=dict)
    #: 1/(1-r) x DEFAULT_SLACK, the inflation no adversary may exceed.
    bound: float = 0.0


class TorCampaign:
    name = "tor-campaign"
    why = (
        "one cold full-simulation campaign over a 6419-relay "
        "July-2019-shaped network: the paper's measure-the-whole-network "
        "unit, dominated by kernel compile/execute/settle and packing"
    )
    sizes = {"full": {"n_relays": 6419}, "smoke": {"n_relays": 60}}

    def __init__(self, size: str = "full"):
        self.n_relays = self.sizes[size]["n_relays"]

    def setup(self, seed: int, work_dir: pathlib.Path) -> CampaignInputs:
        network = _synthesize(NetworkSpec(n_relays=self.n_relays), seed)
        scenario = Scenario(name=self.name, network=network, seed=seed)
        return CampaignInputs(scenario, len(network))

    def expected(self, inputs: CampaignInputs) -> int:
        return inputs.n_relays

    def run(self, inputs: CampaignInputs):
        return Campaign(inputs.scenario, ExecutionConfig()).run()

    def check(self, inputs: CampaignInputs, report) -> UnitResult:
        problems = []
        missing = inputs.n_relays - len(report.estimates)
        if missing:
            problems.append(f"{missing} relays not estimated")
        error = report.median_error_vs_truth()
        if not error <= MAX_MEDIAN_ERROR:
            problems.append(f"median |error| {error:.4f} > {MAX_MEDIAN_ERROR}")
        return UnitResult(
            digest=campaign_digest(report),
            attempted=inputs.n_relays,
            failed=missing,
            problems=problems,
            counts={"core.cells_checked": report.cells_checked},
        )

    def discard(self, inputs) -> None:
        pass


def campaign_digest(report) -> str:
    failures = "\n".join(f"{fp} {why}" for fp, why in sorted(report.failures.items()))
    return sha256(
        f"{estimates_text(report.estimates)}\n{failures}\n"
        f"slots {report.slots_elapsed} measurements {report.measurements_run}"
    )


class AttackCampaign(TorCampaign):
    name = "attack-campaign"
    why = (
        "a warm campaign with 5% each of collusion, ratio-cheater, "
        "traffic-liar and forger relays: compiled adversaries, forger "
        "replay, the 1/(1-r) clamp and the stateful colluder fallback"
    )
    sizes = {"full": {"n_relays": 3000}, "smoke": {"n_relays": 80}}

    def setup(self, seed: int, work_dir: pathlib.Path) -> CampaignInputs:
        from repro.attacks.analysis import inflation_bound
        from repro.attacks.sweep import DEFAULT_SLACK
        from repro.core.params import FlashFlowParams

        network = _synthesize(NetworkSpec(n_relays=self.n_relays), seed)
        mix = AdversaryMix(
            entries=tuple(AdversarySpec(b, 0.05) for b in ATTACK_BEHAVIORS)
        )
        # The benchmark owns this network, so it converts the relays
        # itself; Scenario accepts a mix only for networks it generates.
        adversaries = mix.apply(network, seed)
        scenario = Scenario(
            name=self.name,
            network=network,
            priors="truth",
            background=UtilizationBackground(0.3),
            seed=seed,
        )
        # The scenario's generated team runs the default parameters.
        bound = inflation_bound(FlashFlowParams().ratio) * DEFAULT_SLACK
        return CampaignInputs(scenario, len(network), adversaries, bound)

    def check(self, inputs: CampaignInputs, report) -> UnitResult:
        truth = report.ground_truth
        problems = []
        # A rejected adversary is FlashFlow working, not a failure.
        failed = sum(
            1 for fp in truth
            if fp not in report.estimates and fp not in inputs.adversaries
        )
        if failed:
            problems.append(f"{failed} honest relays not estimated")
        worst: dict[str, float] = {}
        for fp, behavior in inputs.adversaries.items():
            inflation = report.estimates.get(fp, 0.0) / truth[fp]
            worst[behavior] = max(worst.get(behavior, 0.0), inflation)
        for behavior, inflation in sorted(worst.items()):
            if not inflation <= inputs.bound:
                problems.append(
                    f"{behavior} inflation {inflation:.4f} > "
                    f"1/(1-r) x slack = {inputs.bound:.4f}"
                )
        return UnitResult(
            digest=campaign_digest(report),
            attempted=len(truth),
            failed=failed,
            problems=problems,
            counts={"core.cells_checked": report.cells_checked},
        )


# ----------------------------------------------------------------------
# bwauth-daemon
# ----------------------------------------------------------------------


@dataclass
class DaemonInputs:
    daemon: object
    work_dir: pathlib.Path
    journal: pathlib.Path
    v3bw_dir: pathlib.Path
    periods: int
    n_relays: int


class BwauthDaemon:
    name = "bwauth-daemon"
    why = (
        "the continuous daemon on the simulated clock: 100 analytic "
        "periods over ~800 churning relays with journal and v3bw files, "
        "dominated by service-layer period work and packing, not kernels"
    )
    sizes = {
        "full": {"n_relays": 800, "periods": 100},
        "smoke": {"n_relays": 40, "periods": 4},
    }

    def __init__(self, size: str = "full"):
        self.n_relays = self.sizes[size]["n_relays"]
        self.periods = self.sizes[size]["periods"]

    def config(self, seed: int, v3bw_dir: str):
        from repro.service.churn import ChurnConfig
        from repro.service.state import ServiceConfig

        return ServiceConfig(
            overrides={"n_relays": self.n_relays, "seed": seed},
            periods=self.periods,
            out_dir=v3bw_dir,
            churn=ChurnConfig(
                seed=seed,
                join_rate=0.01 * self.n_relays,
                leave_fraction=0.01,
                capacity_change_fraction=0.05,
            ),
            execution=ExecutionConfig(full_simulation=False),
        )

    def setup(self, seed: int, work_dir: pathlib.Path) -> DaemonInputs:
        from repro.service.daemon import BwauthDaemon as Daemon

        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        journal = work_dir / "service.jsonl"
        v3bw_dir = work_dir / "v3bw"
        config = self.config(seed, str(v3bw_dir))
        if get_tracer().enabled:
            # The daemon synthesizes its seed network inside its
            # constructor; time the same synthesis on its own so
            # tornet.synthesize_s exists for this workload too.
            _synthesize(config.base_scenario().network, config.effective_seed)
        daemon = Daemon(config, journal_path=journal)
        return DaemonInputs(
            daemon, work_dir, journal, v3bw_dir, self.periods, self.n_relays
        )

    def expected(self, inputs: DaemonInputs) -> int:
        return inputs.periods * inputs.n_relays

    def run(self, inputs: DaemonInputs):
        try:
            return inputs.daemon.run()
        finally:
            inputs.daemon.close()

    def check(self, inputs: DaemonInputs, daemon) -> UnitResult:
        from repro.core.bwfile import BandwidthFile
        from repro.service.journal import read_journal
        from repro.service.validate import validate_journal

        problems = []
        stats = validate_journal(inputs.journal)
        if not stats["complete"] or stats["periods_completed"] != inputs.periods:
            problems.append(f"journal incomplete: {stats}")
        files = sorted(inputs.v3bw_dir.glob("v3bw-*.txt"))
        texts = [path.read_text(encoding="utf-8") for path in files]
        published = [text for _, text in daemon.published]
        if texts != published or len(texts) != inputs.periods:
            problems.append(
                f"{len(texts)} v3bw files on disk, {len(published)} "
                f"published, {inputs.periods} periods"
            )
        for path, text in zip(files, texts):
            if BandwidthFile.parse(text).serialize() != text:
                problems.append(f"{path.name} does not round-trip")
        attempted = sum(s["n_relays"] for s in daemon.period_stats)
        failed = sum(s["n_relays"] - s["n_estimated"] for s in daemon.period_stats)
        if failed:
            problems.append(f"{failed} relay-periods without an estimate")
        # The journal's service.period span runs from the period's start
        # to its published v3bw file.
        periods = [
            record["wall_seconds"]
            for record in read_journal(inputs.journal)
            if record.get("type") == "span" and record.get("name") == "service.period"
        ]
        digest = sha256(
            "".join(published)
            + "\n".join(s["estimates_sha256"] for s in daemon.period_stats)
        )
        return UnitResult(
            digest=digest,
            attempted=attempted,
            failed=failed,
            problems=problems,
            periods=periods,
            counts={"service.journal_bytes": inputs.journal.stat().st_size},
        )

    def discard(self, inputs: DaemonInputs) -> None:
        inputs.daemon.close()
        shutil.rmtree(inputs.work_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# shadow-compare
# ----------------------------------------------------------------------


@dataclass
class ShadowInputs:
    network: object
    seed: int


class ShadowCompare:
    name = "shadow-compare"
    why = (
        "the section 7 TorFlow-vs-FlashFlow comparison on a 150-relay "
        "network with 300 s horizons: flow-simulator bound, the bypass "
        "for every measurement-layer change"
    )
    sizes = {
        # A horizon is the warm-up plus the measured simulated seconds.
        "full": {
            "n_relays": 150, "n_markov_clients": 200,
            "sim_seconds": 240, "warmup_seconds": 60,
        },
        "smoke": {
            "n_relays": 30, "n_markov_clients": 30, "n_benchmark_clients": 6,
            "sim_seconds": 40, "warmup_seconds": 20,
        },
    }
    loads = (1.0, 1.3)

    def __init__(self, size: str = "full"):
        self.size = self.sizes[size]

    def setup(self, seed: int, work_dir: pathlib.Path) -> ShadowInputs:
        from repro.shadow.config import ShadowConfig, build_network

        # One fixed scaled network, as the paper's section 7 runs one
        # Shadow network; the seed drives every random draw of the
        # comparison on it. Per-seed networks of this size differ in
        # simulation cost by +-20%, more than the changes to be measured.
        config = ShadowConfig(seed=0, **self.size)
        with get_tracer().span("tornet.synthesize", n_relays=config.n_relays):
            network = build_network(config)
        return ShadowInputs(network, seed)

    def expected(self, inputs: ShadowInputs) -> int:
        return len(inputs.network.relays)

    def run(self, inputs: ShadowInputs):
        from repro.shadow.experiment import compare_systems

        # compare_systems rebuilds the network from its config; the
        # setup's copy is the reference the check compares it with.
        steps = traced_steps() if get_tracer().enabled else nullcontext()
        with steps:
            return compare_systems(
                inputs.network.config, loads=self.loads, seed=inputs.seed
            )

    def check(self, inputs: ShadowInputs, result) -> UnitResult:
        from repro.shadow.experiment import network_weight_error

        capacities = inputs.network.relays.capacities()
        problems = []
        if result.network.relays.capacities() != capacities:
            problems.append("compare_systems built another network")
        ff_error = network_weight_error(result.flashflow_estimates, capacities)
        tf_error = network_weight_error(result.torflow_weights, capacities)
        if not ff_error < tf_error:
            problems.append(
                f"FlashFlow weight error {ff_error:.4f} >= TorFlow's {tf_error:.4f}"
            )
        failed = sum(
            1 for fp in capacities if fp not in result.flashflow_estimates
        )
        if failed:
            problems.append(f"{failed} relays without a FlashFlow estimate")
        runs = "\n".join(
            f"{run.system} {run.load!r} {metrics_text(run.metrics)}"
            for run in result.runs
        )
        return UnitResult(
            digest=sha256(
                f"{estimates_text(result.torflow_weights)}\n"
                f"{estimates_text(result.flashflow_estimates)}\n{runs}"
            ),
            attempted=len(capacities),
            failed=failed,
            problems=problems,
        )

    def discard(self, inputs) -> None:
        pass


def metrics_text(metrics) -> str:
    """Canonical text of a ``SimulationMetrics`` (clients by records)."""
    return repr((
        metrics.throughput_series,
        sorted(metrics.relay_utilization.items()),
        sorted(metrics.relay_peak_throughput.items()),
        sorted(metrics.relay_p95_throughput.items()),
        [(client.name, client.records) for client in metrics.clients],
    ))


@contextmanager
def traced_steps():
    """Open a span around each step ``compare_systems`` calls.

    Swaps the three module-level callees of
    :mod:`repro.shadow.experiment` for wrappers while the block runs:
    ``torflow.weights`` and ``shadow.flashflow_weights`` around the two
    weight pipelines, ``shadow.perf_run`` around each performance run.
    Simulator runs inside a weight pipeline (TorFlow's warm-ups) stay
    in that pipeline's span. Used in traced units only, so untraced
    units time ``compare_systems`` exactly as the program runs it.
    """
    from repro.shadow import experiment

    tracer = get_tracer()
    in_weights = []

    def spanned(span_name, function):
        def call(*args, **kwargs):
            in_weights.append(span_name)
            try:
                with tracer.span(span_name):
                    return function(*args, **kwargs)
            finally:
                in_weights.pop()
        return call

    class Simulator(experiment.NetworkSimulator):
        def run(self, *args, **kwargs):
            if in_weights:
                return super().run(*args, **kwargs)
            with tracer.span("shadow.perf_run"):
                return super().run(*args, **kwargs)

    with mock.patch.multiple(
        experiment,
        torflow_weights_for=spanned(
            "torflow.weights", experiment.torflow_weights_for
        ),
        flashflow_weights_for=spanned(
            "shadow.flashflow_weights", experiment.flashflow_weights_for
        ),
        NetworkSimulator=Simulator,
    ):
        yield


WORKLOADS = {
    cls.name: cls
    for cls in (TorCampaign, BwauthDaemon, AttackCampaign, ShadowCompare)
}
