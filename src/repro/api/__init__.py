"""The unified, scenario-driven campaign API -- FlashFlow's front door.

Every FlashFlow workload is described and run the same way::

    from repro.api import Campaign, ExecutionConfig, Scenario

    report = Campaign(
        Scenario(),                          # what to measure
        ExecutionConfig(max_rounds=8),       # how to run it
    ).run()
    print(report.median_error_vs_truth())

or, for the canned paper scenarios::

    from repro.api import run_scenario
    report = run_scenario("fig06-accuracy", n_relays=6)

Layering (see ROADMAP.md): ``Scenario`` (network / team / adversaries /
background / priors / params) and ``ExecutionConfig`` (simulation
depth / retry budget / tracing) feed a ``Campaign``, which streams
per-round events to observers and drives
:class:`repro.core.engine.MeasurementEngine` and the vectorized
:mod:`repro.kernel` beneath it. The legacy entry points
(:func:`repro.core.netmeasure.measure_network`,
:meth:`repro.core.deployment.Deployment.run_period`,
:func:`repro.shadow.experiment.flashflow_weights_for`) are thin shims
over this package and produce bit-identical results.
"""

from repro.api.campaign import Campaign, run_period_rounds
from repro.api.events import (
    CampaignCompleted,
    CampaignEvent,
    CampaignObserver,
    CampaignStarted,
    MetricsObserver,
    PeriodCompleted,
    PeriodStarted,
    ProgressObserver,
    RoundCompleted,
    RoundPlanned,
    TimingObserver,
)
from repro.api.execution import ExecutionConfig
from repro.api.report import CampaignReport, MeasurementRecord, RoundRecord
from repro.api.scenario import (
    AdversaryMix,
    AdversarySpec,
    NetworkSpec,
    ResolvedScenario,
    Scenario,
    TeamSpec,
    UtilizationBackground,
)
from repro.api.scenarios import (
    default_execution_for,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
    scenario_registry,
)

__all__ = [
    "AdversaryMix",
    "AdversarySpec",
    "Campaign",
    "CampaignCompleted",
    "CampaignEvent",
    "CampaignObserver",
    "CampaignReport",
    "CampaignStarted",
    "ExecutionConfig",
    "MeasurementRecord",
    "MetricsObserver",
    "NetworkSpec",
    "PeriodCompleted",
    "PeriodStarted",
    "ProgressObserver",
    "ResolvedScenario",
    "RoundCompleted",
    "RoundPlanned",
    "RoundRecord",
    "Scenario",
    "TeamSpec",
    "TimingObserver",
    "UtilizationBackground",
    "compare_load_balancing",
    "default_execution_for",
    "get_scenario",
    "register_scenario",
    "run_period_rounds",
    "run_scenario",
    "scenario_names",
    "scenario_registry",
]


def compare_load_balancing(
    config=None,
    loads=(1.0, 1.15, 1.30),
    seed: int = 0,
    run_performance: bool = True,
    execution: ExecutionConfig | None = None,
):
    """The §7 TorFlow-vs-FlashFlow pipeline through the API front door.

    Thin wrapper over :func:`repro.shadow.experiment.compare_systems`
    (whose measurement phase already runs through a
    :class:`Campaign`); ``execution.shadow_backend`` selects the shadow
    flow-simulator backend for the TorFlow warmups and performance
    runs. Returns the
    :class:`repro.shadow.experiment.ExperimentResult`.
    """
    from repro.shadow.experiment import compare_systems

    execution = execution or ExecutionConfig()
    return compare_systems(
        config=config,
        loads=tuple(loads),
        seed=seed,
        run_performance=run_performance,
        shadow_backend=execution.shadow_backend,
    )
