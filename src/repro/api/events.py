"""Streaming campaign events and pluggable observers.

:meth:`repro.api.campaign.Campaign.iter_rounds` yields these events as
the campaign executes; :meth:`Campaign.run` dispatches them to
:class:`CampaignObserver` instances. Events are plain frozen-ish
dataclasses carrying references into the evolving report (round
records, period records), so observers see per-round detail -- slots
packed, measurements executed, retries, relay state settle-backs --
without the campaign loop knowing who is listening.

Observers never influence results: estimates are bit-identical with
zero or many observers attached.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TextIO

from repro.api.report import RoundRecord
from repro.obs.metrics import MetricsRegistry


@dataclass
class CampaignEvent:
    """Base class; ``kind`` names the observer hook (``on_<kind>``)."""

    kind = "event"


@dataclass
class CampaignStarted(CampaignEvent):
    kind = "campaign_started"
    scenario_name: str
    n_relays: int
    n_measurers: int
    team_capacity: float
    periods: int


@dataclass
class PeriodStarted(CampaignEvent):
    kind = "period_started"
    period_index: int
    n_relays: int
    #: Relays entering the period with a usable prior estimate.
    n_priors: int


@dataclass
class RoundPlanned(CampaignEvent):
    """A campaign round's slots have been packed, before execution."""

    kind = "round_planned"
    period_index: int
    round_index: int
    #: Measurements scheduled this round (one per queued relay).
    n_jobs: int
    first_slot: int
    slots_packed: int


@dataclass
class RoundCompleted(CampaignEvent):
    """A round executed and its outcomes folded back.

    ``record`` carries every measurement of the round (estimates,
    accept/retry/failure classification, verification cell counts, and
    how many relays had walk state settled back).
    """

    kind = "round_completed"
    period_index: int
    round_index: int
    record: RoundRecord


@dataclass
class PeriodCompleted(CampaignEvent):
    kind = "period_completed"
    period_index: int
    #: The period's :class:`repro.core.netmeasure.CampaignResult`.
    result: object
    #: The deployment's :class:`repro.core.deployment.PeriodRecord`
    #: (None for single-period campaigns, which publish no bwfile).
    deployment_record: object | None = None


@dataclass
class CampaignCompleted(CampaignEvent):
    kind = "campaign_completed"
    #: The finished :class:`repro.api.report.CampaignReport`.
    report: object


class CampaignObserver:
    """Base observer: dispatches each event to ``on_<event.kind>``.

    Subclasses override the hooks they care about, or ``on_event`` for
    a catch-all. Unknown event kinds are ignored, so observers stay
    compatible as new events appear.
    """

    def on_event(self, event: CampaignEvent) -> None:
        handler = getattr(self, f"on_{event.kind}", None)
        if handler is not None:
            handler(event)


class ProgressObserver(CampaignObserver):
    """Human-readable per-round progress lines."""

    def __init__(self, stream: TextIO | None = None):
        self.stream = stream if stream is not None else sys.stderr
        self._accepted = 0
        self._total = 0

    def _emit(self, text: str) -> None:
        print(text, file=self.stream)

    def on_campaign_started(self, event: CampaignStarted) -> None:
        self._accepted = 0
        self._total = event.n_relays
        self._emit(
            f"[{event.scenario_name}] {event.n_relays} relays, "
            f"{event.n_measurers} measurers "
            f"({event.team_capacity / 1e9:.1f} Gbit/s), "
            f"{event.periods} period(s)"
        )

    def on_period_started(self, event: PeriodStarted) -> None:
        self._accepted = 0
        self._emit(
            f"  period {event.period_index}: {event.n_relays} relays, "
            f"{event.n_priors} with priors"
        )

    def on_round_completed(self, event: RoundCompleted) -> None:
        record = event.record
        self._accepted += record.n_accepted
        self._emit(
            f"    round {event.round_index}: {len(record.measurements)} "
            f"measured in {record.slots_packed} slots -- "
            f"{record.n_accepted} accepted, {record.n_retried} retried, "
            f"{record.n_failed} failed "
            f"({self._accepted}/{self._total} done, "
            f"{record.wall_seconds:.2f}s)"
        )


@dataclass
class RoundMetrics:
    """One round's aggregate numbers, as collected by MetricsObserver."""

    period_index: int
    round_index: int
    n_measurements: int
    n_accepted: int
    n_retried: int
    n_failed: int
    slots_packed: int
    cells_checked: int
    wall_seconds: float


class MetricsObserver(CampaignObserver):
    """Collects per-round aggregates for later analysis.

    Built on a private :class:`repro.obs.MetricsRegistry` (one per
    observer, so campaigns never mix): each round increments the
    ``rounds``/``measurements``/``accepted``/``retried``/``failed``/
    ``slots``/``cells_checked`` counters and observes the round wall
    time, and :meth:`summary` reads them back. The per-round
    :class:`RoundMetrics` list is kept alongside, unchanged.
    """

    def __init__(self):
        self.rounds: list[RoundMetrics] = []
        self.registry = MetricsRegistry()

    def on_round_completed(self, event: RoundCompleted) -> None:
        record = event.record
        metrics = RoundMetrics(
            period_index=event.period_index,
            round_index=event.round_index,
            n_measurements=len(record.measurements),
            n_accepted=record.n_accepted,
            n_retried=record.n_retried,
            n_failed=record.n_failed,
            slots_packed=record.slots_packed,
            cells_checked=record.cells_checked,
            wall_seconds=record.wall_seconds,
        )
        self.rounds.append(metrics)
        registry = self.registry
        registry.counter("rounds").inc()
        registry.counter("measurements").inc(metrics.n_measurements)
        registry.counter("accepted").inc(metrics.n_accepted)
        registry.counter("retried").inc(metrics.n_retried)
        registry.counter("failed").inc(metrics.n_failed)
        registry.counter("slots").inc(metrics.slots_packed)
        registry.counter("cells_checked").inc(metrics.cells_checked)
        registry.histogram("round.wall_seconds").observe(
            metrics.wall_seconds
        )

    def summary(self) -> dict[str, float]:
        registry = self.registry
        return {
            "rounds": registry.counter("rounds").value,
            "measurements": registry.counter("measurements").value,
            "accepted": registry.counter("accepted").value,
            "retried": registry.counter("retried").value,
            "failed": registry.counter("failed").value,
            "slots": registry.counter("slots").value,
            "cells_checked": registry.counter("cells_checked").value,
            "wall_seconds": registry.histogram("round.wall_seconds").total,
        }


class TimingObserver(CampaignObserver):
    """Wall-clock timing per round and for the whole campaign.

    Round wall times live in a private registry histogram
    (``round.wall_seconds``); ``round_seconds`` exposes the histogram's
    retained samples as the historical list API.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self.total_seconds: float = 0.0
        self._started: float | None = None

    @property
    def round_seconds(self) -> list[float]:
        return list(self.registry.histogram("round.wall_seconds").samples)

    def on_campaign_started(self, event: CampaignStarted) -> None:
        self._started = time.perf_counter()

    def on_round_completed(self, event: RoundCompleted) -> None:
        self.registry.histogram("round.wall_seconds").observe(
            event.record.wall_seconds
        )

    def on_campaign_completed(self, event: CampaignCompleted) -> None:
        if self._started is not None:
            self.total_seconds = time.perf_counter() - self._started
