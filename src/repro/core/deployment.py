"""Continuous multi-period operation (paper §4.3 / §5).

A :class:`Deployment` runs a BWAuth across successive 24-hour measurement
periods: each period re-measures every known relay (old relays first,
using the previous period's estimates as z0), folds in newly appeared
relays FCFS, ages out relays unseen for a month (they become "new"
again), and publishes a bandwidth file per period.

This is the loop the paper's security arguments lean on: relays are
re-measured every period, so a malicious relay "can only reduce its
capacity until the next period".

The period's measurement campaign runs through the scenario API
(:class:`repro.api.Campaign`); multi-period scenarios
(``Scenario(periods=N)``) drive this class's prior-carryover and aging
bookkeeping (:meth:`priors_for` / :meth:`record_period`) directly while
streaming per-round events, and :meth:`run_period` remains the
single-period entry point with its historical signature and
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.bwauth import FlashFlowAuthority
from repro.core.bwfile import BandwidthFile
from repro.core.netmeasure import CampaignResult, run_campaign
from repro.tornet.network import TorNetwork
from repro.units import DAY

#: Estimates older than this many periods are no longer trusted: the
#: relay is treated as new again (paper §4.2: "were last measured so
#: long ago (e.g., a month)").
ESTIMATE_MAX_AGE_PERIODS = 30


@dataclass
class PeriodRecord:
    """One period's outputs."""

    period_index: int
    campaign: CampaignResult
    bwfile: BandwidthFile

    @property
    def estimates(self) -> dict[str, float]:
        return self.campaign.estimates


@dataclass
class Deployment:
    """A BWAuth operating over consecutive measurement periods."""

    authority: FlashFlowAuthority
    full_simulation: bool = True
    #: fingerprint -> (estimate bits/s, period last measured).
    _history: dict[str, tuple[float, int]] = field(default_factory=dict)
    periods: list[PeriodRecord] = field(default_factory=list)
    #: Periods completed before this object existed (checkpoint/resume:
    #: a restored deployment resumes period numbering where the snapshot
    #: left off without carrying the old periods' full records).
    completed_before: int = 0

    @property
    def current_period(self) -> int:
        return self.completed_before + len(self.periods)

    def history_snapshot(self) -> dict[str, tuple[float, int]]:
        """A copy of the prior-estimate history (for checkpointing)."""
        return dict(self._history)

    @classmethod
    def restore(
        cls,
        authority: FlashFlowAuthority,
        history: dict[str, tuple[float, int]],
        completed_periods: int,
        full_simulation: bool = True,
    ) -> "Deployment":
        """Rebuild a deployment from checkpointed history.

        ``history`` is a prior :meth:`history_snapshot`;
        ``completed_periods`` is how many periods the snapshot had
        recorded. :meth:`priors_for`, aging, and period numbering then
        behave exactly as if the original deployment had kept running.
        """
        return cls(
            authority=authority,
            full_simulation=full_simulation,
            _history={fp: (float(e), int(p)) for fp, (e, p) in history.items()},
            completed_before=int(completed_periods),
        )

    def known_estimates(self) -> dict[str, float]:
        """Estimates still fresh enough to be used as priors."""
        now = self.current_period
        return {
            fp: estimate
            for fp, (estimate, measured_at) in self._history.items()
            if now - measured_at <= ESTIMATE_MAX_AGE_PERIODS
        }

    def priors_for(self, network: TorNetwork) -> dict[str, float]:
        """Usable priors for the relays currently in ``network``."""
        return {
            fp: estimate
            for fp, estimate in self.known_estimates().items()
            if fp in network
        }

    def record_period(self, campaign: CampaignResult) -> PeriodRecord:
        """Fold one finished campaign into history; publish its bwfile."""
        period_index = self.current_period
        for fp, estimate in campaign.estimates.items():
            self._history[fp] = (estimate, period_index)
        bwfile = BandwidthFile.from_estimates(
            campaign.estimates,
            timestamp=period_index * DAY,
            generator=self.authority.name,
        )
        record = PeriodRecord(
            period_index=period_index, campaign=campaign, bwfile=bwfile
        )
        self.periods.append(record)
        return record

    def run_period(
        self,
        network: TorNetwork,
        background_demand: float | dict[str, float] | Callable[[int], float] = 0.0,
    ) -> PeriodRecord:
        """Measure every relay currently in ``network`` once.

        Thin wrapper over the scenario API: for streamed events or
        execution knobs (retry budget, tracing), run a
        ``Scenario(periods=N)`` through :class:`repro.api.Campaign`
        instead -- results are bit-identical.
        """
        report = run_campaign(
            network,
            self.authority,
            prior_estimates=self.priors_for(network),
            background_demand=background_demand,
            full_simulation=self.full_simulation,
        )
        return self.record_period(report.result)

    def estimate_age(self, fingerprint: str) -> int | None:
        """Completed periods since ``fingerprint`` was last measured.

        0 means it was measured in the most recent period; None = never.
        """
        if fingerprint not in self._history:
            return None
        last_completed = self.current_period - 1
        return last_completed - self._history[fingerprint][1]
