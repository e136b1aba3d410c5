"""Kernel parity: the vectorized walk is the stateful engine's bits.

A seeded 30-relay campaign (and a two-period deployment) run through
the kernel produces the same results as the same campaign with every
measurement on the stateful :meth:`MeasurementEngine.run` path, and
``run_many``
matches per-spec ``run`` outcome for outcome, including batches that
measure one relay twice (those run statefully).
"""

from repro import quick_team
from repro.api import Campaign, ExecutionConfig, Scenario, get_scenario
from repro.core.allocation import allocate_capacity
from repro.core.engine import MeasurementEngine, MeasurementSpec
from repro.core.params import FlashFlowParams
from repro.tornet.network import synthesize_network
from repro.tornet.relay import Relay
from repro.units import mbit


class StatefulEngine(MeasurementEngine):
    """An engine whose batches run one stateful ``run`` per spec."""

    def run_many(self, specs):
        return [self.run(spec) for spec in specs]


def _campaign(engine=None):
    network = synthesize_network(n_relays=30, seed=71)
    authority = quick_team(seed=72)
    report = Campaign(
        Scenario(network=network, team=authority),
        ExecutionConfig(),
        engine=engine,
    ).run()
    return report.result


def test_kernel_campaign_matches_stateful_campaign():
    result = _campaign()
    reference = _campaign(StatefulEngine())
    assert len(reference.estimates) == 30
    assert result.estimates == reference.estimates
    assert result.failures == reference.failures
    assert result.slots_elapsed == reference.slots_elapsed
    assert result.measurements_run == reference.measurements_run


def test_multi_period_campaign_matches_stateful_campaign():
    """Prior carryover and aging across periods see the same bits."""
    def run(engine=None):
        scenario = get_scenario("multi-period-deployment", n_relays=4, periods=2)
        return Campaign(scenario, ExecutionConfig(), engine=engine).run()

    report, reference = run(), run(StatefulEngine())
    assert len(reference.period_results) == 2
    assert reference.estimates
    for got, want in zip(report.period_results, reference.period_results):
        assert got.estimates == want.estimates
        assert got.failures == want.failures
        assert got.slots_elapsed == want.slots_elapsed
    for got, want in zip(report.deployment_records, reference.deployment_records):
        assert got.bwfile.serialize() == want.bwfile.serialize()


def test_run_many_matches_stateful_engine():
    params = FlashFlowParams()
    team = quick_team(seed=4).team

    def specs():
        out = []
        for i in range(8):
            relay = Relay.with_capacity(
                f"relay{i}", mbit(80 + 40 * i), seed=90 + i
            )
            out.append(
                MeasurementSpec(
                    target=relay,
                    assignments=allocate_capacity(team, mbit(500)),
                    params=params,
                    seed=90 + i,
                    enforce_admission=False,
                )
            )
        return out

    reference = [MeasurementEngine().run(spec) for spec in specs()]
    outcomes = MeasurementEngine().run_many(specs())
    assert [o.estimate for o in outcomes] \
        == [o.estimate for o in reference]
    assert [o.per_second_total for o in outcomes] \
        == [o.per_second_total for o in reference]
    assert [o.cells_checked for o in outcomes] \
        == [o.cells_checked for o in reference]


def test_duplicate_targets_still_fall_back_to_stateful_serial():
    params = FlashFlowParams()
    team = quick_team(seed=6).team
    shared = Relay.with_capacity("shared", mbit(100), seed=50)
    specs = [
        MeasurementSpec(
            target=shared,
            assignments=allocate_capacity(team, mbit(300)),
            params=params,
            seed=s,
            enforce_admission=False,
        )
        for s in (1, 2)
    ]
    outcomes = MeasurementEngine().run_many(specs)
    twin = Relay.with_capacity("shared", mbit(100), seed=50)
    engine = MeasurementEngine()
    expected = [
        engine.run(
            MeasurementSpec(
                target=twin,
                assignments=allocate_capacity(team, mbit(300)),
                params=params,
                seed=s,
                enforce_admission=False,
            )
        )
        for s in (1, 2)
    ]
    assert [o.estimate for o in outcomes] == [o.estimate for o in expected]
