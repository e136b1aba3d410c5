"""The scenario registry, canned scenarios, and the CLI smoke runner."""

import json

import pytest

from repro.api import (
    ExecutionConfig,
    default_execution_for,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
    scenario_registry,
)
from repro.api.__main__ import main as api_main
from repro.api.scenarios import _REGISTRY
from repro.errors import ConfigurationError

CANNED = (
    "fig06-accuracy",
    "whole-network-efficiency",
    "background-traffic",
    "inflation-attack",
    "multi-period-deployment",
    "shadow-measurement",
)


def test_all_canned_scenarios_registered():
    names = scenario_names()
    for name in CANNED:
        assert name in names
    registry = scenario_registry()
    for name in CANNED:
        assert registry[name].description


def test_get_scenario_applies_overrides():
    scenario = get_scenario("fig06-accuracy", n_relays=4, seed=99)
    assert scenario.name == "fig06-accuracy"
    assert scenario.network.n_relays == 4
    assert scenario.seed == 99


def test_get_scenario_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        register_scenario("fig06-accuracy")(lambda **kw: None)
    assert "fig06-accuracy" in _REGISTRY  # original entry untouched


def test_register_and_run_custom_scenario():
    from repro.api import NetworkSpec, Scenario

    name = "test-custom-scenario"
    try:
        @register_scenario(name, description="one-file extension point")
        def _factory(n_relays: int = 3, **overrides) -> Scenario:
            return Scenario(
                name=name,
                network=NetworkSpec(n_relays=n_relays),
                seed=5,
                **overrides,
            )

        report = run_scenario(
            name, execution=ExecutionConfig(full_simulation=False)
        )
        assert report.scenario_name == name
        assert len(report.estimates) == 3
    finally:
        _REGISTRY.pop(name, None)


def test_default_execution_for_efficiency_is_analytic():
    assert default_execution_for("whole-network-efficiency").full_simulation \
        is False
    assert default_execution_for("fig06-accuracy").full_simulation is True


def test_inflation_attack_scenario_respects_bound():
    report = run_scenario("inflation-attack", n_relays=10, seed=9)
    inflation = report.adversary_inflation()
    assert inflation
    bound = 1.0 / (1.0 - 0.25)
    for fp, factor in inflation.items():
        assert factor <= bound * 1.001, fp
    honest = [
        fp for fp in report.ground_truth if fp not in report.adversaries
    ]
    for fp in honest:
        if fp in report.estimates:
            assert report.estimates[fp] <= 1.1 * report.ground_truth[fp]


@pytest.mark.parametrize("name", ["background-traffic", "shadow-measurement"])
def test_capacity_proportional_scenarios_rerun_deterministically(name):
    """Backgrounds resolve lazily against a freshly generated network,
    so re-running the *same* Scenario object reproduces its estimates
    (no stateful network hides inside the frozen description)."""
    from repro.api import Campaign

    scenario = get_scenario(name, n_relays=5)
    first = Campaign(scenario, ExecutionConfig()).run()
    second = Campaign(scenario, ExecutionConfig()).run()
    assert first.estimates == second.estimates


def test_background_traffic_scenario_runs_clamped():
    report = run_scenario("background-traffic", n_relays=5, utilization=0.3)
    assert len(report.estimates) == 5
    for fp, estimate in report.estimates.items():
        assert estimate <= 1.35 * report.ground_truth[fp]


def test_cli_list_and_smoke(capsys):
    assert api_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in CANNED:
        assert name in out

    code = api_main([
        "fig06-accuracy", "--quiet",
        "-o", "n_relays=3",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario"] == "fig06-accuracy"
    assert summary["relays_estimated"] == 3


def test_cli_no_scenario_shows_listing(capsys):
    assert api_main([]) == 2
    assert "fig06-accuracy" in capsys.readouterr().out
