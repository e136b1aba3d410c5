"""The benchmark's own tests: smoke runs, the output check, span arithmetic.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, speed
from perfbench.bench import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    run_workload,
    tail_percentile,
)
from perfbench.workloads import WORKLOADS

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def smoke(name, tmp_path, trace=False):
    return run_workload(
        name, seed=3, seconds=0, trace=trace, out_dir=tmp_path, size="smoke"
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(name, tmp_path):
    result = smoke(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = smoke(name, tmp_path, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    if name == "shadow-compare":
        for step in ("torflow.weights_s", "shadow.flashflow_weights_s",
                     "shadow.perf_run_s", "shadow.horizon_s"):
            assert traced["metrics"][step]["value"] > 0
    trace = tmp_path / f"trace-{name}-3.jsonl"
    check = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", str(trace)],
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True,
    )
    assert check.returncode == 0, check.stderr


def test_tampered_digest_fails_the_check(tmp_path, capsys):
    assert smoke("tor-campaign", tmp_path)["correct"]
    record = tmp_path / "digests" / "tor-campaign-smoke-3.txt"
    record.write_text("0" * 64 + "\n")
    capsys.readouterr()
    result = smoke("tor-campaign", tmp_path)
    assert not result["correct"]
    assert str(record) in capsys.readouterr().out


def test_units_that_disagree_fail_the_check(tmp_path, monkeypatch):
    workload = WORKLOADS["attack-campaign"]
    check = workload.check
    calls = iter(range(100))

    def tampered(self, inputs, report):
        result = check(self, inputs, report)
        if next(calls) == 1:
            result.digest = "tampered"
        return result

    monkeypatch.setattr(workload, "check", tampered)
    assert not smoke("attack-campaign", tmp_path)["correct"]


def test_a_failing_property_fails_every_relay_of_the_unit(tmp_path, monkeypatch):
    monkeypatch.setattr("perfbench.workloads.MAX_MEDIAN_ERROR", 0.0)
    result = smoke("tor-campaign", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_times_are_scaled_to_reference_speed(tmp_path, monkeypatch, capsys):
    # A machine at half the reference speed: every time is halved.
    monkeypatch.setattr(
        speed, "probe", lambda after_seconds=0.0: 2 * speed.REFERENCE_S
    )
    metrics = smoke("attack-campaign", tmp_path)["metrics"]
    raw = re.search(r"unscaled medians: setup_s ([0-9.]+), wall_s ([0-9.]+)",
                    capsys.readouterr().out)
    assert metrics["setup_s"]["value"] == pytest.approx(float(raw[1]) / 2, abs=1e-6)
    assert metrics["wall_s"]["value"] == pytest.approx(float(raw[2]) / 2, abs=1e-6)


def _span(span_id, parent, name, start, end):
    return {
        "type": "span", "id": span_id, "parent": parent, "name": name,
        "start_unix": start, "wall_seconds": end - start, "cpu_seconds": 0.0,
    }


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span(1, None, "bench.unit", 0.0, 10.0),
        _span(2, 1, "round", 1.0, 4.0),
        _span(3, 2, "round.pack", 2.0, 3.0),
        _span(4, 1, "service.publish", 4.0, 6.0),
        # Opened on a worker thread: a root the tracer could not parent.
        _span(5, None, "campaign", 7.0, 9.0),
    ]
    assert layers.self_times(spans)[1] == 5.0
    adopted = layers.adopt_orphans(spans)
    assert [s["parent"] for s in adopted] == [None, 1, 2, 1, 1]
    assert layers.self_times(adopted) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 2.0}
    rows = layers.layer_rows(spans)
    assert rows["unspanned"]["self_s"] == 3.0
    assert sum(r["self_s"] for r in rows.values()) == layers.traced_wall(spans)


def test_overlapping_children_are_counted_once():
    spans = [
        _span(1, None, "round.execute", 0.0, 10.0),
        _span(2, 1, "kernel.chunk", 1.0, 5.0),
        _span(3, 1, "kernel.chunk", 3.0, 7.0),
    ]
    assert layers.self_times(spans)[1] == 4.0


def test_traced_steps_restore_the_program():
    from repro.obs import Tracer, use_tracer
    from repro.shadow import experiment

    from perfbench.workloads import traced_steps

    before = (experiment.torflow_weights_for, experiment.NetworkSimulator)
    with use_tracer(Tracer()):
        with traced_steps():
            assert experiment.NetworkSimulator is not before[1]
    assert (experiment.torflow_weights_for, experiment.NetworkSimulator) == before


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(99)), 90)[1] == 50
    value, q = tail_percentile(list(range(101)), 90)
    assert (value, q) == (90.0, 90)


def test_benchmark_json_matches_the_code():
    from perfbench.run import WORKLOAD_NAMES

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        cls.why for cls in WORKLOADS.values()
    ]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench")
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tor-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout.strip() == ""
