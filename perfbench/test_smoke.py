"""Smoke test of the benchmark on a tiny world (seconds, not minutes).

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run

run._import_program()

from perfbench import layers, workloads  # noqa: E402
from perfbench.workloads import Faults, Sizes  # noqa: E402

TINY = Sizes(
    days=14,
    setup_repeats=1,
    batch_world=(20, 1.0),
    serve_world=(12, 1.0),
)
WORKLOADS = ("collect", "analyze", "serve")


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def test_benchmark_json_names_the_metrics_the_code_emits() -> None:
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload: str) -> None:
    record = run.measure(workload, 3, TINY, trace=False)
    assert record["failures"] == []
    assert {name: m["unit"] for name, m in record["metrics"].items()} == layers.END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload: str) -> None:
    record = run.measure(workload, 3, TINY, trace=True)
    assert record["failures"] == []
    assert {name: m["unit"] for name, m in record["metrics"].items()} == layers.per_layer_units()
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    if workload == "serve":
        assert metrics["tick.core.store.append_s"] > 0
        assert metrics["tick.sim.engine.advance_window_calls"] == TINY.days
        assert metrics["restart.serve.replayed_intervals"] == TINY.days
        assert metrics["tick.core.store.append_write_amp"] > 1
    elif workload == "collect":
        assert metrics["sim.engine.simulate_shard_calls"] >= 1
        assert metrics["core.store.bytes_written"] > 0
    else:
        # The store is built in set-up: no simulation shows in the main phase.
        assert metrics["sim.engine.simulate_shard_calls"] == 0
        assert metrics["core.churn.window_sweep_streamed_s"] > 0
    assert metrics["setup.sim.population.build_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_repeated_main_phase_passes_the_checks(
    workload: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(workloads, "_repeats", lambda sizes, times: iter([1]))
    record = run.measure(workload, 3, TINY, trace=True)
    assert record["failures"] == []
    assert record["figures"]["passes"]["value"] == 2
    if workload == "serve":
        # Layer figures are per pass, not summed over the repeats.
        metrics = record["metrics"]
        assert metrics["tick.sim.engine.advance_window_calls"]["value"] == TINY.days


def test_corrupt_shard_is_a_failed_collect_operation() -> None:
    record = run.measure("collect", 3, TINY, trace=False, faults=Faults(corrupt_shard=True))
    assert record["failures"]
    assert any("verify" in failure for failure in record["failures"])
    assert 0 < record["failed_ops_ratio"] < 1


def test_restart_against_another_seed_is_a_failed_serve_operation() -> None:
    record = run.measure("serve", 3, TINY, trace=False, faults=Faults(restart_seed=4))
    assert record["failures"]
    assert any("restart" in failure for failure in record["failures"])
    assert 0 < record["failed_ops_ratio"] < 1
