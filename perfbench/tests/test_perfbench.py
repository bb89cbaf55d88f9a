"""Self-tests of the benchmark: its declaration, its output and its waterfall.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, REPO_ROOT

import run as bench_run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Grid divisor for smoke runs: 8x8x8-class grids, a few milliseconds a step.
TINY = {"table1_fused": 8, "table1_dense_mixed": 8, "service_two_tenant": 16}


def _spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(trace: bool) -> dict:
    end_to_end, per_layer = bench_run.declared_metrics(REPO_ROOT)
    return per_layer if trace else end_to_end


def test_metric_and_workload_names_are_valid_and_unique():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)


def test_end_to_end_metrics_carry_unit_and_bound():
    spec = _spec()
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])


def test_layer_map_names_every_per_layer_metric():
    spec = _spec()
    with open(os.path.join(BENCH_DIR, "layer_map.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for entry in layers.values():
        for metric, workload in entry["moves"]:
            assert metric in end_to_end and workload in workloads
        assert set(entry["flat"]) <= workloads


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_run_produces_valid_result(workload, trace, tmp_path):
    metrics, outcome, report = bench_run.measure(
        workload, seed=3, seconds=0.3, trace=trace, root=str(tmp_path), scale=TINY[workload]
    )
    if trace:
        metrics["failed_ratio"] = outcome.failed_ratio
    result = json.loads(json.dumps(bench_run.result_object(metrics, _units(trace), outcome, workload)))
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(_units(trace))
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert os.path.isfile(tmp_path / ".perfbench" / f"trace-{workload}-seed3.json")


@pytest.mark.parametrize("workload", ["table1_fused", "table1_dense_mixed"])
def test_traced_waterfall_adds_up_to_step_time(workload, tmp_path):
    metrics, _, _ = bench_run.measure(
        workload, seed=5, seconds=0.4, trace=True, root=str(tmp_path), scale=TINY[workload]
    )
    layers = [
        "core.lbm.collide_stream_ms",
        "core.lbm.update_fluid_velocity_ms",
        "core.ib.fiber_forces_ms",
        "core.ib.spread_ms",
        "core.ib.move_fibers_ms",
        "solver.unattributed_ms",
    ]
    total = sum(metrics[name] for name in layers)
    assert metrics["solver.unattributed_ms"] >= 0
    assert abs(total - metrics["solver.step_ms"]) <= 0.05 * metrics["solver.step_ms"]


def test_service_trace_accounts_checkpoints_per_job(tmp_path):
    metrics, _, _ = bench_run.measure(
        "service_two_tenant", seed=2, seconds=0.3, trace=True, root=str(tmp_path), scale=16
    )
    # submit-time, step-10 and final-state checkpoints of a 15-step job
    assert metrics["io.checkpoint.saves_per_job"] == 3
    assert 0 < metrics["io.checkpoint.busy_share"] < 1
    assert 0 <= metrics["service.scheduler_unattributed_share"] < 1


def test_alloc_pass_repeats_across_processes():
    code = (
        "import sys; sys.path[:0] = [{bench!r}, {src!r}]\n"
        "from lbmbench import simulation\n"
        "from repro.verify.oracle import seeded_initial_fluid\n"
        "w = simulation.table1_dense_mixed(8)\n"
        "print(simulation._alloc_pass(w, seeded_initial_fluid(w.config, {seed})))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code.format(bench=BENCH_DIR, src=os.path.join(REPO_ROOT, "src"), seed=seed)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in (1, 1, 2)
    }
    assert len(outputs) == 1, outputs


def test_cli_prints_result_object_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_fused", "--seed", "7",
         "--seconds", "0.5", "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == RESULT_KEYS and result["correct"]
    assert set(result["metrics"]) == set(_units(False))
    assert report["seed"] == 7 and report["workload"] == "table1_fused"
    assert "not 4x the host LLC" in report["bandwidth_note"]


def test_cli_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_fused", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
