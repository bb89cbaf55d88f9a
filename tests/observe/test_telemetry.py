"""End-to-end telemetry wiring: Simulation, runner, and oracle metrics."""

import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.observe import Telemetry
from repro.profiling.ompp import ParallelProfile
from repro.resilience.runner import ResilientRunner, RetryPolicy
from repro.verify.invariants import InvariantSuite
from repro.verify.oracle import DifferentialOracle


def _config(**overrides):
    defaults = dict(fluid_shape=(16, 16, 16), tau=0.8)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationWiring:
    def test_run_bumps_step_counter(self):
        telemetry = Telemetry()
        with Simulation(_config(), telemetry=telemetry) as sim:
            sim.run(4)
            sim.run(3)
        assert telemetry.metrics.counter("sim.steps").value == 7

    def test_attach_telemetry_after_construction(self):
        telemetry = Telemetry()
        with Simulation(_config()) as sim:
            sim.attach_telemetry(telemetry)
            assert sim.telemetry is telemetry
            sim.run(1)
        assert telemetry.metrics.counter("sim.steps").value == 1
        assert len(telemetry.tracer) > 0

    def test_lazy_distributed_solver_gets_tracer_on_first_run(self):
        telemetry = Telemetry()
        config = _config(
            solver="distributed",
            num_threads=2,
            structure=StructureConfig(kind="none"),
        )
        with Simulation(config, telemetry=telemetry) as sim:
            assert sim._solver is None  # still lazy after attach
            sim.run(2)
            assert sim._solver.tracer is telemetry.tracer
        assert {s.tid for s in telemetry.tracer.spans} == {0, 1}

    def test_collect_harvests_cube_solver_statistics(self):
        telemetry = Telemetry()
        config = _config(solver="cube", num_threads=2)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(2)
            telemetry.collect(sim)
        snap = telemetry.metrics.snapshot()
        # 3 barriers x 2 steps
        assert snap["counters"]["parallel.barrier_crossings"] == 6
        assert snap["counters"]["parallel.lock_acquisitions"] > 0
        assert snap["histograms"]["parallel.barrier_wait_seconds"]["count"] > 0
        assert "parallel.load_imbalance" in snap["gauges"]

    def test_collect_counts_async_tasks(self):
        telemetry = Telemetry()
        config = _config(solver="async_cube", num_threads=2)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(1)
            telemetry.collect(sim)
        counters = telemetry.metrics.snapshot()["counters"]
        # one task per cube for stream/update/copy + fiber blocks x2
        assert counters["parallel.tasks_executed"] >= 3 * 64

    def test_async_cube_publishes_no_load_imbalance(self):
        """The task scheduler records no kernel spans, so there is no
        imbalance to report (not a made-up 0.0)."""
        telemetry = Telemetry()
        config = _config(solver="async_cube", num_threads=2)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(1)
            telemetry.collect(sim)
        snap = telemetry.metrics.snapshot()
        assert "parallel.load_imbalance" not in snap["gauges"]
        assert not any(k.startswith("kernel.") for k in snap["histograms"])

    @pytest.mark.parametrize("solver", ["openmp", "cube"])
    def test_load_imbalance_reads_kernel_spans(self, solver):
        telemetry = Telemetry()
        config = _config(solver=solver, num_threads=2)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(2)
            telemetry.collect(sim)
        spans = telemetry.tracer.spans
        profile = ParallelProfile(spans)
        snap = telemetry.metrics.snapshot()
        gauge = snap["gauges"]["parallel.load_imbalance"]
        assert gauge == profile.whole_program_imbalance()
        assert 0.0 <= gauge < 1.0
        for region in profile.region_stats():
            hist = snap["histograms"][f"kernel.{region.name}.seconds"]
            assert hist["count"] == 1
            assert hist["sum"] == pytest.approx(region.total_seconds)

    def test_invariant_checks_counted(self):
        telemetry = Telemetry()
        suite = InvariantSuite.default(_config())
        with Simulation(_config(), invariants=suite, telemetry=telemetry) as sim:
            sim.run(3)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["verify.invariant_checks"] == 3 * len(suite.invariants)


class TestRunnerWiring:
    def test_incidents_mirrored_as_counters(self, tmp_path):
        telemetry = Telemetry()
        runner = ResilientRunner(
            _config(),
            tmp_path,
            policy=RetryPolicy(checkpoint_every=2),
            telemetry=telemetry,
        )
        sim = runner.run(4)
        sim.close()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["resilience.run_started"] == 1
        assert counters["resilience.checkpoint_saved"] == 2
        assert counters["resilience.run_completed"] == 1
        assert counters["sim.steps"] == 4


class TestOracleWiring:
    def test_steps_compared_and_divergences(self):
        telemetry = Telemetry()
        oracle = DifferentialOracle(
            _config(), variant_b="fused", telemetry=telemetry
        )
        assert oracle.run(2) is None
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["verify.steps_compared"] == 2
        assert "verify.divergences" not in counters

    def test_divergence_counter_on_perturbed_config(self):
        telemetry = Telemetry()
        base = _config(structure=StructureConfig(kind="none"))
        perturbed = _config(
            tau=0.9, structure=StructureConfig(kind="none")
        )
        oracle = DifferentialOracle(
            base,
            variant_b="sequential",
            config_b=perturbed,
            state_seed=1,
            telemetry=telemetry,
        )
        divergence = oracle.run(5)
        assert divergence is not None
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["verify.divergences"] == 1
        assert counters["verify.steps_compared"] == divergence.step
