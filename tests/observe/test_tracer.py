"""The span tracer: export shape, nesting discipline, solver coverage.

Locks the observability tentpole's tracer guarantees:

* chrome-trace export is valid JSON with well-formed ``X`` events and
  per-thread spans that are disjoint or properly nested;
* a traced sequential run emits all nine Algorithm-1 kernels per step,
  and every single-core variant records its exact ordered span list on
  every step (the names ``perfbench/lbmbench/spans.py`` maps to layers);
* a traced cube run tags spans with thread and cube ids, and every
  parallel and distributed solver records its exact per-step multiset
  of ``(name, cat, tid, cube)`` spans;
* the gprof/OmpP renderings reproduce the analyses from the same spans;
* the disabled path (``tracer=None``) allocates nothing, mirroring the
  fused solver's zero-allocation gate, and an untraced parallel run
  retains no per-step record.
"""

import gc
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import SimulationConfig, StructureConfig
from repro.core.kernels import KERNEL_NAMES
from repro.observe import (
    Span,
    Telemetry,
    Tracer,
    merge_chrome_traces,
    span_tree_valid,
)


def _span(name, tid, start, duration, **kw):
    return Span(
        name,
        kw.get("cat", "kernel"),
        tid,
        kw.get("step", -1),
        kw.get("cube", -1),
        start,
        duration,
    )


def _fsi_config(**overrides):
    defaults = dict(
        fluid_shape=(16, 16, 16),
        tau=0.8,
        structure=StructureConfig(
            kind="flat_sheet", num_fibers=6, nodes_per_fiber=6
        ),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestRecording:
    def test_record_and_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("outer", cat="phase"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.spans]
        assert names == ["inner", "outer"]  # exit order
        assert len(tracer) == 2
        assert span_tree_valid(tracer.spans)
        tracer.clear()
        assert len(tracer) == 0

    def test_span_end_property(self):
        s = _span("k", 0, 10.0, 2.5)
        assert s.end == pytest.approx(12.5)

    def test_threaded_recording_is_lossless(self):
        import threading

        tracer = Tracer()

        def worker(tid):
            for i in range(200):
                tracer.record("k", tid, float(i), 0.5)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 800


class TestSpanTreeValid:
    def test_disjoint_and_nested_are_valid(self):
        spans = [
            _span("step", 0, 0.0, 10.0),
            _span("collide", 0, 1.0, 3.0),
            _span("stream", 0, 5.0, 3.0),
            _span("other_thread", 1, 2.0, 20.0),
        ]
        assert span_tree_valid(spans)

    def test_partial_overlap_is_invalid(self):
        spans = [
            _span("a", 0, 0.0, 5.0),
            _span("b", 0, 3.0, 5.0),  # starts inside a, ends outside
        ]
        assert not span_tree_valid(spans)

    def test_overlap_on_different_threads_is_fine(self):
        spans = [
            _span("a", 0, 0.0, 5.0),
            _span("b", 1, 3.0, 5.0),
        ]
        assert span_tree_valid(spans)

    def test_shared_endpoint_within_slack(self):
        spans = [
            _span("a", 0, 0.0, 2.0),
            _span("b", 0, 2.0, 2.0),
        ]
        assert span_tree_valid(spans)


class TestChromeExport:
    def test_export_round_trips_through_json(self, tmp_path):
        tracer = Tracer(name="test-trace", pid=3)
        tracer.record("collide", 1, tracer.epoch + 0.25, 0.5, step=7, cube=12)
        path = tmp_path / "sub" / "trace.json"
        tracer.save_chrome_trace(path)

        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "test-trace"
        (x,) = [e for e in events if e["ph"] == "X"]
        assert x["name"] == "collide"
        assert x["pid"] == 3 and x["tid"] == 1
        assert x["ts"] == pytest.approx(0.25e6, rel=1e-6)
        assert x["dur"] == pytest.approx(0.5e6, rel=1e-6)
        assert x["args"] == {"step": 7, "cube": 12}

    def test_untagged_span_has_empty_args(self):
        tracer = Tracer()
        tracer.record("k", 0, tracer.epoch, 0.1)
        (x,) = [e for e in tracer.to_chrome_trace()["traceEvents"] if e["ph"] == "X"]
        assert x["args"] == {}

    def test_merge_keeps_all_events(self):
        a, b = Tracer(pid=0), Tracer(pid=1)
        a.record("x", 0, a.epoch, 0.1)
        b.record("y", 0, b.epoch, 0.1)
        merged = merge_chrome_traces(a.to_chrome_trace(), b.to_chrome_trace())
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert pids == {0, 1}
        assert len(merged["traceEvents"]) == 4  # 2 meta + 2 spans


_IB = [
    "compute_bending_force_in_fibers",
    "compute_stretching_force_in_fibers",
    "compute_elastic_force_in_fibers",
    "spread_force_from_fibers_to_fluid",
]
_BATCHED_IB = ["compute_fiber_forces", "spread_force_from_fibers_to_fluid"]


def _steps(before, lattice, after):
    """Per-step names with and without the immersed structure."""
    return {
        True: before + lattice + ["move_fibers"] + after,
        False: lattice + after,
    }


#: Exact ordered kernel spans each single-core variant records per step;
#: a list per step where consecutive steps differ (AA even/odd phases).
_SPAN_VOCABULARY = {
    "sequential": [
        _steps(
            _IB,
            [
                "compute_fluid_collision",
                "stream_fluid_velocity_distribution",
                "update_fluid_velocity",
            ],
            ["copy_fluid_velocity_distribution"],
        )
    ],
    "fused": [
        _steps(
            _IB,
            ["fused_collide_stream", "update_fluid_velocity"],
            ["swap_distributions"],
        )
    ],
    "inplace": [
        _steps(_IB, ["aa_even_collide_swap", "update_fluid_velocity"], []),
        _steps(_IB, ["aa_odd_collide_stream", "update_fluid_velocity"], []),
    ],
    "batched": [
        _steps(
            _BATCHED_IB,
            ["batched_collide_stream", "update_fluid_velocity"],
            ["swap_distributions"],
        )
    ],
    "batched+guard": [
        _steps(
            _BATCHED_IB,
            ["batched_collide_stream", "update_fluid_velocity"],
            ["swap_distributions", "slot_guard"],
        )
    ],
}


def _traced_solver(variant, structure):
    """A single-core solver of ``variant`` with a fresh tracer attached."""
    config = _fsi_config(
        solver=variant.split("+")[0],
        structure=structure if structure is not None else StructureConfig(kind="none"),
    )
    if variant == "batched+guard":
        from repro.batch import BatchedFluidGrid, BatchedLBMIBSolver, SlotGuard
        from repro.core.lbm.fields import FluidGrid

        solver = BatchedLBMIBSolver(
            BatchedFluidGrid(config.fluid_shape, 1, tau=config.tau),
            delta=config.build_delta(),
            guard=SlotGuard(),
        )
        solver.load_slot(
            0, FluidGrid(config.fluid_shape, tau=config.tau), config.build_structure()
        )
    else:
        solver = Simulation(config).solver
    solver.tracer = Tracer()
    return solver


class TestSequentialCoverage:
    @pytest.mark.parametrize("with_structure", [True, False], ids=["fsi", "fluid_only"])
    @pytest.mark.parametrize("variant", sorted(_SPAN_VOCABULARY))
    def test_exact_per_step_span_vocabulary(self, variant, with_structure):
        """Every single-core variant records the same kernel spans, in the
        same order, on every step; the IB spans vanish without a structure."""
        structure = (
            StructureConfig(kind="flat_sheet", num_fibers=6, nodes_per_fiber=6)
            if with_structure
            else None
        )
        solver = _traced_solver(variant, structure)
        expected = _SPAN_VOCABULARY[variant]
        for step in range(4):
            solver.tracer.clear()
            solver.step()
            names = [s.name for s in solver.tracer.spans]
            assert names == expected[step % len(expected)][with_structure], (
                f"{variant} step {step}"
            )
            assert {s.cat for s in solver.tracer.spans} <= {"kernel"}

    def test_all_nine_kernels_traced_every_step(self):
        """Every Algorithm-1 kernel appears as a span on every step."""
        telemetry = Telemetry()
        with Simulation(_fsi_config(), telemetry=telemetry) as sim:
            sim.run(3)
        by_step = {}
        for s in telemetry.tracer.spans:
            by_step.setdefault(s.step, set()).add(s.name)
        assert sorted(by_step) == [0, 1, 2]
        for step, names in by_step.items():
            assert names == set(KERNEL_NAMES), f"step {step} missing kernels"
        assert span_tree_valid(telemetry.tracer.spans)

    def test_fused_variant_traces_its_kernel_vocabulary(self):
        telemetry = Telemetry()
        with Simulation(_fsi_config(solver="fused"), telemetry=telemetry) as sim:
            sim.run(2)
        names = {s.name for s in telemetry.tracer.spans}
        assert "fused_collide_stream" in names
        assert "swap_distributions" in names
        assert "move_fibers" in names
        assert span_tree_valid(telemetry.tracer.spans)


class TestCubeCoverage:
    def test_cube_spans_carry_thread_and_cube_ids(self):
        telemetry = Telemetry()
        config = _fsi_config(solver="cube", num_threads=2, cube_size=4)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(2)
        spans = telemetry.tracer.spans
        cube_spans = [s for s in spans if s.cat == "cube"]
        assert cube_spans, "no per-cube spans recorded"
        assert {s.tid for s in spans} == {0, 1}
        # 16^3 grid at cube size 4 -> 64 cubes, each touched per step
        assert {s.cube for s in cube_spans} == set(range(64))
        assert all(s.step >= 0 for s in cube_spans)
        barrier_spans = [s for s in spans if s.cat == "barrier"]
        assert {s.name for s in barrier_spans} == {
            "barrier:after_stream",
            "barrier:after_update",
            "barrier:after_step",
        }
        assert span_tree_valid(spans)

    def test_async_cube_spans_tag_tasks(self):
        telemetry = Telemetry()
        config = _fsi_config(solver="async_cube", num_threads=2, cube_size=4)
        with Simulation(config, telemetry=telemetry) as sim:
            sim.run(1)
        cats = {s.cat for s in telemetry.tracer.spans}
        assert cats == {"task"}
        per_cube = [s for s in telemetry.tracer.spans if s.cube >= 0]
        assert {s.cube for s in per_cube} == set(range(64))


_FLUID = [
    "compute_fluid_collision",
    "stream_fluid_velocity_distribution",
    "update_fluid_velocity",
]
_COPY = "copy_fluid_velocity_distribution"
_BARRIERS = ["after_stream", "after_update", "after_step"]
_THREADS = 2
_PARALLEL = [
    "openmp-static",
    "openmp-dynamic",
    "cube",
    "async_cube",
    "distributed",
    "hybrid",
]


def _parallel_config(solver, with_structure):
    structure = (
        StructureConfig(kind="flat_sheet", num_fibers=4, nodes_per_fiber=4)
        if with_structure
        else StructureConfig(kind="none")
    )
    return SimulationConfig(
        fluid_shape=(16, 8, 8),
        tau=0.8,
        solver=solver,
        num_threads=_THREADS,
        cube_size=4,
        structure=structure,
    )


def _expected_parallel_spans(variant, with_structure, solver):
    """The ``(name, cat, tid, cube)`` multiset ``variant`` records per step.

    The async scheduler hands tasks to whichever thread is free, so its
    tid is not part of the key (``None``).
    """
    ib = with_structure
    spans = Counter()
    if variant.startswith("openmp"):
        names = (
            _IB + ["spread_force_reduction"] if ib else []
        ) + _FLUID + (["move_fibers"] if ib else []) + [_COPY]
        for tid in range(_THREADS):
            spans.update((name, "kernel", tid, -1) for name in names)
    elif variant == "cube":
        owner = solver.cube_dist.owner_table().ravel()
        cube_kernels = _FLUID + [_COPY]
        kernels = (
            ["fiber_forces_and_spread"] if ib else []
        ) + _FLUID + (["move_fibers"] if ib else []) + [_COPY]
        for tid in range(_THREADS):
            spans.update((name, "kernel", tid, -1) for name in kernels)
            for cube in np.flatnonzero(owner == tid):
                spans.update((name, "cube", tid, int(cube)) for name in cube_kernels)
            spans.update(("barrier:" + b, "barrier", tid, -1) for b in _BARRIERS)
    elif variant == "async_cube":
        for cube in range(solver.cubes.num_cubes):
            for name in ["collide_stream", "update_fluid_velocity", _COPY]:
                spans[(name, "task", None, cube)] += 1
        if ib:  # one fiber block per sheet per thread
            for name in ["fiber_forces_and_spread", "move_fibers"]:
                spans[(name, "task", None, -1)] += _THREADS
    else:
        fluid = {
            "distributed": [
                "compute_fluid_collision",
                "stream_and_halo_exchange",
                "update_fluid_velocity",
            ],
            "hybrid": [
                "compute_fluid_collision",
                "stream_fluid_velocity_distribution",
                "halo_exchange",
                "update_fluid_velocity",
            ],
        }[variant]
        names = (
            ["fiber_forces_and_spread"] if ib else []
        ) + fluid + (["move_fibers"] if ib else []) + [_COPY]
        for rank in range(_THREADS):
            spans.update((name, "phase", rank, -1) for name in names)
    return spans


class TestParallelCoverage:
    @pytest.mark.parametrize("with_structure", [True, False], ids=["fsi", "fluid_only"])
    @pytest.mark.parametrize("variant", _PARALLEL)
    def test_exact_per_step_span_vocabulary(self, variant, with_structure):
        """Each parallel and distributed solver records the same span
        multiset on every step: names, categories, threads (ranks) and
        cube ids."""
        solver_name, _, schedule = variant.partition("-")
        telemetry = Telemetry()
        config = _parallel_config(solver_name, with_structure)
        steps = 3
        with Simulation(config, telemetry=telemetry) as sim:
            if schedule:
                sim.solver.schedule = schedule
            sim.run(steps)
            expected = _expected_parallel_spans(variant, with_structure, sim.solver)
        by_step = {}
        for s in telemetry.tracer.spans:
            tid = None if variant == "async_cube" else s.tid
            assert 0 <= s.tid < _THREADS
            by_step.setdefault(s.step, Counter())[(s.name, s.cat, tid, s.cube)] += 1
        assert sorted(by_step) == list(range(steps))
        for step, spans in by_step.items():
            assert spans == expected, f"{variant} step {step}"


class TestBridges:
    def test_flat_profile_matches_span_totals(self):
        tracer = Tracer()
        tracer.record("collide", 0, 0.0, 2.0)
        tracer.record("collide", 0, 2.0, 1.0)
        tracer.record("stream", 0, 3.0, 1.0)
        tracer.record("wait", 0, 4.0, 9.0, cat="barrier")  # filtered out
        profile = tracer.flat_profile()
        assert profile.calls["collide"] == 2
        assert profile.seconds["collide"] == pytest.approx(3.0)
        assert "wait" not in profile.seconds
        assert profile.total_seconds == pytest.approx(4.0)

    def test_parallel_profile_bridge(self):
        tracer = Tracer()
        for tid in range(2):
            tracer.record("collide", tid, 0.0, 1.0 + tid, step=0)
        profile = tracer.parallel_profile()
        (region,) = profile.region_stats()
        assert region.name == "collide"


class TestDisabledPath:
    def test_untraced_fused_step_allocates_nothing(self):
        """With telemetry disabled (the default) the instrumented fused
        step stays allocation-free: same gate as
        tests/verify/test_fused.py::TestZeroAllocation."""
        config = SimulationConfig(
            fluid_shape=(16, 16, 16),
            tau=0.8,
            solver="fused",
            structure=StructureConfig(kind="none"),
        )
        with Simulation(config) as sim:
            assert sim.solver.tracer is None
            sim.run(3)  # warmup: arena buffers, shift table
            tracemalloc.start()
            tracemalloc.reset_peak()
            sim.run(5)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 8192, f"untraced fused step allocated {peak} bytes at peak"

    @pytest.mark.parametrize("variant", ["openmp-static", "openmp-dynamic", "cube"])
    def test_untraced_parallel_run_retains_nothing(self, variant):
        """Without a tracer a parallel solver keeps no per-step record:
        100 steps after warm-up leave at most 16 KiB behind."""
        solver_name, _, schedule = variant.partition("-")
        with Simulation(_parallel_config(solver_name, True)) as sim:
            if schedule:
                sim.solver.schedule = schedule
            sim.run(10)  # warm-up: worker pool, private force buffers
            gc.collect()
            tracemalloc.start()
            try:
                sim.run(100)
                gc.collect()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert retained <= 16 * 1024, f"{variant} retained {retained} bytes"

    def test_solvers_default_to_no_tracer(self):
        for solver, threads in [("sequential", 1), ("openmp", 2), ("cube", 2)]:
            config = _fsi_config(solver=solver, num_threads=threads)
            with Simulation(config) as sim:
                assert sim.solver.tracer is None
                sim.run(1)
