"""Tracing of the parallel solvers: spans in, OmpP aggregations out.

The parallel solvers time themselves only through an optional
:class:`~repro.observe.tracer.Tracer`: one ``cat == "kernel"`` span per
region (or loop) per thread per step.  The per-kernel and per-thread
aggregations of Table II come from
:class:`~repro.profiling.ompp.ParallelProfile` over those spans;
per-thread *work* comes from the partition.
"""

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.observe.tracer import Span, Tracer
from repro.parallel import CubeGrid, CubeLBMIBSolver, OpenMPLBMIBSolver
from repro.parallel.distribution import FiberDistribution
from repro.parallel.partition import static_slabs
from repro.profiling.ompp import ParallelProfile

SHAPE = (12, 8, 8)


def _state():
    grid = FluidGrid(SHAPE, tau=0.8)
    structure = geometry.flat_sheet(
        SHAPE, num_fibers=5, nodes_per_fiber=5, stretch_coefficient=0.04
    )
    return grid, structure


def _openmp_spans(steps):
    grid, structure = _state()
    with OpenMPLBMIBSolver(grid, structure, num_threads=2) as solver:
        solver.tracer = Tracer()
        solver.run(steps)
        return solver.tracer


class TestRecording:
    def test_events_accumulate(self):
        tracer = _openmp_spans(steps=2)
        spans = [s for s in tracer.spans if s.name == "compute_fluid_collision"]
        assert sorted((s.step, s.tid) for s in spans) == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert all(s.cat == "kernel" and s.cube == -1 for s in spans)
        assert all(s.duration >= 0.0 for s in spans)

    def test_concurrent_recording_is_safe(self):
        grid, structure = _state()
        solver = CubeLBMIBSolver(
            CubeGrid.from_fluid_grid(grid, cube_size=4), structure, num_threads=4
        )
        solver.tracer = Tracer()
        solver.run(3)
        kernel = [s for s in solver.tracer.spans if s.cat == "kernel"]
        # 6 loops x 4 threads x 3 steps, none lost to a race
        assert len(kernel) == 6 * 4 * 3

    def test_events_snapshot_is_a_copy(self):
        grid, structure = _state()
        with OpenMPLBMIBSolver(grid, structure, num_threads=2) as solver:
            solver.tracer = Tracer()
            solver.run(1)
            snapshot = solver.tracer.spans
            solver.run(1)
            assert len(solver.tracer.spans) == 2 * len(snapshot)

    def test_clear(self):
        grid, structure = _state()
        with OpenMPLBMIBSolver(grid, structure, num_threads=2) as solver:
            solver.tracer = Tracer()
            solver.run(1)
            solver.tracer.clear()
            assert solver.tracer.spans == []
            solver.run(1)
            assert {s.step for s in solver.tracer.spans} == {1}


class TestAggregation:
    def _spans(self):
        return [
            Span("a", "kernel", 0, 0, -1, 0.0, 1.0),
            Span("a", "kernel", 1, 0, -1, 0.0, 2.0),
            Span("b", "kernel", 0, 0, -1, 1.0, 0.5),
            Span("a", "kernel", 2, 1, -1, 2.0, 1.5),
        ]

    def test_seconds_by_kernel(self):
        stats = {s.name: s for s in ParallelProfile(self._spans()).region_stats()}
        assert stats["a"].total_seconds == pytest.approx(4.5)
        assert stats["b"].total_seconds == pytest.approx(0.5)

    def test_seconds_by_thread(self):
        profile = ParallelProfile(self._spans())
        assert profile.num_threads == 3
        stats = {s.name: s for s in profile.region_stats()}
        # kernel "a" per thread: [1.0, 2.0, 1.5]
        assert stats["a"].max_thread_seconds == pytest.approx(2.0)
        assert stats["a"].mean_thread_seconds == pytest.approx(1.5)
        # kernel "b" ran on thread 0 only
        assert stats["b"].max_thread_seconds == pytest.approx(0.5)
        assert stats["b"].mean_thread_seconds == pytest.approx(0.5 / 3)

    def test_work_by_thread_filtered(self):
        """Per-thread work is the partition's: x-slab nodes for the fluid
        regions, whole fibers for the fiber regions."""
        threads = 2
        slab_nodes = [
            slab.size * SHAPE[1] * SHAPE[2] for slab in static_slabs(SHAPE[0], threads)
        ]
        assert sum(slab_nodes) == np.prod(SHAPE)
        assert slab_nodes == [384, 384]
        fibers = FiberDistribution(5, threads).load_per_thread()
        np.testing.assert_array_equal(fibers * 5, [15, 10])

    def test_load_imbalance(self):
        profile = ParallelProfile(self._spans())
        # busy time per thread: [1.5, 2.0, 1.5]; (2.0 - 5/3) / 2.0
        expected = (2.0 - 5 / 3) / 2.0
        assert profile.whole_program_imbalance() == pytest.approx(expected)

    def test_load_imbalance_empty(self):
        assert ParallelProfile([]).whole_program_imbalance() == 0.0
        assert Tracer().parallel_profile().whole_program_imbalance() == 0.0
