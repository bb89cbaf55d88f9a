"""Tests of the OpenMP solver's scheduling policies.

The paper: "We have also tried the dynamic scheduling policy but
obtained the same performance" — both schedules must be available and
numerically identical.
"""

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.errors import ConfigurationError
from repro.observe.tracer import Tracer
from repro.parallel import OpenMPLBMIBSolver

SHAPE = (13, 8, 8)  # deliberately not divisible by the thread counts
STEPS = 5


def _make_state():
    grid = FluidGrid(SHAPE, tau=0.8)
    structure = geometry.flat_sheet(
        SHAPE, num_fibers=4, nodes_per_fiber=4, stretch_coefficient=0.04
    )
    structure.sheets[0].positions[1, 1, 0] += 0.5
    return grid, structure


@pytest.fixture(scope="module")
def sequential_result():
    grid, structure = _make_state()
    SequentialLBMIBSolver(grid, structure).run(STEPS)
    return grid, structure


class TestDynamicSchedule:
    @pytest.mark.parametrize("threads,chunk", [(2, 1), (3, 2), (4, 3)])
    def test_matches_sequential(self, sequential_result, threads, chunk):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        with OpenMPLBMIBSolver(
            grid, structure, num_threads=threads, schedule="dynamic", chunk=chunk
        ) as solver:
            solver.run(STEPS)
        assert ref_grid.state_allclose(grid, rtol=1e-10, atol=1e-12)
        assert ref_structure.state_allclose(structure, rtol=1e-10, atol=1e-12)

    def test_static_and_dynamic_identical(self):
        grid_s, struct_s = _make_state()
        grid_d, struct_d = _make_state()
        with OpenMPLBMIBSolver(grid_s, struct_s, num_threads=3) as a:
            a.run(STEPS)
        with OpenMPLBMIBSolver(
            grid_d, struct_d, num_threads=3, schedule="dynamic"
        ) as b:
            b.run(STEPS)
        assert grid_s.state_allclose(grid_d, rtol=1e-10, atol=1e-12)

    def test_chunk_larger_than_grid(self, sequential_result):
        ref_grid, _ = sequential_result
        grid, structure = _make_state()
        with OpenMPLBMIBSolver(
            grid, structure, num_threads=2, schedule="dynamic", chunk=100
        ) as solver:
            solver.run(STEPS)
        assert ref_grid.state_allclose(grid, rtol=1e-10, atol=1e-12)

    def test_rejects_bad_schedule(self):
        grid, structure = _make_state()
        with pytest.raises(ConfigurationError, match="schedule"):
            OpenMPLBMIBSolver(grid, structure, num_threads=2, schedule="guided")

    def test_rejects_bad_chunk(self):
        grid, structure = _make_state()
        with pytest.raises(ConfigurationError, match="chunk"):
            OpenMPLBMIBSolver(
                grid, structure, num_threads=2, schedule="dynamic", chunk=0
            )

    def test_dynamic_work_recorded_in_trace(self):
        grid, structure = _make_state()
        with OpenMPLBMIBSolver(
            grid, structure, num_threads=2, schedule="dynamic"
        ) as solver:
            solver.tracer = Tracer()
            solver.run(2)
            spans = [
                (s.step, s.tid)
                for s in solver.tracer.spans
                if s.name == "compute_fluid_collision"
            ]
        # one region span per thread per step; that every plane is
        # processed exactly once is test_matches_sequential's job
        assert sorted(spans) == [(0, 0), (0, 1), (1, 0), (1, 1)]
