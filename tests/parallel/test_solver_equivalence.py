"""Equivalence of the three solver programs.

The paper: "all the numerical results have been verified to be correct
by comparing the new result to that of the sequential implementation."
These tests enforce exactly that, across thread counts, cube sizes,
distribution functions, boundary conditions and forcing.
"""

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.boundaries import BounceBackWall, OutflowBoundary
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.errors import ConfigurationError
from repro.observe.tracer import Tracer
from repro.parallel import CubeGrid, CubeLBMIBSolver, OpenMPLBMIBSolver

SHAPE = (12, 8, 8)
STEPS = 6
RTOL, ATOL = 1e-10, 1e-12


def _make_state(with_structure=True, perturb=True):
    grid = FluidGrid(SHAPE, tau=0.8)
    structure = None
    if with_structure:
        structure = geometry.flat_sheet(
            SHAPE, num_fibers=5, nodes_per_fiber=5, stretch_coefficient=0.04
        )
        if perturb:
            structure.sheets[0].positions[2, 2, 0] += 0.7
    return grid, structure


@pytest.fixture(scope="module")
def sequential_result():
    grid, structure = _make_state()
    SequentialLBMIBSolver(grid, structure).run(STEPS)
    return grid, structure


class TestOpenMPEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 6])
    def test_matches_sequential(self, sequential_result, threads):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        with OpenMPLBMIBSolver(grid, structure, num_threads=threads) as solver:
            solver.run(STEPS)
        assert ref_grid.state_allclose(grid, rtol=RTOL, atol=ATOL)
        assert ref_structure.state_allclose(structure, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("fiber_method", ["block", "cyclic", "block_cyclic"])
    def test_fiber_distribution_methods(self, sequential_result, fiber_method):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        with OpenMPLBMIBSolver(
            grid, structure, num_threads=3, fiber_method=fiber_method
        ) as solver:
            solver.run(STEPS)
        assert ref_grid.state_allclose(grid, rtol=RTOL, atol=ATOL)
        assert ref_structure.state_allclose(structure, rtol=RTOL, atol=ATOL)

    def test_fluid_only(self):
        grid_a, _ = _make_state(with_structure=False)
        grid_a.initialize_equilibrium(
            velocity=0.01 * np.random.default_rng(1).standard_normal((3,) + SHAPE)
        )
        grid_b = grid_a.copy()
        SequentialLBMIBSolver(grid_a, None).run(STEPS)
        with OpenMPLBMIBSolver(grid_b, None, num_threads=4) as solver:
            solver.run(STEPS)
        assert grid_a.state_allclose(grid_b, rtol=RTOL, atol=ATOL)

    def test_trace_recorded(self):
        grid, structure = _make_state()
        with OpenMPLBMIBSolver(grid, structure, num_threads=2) as solver:
            solver.tracer = Tracer()
            solver.run(2)
            kernels_seen = {s.name for s in solver.tracer.spans}
        assert "compute_fluid_collision" in kernels_seen
        assert "spread_force_from_fibers_to_fluid" in kernels_seen


class TestCubeEquivalence:
    @pytest.mark.parametrize(
        "cube_size,threads", [(2, 1), (2, 4), (4, 2), (4, 8), (2, 3)]
    )
    def test_matches_sequential(self, sequential_result, cube_size, threads):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=cube_size)
        CubeLBMIBSolver(cg, structure, num_threads=threads).run(STEPS)
        assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=RTOL, atol=ATOL)
        assert ref_structure.state_allclose(structure, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("method", ["block", "cyclic", "block_cyclic"])
    def test_cube_distribution_methods(self, sequential_result, method):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=2)
        CubeLBMIBSolver(
            cg, structure, num_threads=4, cube_method=method, fiber_method=method
        ).run(STEPS)
        assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=RTOL, atol=ATOL)
        assert ref_structure.state_allclose(structure, rtol=RTOL, atol=ATOL)

    def test_locks_disabled_same_numerics(self, sequential_result):
        """Cross-cube writes are element-disjoint: locks do not affect results."""
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=2)
        CubeLBMIBSolver(cg, structure, num_threads=4, use_locks=False).run(STEPS)
        assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=RTOL, atol=ATOL)

    def test_cube_size_one(self, sequential_result):
        ref_grid, ref_structure = sequential_result
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=1)
        CubeLBMIBSolver(cg, structure, num_threads=2).run(STEPS)
        assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=RTOL, atol=ATOL)

    def test_barriers_crossed_three_per_step(self):
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=4)
        solver = CubeLBMIBSolver(cg, structure, num_threads=2)
        solver.run(4)
        for name, barrier in solver.barriers.items():
            assert barrier.stats.crossings == 4, name

    def test_locks_actually_acquired(self):
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=2)
        solver = CubeLBMIBSolver(cg, structure, num_threads=4)
        solver.run(2)
        assert solver.locks.total_acquisitions() > 0


class TestWithBoundaries:
    def _boundaries(self):
        return [
            BounceBackWall(1, "low"),
            BounceBackWall(1, "high", wall_velocity=(0.02, 0.0, 0.0)),
        ]

    def test_all_three_solvers_agree(self):
        results = []
        for solver_kind in ("sequential", "openmp", "cube"):
            grid, structure = _make_state()
            if solver_kind == "sequential":
                SequentialLBMIBSolver(
                    grid, structure, boundaries=self._boundaries()
                ).run(STEPS)
                results.append((grid, structure))
            elif solver_kind == "openmp":
                with OpenMPLBMIBSolver(
                    grid, structure, num_threads=3, boundaries=self._boundaries()
                ) as s:
                    s.run(STEPS)
                results.append((grid, structure))
            else:
                cg = CubeGrid.from_fluid_grid(grid, cube_size=4)
                CubeLBMIBSolver(
                    cg, structure, num_threads=4, boundaries=self._boundaries()
                ).run(STEPS)
                results.append((cg.to_fluid_grid(), structure))
        ref = results[0]
        for grid, structure in results[1:]:
            assert ref[0].state_allclose(grid, rtol=RTOL, atol=ATOL)
            assert ref[1].state_allclose(structure, rtol=RTOL, atol=ATOL)

    def test_outflow_in_cube_solver(self):
        grid, structure = _make_state()
        boundaries = [
            BounceBackWall(0, "low", wall_velocity=(0.02, 0, 0)),
            OutflowBoundary(0, "high"),
        ]
        ref_grid, ref_structure = _make_state()
        SequentialLBMIBSolver(ref_grid, ref_structure, boundaries=boundaries).run(STEPS)
        cg = CubeGrid.from_fluid_grid(grid, cube_size=4)
        CubeLBMIBSolver(
            cg, structure, num_threads=2, boundaries=boundaries
        ).run(STEPS)
        assert ref_grid.state_allclose(cg.to_fluid_grid(), rtol=RTOL, atol=ATOL)

    def test_outflow_rejected_for_unit_cubes(self):
        grid, structure = _make_state()
        cg = CubeGrid.from_fluid_grid(grid, cube_size=1)
        with pytest.raises(ConfigurationError, match="cube_size >= 2"):
            CubeLBMIBSolver(
                cg, structure, num_threads=2,
                boundaries=[OutflowBoundary(0, "high")],
            )


class TestExternalForceEquivalence:
    def test_all_three_solvers_agree(self):
        force = (2e-5, 0.0, -1e-5)
        grid_a, struct_a = _make_state()
        SequentialLBMIBSolver(grid_a, struct_a, external_force=force).run(STEPS)

        grid_b, struct_b = _make_state()
        with OpenMPLBMIBSolver(
            grid_b, struct_b, num_threads=3, external_force=force
        ) as s:
            s.run(STEPS)
        assert grid_a.state_allclose(grid_b, rtol=RTOL, atol=ATOL)

        grid_c, struct_c = _make_state()
        cg = CubeGrid.from_fluid_grid(grid_c, cube_size=4)
        CubeLBMIBSolver(cg, struct_c, num_threads=4, external_force=force).run(STEPS)
        assert grid_a.state_allclose(cg.to_fluid_grid(), rtol=RTOL, atol=ATOL)
