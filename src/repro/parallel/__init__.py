"""Parallel LBM-IB solvers and their substrate.

* :class:`~repro.parallel.openmp_solver.OpenMPLBMIBSolver` — the
  OpenMP-style program of paper Section IV: slab decomposition, one
  fork-join parallel region per kernel.
* :class:`~repro.parallel.cube_solver.CubeLBMIBSolver` — the
  cube-centric program of paper Section V: cube-blocked data layout,
  persistent SPMD threads, five loop nests and three barriers per step,
  owner locks for cross-cube writes.
* :class:`~repro.parallel.async_cube_solver.AsyncCubeLBMIBSolver` — the
  paper's future-work prototype: the same cube numerics driven by a
  dependency-based dynamic task scheduler instead of global barriers.

Supporting modules: ``partition`` (slabs), ``cubes`` (cube storage),
``thread_mesh`` + ``distribution`` (``cube2thread``/``fiber2thread``),
``barrier``/``locks`` (instrumented synchronization), ``executor``
(fork-join pool and SPMD launch).  The solvers time themselves only
through an optional :class:`~repro.observe.tracer.Tracer` (their
``tracer`` attribute; ``None`` keeps no bookkeeping).
"""

from repro.parallel.async_cube_solver import AsyncCubeLBMIBSolver
from repro.parallel.cube_solver import CubeLBMIBSolver
from repro.parallel.cubes import CubeGrid
from repro.parallel.distribution import CubeDistribution, FiberDistribution
from repro.parallel.openmp_solver import OpenMPLBMIBSolver
from repro.parallel.thread_mesh import ThreadMesh

__all__ = [
    "AsyncCubeLBMIBSolver",
    "CubeLBMIBSolver",
    "CubeGrid",
    "CubeDistribution",
    "FiberDistribution",
    "OpenMPLBMIBSolver",
    "ThreadMesh",
]
