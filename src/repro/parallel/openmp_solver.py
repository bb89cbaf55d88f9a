"""The OpenMP-style parallel LBM-IB solver (paper Section IV).

Every kernel of Algorithm 1 becomes a fork-join *parallel region*
(paper Algorithms 2 and 3):

* fluid-node kernels (collision, streaming, velocity update, buffer
  copy) divide the 3D grid into contiguous segments of 2D y-z surfaces
  along the x axis — the OpenMP *static* schedule — one slab per
  thread;
* fiber-node kernels (forces, spreading, fiber motion) divide the
  fibers among the threads.

Force spreading uses the OpenMP reduction idiom: each thread scatters
its fibers' forces into a private grid buffer, and the buffers are
summed slab-parallel afterwards (deterministically, in thread-ID
order), avoiding write races on shared fluid nodes.

Every parallel region ends with the implicit barrier of ``dispatch``,
just as an OpenMP ``parallel for`` does — which is exactly the
synchronization overhead the cube-based algorithm of Section V removes.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.constants import DT, DTYPE
from repro.core.ib import forces as _forces
from repro.core.ib import motion as _motion
from repro.core.ib import spreading as _spreading
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm import collision as _collision
from repro.core.lbm import macroscopic as _macroscopic
from repro.core.lbm.boundaries import Boundary, validate_boundaries
from repro.core.lbm.fields import FluidGrid
from repro.core.lbm.lattice import E, Q
from repro.core import coupling as _coupling
from repro.errors import ConfigurationError
from repro.parallel.distribution import FiberDistribution
from repro.parallel.executor import WorkerPool
from repro.parallel.partition import Slab, chunked_ranges, static_slabs

__all__ = ["OpenMPLBMIBSolver"]


class OpenMPLBMIBSolver:
    """Slab-parallel LBM-IB solver, one fork-join region per kernel.

    Parameters
    ----------
    fluid:
        The Eulerian fluid grid.
    structure:
        The immersed structure (may be ``None`` for fluid-only runs).
    num_threads:
        Team size.
    delta:
        Smoothed delta kernel (defaults to the 4-point cosine).
    boundaries:
        Face boundary conditions, applied by the master after streaming.
    fiber_method:
        Distribution method for fibers (``"block"``/``"cyclic"``/
        ``"block_cyclic"``).
    schedule:
        ``"static"`` (paper default: contiguous y-z surface segments
        along x, one per thread) or ``"dynamic"`` (chunks of x-planes
        handed out from a shared cursor; the paper tried this and
        "obtained the same performance").
    chunk:
        Chunk size (x-planes) for the dynamic schedule.

    Set ``tracer`` to a :class:`~repro.observe.tracer.Tracer` to record
    one span per region per thread per step (``None``, the default,
    keeps no bookkeeping at all).
    """

    def __init__(
        self,
        fluid: FluidGrid,
        structure: ImmersedStructure | None,
        num_threads: int,
        delta: DeltaKernel | None = None,
        boundaries: Sequence[Boundary] = (),
        fiber_method: str = "block",
        schedule: str = "static",
        chunk: int = 1,
        dt: float = DT,
        external_force: tuple[float, float, float] | None = None,
        fault_hook=None,
        barrier_timeout: float | None = None,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError(
                f"num_threads must be positive, got {num_threads}"
            )
        if schedule not in ("static", "dynamic"):
            raise ConfigurationError(
                f"schedule must be 'static' or 'dynamic', got {schedule!r}"
            )
        if chunk < 1:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        self.fluid = fluid
        self.structure = structure
        self.num_threads = num_threads
        self.schedule = schedule
        self.chunk = chunk
        self.delta = delta if delta is not None else default_delta()
        self.boundaries = list(boundaries)
        validate_boundaries(self.boundaries)
        self.dt = dt
        self.time_step = 0
        self.external_force = external_force
        self.fault_hook = fault_hook
        self.barrier_timeout = barrier_timeout
        if external_force is not None:
            f = np.asarray(external_force, dtype=DTYPE)
            fluid.force[...] = f[:, None, None, None]

        nx = fluid.shape[0]
        self.slabs: list[Slab] = static_slabs(nx, num_threads)
        self._chunks: list[Slab] = chunked_ranges(nx, chunk)
        self._chunk_cursor = 0
        self._sched_lock = __import__("threading").Lock()
        self._fiber_dist: list[FiberDistribution] = []
        if structure is not None:
            self._fiber_dist = [
                FiberDistribution(s.num_fibers, num_threads, method=fiber_method)
                for s in structure.sheets
            ]
        #: Optional span tracer (repro.observe); None = telemetry off.
        self.tracer = None
        self._pool: WorkerPool | None = None
        # Private force buffers for the spreading reduction, allocated lazily.
        self._force_private: np.ndarray | None = None

    # ------------------------------------------------------------------
    # infrastructure
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.num_threads, timeout=self.barrier_timeout)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "OpenMPLBMIBSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _region(self, kernel: str, fn) -> None:
        """One parallel region: run ``fn(tid)`` on the team."""
        pool = self._ensure_pool()
        tracer = self.tracer
        step = self.time_step

        def wrapped(tid: int) -> None:
            if self.fault_hook is not None:
                # Fires inside the worker thread so an injected kill
                # takes down the right team member (once per fault).
                self.fault_hook(tid, step)
            if tracer is None:
                fn(tid)
                return
            start = time.perf_counter()
            fn(tid)
            tracer.record(kernel, tid, start, time.perf_counter() - start, step=step)

        pool.dispatch(wrapped)

    def _fiber_rows(self, sheet_index: int, tid: int) -> np.ndarray:
        return self._fiber_dist[sheet_index].fibers_of(tid)

    def _fluid_region(self, kernel: str, slab_body) -> None:
        """A fluid-node parallel region under the configured schedule.

        ``slab_body(slab)`` processes one contiguous range
        of x-planes.  The *static* schedule assigns one fixed slab per
        thread (the paper's default); the *dynamic* schedule hands out
        ``chunk``-plane pieces from a shared cursor, like OpenMP's
        ``schedule(dynamic, chunk)`` — the policy the paper reports as
        performing the same.
        """
        if self.schedule == "static":
            slabs = self.slabs

            def run(tid: int) -> None:
                slab = slabs[tid]
                if slab.size:
                    slab_body(slab)

        else:
            self._chunk_cursor = 0
            chunks = self._chunks

            def run(tid: int) -> None:
                while True:
                    with self._sched_lock:
                        index = self._chunk_cursor
                        self._chunk_cursor += 1
                    if index >= len(chunks):
                        return
                    slab_body(chunks[index])

        self._region(kernel, run)

    # ------------------------------------------------------------------
    # kernel bodies (per thread)
    # ------------------------------------------------------------------
    def _fiber_force_region(self, which: str) -> None:
        structure = self.structure
        assert structure is not None

        def body(tid: int) -> None:
            for si, sheet in enumerate(structure.sheets):
                rows = self._fiber_rows(si, tid)
                if rows.size == 0:
                    continue
                if which == "bending":
                    _forces.compute_bending_force(sheet, rows=rows)
                elif which == "stretching":
                    _forces.compute_stretching_force(sheet, rows=rows)
                else:
                    _forces.compute_elastic_force(sheet, rows=rows)

        self._region(f"compute_{which}_force_in_fibers", body)

    def _spread_region(self) -> None:
        structure = self.structure
        assert structure is not None
        fluid = self.fluid
        if self._force_private is None:
            self._force_private = np.zeros(
                (self.num_threads,) + fluid.force.shape, dtype=DTYPE
            )
        buffers = self._force_private

        def scatter(tid: int) -> None:
            buffers[tid] = 0.0
            for si, sheet in enumerate(structure.sheets):
                rows = self._fiber_rows(si, tid)
                if rows.size == 0:
                    continue
                _spreading.spread_forces(sheet, self.delta, buffers[tid], rows=rows)

        self._region("spread_force_from_fibers_to_fluid", scatter)

        slabs = self.slabs

        def reduce_(tid: int) -> None:
            slab = slabs[tid]
            if slab.size == 0:
                return
            region = fluid.force[:, slab.start : slab.stop]
            region[...] = buffers[0][:, slab.start : slab.stop]
            for other in range(1, self.num_threads):
                region += buffers[other][:, slab.start : slab.stop]
            if self.external_force is not None:
                region += np.asarray(self.external_force, dtype=DTYPE)[
                    :, None, None, None
                ]

        self._region("spread_force_reduction", reduce_)

    def _collision_region(self) -> None:
        fluid = self.fluid

        def body(slab: Slab) -> None:
            sl = slice(slab.start, slab.stop)
            df = fluid.df[:, sl]
            density = _macroscopic.compute_density(df)
            _collision.collide(
                df,
                density,
                fluid.velocity_shifted[:, sl],
                fluid.tau,
                operator=fluid.collision_operator,
                magic_lambda=fluid.trt_magic,
            )

        self._fluid_region("compute_fluid_collision", body)

    def _stream_region(self) -> None:
        fluid = self.fluid
        nx = fluid.shape[0]

        def body(slab: Slab) -> None:
            src = fluid.df[:, slab.start : slab.stop]
            for i in range(Q):
                ex, ey, ez = (int(c) for c in E[i])
                shifted = src[i]
                if ey or ez:
                    shifted = np.roll(shifted, shift=(ey, ez), axis=(1, 2))
                if ex == 0:
                    fluid.df_new[i, slab.start : slab.stop] = shifted
                else:
                    dst = (slab.indices() + ex) % nx
                    fluid.df_new[i, dst] = shifted

        self._fluid_region("stream_fluid_velocity_distribution", body)
        # Physical boundaries repaired by the master (cheap face work).
        for boundary in self.boundaries:
            boundary.apply(fluid.df, fluid.df_new)

    def _update_velocity_region(self) -> None:
        fluid = self.fluid

        def body(slab: Slab) -> None:
            sl = slice(slab.start, slab.stop)
            _coupling.shifted_velocities(
                fluid.df_new[:, sl],
                fluid.force[:, sl],
                fluid.tau_odd,
                out_velocity=fluid.velocity[:, sl],
                out_velocity_shifted=fluid.velocity_shifted[:, sl],
                out_density=fluid.density[sl],
            )

        self._fluid_region("update_fluid_velocity", body)

    def _move_fibers_region(self) -> None:
        structure = self.structure
        assert structure is not None
        fluid = self.fluid

        def body(tid: int) -> None:
            for si, sheet in enumerate(structure.sheets):
                rows = self._fiber_rows(si, tid)
                if rows.size == 0:
                    continue
                _motion.move_fibers(
                    sheet, self.delta, fluid.velocity, dt=self.dt, rows=rows
                )

        self._region("move_fibers", body)

    def _copy_region(self) -> None:
        fluid = self.fluid

        def body(slab: Slab) -> None:
            fluid.df[:, slab.start : slab.stop] = fluid.df_new[
                :, slab.start : slab.stop
            ]
            # match the cube solver's convention: between steps the force
            # field holds only the constant external body force (if any)
            if self.external_force is None:
                fluid.force[:, slab.start : slab.stop] = 0.0
            else:
                fluid.force[:, slab.start : slab.stop] = np.asarray(
                    self.external_force, dtype=DTYPE
                )[:, None, None, None]

        self._fluid_region("copy_fluid_velocity_distribution", body)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one time step (nine parallel regions, Algorithm 1 order)."""
        if self.structure is not None:
            self._fiber_force_region("bending")
            self._fiber_force_region("stretching")
            self._fiber_force_region("elastic")
            self._spread_region()
        else:
            self.fluid.force[...] = 0.0
        self._collision_region()
        self._stream_region()
        self._update_velocity_region()
        if self.structure is not None:
            self._move_fibers_region()
        self._copy_region()
        self.time_step += 1

    def run(self, num_steps: int) -> None:
        """Run ``num_steps`` time steps."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        for _ in range(num_steps):
            self.step()
