"""The cube-centric multithreaded LBM-IB solver (paper Algorithm 4).

Each of the ``n`` threads executes the whole time-stepping loop itself
(Pthreads style, launched once), processing only the cubes assigned to
it by ``cube2thread`` and the fibers assigned by ``fiber2thread``.
Every time step runs five loop nests separated by exactly three global
barriers::

    1st loop (fibers): kernels 1-4  (forces + spreading, owner locks)
    2nd loop (cubes):  kernels 5-6  (collision + streaming, owner locks)
    --- barrier ---                  (df_new complete everywhere)
    3rd loop (cubes):  boundaries + kernel 7 (update velocity)
    --- barrier ---                  (velocity complete everywhere)
    4th loop (fibers): kernel 8     (move fibers)
    5th loop (cubes):  kernel 9     (copy df_new -> df, zero force)
    --- barrier ---                  (step complete)

The schedule is race-free because the elastic force enters the fluid
update only in kernel 7 (velocity-shift forcing; see
:mod:`repro.core.coupling`): collision never reads the force field, so
loops 1 and 2 may overlap across threads.  Cross-cube writes (force
spreading into influential domains, streaming spills into face/edge/
corner neighbours) are protected by the owner thread's private lock,
exactly as the paper prescribes.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

import numpy as np

from repro.constants import DT, DTYPE
from repro.core import coupling as _coupling
from repro.core.ib import forces as _forces
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.ib.spreading import flatten_stencil
from repro.core.lbm import collision as _collision
from repro.core.lbm import macroscopic as _macroscopic
from repro.core.lbm.boundaries import Boundary, BounceBackWall, OutflowBoundary, PeriodicBoundary, validate_boundaries
from repro.core.lbm.lattice import E, OPPOSITE, Q, W
from repro.errors import ConfigurationError
from repro.parallel.barrier import InstrumentedBarrier
from repro.parallel.cubes import CubeGrid
from repro.parallel.distribution import CubeDistribution, FiberDistribution
from repro.parallel.executor import run_spmd
from repro.parallel.locks import OwnerLocks
from repro.parallel.thread_mesh import ThreadMesh

__all__ = ["CubeLBMIBSolver"]


def _streaming_plan(k: int):
    """Per-direction copy plan for cube streaming.

    For every direction, lists ``(src_slices, dst_slices, cube_offset)``
    triples decomposing the periodic shift into the within-cube part and
    the spills into neighbour cubes (up to 8 destination cubes for a
    diagonal direction).
    """
    plan = []
    for i in range(Q):
        combos = [((), (), ())]
        for axis in range(3):
            e = int(E[i, axis])
            options = []
            if e == 0:
                options.append((slice(0, k), slice(0, k), 0))
            elif e == 1:
                options.append((slice(0, k - 1), slice(1, k), 0))  # stay
                options.append((slice(k - 1, k), slice(0, 1), 1))  # spill
            else:  # e == -1
                options.append((slice(1, k), slice(0, k - 1), 0))  # stay
                options.append((slice(0, 1), slice(k - 1, k), -1))  # spill
            combos = [
                (src + (o[0],), dst + (o[1],), off + (o[2],))
                for (src, dst, off) in combos
                for o in options
            ]
        entries = []
        for src, dst, off in combos:
            if any(s.start >= s.stop for s in src):
                continue  # empty stay part (k == 1)
            entries.append((src, dst, off))
        plan.append(entries)
    return plan


class CubeLBMIBSolver:
    """Cube-based parallel LBM-IB solver with persistent SPMD threads.

    Parameters
    ----------
    cubes:
        Cube-blocked fluid state (build with
        :meth:`CubeGrid.from_fluid_grid` for an arbitrary initial
        condition).
    structure:
        Immersed structure, or ``None`` for fluid-only runs.
    num_threads:
        Thread count; laid out as a near-cubic ``P x Q x R`` mesh.
    cube_method / fiber_method:
        Distribution functions (``"block"``, ``"cyclic"``,
        ``"block_cyclic"``).
    boundaries:
        Face boundary conditions.  Bounce-back (fixed or moving wall)
        is supported for any cube size; outflow needs ``cube_size >= 2``
        (it reads the adjacent interior layer of the same cube).
    use_locks:
        Acquire owner locks around cross-cube writes (paper behaviour).
        May be disabled for the lock-overhead ablation study, with the
        numerics unaffected: streaming writes are element-disjoint, and
        force spreading, whose writes do overlap across threads, then
        takes one plain lock instead.

    Set ``tracer`` to a :class:`~repro.observe.tracer.Tracer` to record
    spans (``None``, the default, keeps no bookkeeping at all).
    """

    def __init__(
        self,
        cubes: CubeGrid,
        structure: ImmersedStructure | None,
        num_threads: int,
        cube_method: str = "block",
        fiber_method: str = "block",
        delta: DeltaKernel | None = None,
        boundaries: Sequence[Boundary] = (),
        dt: float = DT,
        use_locks: bool = True,
        external_force: tuple[float, float, float] | None = None,
        fault_hook=None,
        barrier_timeout: float | None = None,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be positive, got {num_threads}")
        self.cubes = cubes
        self.structure = structure
        self.num_threads = num_threads
        self.delta = delta if delta is not None else default_delta()
        self.boundaries = list(boundaries)
        validate_boundaries(self.boundaries)
        for b in self.boundaries:
            if isinstance(b, OutflowBoundary) and cubes.cube_size < 2:
                raise ConfigurationError(
                    "outflow boundaries need cube_size >= 2 in the cube solver"
                )
            if not isinstance(b, (PeriodicBoundary, BounceBackWall, OutflowBoundary)):
                raise ConfigurationError(
                    f"unsupported boundary type for the cube solver: {type(b).__name__}"
                )
        self.dt = dt
        self.use_locks = use_locks
        self.time_step = 0
        self.external_force = external_force
        self.fault_hook = fault_hook
        self.barrier_timeout = barrier_timeout
        if external_force is not None:
            f = np.asarray(external_force, dtype=DTYPE)
            cubes.force[...] = f[None, :, None, None, None]

        self.mesh = ThreadMesh.for_threads(num_threads)
        self.cube_dist = CubeDistribution(
            cubes.cube_counts, self.mesh, method=cube_method
        )
        self._owner_table = self.cube_dist.owner_table()
        self._owner_flat = self._owner_table.ravel()
        self._owned_cubes: list[np.ndarray] = [
            np.nonzero(self._owner_flat == tid)[0] for tid in range(num_threads)
        ]
        self._fiber_dist: list[FiberDistribution] = []
        if structure is not None:
            self._fiber_dist = [
                FiberDistribution(s.num_fibers, num_threads, method=fiber_method)
                for s in structure.sheets
            ]
        self.locks = OwnerLocks(num_threads)
        self._spread_lock = threading.Lock()
        self.barriers = {
            name: InstrumentedBarrier(num_threads, name, timeout=barrier_timeout)
            for name in ("after_stream", "after_update", "after_step")
        }
        #: Optional span tracer (repro.observe); None = telemetry off.
        #: When attached, every loop emits one kernel span per thread,
        #: every cube loop additionally emits per-cube spans (cat="cube")
        #: nested inside it, and every barrier crossing emits a wait span
        #: (cat="barrier").
        self.tracer = None
        self._plan = _streaming_plan(cubes.cube_size)
        k = cubes.cube_size
        self._k3 = k * k * k

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _cube_pass(self, kernel: str, tid: int, step: int, body) -> None:
        """Run ``body(c)`` over the thread's cubes.

        Traced, each cube records a ``cat="cube"`` span nested inside one
        kernel span for the whole pass.
        """
        cubes = self._owned_cubes[tid]
        tracer = self.tracer
        if tracer is None:
            for c in cubes:
                body(c)
            return
        begin = time.perf_counter()
        for c in cubes:
            start = time.perf_counter()
            body(c)
            tracer.record(
                kernel, tid, start, time.perf_counter() - start,
                step=step, cube=int(c), cat="cube",
            )
        tracer.record(kernel, tid, begin, time.perf_counter() - begin, step=step)

    def _fiber_pass(self, kernel: str, tid: int, step: int, body) -> None:
        """Run ``body(si, rows)`` over the thread's fibers of every sheet,
        traced as one kernel span."""
        tracer = self.tracer
        start = time.perf_counter() if tracer is not None else 0.0
        for si in range(len(self.structure.sheets)):
            body(si, self._fiber_rows(si, tid))
        if tracer is not None:
            tracer.record(kernel, tid, start, time.perf_counter() - start, step=step)

    def _wait(self, name: str, tid: int, step: int) -> None:
        """Cross the named barrier, tracing the wait when enabled."""
        tracer = self.tracer
        if tracer is None:
            self.barriers[name].wait()
            return
        start = time.perf_counter()
        self.barriers[name].wait()
        tracer.record(
            "barrier:" + name, tid, start, time.perf_counter() - start,
            step=step, cat="barrier",
        )

    def _fiber_rows(self, sheet_index: int, tid: int) -> np.ndarray:
        return self._fiber_dist[sheet_index].fibers_of(tid)

    def _locked(self, owner: int):
        if self.use_locks:
            return self.locks.owning(owner)
        import contextlib

        return contextlib.nullcontext()

    # ------------------------------------------------------------------
    # loop 1: fiber forces + spreading
    # ------------------------------------------------------------------
    def _fiber_forces_and_spread(self, si: int, rows: np.ndarray) -> None:
        """Kernels 1-4 for a subset of one sheet's fibers.

        Cross-cube force writes are grouped by owner and guarded by the
        owner locks.
        """
        structure = self.structure
        assert structure is not None
        cubes = self.cubes
        force_flat = cubes.force.reshape(cubes.num_cubes, 3, self._k3)
        sheet = structure.sheets[si]
        if rows.size == 0:
            return
        _forces.compute_bending_force(sheet, rows=rows)
        _forces.compute_stretching_force(sheet, rows=rows)
        _forces.compute_elastic_force(sheet, rows=rows)

        node_mask = np.zeros_like(sheet.active)
        node_mask[rows] = True
        node_mask &= sheet.active
        positions = sheet.positions[node_mask]
        values = sheet.elastic_force[node_mask] * sheet.area_element
        if positions.size == 0:
            return
        indices, weights = self.delta.stencil(positions, grid_shape=cubes.shape)
        flat_idx, flat_w = flatten_stencil(indices, weights, cubes.shape)
        cube_idx, local_idx = cubes.locate_flat(flat_idx.ravel())
        contrib = (flat_w[:, :, None] * values[:, None, :]).reshape(-1, 3)
        owners = self._owner_flat[cube_idx]
        order = np.argsort(owners, kind="stable")
        cube_idx = cube_idx[order]
        local_idx = local_idx[order]
        contrib = contrib[order]
        owners = owners[order]
        bounds = np.searchsorted(
            owners, np.arange(self.num_threads + 1), side="left"
        )
        for owner in range(self.num_threads):
            lo, hi = bounds[owner], bounds[owner + 1]
            if lo == hi:
                continue
            # a read-modify-write on nodes other threads spread into too
            with self._locked(owner) if self.use_locks else self._spread_lock:
                for comp in range(3):
                    np.add.at(
                        force_flat[:, comp, :],
                        (cube_idx[lo:hi], local_idx[lo:hi]),
                        contrib[lo:hi, comp],
                    )

    # ------------------------------------------------------------------
    # loop 2: collision + streaming per owned cube
    # ------------------------------------------------------------------
    def _collide_cube(self, c: int) -> None:
        """Kernel 5 on one cube (no neighbour access)."""
        cubes = self.cubes
        df = cubes.df[c]
        density = _macroscopic.compute_density(df)
        _collision.collide(
            df,
            density,
            cubes.velocity_shifted[c],
            cubes.tau,
            operator=cubes.collision_operator,
            magic_lambda=cubes.trt_magic,
        )

    def _stream_cube(self, c: int) -> None:
        """Kernel 6 on one cube: in-cube shifts plus neighbour spills.

        Every destination cube's owner lock is acquired around the
        write, per the paper's mutual-exclusion rule.
        """
        cubes = self.cubes
        coords = cubes.cube_coords(int(c))
        df = cubes.df[c]
        for i in range(Q):
            for src, dst, off in self._plan[i]:
                target = (
                    int(c) if off == (0, 0, 0) else cubes.neighbor_cube(coords, off)
                )
                owner = int(self._owner_flat[target])
                with self._locked(owner):
                    cubes.df_new[target][(i,) + dst] = df[(i,) + src]

    def stream_targets(self, c: int) -> set[int]:
        """Linear indices of every cube ``c``'s streaming writes touch."""
        cubes = self.cubes
        coords = cubes.cube_coords(int(c))
        targets = {int(c)}
        for i in range(Q):
            for _, _, off in self._plan[i]:
                if off != (0, 0, 0):
                    targets.add(cubes.neighbor_cube(coords, off))
        return targets

    # ------------------------------------------------------------------
    # loop 3: boundaries + velocity update per owned cube
    # ------------------------------------------------------------------
    def _apply_boundaries_cube(self, c: int, coords: tuple[int, int, int]) -> None:
        cubes = self.cubes
        k = cubes.cube_size
        ncounts = cubes.cube_counts
        for b in self.boundaries:
            if isinstance(b, PeriodicBoundary):
                continue
            face_cube = 0 if b.side == "low" else ncounts[b.axis] - 1
            if coords[b.axis] != face_cube:
                continue
            layer = 0 if b.side == "low" else k - 1
            idx: list = [slice(None)] * 3
            idx[b.axis] = layer
            idx_t = tuple(idx)
            if isinstance(b, BounceBackWall):
                u_w = np.asarray(b.wall_velocity, dtype=DTYPE)
                moving = bool(np.any(u_w != 0.0))
                for i in b.incoming_directions():
                    value = cubes.df[c][(int(OPPOSITE[i]),) + idx_t]
                    if moving:
                        value = value + 6.0 * W[i] * b.wall_density * float(E[i] @ u_w)
                    cubes.df_new[c][(int(i),) + idx_t] = value
            elif isinstance(b, OutflowBoundary):
                interior = list(idx)
                interior[b.axis] = 1 if b.side == "low" else k - 2
                interior_t = tuple(interior)
                for i in b.incoming_directions():
                    cubes.df_new[c][(int(i),) + idx_t] = cubes.df_new[c][
                        (int(i),) + interior_t
                    ]

    def _update_cube(self, c: int) -> None:
        """Boundary repair + kernel 7 on one cube."""
        cubes = self.cubes
        if self.boundaries:
            self._apply_boundaries_cube(int(c), cubes.cube_coords(int(c)))
        _coupling.shifted_velocities(
            cubes.df_new[c],
            cubes.force[c],
            cubes.tau_odd,
            out_velocity=cubes.velocity[c],
            out_velocity_shifted=cubes.velocity_shifted[c],
            out_density=cubes.density[c],
        )

    # ------------------------------------------------------------------
    # loop 4: move fibers
    # ------------------------------------------------------------------
    def _move_fiber_rows(self, si: int, rows: np.ndarray) -> None:
        """Kernel 8 for a subset of one sheet's fibers (cube-gathered)."""
        structure = self.structure
        assert structure is not None
        cubes = self.cubes
        vel_flat = cubes.velocity.reshape(cubes.num_cubes, 3, self._k3)
        sheet = structure.sheets[si]
        if rows.size == 0:
            return
        node_mask = np.zeros_like(sheet.active)
        node_mask[rows] = True
        node_mask &= sheet.active
        positions = sheet.positions[node_mask]
        if positions.size == 0:
            return
        indices, weights = self.delta.stencil(positions, grid_shape=cubes.shape)
        flat_idx, flat_w = flatten_stencil(indices, weights, cubes.shape)
        cube_idx, local_idx = cubes.locate_flat(flat_idx.ravel())
        n, s3 = flat_idx.shape
        gathered = vel_flat[cube_idx, :, local_idx].reshape(n, s3, 3)
        velocities = np.einsum("nsa,ns->na", gathered, flat_w)
        sheet.velocity[node_mask] = velocities
        sheet.positions[node_mask] += self.dt * velocities

    # ------------------------------------------------------------------
    # loop 5: copy buffers + reset force
    # ------------------------------------------------------------------
    def _copy_cube(self, c: int) -> None:
        """Kernel 9 + force reset on one cube."""
        cubes = self.cubes
        cubes.df[c] = cubes.df_new[c]
        if self.external_force is None:
            cubes.force[c] = 0.0
        else:
            cubes.force[c] = np.asarray(self.external_force, dtype=DTYPE)[
                :, None, None, None
            ]

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _thread_entry(self, tid: int, num_steps: int) -> None:
        try:
            for local_step in range(num_steps):
                step = self.time_step + local_step
                if self.fault_hook is not None:
                    self.fault_hook(tid, step)
                if self.structure is not None:
                    self._fiber_pass(
                        "fiber_forces_and_spread", tid, step,
                        self._fiber_forces_and_spread,
                    )
                self._cube_pass(
                    "compute_fluid_collision", tid, step, self._collide_cube
                )
                self._cube_pass(
                    "stream_fluid_velocity_distribution", tid, step,
                    self._stream_cube,
                )
                self._wait("after_stream", tid, step)
                self._cube_pass(
                    "update_fluid_velocity", tid, step, self._update_cube
                )
                self._wait("after_update", tid, step)
                if self.structure is not None:
                    self._fiber_pass(
                        "move_fibers", tid, step, self._move_fiber_rows
                    )
                self._cube_pass(
                    "copy_fluid_velocity_distribution", tid, step,
                    self._copy_cube,
                )
                self._wait("after_step", tid, step)
        except BaseException:
            # A dying worker must not strand its peers at the next
            # rendezvous: break every barrier so they fail fast with a
            # typed stall report instead of deadlocking.
            for barrier in self.barriers.values():
                barrier.abort()
            raise

    def run(self, num_steps: int) -> None:
        """Launch the SPMD team once and advance ``num_steps`` steps.

        Worker failures surface as :class:`~repro.errors.WorkerError`
        (root cause first, barrier-stall collateral suppressed); the
        per-step watchdog is the barrier deadline configured via
        ``barrier_timeout``.
        """
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        if num_steps == 0:
            return
        for barrier in self.barriers.values():
            if barrier.aborted:
                barrier.reset()
        run_spmd(self.num_threads, lambda tid: self._thread_entry(tid, num_steps))
        self.time_step += num_steps
