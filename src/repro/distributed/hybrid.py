"""Hybrid distributed + cube solver.

The paper's future work asks to "extend the *cube-based implementation*
from shared memory manycore systems to extreme-scale distributed memory
manycore systems" — i.e. keep the cube-centric data layout on every
node and add message passing between nodes.  This solver does exactly
that:

* each rank owns an x-slab stored as a rank-local
  :class:`~repro.parallel.cubes.CubeGrid` (the slab thickness must be a
  multiple of the cube size);
* within a rank, every step runs the cube-centric kernels of
  Algorithm 4 (fused collide+stream per cube, per-cube velocity update
  and buffer copy), reusing :class:`CubeLBMIBSolver`'s per-cube
  operations directly;
* the within-rank streaming wraps periodically, which deposits *wrong*
  values exactly on the slab's two x-boundary planes — those planes are
  then overwritten by the halo planes received from the neighbouring
  ranks, the same exchange pattern as the flat distributed solver;
* the immersed structure is replicated per rank; forces spread into the
  local cubes only, and partial fiber velocities are summed with an
  allreduce.

Numerics are identical to the sequential program (tested), completing
the chain sequential -> OpenMP -> cube -> async-cube -> distributed ->
distributed-cube.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import DT, DTYPE
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.ib import forces as _forces
from repro.core.ib.spreading import flatten_stencil
from repro.core.lbm.boundaries import Boundary, validate_boundaries
from repro.core.lbm.fields import FluidGrid
from repro.core.lbm.lattice import E, Q
from repro.core.step import Stage, run_stages
from repro.distributed.comm import RankComm, SimulatedComm
from repro.errors import ConfigurationError, PartitionError
from repro.parallel.cube_solver import CubeLBMIBSolver
from repro.parallel.cubes import CubeGrid
from repro.parallel.executor import run_spmd

__all__ = ["HybridCubeLBMIBSolver"]

_PLUS_X = [i for i in range(Q) if E[i, 0] == 1]
_MINUS_X = [i for i in range(Q) if E[i, 0] == -1]
_TAG_RIGHT = 0
_TAG_LEFT = 1


class HybridCubeLBMIBSolver:
    """Cube-layout ranks with halo exchange (distributed Algorithm 4).

    Parameters
    ----------
    fluid:
        Global initial state, scattered into rank-local cube grids.
    structure:
        Immersed structure (replicated per rank) or ``None``.
    num_ranks:
        Ranks; the x extent must split into ``num_ranks`` slabs whose
        thicknesses are multiples of ``cube_size``.
    cube_size:
        Cube edge ``k`` of every rank's local cube grid.
    """

    def __init__(
        self,
        fluid: FluidGrid,
        structure: ImmersedStructure | None,
        num_ranks: int,
        cube_size: int = 4,
        delta: DeltaKernel | None = None,
        boundaries: list[Boundary] | None = None,
        dt: float = DT,
        external_force: tuple[float, float, float] | None = None,
    ) -> None:
        nx, ny, nz = fluid.shape
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be positive, got {num_ranks}")
        if ny % cube_size or nz % cube_size:
            raise PartitionError(
                f"grid {fluid.shape} y/z extents not divisible by cube size {cube_size}"
            )
        cubes_x = nx // cube_size
        if nx % cube_size or cubes_x < num_ranks:
            raise PartitionError(
                f"cannot split {nx} x-planes into {num_ranks} rank slabs of "
                f"whole {cube_size}-cubes"
            )
        self.global_shape = fluid.shape
        self.num_ranks = num_ranks
        self.cube_size = cube_size
        self.delta = delta if delta is not None else default_delta()
        self.boundaries = list(boundaries or [])
        validate_boundaries(self.boundaries)
        self.dt = dt
        self.external_force = external_force
        self.time_step = 0
        self.comm = SimulatedComm(num_ranks)
        # Optional observe.Tracer; one span per phase per rank per step
        # (tid = rank).  None keeps the rank loop overhead-free.
        self.tracer = None

        # distribute whole cubes: rank slab thickness = cubes * k
        base, rem = divmod(cubes_x, num_ranks)
        self.slab_starts: list[int] = []
        self.slab_sizes: list[int] = []
        start = 0
        for r in range(num_ranks):
            size = (base + (1 if r < rem else 0)) * cube_size
            self.slab_starts.append(start)
            self.slab_sizes.append(size)
            start += size

        self._engines: list[CubeLBMIBSolver] = []
        self._structures: list[ImmersedStructure | None] = []
        for r in range(num_ranks):
            x0, size = self.slab_starts[r], self.slab_sizes[r]
            local = FluidGrid(
                (size, ny, nz),
                tau=fluid.tau,
                collision_operator=fluid.collision_operator,
                trt_magic=fluid.trt_magic,
            )
            sl = slice(x0, x0 + size)
            local.df[...] = fluid.df[:, sl]
            local.df_new[...] = fluid.df_new[:, sl]
            local.density[...] = fluid.density[sl]
            local.velocity[...] = fluid.velocity[:, sl]
            local.velocity_shifted[...] = fluid.velocity_shifted[:, sl]
            local.force[...] = fluid.force[:, sl]
            if external_force is not None:
                local.force[...] = np.asarray(external_force, dtype=DTYPE)[
                    :, None, None, None
                ]
            cube_grid = CubeGrid.from_fluid_grid(local, cube_size)
            rank_boundaries = [
                b
                for b in self.boundaries
                if b.axis != 0
                or (b.side == "low" and r == 0)
                or (b.side == "high" and r == num_ranks - 1)
            ]
            engine = CubeLBMIBSolver(
                cube_grid,
                None,  # fibers handled at the hybrid level (replication)
                num_threads=1,
                boundaries=rank_boundaries,
                delta=self.delta,
                dt=dt,
                use_locks=False,  # single thread per rank
                external_force=external_force,
            )
            self._engines.append(engine)
            self._structures.append(
                structure.copy() if structure is not None else None
            )

    # ------------------------------------------------------------------
    # plane gather/scatter against cube storage
    # ------------------------------------------------------------------
    def _plane_record_indices(self, rank: int, local_x: int):
        """(cube, local) indices of one local x-plane, in (y, z) order."""
        engine = self._engines[rank]
        cubes = engine.cubes
        ny, nz = self.global_shape[1], self.global_shape[2]
        y, z = np.meshgrid(np.arange(ny), np.arange(nz), indexing="ij")
        flat = (local_x * ny + y.ravel()) * nz + z.ravel()
        return cubes.locate_flat(flat)

    def _gather_df_plane(self, rank: int, local_x: int, directions) -> np.ndarray:
        """Post-collision ``df`` values of ``directions`` on one plane."""
        engine = self._engines[rank]
        cubes = engine.cubes
        k3 = self.cube_size**3
        cube_idx, local_idx = self._plane_record_indices(rank, local_x)
        ny, nz = self.global_shape[1], self.global_shape[2]
        df_flat = cubes.df.reshape(cubes.num_cubes, Q, k3)
        out = np.empty((len(directions), ny, nz), dtype=DTYPE)
        for slot, i in enumerate(directions):
            out[slot] = df_flat[cube_idx, i, local_idx].reshape(ny, nz)
        return out

    def _scatter_df_new_plane(
        self, rank: int, local_x: int, directions, values: np.ndarray
    ) -> None:
        """Overwrite ``df_new`` of ``directions`` on one local plane."""
        engine = self._engines[rank]
        cubes = engine.cubes
        k3 = self.cube_size**3
        cube_idx, local_idx = self._plane_record_indices(rank, local_x)
        df_new_flat = cubes.df_new.reshape(cubes.num_cubes, Q, k3)
        for slot, i in enumerate(directions):
            df_new_flat[cube_idx, i, local_idx] = values[slot].ravel()

    # ------------------------------------------------------------------
    # fiber handling (replicated, slab-clipped) — mirrors the flat solver
    # ------------------------------------------------------------------
    def _spread_local(self, rank: int) -> None:
        structure = self._structures[rank]
        assert structure is not None
        engine = self._engines[rank]
        cubes = engine.cubes
        k3 = self.cube_size**3
        x0 = self.slab_starts[rank]
        size = self.slab_sizes[rank]
        ny, nz = self.global_shape[1], self.global_shape[2]
        force_flat = cubes.force.reshape(cubes.num_cubes, 3, k3)
        for sheet in structure.sheets:
            _forces.compute_bending_force(sheet)
            _forces.compute_stretching_force(sheet)
            _forces.compute_elastic_force(sheet)
            positions = sheet.positions[sheet.active]
            values = sheet.elastic_force[sheet.active] * sheet.area_element
            if positions.size == 0:
                continue
            indices, weights = self.delta.stencil(
                positions, grid_shape=self.global_shape
            )
            flat_idx, flat_w = flatten_stencil(indices, weights, self.global_shape)
            gx = flat_idx // (ny * nz)
            mine = ((gx >= x0) & (gx < x0 + size)).ravel()
            local_flat = (flat_idx - x0 * ny * nz).ravel()[mine]
            contrib = (flat_w[:, :, None] * values[:, None, :]).reshape(-1, 3)[mine]
            cube_idx, local_idx = cubes.locate_flat(local_flat)
            for comp in range(3):
                np.add.at(
                    force_flat[:, comp, :],
                    (cube_idx, local_idx),
                    contrib[:, comp],
                )

    def _move_fibers_allreduce(self, rank: int, rc: RankComm) -> None:
        structure = self._structures[rank]
        assert structure is not None
        engine = self._engines[rank]
        cubes = engine.cubes
        k3 = self.cube_size**3
        x0 = self.slab_starts[rank]
        size = self.slab_sizes[rank]
        ny, nz = self.global_shape[1], self.global_shape[2]
        vel_flat = cubes.velocity.reshape(cubes.num_cubes, 3, k3)
        for sheet in structure.sheets:
            positions = sheet.positions[sheet.active]
            if positions.size == 0:
                continue
            indices, weights = self.delta.stencil(
                positions, grid_shape=self.global_shape
            )
            flat_idx, flat_w = flatten_stencil(indices, weights, self.global_shape)
            gx = flat_idx // (ny * nz)
            mine = (gx >= x0) & (gx < x0 + size)
            w_local = np.where(mine, flat_w, 0.0)
            local_flat = np.where(mine, flat_idx - x0 * ny * nz, 0)
            cube_idx, local_idx = cubes.locate_flat(local_flat.ravel())
            n, s3 = flat_idx.shape
            partial = np.empty((n, 3), dtype=DTYPE)
            for comp in range(3):
                gathered = vel_flat[cube_idx, comp, local_idx].reshape(n, s3)
                partial[:, comp] = np.einsum("ns,ns->n", gathered, w_local)
            total = rc.allreduce_sum(partial)
            sheet.velocity[sheet.active] = total
            sheet.positions[sheet.active] += self.dt * total

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _halo_exchange(self, rank: int, rc: RankComm, step: int) -> None:
        """Exchange the y/z-rolled boundary populations of ``df``."""
        right = (rank + 1) % self.num_ranks
        left = (rank - 1) % self.num_ranks
        last = self.slab_sizes[rank] - 1
        out_right = self._gather_df_plane(rank, last, _PLUS_X)
        out_left = self._gather_df_plane(rank, 0, _MINUS_X)
        for slot, i in enumerate(_PLUS_X):
            ey, ez = int(E[i, 1]), int(E[i, 2])
            out_right[slot] = np.roll(out_right[slot], (ey, ez), (0, 1))
        for slot, i in enumerate(_MINUS_X):
            ey, ez = int(E[i, 1]), int(E[i, 2])
            out_left[slot] = np.roll(out_left[slot], (ey, ez), (0, 1))
        tag_r = (step << 1) | _TAG_RIGHT
        tag_l = (step << 1) | _TAG_LEFT
        rc.send(right, tag_r, out_right)
        rc.send(left, tag_l, out_left)
        self._scatter_df_new_plane(rank, 0, _PLUS_X, rc.recv(left, tag_r))
        self._scatter_df_new_plane(rank, last, _MINUS_X, rc.recv(right, tag_l))

    def _rank_stages(self, rank: int) -> tuple[Stage, ...]:
        """The rank's phase table; every stage takes the time step."""
        rc = self.comm.rank_comm(rank)
        engine = self._engines[rank]
        num_cubes = engine.cubes.num_cubes

        def all_cubes(op) -> Callable[[int], None]:
            def run(step: int) -> None:
                for c in range(num_cubes):
                    op(c)

            return run

        ib = self._structures[rank] is not None
        spread = ("fiber_forces_and_spread", lambda step: self._spread_local(rank))
        move = ("move_fibers", lambda step: self._move_fibers_allreduce(rank, rc))
        return (
            *([spread] if ib else []),
            # loop 2 (cube-centric): collide + stream, all own cubes
            ("compute_fluid_collision", all_cubes(engine._collide_cube)),
            ("stream_fluid_velocity_distribution", all_cubes(engine._stream_cube)),
            # halo exchange: y/z-rolled boundary populations of df
            ("halo_exchange", lambda step: self._halo_exchange(rank, rc, step)),
            # loop 3: boundaries + velocity update per cube
            ("update_fluid_velocity", all_cubes(engine._update_cube)),
            # loops 4 + 5
            *([move] if ib else []),
            ("copy_fluid_velocity_distribution", all_cubes(engine._copy_cube)),
        )

    def _rank_loop(self, rank: int, num_steps: int) -> None:
        stages = self._rank_stages(rank)
        tracer = self.tracer
        for step in range(self.time_step, self.time_step + num_steps):
            run_stages(stages, tracer, rank, step, "phase", step)

    def run(self, num_steps: int) -> None:
        """Advance ``num_steps`` steps across all cube-layout ranks."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        if num_steps == 0:
            return
        run_spmd(self.num_ranks, lambda rank: self._rank_loop(rank, num_steps))
        self.time_step += num_steps

    # ------------------------------------------------------------------
    @property
    def structure(self) -> ImmersedStructure | None:
        """Rank 0's structure replica."""
        return self._structures[0]

    def gather_fluid(self) -> FluidGrid:
        """Reassemble the global fluid state from the rank cube grids."""
        template = self._engines[0].cubes
        fluid = FluidGrid(
            self.global_shape,
            tau=template.tau,
            collision_operator=template.collision_operator,
            trt_magic=template.trt_magic,
        )
        for r, engine in enumerate(self._engines):
            local = engine.cubes.to_fluid_grid()
            sl = slice(self.slab_starts[r], self.slab_starts[r] + self.slab_sizes[r])
            fluid.df[:, sl] = local.df
            fluid.df_new[:, sl] = local.df_new
            fluid.density[sl] = local.density
            fluid.velocity[:, sl] = local.velocity
            fluid.velocity_shifted[:, sl] = local.velocity_shifted
            fluid.force[:, sl] = local.force
        return fluid
