"""Distributed-memory LBM-IB solver over the simulated communicator.

Realizes the paper's future-work extension "from shared memory manycore
systems to extreme-scale distributed memory manycore systems":

* the fluid grid is block-decomposed along x — each rank owns a
  contiguous slab and *never* touches another rank's arrays;
* streaming exchanges exactly the boundary populations that cross rank
  borders: the five +x-moving populations of the last plane go right,
  the five -x-moving populations of the first plane go left (one
  message each way per step, per rank);
* the immersed structure is **replicated**: every rank holds the fiber
  state and computes the (cheap, paper Table I: <2.2%) fiber forces
  redundantly, spreads only into its own slab, interpolates partial
  fiber velocities from its slab, and an allreduce sums the partials —
  the delta support's partition of unity makes the sum exact;
* physical boundaries are applied by the ranks owning the faces.

Numerics are identical to the sequential solver (enforced by tests), so
the distributed extension slots into the same verification story as the
shared-memory programs.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DT, DTYPE
from repro.core import coupling as _coupling
from repro.core.ib import forces as _forces
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.ib.spreading import flatten_stencil
from repro.core.lbm import collision as _collision
from repro.core.lbm import macroscopic as _macroscopic
from repro.core.lbm.boundaries import Boundary, validate_boundaries
from repro.core.lbm.fields import FluidGrid
from repro.core.lbm.lattice import E, Q
from repro.core.step import Stage, run_stages
from repro.distributed.comm import RankComm, SimulatedComm
from repro.errors import ConfigurationError
from repro.parallel.executor import run_spmd
from repro.parallel.partition import static_slabs

__all__ = ["DistributedLBMIBSolver"]

#: Directions leaving a slab in +x / -x (five each in D3Q19).
_PLUS_X = [i for i in range(Q) if E[i, 0] == 1]
_MINUS_X = [i for i in range(Q) if E[i, 0] == -1]

_TAG_RIGHT = 0
_TAG_LEFT = 1


class DistributedLBMIBSolver:
    """Rank-decomposed LBM-IB with explicit message passing.

    Parameters
    ----------
    fluid:
        Global initial fluid state; scattered into rank slabs at
        construction (the global grid is not referenced afterwards).
    structure:
        Immersed structure (replicated per rank) or ``None``.
    num_ranks:
        Ranks in the simulated communicator; each needs at least one
        x-plane.
    boundaries / delta / dt / external_force:
        As in the shared-memory solvers.
    """

    def __init__(
        self,
        fluid: FluidGrid,
        structure: ImmersedStructure | None,
        num_ranks: int,
        delta: DeltaKernel | None = None,
        boundaries: list[Boundary] | None = None,
        dt: float = DT,
        external_force: tuple[float, float, float] | None = None,
    ) -> None:
        nx, ny, nz = fluid.shape
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be positive, got {num_ranks}")
        if num_ranks > nx:
            raise ConfigurationError(
                f"{num_ranks} ranks need at least {num_ranks} x-planes, grid has {nx}"
            )
        self.global_shape = fluid.shape
        self.num_ranks = num_ranks
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

        self.slabs = static_slabs(nx, num_ranks)
        self._grids: list[FluidGrid] = []
        for slab in self.slabs:
            local = FluidGrid(
                (slab.size, ny, nz),
                tau=fluid.tau,
                collision_operator=fluid.collision_operator,
                trt_magic=fluid.trt_magic,
            )
            sl = slice(slab.start, slab.stop)
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
            self._grids.append(local)
        self._structures: list[ImmersedStructure | None] = [
            structure.copy() if structure is not None else None
            for _ in range(num_ranks)
        ]

    # ------------------------------------------------------------------
    # per-rank kernels
    # ------------------------------------------------------------------
    def _spread_local(self, rank: int) -> None:
        """Kernels 1-4: full fiber forces, spreading clipped to the slab."""
        structure = self._structures[rank]
        assert structure is not None
        grid = self._grids[rank]
        slab = self.slabs[rank]
        ny, nz = self.global_shape[1], self.global_shape[2]
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
            mine = (gx >= slab.start) & (gx < slab.stop)
            local_flat = flat_idx - slab.start * ny * nz
            contrib = flat_w[:, :, None] * values[:, None, :]
            sel = mine.ravel()
            lf = local_flat.ravel()[sel]
            cv = contrib.reshape(-1, 3)[sel]
            for comp in range(3):
                np.add.at(grid.force[comp].reshape(-1), lf, cv[:, comp])

    def _collide_local(self, rank: int) -> None:
        grid = self._grids[rank]
        density = _macroscopic.compute_density(grid.df)
        _collision.collide(
            grid.df,
            density,
            grid.velocity_shifted,
            grid.tau,
            operator=grid.collision_operator,
            magic_lambda=grid.trt_magic,
        )

    def _stream_exchange(self, rank: int, rc: RankComm, step: int) -> None:
        """Kernel 6 with halo exchange of the rank-crossing populations,
        then the physical boundaries of the faces this rank owns."""
        grid = self._grids[rank]
        ny, nz = grid.shape[1], grid.shape[2]
        right = (rank + 1) % self.num_ranks
        left = (rank - 1) % self.num_ranks

        out_right = np.empty((len(_PLUS_X), ny, nz), dtype=DTYPE)
        out_left = np.empty((len(_MINUS_X), ny, nz), dtype=DTYPE)

        for i in range(Q):
            ex, ey, ez = (int(c) for c in E[i])
            if ex == 0:
                grid.df_new[i] = np.roll(grid.df[i], shift=(ey, ez), axis=(1, 2))
            elif ex == 1:
                shifted_last = np.roll(grid.df[i, -1], shift=(ey, ez), axis=(0, 1))
                out_right[_PLUS_X.index(i)] = shifted_last
                if grid.shape[0] > 1:
                    grid.df_new[i, 1:] = np.roll(
                        grid.df[i, :-1], shift=(ey, ez), axis=(1, 2)
                    )
            else:
                shifted_first = np.roll(grid.df[i, 0], shift=(ey, ez), axis=(0, 1))
                out_left[_MINUS_X.index(i)] = shifted_first
                if grid.shape[0] > 1:
                    grid.df_new[i, :-1] = np.roll(
                        grid.df[i, 1:], shift=(ey, ez), axis=(1, 2)
                    )

        # one message each way per step; tags separate steps and sides
        tag_r = (step << 1) | _TAG_RIGHT
        tag_l = (step << 1) | _TAG_LEFT
        rc.send(right, tag_r, out_right)
        rc.send(left, tag_l, out_left)
        in_left = rc.recv(left, tag_r)  # what my left neighbour pushed right
        in_right = rc.recv(right, tag_l)  # what my right neighbour pushed left
        for slot, i in enumerate(_PLUS_X):
            grid.df_new[i, 0] = in_left[slot]
        for slot, i in enumerate(_MINUS_X):
            grid.df_new[i, -1] = in_right[slot]
        self._apply_boundaries_local(rank)

    def _apply_boundaries_local(self, rank: int) -> None:
        grid = self._grids[rank]
        for b in self.boundaries:
            if b.axis == 0:
                owner = 0 if b.side == "low" else self.num_ranks - 1
                if rank != owner:
                    continue
            b.apply(grid.df, grid.df_new)

    def _update_local(self, rank: int) -> None:
        grid = self._grids[rank]
        _coupling.update_velocity_fields(grid)

    def _move_fibers_allreduce(self, rank: int, rc: RankComm) -> None:
        """Kernel 8: partial interpolation per rank + allreduce sum."""
        structure = self._structures[rank]
        assert structure is not None
        grid = self._grids[rank]
        slab = self.slabs[rank]
        ny, nz = self.global_shape[1], self.global_shape[2]
        for sheet in structure.sheets:
            positions = sheet.positions[sheet.active]
            if positions.size == 0:
                continue
            indices, weights = self.delta.stencil(
                positions, grid_shape=self.global_shape
            )
            flat_idx, flat_w = flatten_stencil(indices, weights, self.global_shape)
            gx = flat_idx // (ny * nz)
            mine = (gx >= slab.start) & (gx < slab.stop)
            w_local = np.where(mine, flat_w, 0.0)
            local_flat = np.where(mine, flat_idx - slab.start * ny * nz, 0)
            partial = np.empty((positions.shape[0], 3), dtype=DTYPE)
            for comp in range(3):
                gathered = grid.velocity[comp].reshape(-1)[local_flat]
                partial[:, comp] = np.einsum("ns,ns->n", gathered, w_local)
            total = rc.allreduce_sum(partial)
            sheet.velocity[sheet.active] = total
            sheet.positions[sheet.active] += self.dt * total

    def _copy_local(self, rank: int) -> None:
        grid = self._grids[rank]
        np.copyto(grid.df, grid.df_new)
        if self.external_force is None:
            grid.force[...] = 0.0
        else:
            grid.force[...] = np.asarray(self.external_force, dtype=DTYPE)[
                :, None, None, None
            ]

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _rank_stages(self, rank: int) -> tuple[Stage, ...]:
        """The rank's phase table; every stage takes the time step."""
        rc = self.comm.rank_comm(rank)
        ib = self._structures[rank] is not None
        spread = ("fiber_forces_and_spread", lambda step: self._spread_local(rank))
        move = ("move_fibers", lambda step: self._move_fibers_allreduce(rank, rc))
        return (
            *([spread] if ib else []),
            ("compute_fluid_collision", lambda step: self._collide_local(rank)),
            (
                "stream_and_halo_exchange",
                lambda step: self._stream_exchange(rank, rc, step),
            ),
            ("update_fluid_velocity", lambda step: self._update_local(rank)),
            *([move] if ib else []),
            ("copy_fluid_velocity_distribution", lambda step: self._copy_local(rank)),
        )

    def _rank_loop(self, rank: int, num_steps: int) -> None:
        stages = self._rank_stages(rank)
        tracer = self.tracer
        for step in range(self.time_step, self.time_step + num_steps):
            run_stages(stages, tracer, rank, step, "phase", step)

    def run(self, num_steps: int) -> None:
        """Advance ``num_steps`` steps across all ranks."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        if num_steps == 0:
            return
        run_spmd(self.num_ranks, lambda rank: self._rank_loop(rank, num_steps))
        self.time_step += num_steps

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def structure(self) -> ImmersedStructure | None:
        """Rank 0's structure replica (all replicas stay identical)."""
        return self._structures[0]

    def structures_consistent(self, rtol: float = 0.0, atol: float = 0.0) -> bool:
        """True if every rank's structure replica matches rank 0's."""
        ref = self._structures[0]
        if ref is None:
            return all(s is None for s in self._structures)
        return all(
            s is not None and ref.state_allclose(s, rtol=rtol, atol=atol)
            for s in self._structures[1:]
        )

    def gather_fluid(self) -> FluidGrid:
        """Reassemble the global fluid state from the rank slabs."""
        template = self._grids[0]
        fluid = FluidGrid(
            self.global_shape,
            tau=template.tau,
            collision_operator=template.collision_operator,
            trt_magic=template.trt_magic,
        )
        for slab, local in zip(self.slabs, self._grids):
            sl = slice(slab.start, slab.stop)
            fluid.df[:, sl] = local.df
            fluid.df_new[:, sl] = local.df_new
            fluid.density[sl] = local.density
            fluid.velocity[:, sl] = local.velocity
            fluid.velocity_shifted[:, sl] = local.velocity_shifted
            fluid.force[:, sl] = local.force
        return fluid
