"""Batched LBM-IB solver: B simulations per kernel call, per-sim IB.

:class:`BatchedLBMIBSolver` advances every slot of a
:class:`~repro.batch.fields.BatchedFluidGrid` through the same
nine-kernel time step as the fused solver, with the fluid half batched
(one numpy call per operation for all B slots) and the IB half applied
per slot (each slot owns its own immersed structure — fiber counts and
positions differ between simulations, so there is nothing to batch).

Step structure (identical physics to
:class:`~repro.core.fused_solver.FusedLBMIBSolver`, slot by slot):

1. kernels 1-3 per slot with a structure (fiber forces);
2. kernel 4 per slot (force spread, sharing one delta-stencil
   evaluation per sheet with this step's interpolation);
3. kernels 5+6 batched (:func:`~repro.batch.kernels.batched_collide_stream`),
   with boundary face capture widened to ``(B, ...)`` buffers and the
   boundary repair applied per slot;
4. kernel 7 batched (:func:`~repro.batch.kernels.batched_update_velocity_fields`);
5. kernel 8 per slot (move fibers);
6. kernel 9 as a batched pointer swap.

Because every batched operation is bit-identical to its solo
counterpart and the per-slot operations *are* the solo kernels, each
slot's trajectory is bit-identical to running that simulation alone —
slots never exchange information (streaming is per-slot periodic, so
even a NaN cannot cross the batch axis).

Slots carry their own step counters and an ``active`` mask so the
continuous-batching scheduler can retire a finished or diverged slot
and refill it mid-run (:meth:`load_slot` / :meth:`clear_slot`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.guard import SlotGuard
    from repro.observe.tracer import Tracer

from repro.constants import DT
from repro.core import kernels
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.boundaries import Boundary, validate_boundaries
from repro.core.lbm.fields import FluidGrid
from repro.core.step import StencilCoupling, StepDriver, capture_plan, run_stages
from repro.batch.fields import BatchedFluidGrid
from repro.batch.kernels import (
    batched_collide_stream,
    batched_update_velocity_fields,
)

__all__ = ["BatchedLBMIBSolver"]


class BatchedLBMIBSolver(StepDriver):
    """Run B independent LBM-IB simulations through batched kernels.

    Parameters
    ----------
    grid:
        The batched fluid state (``grid.batch`` slots).
    structures:
        Per-slot immersed structure (``None`` for fluid-only slots);
        padded with ``None`` when shorter than the batch.
    delta / boundaries / dt / external_force:
        Shared physics, identical for every slot (the scheduler only
        groups compatible configs into one batch).
    fault_hook / tracer:
        Same observability/fault surface as the solo solvers; the fault
        hook is called once per batched step with thread id 0.
    guard:
        Optional :class:`~repro.batch.guard.SlotGuard`.  When attached,
        every :meth:`load_slot` binds fresh per-slot health checkers,
        every :meth:`clear_slot` releases them, and the end of every
        :meth:`step` runs the guard's inspection — a failing slot is
        ejected from the shared arrays without perturbing its siblings
        (see :mod:`repro.batch.guard`).
    """

    def __init__(
        self,
        grid: BatchedFluidGrid,
        structures: Sequence[ImmersedStructure | None] = (),
        delta: DeltaKernel | None = None,
        boundaries: Sequence[Boundary] = (),
        dt: float = DT,
        external_force: tuple[float, float, float] | None = None,
        fault_hook: Callable[[int, int], None] | None = None,
        tracer: "Tracer | None" = None,
        guard: "SlotGuard | None" = None,
    ) -> None:
        self.grid = grid
        self.guard = guard
        self.delta = delta if delta is not None else default_delta()
        self.boundaries = list(boundaries)
        validate_boundaries(self.boundaries)
        self.dt = dt
        self.external_force = external_force
        self.fault_hook = fault_hook
        self.tracer = tracer
        self.time_step = 0

        b = grid.batch
        self.structures: list[ImmersedStructure | None] = list(structures)
        if len(self.structures) > b:
            raise ValueError(
                f"{len(self.structures)} structures for a batch of {b} slots"
            )
        self.structures += [None] * (b - len(self.structures))
        #: Per-slot completed-step counters (continuous batching: slots
        #: admitted mid-run start counting from their admission).
        self.slot_steps = [0] * b
        #: Slots currently carrying a live simulation.
        self.active = [True] * b

        self._bind_force(grid, external_force)
        capture, faces = capture_plan(self.boundaries, grid.df, batch=b)
        coupling = StencilCoupling(self.delta, self.dt)
        # Kernels 1-4 and 8 per slot (over the structures list, which
        # load/clear_slot mutate in place), kernels 5-7 and 9 batched; the
        # IB stages run only while some slot carries a structure.
        lattice = (
            ("batched_collide_stream", partial(_collide_stream, grid, capture, faces)),
            ("update_fluid_velocity", partial(batched_update_velocity_fields, grid)),
        )
        swap = (("swap_distributions", grid.swap_distributions),)
        self._fluid_only = lattice + swap
        self._with_ib = (
            ("compute_fiber_forces", partial(_fiber_forces, self.structures)),
            (
                "spread_force_from_fibers_to_fluid",
                partial(_spread_forces, coupling, self.structures, grid),
            ),
            *lattice,
            ("move_fibers", partial(_move_fibers, coupling, self.structures, grid)),
            *swap,
        )

    # ------------------------------------------------------------------
    # slot management (continuous batching)
    # ------------------------------------------------------------------
    def load_slot(
        self,
        slot: int,
        fluid: FluidGrid,
        structure: ImmersedStructure | None = None,
        job_id: str | None = None,
    ) -> None:
        """Admit a simulation into ``slot`` (initial fill or refill).

        Copies the fluid state in, adopts ``structure`` (mutated in
        place as the slot advances), resets the slot's step counter and
        marks it active.  The external body force is re-seeded exactly
        as the solo solvers do at construction, so a freshly admitted
        slot's first step matches its solo run's first step.  With a
        :class:`~repro.batch.guard.SlotGuard` attached, fresh per-slot
        health checkers are bound to the newly admitted state
        (``job_id`` ties repeat offences together across retries).
        """
        self.grid.load_slot(slot, fluid)
        if self._ext is not None:
            self.grid.force[slot][...] = self._ext
        self.structures[slot] = structure
        self.slot_steps[slot] = 0
        self.active[slot] = True
        if self.guard is not None:
            self.guard.bind_slot(self, slot, job_id=job_id)

    def clear_slot(self, slot: int) -> None:
        """Retire ``slot``: drop its structure, park it at equilibrium.

        The parked state keeps the batched sweep numerically benign (a
        diverged slot's NaNs would otherwise churn through every
        subsequent step's arithmetic of that slot).
        """
        self.structures[slot] = None
        self.active[slot] = False
        self.slot_steps[slot] = 0
        self.grid.reset_slot(slot)
        if self.guard is not None:
            self.guard.release_slot(slot)

    def slot_finite(self, slot: int) -> bool:
        """Divergence probe for the scheduler (see ``BatchedFluidGrid``)."""
        return self.grid.slot_finite(slot)

    @property
    def occupancy(self) -> int:
        """Number of slots currently carrying a live simulation."""
        return sum(self.active)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _stages(self):
        has_ib = any(s is not None for s in self.structures)
        return self._with_ib if has_ib else self._fluid_only

    def _after_step(self) -> None:
        for slot in range(self.grid.batch):
            if self.active[slot]:
                self.slot_steps[slot] += 1
        if self.guard is not None:
            run_stages(
                _GUARD_STAGE, self.tracer, 0, self.time_step, "kernel", self
            )

    def _snapshot_source(self):
        """Slot 0 (solo-solver interface parity)."""
        return self.grid.view(0), self.structures[0]


def _members(structures, field):
    """``(structure, slot's slice of field)`` for every slot with one."""
    for slot, structure in enumerate(structures):
        if structure is not None:
            yield structure, field[slot]


def _fiber_forces(structures) -> None:
    for structure in structures:
        if structure is None:
            continue
        kernels.compute_bending_force_in_fibers(structure)
        kernels.compute_stretching_force_in_fibers(structure)
        kernels.compute_elastic_force_in_fibers(structure)


def _spread_forces(coupling, structures, grid) -> None:
    coupling.spread(_members(structures, grid.force))


def _move_fibers(coupling, structures, grid) -> None:
    coupling.move(_members(structures, grid.velocity))


def _collide_stream(grid, capture, faces) -> None:
    batched_collide_stream(grid, capture=capture)
    df_new = grid.df_new
    for boundary, slot_faces in faces:
        for slot in range(grid.batch):
            boundary.apply_fused(slot_faces[slot], df_new[slot])


def _inspect_slots(solver) -> None:
    solver.guard.inspect(solver)


_GUARD_STAGE = (("slot_guard", _inspect_slots),)
