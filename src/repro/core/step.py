"""One step driver for the single-core solvers (paper Algorithm 1).

Every single-core variant runs the same nine-kernel time step; they
differ only in the lattice stage (two-lattice stream plus copy, fused
collide+stream plus pointer swap, AA even/odd phases, or a leading batch
axis).  A variant therefore supplies only an ordered table of
``(span name, callable)`` stages, built once at construction;
:class:`StepDriver` owns the rest of a step, each exactly once:

* the fault hook at the top of the step;
* the stage loop and its single instrumentation site — a bare call
  untraced, one :meth:`~repro.observe.tracer.Tracer.record` per stage
  traced;
* the force reset (or external-force re-seed) after the step;
* the ``time_step`` increment;
* :meth:`~StepDriver.run` and :meth:`~StepDriver.snapshot`.

:class:`SoloSolver` adds the constructor surface of the one-simulation
variants and their ``check_stability_every`` check.
:func:`capture_plan` and :class:`StencilCoupling` are the lattice- and
IB-side pieces the fused, in-place and batched variants share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import Tracer

from repro.constants import DT
from repro.core import kernels
from repro.core.ib import motion as _motion
from repro.core.ib import spreading as _spreading
from repro.core.ib.delta import DeltaKernel, default_delta
from repro.core.ib.fiber import ImmersedStructure
from repro.core.lbm.boundaries import Boundary, face_index, validate_boundaries
from repro.core.lbm.fields import FluidGrid
from repro.errors import StabilityError

__all__ = [
    "SoloSolver",
    "Stage",
    "StencilCoupling",
    "StepDriver",
    "StepObserver",
    "capture_plan",
    "kernel_stage",
]

#: One named stage of a time step: ``(span name, callable)``; a variant's
#: table holds zero-argument callables.
Stage = tuple[str, Callable[[], None]]
#: Signature of a per-step observer: ``observer(step_index, solver)``.
StepObserver = Callable[[int, "StepDriver"], None]


def kernel_stage(kernel: Callable[..., None], *args, **kwargs) -> Stage:
    """A :mod:`repro.core.kernels` call as a stage named after the kernel."""
    return kernel.__name__, partial(kernel, *args, **kwargs)


class StepDriver:
    """Run a variant's stage table; own the per-step bookkeeping.

    A subclass provides the attributes ``tracer``, ``fault_hook`` and
    ``time_step``, calls :meth:`_bind_force` at construction, and
    implements :meth:`_stages` and :meth:`_snapshot_source`.  Stage
    callables hold the solver's parts (grid, structure, buffers), never
    the solver itself: a stored reference cycle would keep a finished
    solver's grids alive until the garbage collector runs.
    """

    def _bind_force(self, fields, external_force) -> None:
        """Bind the grid whose ``force`` every step resets; seed it with
        the constant external body force, if any."""
        self._fields = fields
        self._ext: np.ndarray | None = None
        if external_force is not None:
            self._ext = np.asarray(external_force, dtype=fields.force.dtype)
            self._ext = self._ext.reshape(3, 1, 1, 1)
            fields.force[...] = self._ext

    def _stages(self) -> tuple[Stage, ...]:
        """The prebuilt stage table this step runs."""
        raise NotImplementedError

    def _snapshot_source(self) -> tuple[FluidGrid, ImmersedStructure | None]:
        """The fluid and structure :meth:`snapshot` copies."""
        raise NotImplementedError

    def _after_step(self) -> None:
        """Variant bookkeeping once ``time_step`` has advanced."""

    def _run_stages(self, stages: tuple[Stage, ...], *args) -> None:
        """Call each stage with ``args``, in order: the one timing site."""
        tracer = self.tracer
        if tracer is None:
            for _, stage in stages:
                stage(*args)
            return
        step = self.time_step
        for name, stage in stages:
            start = time.perf_counter()
            stage(*args)
            tracer.record(name, 0, start, time.perf_counter() - start, step=step)

    def step(self) -> None:
        """Advance the simulation by one time step (the 9 kernels)."""
        if self.fault_hook is not None:
            self.fault_hook(0, self.time_step)
        self._run_stages(self._stages())
        # The spread force has served kernels 5-8; reset it here so every
        # solver variant leaves the same post-step state: the force field
        # holds only the constant external body force (if any).
        self._fields.force[...] = 0.0 if self._ext is None else self._ext
        self.time_step += 1
        self._after_step()

    def run(self, num_steps: int, observer: StepObserver | None = None) -> None:
        """Run ``num_steps`` time steps, optionally reporting each step."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {num_steps}")
        for _ in range(num_steps):
            self.step()
            if observer is not None:
                observer(self.time_step, self)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Shallow diagnostic snapshot of the headline state arrays."""
        fluid, structure = self._snapshot_source()
        return {
            "velocity": fluid.velocity.copy(),
            "density": fluid.density.copy(),
            "force": fluid.force.copy(),
            "fiber_positions": (
                [s.positions.copy() for s in structure.sheets]
                if structure is not None
                else []
            ),
        }


@dataclass
class SoloSolver(StepDriver):
    """Base of the sequential, fused and in-place solvers.

    Parameters
    ----------
    fluid:
        The Eulerian fluid grid.
    structure:
        The Lagrangian immersed structure (fiber sheets), or ``None``.
    delta:
        Smoothed delta kernel; defaults to Peskin's 4-point cosine.
    boundaries:
        Face boundary conditions applied after streaming; an empty list
        means fully periodic.
    dt:
        Time step (1 in lattice units).
    check_stability_every:
        Validate fields for NaN/Inf every this many steps (0 disables).
    external_force:
        Optional constant body-force density (3-vector) applied to every
        fluid node on top of the spread elastic force; used to drive
        channel flows (e.g. the Poiseuille validation).
    fault_hook:
        Optional ``hook(tid, step)`` called at the top of every step
        (tid is always 0 here); installed by the resilience layer's
        :class:`~repro.resilience.faults.FaultInjector` to corrupt
        fields or kill the run at a chosen step.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving one
        span per stage per step (``None`` = telemetry disabled, the
        zero-overhead default).
    """

    fluid: FluidGrid
    structure: ImmersedStructure | None
    delta: DeltaKernel = field(default_factory=default_delta)
    boundaries: Sequence[Boundary] = field(default_factory=list)
    dt: float = DT
    check_stability_every: int = 0
    external_force: tuple[float, float, float] | None = None
    fault_hook: Callable[[int, int], None] | None = None
    tracer: "Tracer | None" = None
    time_step: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        validate_boundaries(list(self.boundaries))
        self._bind_force(self.fluid, self.external_force)
        self._table = self._build_stages()

    def _build_stages(self):
        """The variant's stage table, built once at construction."""
        raise NotImplementedError

    def _stages(self) -> tuple[Stage, ...]:
        return self._table

    def _snapshot_source(self) -> tuple[FluidGrid, ImmersedStructure | None]:
        return self.fluid, self.structure

    def _table_around(
        self,
        spread: Callable[[], None],
        lattice: tuple[Stage, ...],
        move: Callable[[], None],
        tail: tuple[Stage, ...] = (),
    ) -> tuple[Stage, ...]:
        """Algorithm 1's order around a variant's lattice stages.

        Kernels 1-3 and ``spread`` (kernel 4) come first, then
        ``lattice`` (kernels 5-7), ``move`` (kernel 8) and ``tail``; the
        IB stages are left out when there is no structure.
        """
        structure = self.structure
        if structure is None:
            return lattice + tail
        return (
            kernel_stage(kernels.compute_bending_force_in_fibers, structure),
            kernel_stage(kernels.compute_stretching_force_in_fibers, structure),
            kernel_stage(kernels.compute_elastic_force_in_fibers, structure),
            ("spread_force_from_fibers_to_fluid", spread),
            *lattice,
            ("move_fibers", move),
            *tail,
        )

    def _after_step(self) -> None:
        every = self.check_stability_every
        if not every or self.time_step % every:
            return
        self.fluid.validate_stable()
        sheets = self.structure.sheets if self.structure is not None else ()
        if not all(np.isfinite(sheet.positions).all() for sheet in sheets):
            raise StabilityError(
                "fiber positions contain non-finite values; the structure "
                "solver has become unstable (reduce stiffness or the time step)"
            )


def capture_plan(
    boundaries: Sequence[Boundary], df: np.ndarray, batch: int | None = None
) -> tuple[Callable[[int, np.ndarray], None] | None, list]:
    """Preallocate face buffers for boundaries that read post-collision values.

    Boundaries declare the directions they need through
    :meth:`~repro.core.lbm.boundaries.Boundary.post_dependencies`; the
    lattice sweep hands every finalized post-collision slab to the
    returned ``capture(direction, post)`` hook (``None`` when no boundary
    needs one), which copies exactly those face layers before any repair
    can clobber a face another boundary still reads.

    Returns ``(capture, faces)``: ``faces`` pairs each boundary, in apply
    order, with its ``{direction: face layer}`` dict.  With ``batch``
    the buffers carry a leading batch axis (``df`` is then
    ``(B, 19, Nx, Ny, Nz)``) and each boundary gets one dict per slot.
    """
    lead = () if batch is None else (slice(None),)
    targets: dict[int, list[tuple[tuple, np.ndarray]]] = {}
    faces: list = []
    for boundary in boundaries:
        layers: dict[int, np.ndarray] = {}
        deps = boundary.post_dependencies()
        if deps:
            idx = face_index(boundary.axis, boundary.side, df.shape[-3:])
            face_shape = df[(0,) * (df.ndim - 3)][idx].shape
            for direction in deps:
                buf = np.empty(df.shape[: len(lead)] + face_shape, dtype=df.dtype)
                layers[int(direction)] = buf
                targets.setdefault(int(direction), []).append((lead + idx, buf))
        if batch is not None:  # one {direction: slot's face layer} per slot
            layers = [{d: buf[slot] for d, buf in layers.items()} for slot in range(batch)]
        faces.append((boundary, layers))
    if not targets:
        return None, faces

    def capture(direction: int, post: np.ndarray) -> None:
        for index, buf in targets.get(direction, ()):
            buf[...] = post[index]

    return capture, faces


class StencilCoupling:
    """Kernels 4 and 8 sharing one delta-stencil evaluation per sheet.

    :meth:`spread` opens the step's stencil cache and :meth:`move` closes
    it: the interpolation is the stencil's last consumer, so no dead
    stencil arrays stay retained between steps.
    """

    def __init__(self, delta: DeltaKernel, dt: float) -> None:
        self.delta = delta
        self.dt = dt
        self.cache = _spreading.StencilCache()

    def spread(self, members: Iterable[tuple[ImmersedStructure, np.ndarray]]) -> None:
        """Spread every ``(structure, force field)`` member's fiber forces."""
        self.cache.begin_step()
        for structure, force in members:
            for sheet in structure.sheets:
                _spreading.spread_forces(sheet, self.delta, force, cache=self.cache)

    def move(self, members: Iterable[tuple[ImmersedStructure, np.ndarray]]) -> None:
        """Move every ``(structure, velocity field)`` member's fibers."""
        for structure, velocity in members:
            for sheet in structure.sheets:
                _motion.move_fibers(
                    sheet, self.delta, velocity, dt=self.dt, cache=self.cache
                )
        self.cache.end_step()
