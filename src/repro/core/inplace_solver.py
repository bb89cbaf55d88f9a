"""Single-lattice in-place LBM-IB solver (``variant="inplace"``).

:class:`InplaceLBMIBSolver` runs the same nine-kernel time step as the
fused solver but on **one** D3Q19 lattice: ``df_new``, the pointer swap
and kernel 9 do not exist.  The LBM half alternates the two AA-pattern
phase kernels of :mod:`repro.core.lbm.inplace` — each advancing exactly
one time step — tracked by the grid's ``aa_phase`` flag:

* **even step** (phase 0 -> 1): in-place collision with an
  opposite-direction register swap
  (:func:`~repro.core.lbm.inplace.aa_even_collide_swap`); boundary
  repairs are written through the encoding
  (:meth:`~repro.core.lbm.boundaries.Boundary.apply_aa_even`) and
  kernel 7 takes its moments with pull reads
  (:func:`~repro.core.lbm.inplace.update_velocity_fields_aa`);
* **odd step** (phase 1 -> 0): pull-swap gather + collide + push-stream
  (:func:`~repro.core.lbm.inplace.aa_odd_collide_stream`), after which
  the lattice is natural again and the existing fused boundary and
  kernel-7 paths apply unchanged.

IB coupling (kernels 1-4, 8) reads only the macroscopic fields and the
fiber state, which are phase-independent, so it is shared verbatim with
the fused solver.  The differential oracle gates the variant against
``sequential`` with zero divergence for BGK and TRT; the payoff is the
halved lattice footprint (one ``(19, Nx, Ny, Nz)`` buffer instead of
two — ``BENCH_inplace.json``).
"""

from __future__ import annotations

from functools import partial

from repro.core.coupling import update_velocity_fields_inplace
from repro.core.lbm.inplace import (
    aa_even_collide_swap,
    aa_odd_collide_stream,
    update_velocity_fields_aa,
)
from repro.core.step import SoloSolver, StencilCoupling, capture_plan
from repro.errors import ConfigurationError

__all__ = ["InplaceLBMIBSolver"]


def _even_sweep(fluid, capture, faces) -> None:
    aa_even_collide_swap(fluid, capture=capture)
    for boundary, layers in faces:
        boundary.apply_aa_even(layers, fluid.df)


def _odd_sweep(fluid, capture, faces) -> None:
    aa_odd_collide_stream(fluid, capture=capture)
    for boundary, layers in faces:
        boundary.apply_fused(layers, fluid.df)


def _even_velocity(fluid) -> None:
    # Moments of the encoded lattice, taken with pull reads.
    update_velocity_fields_aa(fluid, fluid.arena.vector("aa_momentum"))


def _odd_velocity(fluid) -> None:
    update_velocity_fields_inplace(fluid, fluid.arena.vector("aa_momentum"), df=fluid.df)


class InplaceLBMIBSolver(SoloSolver):
    """Run the LBM-IB method on a single AA-pattern lattice.

    Constructor parameters mirror
    :class:`~repro.core.fused_solver.FusedLBMIBSolver` exactly; the
    ``fluid`` grid must be single-lattice
    (``FluidGrid(..., single_lattice=True)``).
    """

    def __post_init__(self) -> None:
        if self.fluid.df_new is not None:
            raise ConfigurationError(
                "InplaceLBMIBSolver requires a single-lattice grid "
                "(FluidGrid(..., single_lattice=True)); a two-lattice grid "
                "would silently waste the footprint the variant exists to save"
            )
        super().__post_init__()

    def _build_stages(self):
        """One stage table per AA phase, indexed by ``fluid.aa_phase``.

        Both phase kernels hand every finalized post-collision slab to
        the capture hook during the sweep, so one capture plan serves
        even and odd steps.  There is no kernel 9 and no pointer swap:
        the single lattice already holds the step's state (encoded or
        natural per ``aa_phase``).
        """
        fluid = self.fluid
        capture, faces = capture_plan(self.boundaries, fluid.df)
        coupling = StencilCoupling(self.delta, self.dt)
        spread = partial(coupling.spread, ((self.structure, fluid.force),))
        move = partial(coupling.move, ((self.structure, fluid.velocity),))
        even = (
            ("aa_even_collide_swap", partial(_even_sweep, fluid, capture, faces)),
            ("update_fluid_velocity", partial(_even_velocity, fluid)),
        )
        odd = (
            ("aa_odd_collide_stream", partial(_odd_sweep, fluid, capture, faces)),
            ("update_fluid_velocity", partial(_odd_velocity, fluid)),
        )
        return (
            self._table_around(spread, even, move),
            self._table_around(spread, odd, move),
        )

    def _stages(self):
        return self._table[self.fluid.aa_phase]
