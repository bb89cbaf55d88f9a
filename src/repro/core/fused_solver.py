"""Memory-aware fused LBM-IB solver (``variant="fused"``).

:class:`FusedLBMIBSolver` executes the same nine-kernel time step as the
sequential solver (paper Algorithm 1) but restructured around memory
traffic rather than kernel boundaries:

* kernels 5 + 6 run as one lattice traversal
  (:func:`repro.core.lbm.fused.fused_collide_stream`) — the equilibrium
  lattice and the whole-grid post-collision intermediate never
  materialize;
* kernel 9's full-buffer copy becomes a pointer swap
  (:meth:`~repro.core.lbm.fields.FluidGrid.swap_distributions`);
* kernel 7 runs allocation-free
  (:func:`repro.core.coupling.update_velocity_fields_inplace`);
* kernels 4 and 8 share one delta-stencil evaluation per sheet per step
  (:class:`~repro.core.ib.spreading.StencilCache`);
* every scratch buffer comes from the grid-owned arena, so a
  steady-state fluid step performs zero numpy array allocations.

Boundary conditions that read post-collision values (bounce-back walls)
declare the directions they need via
:meth:`~repro.core.lbm.boundaries.Boundary.post_dependencies`; the
solver captures exactly those face layers during the sweep and feeds
them to :meth:`~repro.core.lbm.boundaries.Boundary.apply_fused`.

The step is numerically equivalent to the sequential solver's — the
differential oracle (:mod:`repro.verify.oracle`) gates the variant
against ``sequential`` for both BGK and TRT.  The only state difference
is bookkeeping: after a fused step ``df_new`` holds the *previous*
step's post-collision distributions instead of a copy of ``df`` (every
consumer either ignores ``df_new`` or overwrites it before reading).
"""

from __future__ import annotations

from functools import partial

from repro.core.coupling import update_velocity_fields_inplace
from repro.core.lbm.fused import fused_collide_stream
from repro.core.step import SoloSolver, StencilCoupling, capture_plan

__all__ = ["FusedLBMIBSolver"]


def _collide_stream(fluid, capture, faces) -> None:
    fused_collide_stream(fluid, capture=capture)
    df_new = fluid.df_new
    for boundary, layers in faces:
        boundary.apply_fused(layers, df_new)


def _update_velocity(fluid) -> None:
    update_velocity_fields_inplace(fluid, fluid.arena.vector("fused_momentum"))


class FusedLBMIBSolver(SoloSolver):
    """Run the LBM-IB method through the fused, allocation-free hot path.

    Constructor parameters mirror
    :class:`~repro.core.solver.SequentialLBMIBSolver` exactly — the two
    are drop-in interchangeable (``api.build_solver`` dispatches on the
    config's ``solver`` field).
    """

    def _build_stages(self):
        fluid = self.fluid
        capture, faces = capture_plan(self.boundaries, fluid.df)
        coupling = StencilCoupling(self.delta, self.dt)
        return self._table_around(
            spread=partial(coupling.spread, ((self.structure, fluid.force),)),
            lattice=(
                # kernels 5 + 6 in one traversal
                ("fused_collide_stream", partial(_collide_stream, fluid, capture, faces)),
                ("update_fluid_velocity", partial(_update_velocity, fluid)),
            ),
            move=partial(coupling.move, ((self.structure, fluid.velocity),)),
            # Kernel 9 degenerates to a pointer swap (two-lattice scheme).
            tail=(("swap_distributions", fluid.swap_distributions),),
        )
