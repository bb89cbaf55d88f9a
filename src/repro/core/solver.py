"""The sequential LBM-IB solver (paper Algorithm 1).

:class:`SequentialLBMIBSolver` creates/accepts an immersed structure and
a 3D fluid grid, then executes the nine computational kernels repeatedly
to simulate each time step.  It is the reference every other variant is
compared against, so its stages are the plain, uncached
:mod:`repro.core.kernels` calls; a traced run records one span per
kernel per step, which the gprof-style profiler renders as paper
Table I.
"""

from __future__ import annotations

from functools import partial

from repro.core import kernels
from repro.core.step import SoloSolver, StepObserver, kernel_stage

__all__ = ["SequentialLBMIBSolver", "StepObserver"]


def _stream(fluid, boundaries) -> None:
    kernels.stream_fluid_velocity_distribution(fluid)
    for boundary in boundaries:
        boundary.apply(fluid.df, fluid.df_new)


class SequentialLBMIBSolver(SoloSolver):
    """Run the LBM-IB method sequentially, one kernel after another.

    Constructor parameters are those of :class:`~repro.core.step.SoloSolver`.
    """

    def _build_stages(self):
        fluid, structure, delta = self.fluid, self.structure, self.delta
        return self._table_around(
            # reset=False: the force field already holds exactly the
            # external body force (re-seeded at the end of every step).
            spread=partial(
                kernels.spread_force_from_fibers_to_fluid,
                structure,
                fluid,
                delta,
                reset=False,
            ),
            lattice=(
                kernel_stage(kernels.compute_fluid_collision, fluid),
                (
                    "stream_fluid_velocity_distribution",
                    partial(_stream, fluid, self.boundaries),
                ),
                kernel_stage(kernels.update_fluid_velocity, fluid),
            ),
            move=partial(kernels.move_fibers, structure, fluid, delta, dt=self.dt),
            tail=(kernel_stage(kernels.copy_fluid_velocity_distribution, fluid),),
        )
