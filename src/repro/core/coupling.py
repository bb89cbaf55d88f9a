"""FSI coupling: how the elastic force enters the fluid update.

The paper's kernel structure routes the structure's elastic force into
the fluid exclusively through kernel 7 (``update_fluid_velocity``):
kernel 5 (collision) never reads the force field, which is why
Algorithm 4 needs no barrier between the spreading loop and the
collision loop.  This corresponds to the *velocity-shift* forcing
scheme (Shan & Chen 1993):

* the collision relaxes toward the equilibrium built with the shifted
  velocity ``u* = u + tau_odd F / rho``, where ``tau_odd`` is the
  relaxation time of the *odd* (momentum-carrying) moments — ``tau``
  for BGK, ``tau-`` for TRT.  Scaling the shift by the odd relaxation
  time injects exactly ``F dt`` of momentum per step for either
  operator;
* the physical velocity reported by kernel 7 and used to move the
  fibers carries the half-step correction ``u = (m + F dt / 2) / rho``
  where ``m = sum_i e_i f_i``.

For a force-free fluid both velocities coincide and the scheme reduces
to plain BGK.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DT
from repro.core.lbm import macroscopic
from repro.core.lbm.fields import FluidGrid

__all__ = [
    "update_velocity_fields",
    "update_velocity_fields_inplace",
    "shifted_velocities",
    "split_velocities",
]


def shifted_velocities(
    df: np.ndarray,
    force: np.ndarray,
    tau: float,
    out_velocity: np.ndarray | None = None,
    out_velocity_shifted: np.ndarray | None = None,
    out_density: np.ndarray | None = None,
    accum_dtype=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical and shifted velocities from distributions plus force.

    Returns ``(velocity, velocity_shifted, density)`` where::

        rho        = sum_i f_i
        velocity   = (sum_i e_i f_i + F dt / 2) / rho     (physical)
        velocity*  = (sum_i e_i f_i + tau F dt) / rho     (for collision)

    ``accum_dtype`` pins the density-reduction accumulator (the grid's
    compute dtype under the mixed policy).
    """
    density = macroscopic.compute_density(df, out=out_density, dtype=accum_dtype)
    momentum = macroscopic.compute_momentum_density(df)

    if out_velocity is None:
        out_velocity = np.empty_like(momentum)
    if out_velocity_shifted is None:
        out_velocity_shifted = np.empty_like(momentum)

    force = np.asarray(force)
    np.add(momentum, (tau * DT) * force, out=out_velocity_shifted)
    out_velocity_shifted /= density[None, ...]
    momentum += (0.5 * DT) * force
    np.divide(momentum, density[None, ...], out=out_velocity)
    return out_velocity, out_velocity_shifted, density


def update_velocity_fields(fluid: FluidGrid) -> None:
    """Kernel 7 body: refresh density, velocity and shifted velocity.

    Takes moments of the *new* (post-streaming) buffer together with the
    force spread in kernel 4 of the current step.
    """
    shifted_velocities(
        fluid.df_new,
        fluid.force,
        fluid.tau_odd,
        out_velocity=fluid.velocity,
        out_velocity_shifted=fluid.velocity_shifted,
        out_density=fluid.density,
        accum_dtype=fluid.precision.compute,
    )


def update_velocity_fields_inplace(
    fluid: FluidGrid, momentum: np.ndarray, df: np.ndarray | None = None
) -> None:
    """Allocation-free kernel 7 used by the fused and in-place solvers.

    Numerically identical to :func:`update_velocity_fields` (the force
    term is added to the momentum instead of the other way round —
    floating-point addition commutes bit-exactly), but every temporary
    lands in a caller-supplied or grid-owned buffer:

    Parameters
    ----------
    momentum:
        Scratch buffer ``(3, Nx, Ny, Nz)`` receiving ``sum_i e_i f_i``
        (typically ``fluid.arena.vector("momentum")``).  When its dtype
        differs from ``df``'s (the mixed policy) the moments accumulate
        per direction through the arena's ``aa_gather`` slab.
    df:
        Distribution buffer to take moments of.  Defaults to
        ``fluid.df_new`` (the fused solver's post-streaming buffer);
        the single-lattice in-place solver passes ``fluid.df`` after an
        odd step, when the freshly streamed state lives there.
    """
    if df is None:
        df = fluid.df_new
    rho = fluid.density
    macroscopic.compute_density(df, out=rho, dtype=fluid.precision.compute)
    if df.dtype == momentum.dtype:
        macroscopic.compute_momentum_density(df, out=momentum)
    else:
        # Mixed policy: a float32 lattice into a float64 momentum,
        # direction by direction through one compute-dtype slab (a GEMM
        # would promote the whole lattice to float64 first).
        macroscopic.accumulate_moments(df, momentum, fluid.arena.scalar("aa_gather"))

    split_velocities(
        momentum, fluid.force, fluid.tau_odd, rho, fluid.velocity, fluid.velocity_shifted
    )


def split_velocities(
    momentum: np.ndarray,
    force: np.ndarray,
    tau_odd: float,
    density: np.ndarray,
    velocity: np.ndarray,
    shifted: np.ndarray,
) -> None:
    """Kernel 7's forcing split, in place, from ready moments.

    ``shifted = (m + tau_odd F dt) / rho`` and ``velocity = (m + F dt /
    2) / rho``.  The component axis leads ``momentum``, ``force``,
    ``velocity`` and ``shifted``; a batched caller passes
    ``swapaxes(0, 1)`` views (elementwise ufuncs do not see strides).
    """
    np.multiply(force, tau_odd * DT, out=shifted)
    shifted += momentum
    np.multiply(force, 0.5 * DT, out=velocity)
    velocity += momentum
    # Divide component-wise: an in-place ufunc with a *broadcast*
    # divisor falls back to numpy's buffered inner loop and allocates;
    # the same-shape form doesn't (and is elementwise identical).
    for comp in range(3):
        shifted[comp] /= density
        velocity[comp] /= density
