"""Batched fused kernels: one numpy call per operation for all B sims.

These mirror the solo fused hot path — the per-direction fused
collide-and-stream of :mod:`repro.core.lbm.fused` and the
allocation-free kernel 7 of :mod:`repro.core.coupling` — with one
leading batch axis.  Every arithmetic operation is the *same numpy
ufunc in the same order* as its solo counterpart, applied to a
``(B, ...)`` slab instead of a ``(...)`` slab:

* elementwise ufuncs are bit-identical regardless of shape/strides;
* ``np.sum(df, axis=1)`` over the 19 directions performs the same
  in-order accumulation per slot as the solo ``axis=0`` sum;
* the stacked ``np.matmul`` of the momentum GEMM runs one GEMM per
  batch slice, identical to the solo call, and the mixed policy's
  per-direction moment accumulation runs on ``swapaxes`` views of the
  same buffers.

Each slot of a batched step is therefore bit-identical to a solo
sequential (and fused) step of the same state — the property the
differential oracle and the ``_batched`` golden baselines pin down.

The equilibrium-slab helper :func:`repro.core.lbm.fused._feq_direction`
is shape-agnostic and reused directly; only the pieces that index the
velocity components or the direction axis need batched variants here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import Q
from repro.batch.fields import BatchedFluidGrid
from repro.core.backend import lattice_constants
from repro.core.coupling import split_velocities
from repro.core.lbm.fused import _COMPONENTS, _TRT_PAIRS, _feq_direction
from repro.core.lbm.lattice import W
from repro.core.lbm.macroscopic import accumulate_moments
from repro.core.lbm.streaming import periodic_shift_table

__all__ = ["batched_collide_stream", "batched_update_velocity_fields"]

#: Callback receiving each finalized post-collision slab ``(i, df_i)``
#: of shape ``(B, Nx, Ny, Nz)`` before it is streamed.
BatchCaptureHook = Callable[[int, np.ndarray], None]


def _direction_velocity(u: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
    """``e_i . u`` for all slots; ``u`` is ``(B, 3, Nx, Ny, Nz)``."""
    (a0, s0), *rest = _COMPONENTS[i]
    if s0 > 0:
        np.copyto(out, u[:, a0])
    else:
        np.negative(u[:, a0], out=out)
    for a, s in rest:
        if s > 0:
            out += u[:, a]
        else:
            out -= u[:, a]
    return out


def _moments(grid: BatchedFluidGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density and the ``1.5 |u*|^2`` term into batched scratch buffers."""
    u = grid.velocity_shifted
    rho = grid.scratch_scalar("batch_rho")
    # Accumulate at the arena's (compute) dtype — float64 under the
    # mixed policy, a no-op for the uniform policies.
    np.sum(grid.df, axis=1, out=rho, dtype=rho.dtype)
    usq15 = grid.scratch_scalar("batch_usq15")
    tmp = grid.scratch_scalar("batch_tmp")
    np.multiply(u[:, 0], u[:, 0], out=usq15)
    np.multiply(u[:, 1], u[:, 1], out=tmp)
    usq15 += tmp
    np.multiply(u[:, 2], u[:, 2], out=tmp)
    usq15 += tmp
    usq15 *= 1.5
    return rho, usq15, tmp


def _emit(
    i: int,
    post: np.ndarray,
    df_new: np.ndarray,
    table,
    capture: BatchCaptureHook | None,
) -> None:
    """Hand the finalized ``(B, ...)`` slab over, then stream all slots."""
    if capture is not None:
        capture(i, post)
    for dst, src in table[i]:
        df_new[(slice(None), i) + dst] = post[(slice(None),) + src]


def _batched_bgk(
    grid: BatchedFluidGrid, table, capture: BatchCaptureHook | None
) -> None:
    df, df_new = grid.df, grid.df_new
    u = grid.velocity_shifted
    rho, usq15, tmp = _moments(grid)
    eu = grid.scratch_scalar("batch_eu")
    feq = grid.scratch_scalar("batch_feq")
    omega = 1.0 / grid.tau
    keep = 1.0 - omega
    for i in range(Q):
        post = df[:, i]
        if i == 0:
            _feq_direction(rho, None, usq15, float(W[0]), feq, tmp)
        else:
            _direction_velocity(u, i, eu)
            _feq_direction(rho, eu, usq15, float(W[i]), feq, tmp)
        post *= keep
        feq *= omega
        post += feq
        _emit(i, post, df_new, table, capture)


def _batched_trt(
    grid: BatchedFluidGrid, table, capture: BatchCaptureHook | None
) -> None:
    df, df_new = grid.df, grid.df_new
    u = grid.velocity_shifted
    rho, usq15, tmp = _moments(grid)
    eu = grid.scratch_scalar("batch_eu")
    feq_i = grid.scratch_scalar("batch_feq")
    feq_j = grid.scratch_scalar("batch_feq_j")
    even = grid.scratch_scalar("batch_even")
    odd = grid.scratch_scalar("batch_odd")

    tau = grid.tau
    omega_plus = 1.0 / tau
    omega_minus = 1.0 / (grid.trt_magic / (tau - 0.5) + 0.5)

    # Rest direction: pure BGK relax with omega+ (odd half vanishes).
    post = df[:, 0]
    _feq_direction(rho, None, usq15, float(W[0]), feq_i, tmp)
    np.subtract(post, feq_i, out=feq_i)
    feq_i *= omega_plus
    post -= feq_i
    _emit(0, post, df_new, table, capture)

    for i, j in _TRT_PAIRS:
        _direction_velocity(u, i, eu)
        _feq_direction(rho, eu, usq15, float(W[i]), feq_i, tmp)
        _feq_direction(rho, eu, usq15, float(W[j]), feq_j, tmp, sign=-1.0)
        np.subtract(df[:, i], feq_i, out=feq_i)
        np.subtract(df[:, j], feq_j, out=feq_j)
        np.add(feq_i, feq_j, out=even)
        even *= 0.5
        even *= omega_plus
        np.subtract(feq_i, feq_j, out=odd)
        odd *= 0.5
        odd *= omega_minus
        post_i, post_j = df[:, i], df[:, j]
        post_i -= even
        post_i -= odd
        post_j -= even
        post_j += odd
        _emit(i, post_i, df_new, table, capture)
        _emit(j, post_j, df_new, table, capture)


def batched_collide_stream(
    grid: BatchedFluidGrid, capture: BatchCaptureHook | None = None
) -> None:
    """Collide every slot's ``df`` in place and stream into ``df_new``.

    One traversal of the batched distribution lattice; after warmup the
    sweep performs zero numpy allocations (all scratch comes from the
    grid's arena).  Physical boundaries still need repairing per slot
    afterwards — boundaries that read post-collision values receive the
    ``(B, ...)`` face layers captured by ``capture``.
    """
    table = periodic_shift_table(grid.shape)
    if grid.collision_operator == "trt":
        _batched_trt(grid, table, capture)
    else:
        _batched_bgk(grid, table, capture)


def batched_update_velocity_fields(grid: BatchedFluidGrid) -> None:
    """Allocation-free kernel 7 for every slot in one pass.

    Mirrors :func:`repro.core.coupling.update_velocity_fields_inplace`
    with the batch axis: density and momentum moments of ``df_new``,
    then :func:`~repro.core.coupling.split_velocities` on
    component-leading views.
    """
    b = grid.batch
    df_new = grid.df_new
    momentum = grid.scratch_vector("batch_momentum")
    np.sum(df_new, axis=1, out=grid.density, dtype=grid.precision.compute)
    if df_new.dtype == momentum.dtype:
        e_float, _ = lattice_constants(df_new.dtype)
        np.matmul(e_float.T, df_new.reshape(b, Q, -1), out=momentum.reshape(b, 3, -1))
    else:
        # Mixed policy: direction by direction through one compute-dtype
        # slab per slot (a stacked GEMM would promote every slot's whole
        # lattice to float64 first).
        accumulate_moments(
            df_new.swapaxes(0, 1), momentum.swapaxes(0, 1), grid.scratch_scalar("batch_gather")
        )
    split_velocities(
        momentum.swapaxes(0, 1), grid.force.swapaxes(0, 1), grid.tau_odd, grid.density,
        grid.velocity.swapaxes(0, 1), grid.velocity_shifted.swapaxes(0, 1),
    )
