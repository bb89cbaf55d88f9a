"""Macroscopic moments of the velocity distributions.

Density is the zeroth moment, momentum the first moment.  When a body
force ``F`` acts on the fluid (the elastic force spread from the immersed
structure), the second-order-accurate velocity includes the half-step
force correction of the Guo forcing scheme::

    rho   = sum_i f_i
    rho u = sum_i e_i f_i + F * dt / 2
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import DT, Q
from repro.core.backend import lattice_constants
from repro.core.lbm.fused import _COMPONENTS
from repro.core.lbm.lattice import E_FLOAT
from repro.errors import ConfigurationError

__all__ = [
    "accumulate_moments",
    "compute_density",
    "compute_velocity",
    "compute_momentum_density",
]


def compute_density(
    df: np.ndarray, out: np.ndarray | None = None, dtype=None
) -> np.ndarray:
    """Zeroth moment ``rho = sum_i f_i``; ``df`` has shape ``(19, *S)``.

    ``dtype`` pins the reduction accumulator (the mixed policy sums
    float32 distributions in float64); defaulting to the output's dtype
    is a no-op for the uniform-precision policies.
    """
    if dtype is None and out is not None:
        dtype = out.dtype
    return np.sum(df, axis=0, out=out, dtype=dtype)


def compute_momentum_density(df: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """First moment ``sum_i e_i f_i``; returns shape ``(3, *S)``.

    With ``out`` given the moment is computed as a direct GEMM into
    ``out`` — the allocation-free form the fused hot path relies on; the
    lattice vectors are cached per dtype so a pure-float32 grid runs a
    float32 GEMM.  ``out`` must then be C-contiguous at ``df``'s dtype:
    a float32 lattice with a float64 accumulator (the mixed policy)
    takes :func:`accumulate_moments` instead.  Only the allocating
    ``out=None`` form falls back to ``tensordot``, which promotes a
    reduced-precision lattice to float64 whole.
    """
    if out is None:
        return np.tensordot(E_FLOAT.T, df, axes=([1], [0]))
    if not (df.flags.c_contiguous and out.flags.c_contiguous and df.dtype == out.dtype):
        raise ConfigurationError(
            f"compute_momentum_density(out=) needs C-contiguous arrays at one "
            f"dtype, got {df.dtype} into {out.dtype}; use accumulate_moments"
        )
    e_float, _ = lattice_constants(df.dtype)
    q = df.shape[0]
    np.matmul(e_float.T, df.reshape(q, -1), out=out.reshape(3, -1))
    return out


def accumulate_moments(
    df: np.ndarray,
    momentum: np.ndarray,
    slab: np.ndarray,
    load: Callable[[int, np.ndarray], object] | None = None,
    density: np.ndarray | None = None,
) -> None:
    """Momentum ``sum_i e_i f_i`` (optionally density) of ``df``, direction by direction.

    Each direction ``k >= 1`` is loaded into the scratch ``slab`` by
    ``load(k, slab)`` — by default a cast-copy of ``df[k]``; the AA
    kernel passes its pull-gather — and added to the momentum
    components it carries.  Nothing is allocated, so a float32 lattice
    is never promoted to float64 whole: with a float64 ``slab`` and
    ``momentum`` (the mixed policy's compute dtype) the moment
    accumulates in double precision slab by slab.  The result is
    bit-identical to the momentum GEMM: every lattice-vector component
    is -1, 0 or +1, so each product is exact and only the ascending
    direction order of the additions matters.

    ``density``, when given, accumulates the same slabs in the same
    order at its own dtype (``rho = df[0]``, then ``rho += slab``).
    Callers whose lattice is in the natural layout take the density
    with :func:`compute_density` instead: under the mixed policy its
    float64-accumulated ``np.sum`` into a float32 output rounds once on
    grids that fit NumPy's ufunc buffer (8192 elements) and once per
    direction on larger ones (observed with NumPy 2.4), which a
    slab-by-slab sum cannot replicate bit for bit.

    The direction axis leads ``df`` and the component axis leads
    ``momentum``; a batched caller passes ``swapaxes(0, 1)`` views of
    its ``(B, Q, ...)`` and ``(B, 3, ...)`` fields.
    """
    if load is None:
        def load(k: int, out: np.ndarray) -> None:
            np.copyto(out, df[k])

    if density is not None:
        np.copyto(density, df[0])
    momentum[...] = 0.0
    for k in range(1, Q):
        load(k, slab)
        if density is not None:
            density += slab
        for a, s in _COMPONENTS[k]:
            if s > 0:
                momentum[a] += slab
            else:
                momentum[a] -= slab


def compute_velocity(
    df: np.ndarray,
    force: np.ndarray | None = None,
    density: np.ndarray | None = None,
    out_velocity: np.ndarray | None = None,
    out_density: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Macroscopic ``(velocity, density)`` from distributions and body force.

    Parameters
    ----------
    df:
        Distributions, shape ``(19, *S)``.
    force:
        Optional body-force density ``(3, *S)``; contributes the Guo
        half-step momentum correction ``F dt / 2``.
    density:
        Pre-computed density to reuse; computed from ``df`` when absent.
    out_velocity, out_density:
        Optional output arrays written in place.

    Returns
    -------
    (velocity, density):
        Arrays of shape ``(3, *S)`` and ``S``.
    """
    if density is None:
        density = compute_density(df, out=out_density)
    elif out_density is not None:
        out_density[...] = density
        density = out_density

    momentum = compute_momentum_density(df)
    if force is not None:
        momentum += 0.5 * DT * np.asarray(force)

    if out_velocity is None:
        out_velocity = np.empty_like(momentum)
    np.divide(momentum, density[None, ...], out=out_velocity)
    return out_velocity, density
