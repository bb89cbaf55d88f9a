"""Smoothed Dirac delta kernels for fluid-structure transfer.

The two-way interaction of the IB method is mediated by a smoothed
approximation of the Dirac delta function: elastic forces are *spread*
from Lagrangian fiber nodes to the Eulerian fluid grid, and fluid
velocity is *interpolated* back to the fiber nodes, both weighted by

    delta_h(x - X) = phi(x_0 - X_0) phi(x_1 - X_1) phi(x_2 - X_2) / h^3

The default kernel is Peskin's 4-point cosine function, whose support is
the ``4 x 4 x 4`` *influential domain* the paper describes for kernels 4
(``spread_force_from_fibers_to_fluid``) and 8 (``move_fibers``).  The
2-point (linear hat) and 3-point (Roma-Peskin) kernels are provided as
cheaper alternatives.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DTYPE
from repro.errors import StabilityError

__all__ = [
    "DeltaKernel",
    "CosineDelta",
    "LinearDelta",
    "ThreePointDelta",
    "default_delta",
]


class DeltaKernel:
    """A tensor-product smoothed delta function.

    Attributes
    ----------
    support:
        Number of grid points per axis inside the kernel support; the
        influential domain is ``support^3`` fluid nodes.
    """

    support: int = 0

    def weight_1d(self, r: np.ndarray) -> np.ndarray:
        """One-dimensional kernel ``phi(r)``, vectorized over ``r``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def stencil(
        self, positions: np.ndarray, grid_shape: tuple[int, int, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Influential-domain indices and 3D weights for Lagrangian points.

        Parameters
        ----------
        positions:
            Lagrangian coordinates in lattice units, shape ``(N, 3)``.
        grid_shape:
            When given, indices are wrapped periodically into the grid.

        Returns
        -------
        (indices, weights):
            ``indices`` has shape ``(N, support, 3)`` — per point, the
            grid coordinates touched along each axis.  ``weights`` has
            shape ``(N, support, support, support)`` — the tensor-product
            3D delta weights, which sum to 1 per point (partition of
            unity).
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=DTYPE))
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(
                f"positions must have shape (N, 3), got {positions.shape}"
            )
        if not np.isfinite(positions).all():
            raise StabilityError(
                "delta stencil requested at a non-finite fiber position; the "
                "structure solver has become unstable (reduce stiffness or "
                "the time step)"
            )
        s = self.support
        # Leftmost grid point of the support: for even supports the point
        # floor(X) - (s/2 - 1), for odd supports round(X) - (s-1)/2.
        if s % 2 == 0:
            base = np.floor(positions).astype(np.int64) - (s // 2 - 1)
        else:
            base = np.rint(positions).astype(np.int64) - (s - 1) // 2
        offsets = np.arange(s, dtype=np.int64)
        indices = base[:, None, :] + offsets[None, :, None]  # (N, s, 3)
        r = indices.astype(DTYPE) - positions[:, None, :]  # grid - point
        w = self.weight_1d(r)  # (N, s, 3)
        weights = (
            w[:, :, None, None, 0] * w[:, None, :, None, 1] * w[:, None, None, :, 2]
        )
        if grid_shape is not None:
            indices = np.mod(indices, np.asarray(grid_shape, dtype=np.int64))
        return indices, weights


class CosineDelta(DeltaKernel):
    """Peskin's 4-point cosine kernel.

    ``phi(r) = (1 + cos(pi r / 2)) / 4`` for ``|r| <= 2``, else 0.
    Satisfies the partition of unity and the even/odd moment conditions
    required for second-order interpolation (Peskin 2002).
    """

    support = 4

    def weight_1d(self, r: np.ndarray) -> np.ndarray:  # noqa: D102
        r = np.asarray(r, dtype=DTYPE)
        out = 0.25 * (1.0 + np.cos(0.5 * np.pi * r))
        return np.where(np.abs(r) <= 2.0, out, 0.0)


class LinearDelta(DeltaKernel):
    """2-point hat kernel ``phi(r) = 1 - |r|`` for ``|r| <= 1``.

    Cheapest option (8-node influential domain) but only first-order
    smooth; provided for ablation studies.
    """

    support = 2

    def weight_1d(self, r: np.ndarray) -> np.ndarray:  # noqa: D102
        r = np.abs(np.asarray(r, dtype=DTYPE))
        return np.where(r <= 1.0, 1.0 - r, 0.0)


class ThreePointDelta(DeltaKernel):
    """Roma-Peskin 3-point kernel (27-node influential domain).

    ``phi(r) = (1 + sqrt(1 - 3 r^2)) / 3``              for ``|r| <= 1/2``
    ``phi(r) = (5 - 3|r| - sqrt(1 - 3(1-|r|)^2)) / 6``  for ``1/2 < |r| <= 3/2``
    """

    support = 3

    def weight_1d(self, r: np.ndarray) -> np.ndarray:  # noqa: D102
        r = np.abs(np.asarray(r, dtype=DTYPE))
        inner = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 3.0 * r**2))) / 3.0
        outer = (
            5.0 - 3.0 * r - np.sqrt(np.maximum(0.0, 1.0 - 3.0 * (1.0 - r) ** 2))
        ) / 6.0
        out = np.where(r <= 0.5, inner, np.where(r <= 1.5, outer, 0.0))
        return out


def default_delta() -> DeltaKernel:
    """The paper's kernel: 4-point cosine (4x4x4 influential domain)."""
    return CosineDelta()
