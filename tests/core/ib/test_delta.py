"""Tests of the smoothed Dirac delta kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ib import delta as delta_mod
from repro.errors import StabilityError

KERNELS = [delta_mod.CosineDelta(), delta_mod.LinearDelta(), delta_mod.ThreePointDelta()]
KERNEL_IDS = ["cosine", "linear", "3point"]


@pytest.fixture(params=KERNELS, ids=KERNEL_IDS)
def kernel(request):
    return request.param


class TestWeight1D:
    def test_compact_support(self, kernel):
        half = kernel.support / 2.0
        r = np.array([-half - 0.01, half + 0.01, half + 5])
        np.testing.assert_allclose(kernel.weight_1d(r), 0.0)

    def test_even_symmetry(self, kernel, rng):
        r = rng.uniform(-3, 3, size=50)
        np.testing.assert_allclose(
            kernel.weight_1d(r), kernel.weight_1d(-r), atol=1e-14
        )

    def test_non_negative(self, kernel, rng):
        r = rng.uniform(-3, 3, size=200)
        assert (kernel.weight_1d(r) >= 0).all()

    @given(x=st.floats(-10, 10))
    @settings(max_examples=80, deadline=None)
    def test_partition_of_unity_cosine(self, x):
        """sum_j phi(x - j) = 1 for every real x (cosine kernel)."""
        k = delta_mod.CosineDelta()
        j = np.arange(np.floor(x) - 3, np.floor(x) + 5)
        assert k.weight_1d(x - j).sum() == pytest.approx(1.0, abs=1e-12)

    @given(x=st.floats(-10, 10))
    @settings(max_examples=80, deadline=None)
    def test_partition_of_unity_linear(self, x):
        k = delta_mod.LinearDelta()
        j = np.arange(np.floor(x) - 2, np.floor(x) + 4)
        assert k.weight_1d(x - j).sum() == pytest.approx(1.0, abs=1e-12)

    @given(x=st.floats(-10, 10))
    @settings(max_examples=80, deadline=None)
    def test_partition_of_unity_three_point(self, x):
        k = delta_mod.ThreePointDelta()
        j = np.arange(np.floor(x) - 3, np.floor(x) + 5)
        assert k.weight_1d(x - j).sum() == pytest.approx(1.0, abs=1e-10)

    @given(x=st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_first_moment_cosine_is_small(self, x):
        """The cosine kernel's first moment is small but not exactly zero.

        Peskin's cosine function satisfies the partition of unity and the
        even/odd sum conditions exactly; the first-moment condition only
        approximately (|m1| < 0.026 over the unit cell), which is why the
        kernel is between first- and second-order accurate.
        """
        k = delta_mod.CosineDelta()
        j = np.arange(np.floor(x) - 3, np.floor(x) + 5)
        w = k.weight_1d(x - j)
        assert abs(float(((x - j) * w).sum())) < 0.026

    @given(x=st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_even_odd_sum_condition_cosine(self, x):
        """sum over even j = sum over odd j = 1/2 (Peskin's condition)."""
        k = delta_mod.CosineDelta()
        j = np.arange(np.floor(x) - 3, np.floor(x) + 5)
        w = k.weight_1d(x - j)
        even = w[np.asarray(j) % 2 == 0].sum()
        odd = w[np.asarray(j) % 2 == 1].sum()
        assert even == pytest.approx(0.5, abs=1e-10)
        assert odd == pytest.approx(0.5, abs=1e-10)


class TestStencil:
    def test_shapes(self, kernel, rng):
        pos = rng.uniform(3, 5, size=(7, 3))
        idx, w = kernel.stencil(pos)
        s = kernel.support
        assert idx.shape == (7, s, 3)
        assert w.shape == (7, s, s, s)

    def test_weights_sum_to_one(self, kernel, rng):
        pos = rng.uniform(3, 5, size=(10, 3))
        _, w = kernel.stencil(pos)
        np.testing.assert_allclose(w.sum(axis=(1, 2, 3)), 1.0, atol=1e-10)

    def test_support_covers_influential_domain(self):
        """The cosine kernel's 4x4x4 influential domain (paper kernel 4)."""
        k = delta_mod.CosineDelta()
        idx, w = k.stencil(np.array([[5.3, 5.3, 5.3]]))
        assert idx.shape == (1, 4, 3)
        assert w.size == 64
        # support indices bracket the point
        assert idx[0, 0, 0] == 4 and idx[0, -1, 0] == 7

    def test_wrapping_into_grid(self):
        k = delta_mod.CosineDelta()
        idx, _ = k.stencil(np.array([[0.2, 0.2, 0.2]]), grid_shape=(8, 8, 8))
        assert idx.min() >= 0 and idx.max() < 8

    def test_point_on_grid_node_cosine(self):
        """A Lagrangian point exactly on a node: weights peak there."""
        k = delta_mod.CosineDelta()
        idx, w = k.stencil(np.array([[5.0, 5.0, 5.0]]))
        center = np.unravel_index(np.argmax(w[0]), w[0].shape)
        node = [idx[0, center[a], a] for a in range(3)]
        assert node == [5, 5, 5]

    def test_rejects_bad_positions_shape(self, kernel):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            kernel.stencil(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_position_raises_stability_error(self, kernel, bad):
        positions = np.full((2, 3), 4.5)
        positions[1, 2] = bad
        with warnings.catch_warnings():
            # The typed error must come before any NumPy cast warning.
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StabilityError, match="non-finite"):
                kernel.stencil(positions, grid_shape=(8, 8, 8))

    def test_default_delta_is_cosine(self):
        assert isinstance(delta_mod.default_delta(), delta_mod.CosineDelta)
