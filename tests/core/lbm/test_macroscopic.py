"""Tests of the macroscopic moment computations."""

import numpy as np
import pytest

from repro.core import reference
from repro.core.lbm import equilibrium, macroscopic
from repro.errors import ConfigurationError


class TestDensity:
    def test_density_is_zeroth_moment(self, randomized_grid):
        rho = macroscopic.compute_density(randomized_grid.df)
        np.testing.assert_allclose(rho, randomized_grid.df.sum(axis=0))

    def test_out_parameter(self, randomized_grid):
        out = np.empty(randomized_grid.shape)
        result = macroscopic.compute_density(randomized_grid.df, out=out)
        assert result is out


class TestMomentum:
    def test_momentum_matches_loop_reference(self, randomized_grid):
        mom = macroscopic.compute_momentum_density(randomized_grid.df)
        density, velocity = reference.macroscopic_loop(randomized_grid.df)
        np.testing.assert_allclose(
            mom, velocity * density[None], rtol=1e-12, atol=1e-15
        )

    def test_equilibrium_roundtrip(self, rng):
        rho = 1.0 + 0.05 * rng.standard_normal((3, 3, 3))
        u = 0.05 * rng.standard_normal((3, 3, 3, 3))
        df = equilibrium.equilibrium(rho, u)
        mom = macroscopic.compute_momentum_density(df)
        np.testing.assert_allclose(mom, rho[None] * u, rtol=1e-10, atol=1e-14)


class TestAccumulateMoments:
    """The per-direction kernel-7 moments equal the reduction + GEMM."""

    @staticmethod
    def _lattice(rng, dtype, shape=(5, 4, 3), batch=None):
        lead = () if batch is None else (batch,)
        return (1.0 + 0.1 * rng.standard_normal(lead + (19,) + shape)).astype(dtype)

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_bit_identical_to_density_and_gemm(self, rng, storage):
        """float64, and mixed: a float32 lattice into float64 moments."""
        df = self._lattice(rng, storage)
        shape = df.shape[1:]
        momentum = np.empty((3,) + shape)
        density = np.empty(shape)
        macroscopic.accumulate_moments(df, momentum, np.empty(shape), density=density)

        ref_density = macroscopic.compute_density(df, dtype=np.float64)
        ref_momentum = np.empty((3,) + shape)
        macroscopic.compute_momentum_density(df.astype(np.float64), out=ref_momentum)
        np.testing.assert_array_equal(density, ref_density)
        np.testing.assert_array_equal(momentum, ref_momentum)
        # the allocating API promotes through tensordot: same bits
        np.testing.assert_array_equal(momentum, macroscopic.compute_momentum_density(df))

    def test_custom_load_feeds_every_direction(self, rng):
        df = self._lattice(rng, np.float64)
        shape = df.shape[1:]
        loaded = []

        def load(k, out):
            loaded.append(k)
            np.copyto(out, df[k])

        momentum = np.empty((3,) + shape)
        macroscopic.accumulate_moments(df, momentum, np.empty(shape), load)
        assert loaded == list(range(1, 19))
        np.testing.assert_array_equal(momentum, macroscopic.compute_momentum_density(df))

    def test_batched_swapaxes_views_match_each_slot(self, rng):
        df = self._lattice(rng, np.float32, batch=3)
        b, shape = df.shape[0], df.shape[2:]
        momentum = np.empty((b, 3) + shape)
        macroscopic.accumulate_moments(
            df.swapaxes(0, 1), momentum.swapaxes(0, 1), np.empty((b,) + shape)
        )
        for slot in range(b):
            np.testing.assert_array_equal(
                momentum[slot], macroscopic.compute_momentum_density(df[slot])
            )

    def test_gemm_out_rejects_mixed_dtypes(self, rng):
        df = self._lattice(rng, np.float32)
        out = np.empty((3,) + df.shape[1:])
        with pytest.raises(ConfigurationError, match="accumulate_moments"):
            macroscopic.compute_momentum_density(df, out=out)


class TestVelocity:
    def test_velocity_without_force(self, randomized_grid):
        vel, rho = macroscopic.compute_velocity(randomized_grid.df)
        ref_rho, ref_vel = reference.macroscopic_loop(randomized_grid.df)
        np.testing.assert_allclose(rho, ref_rho, rtol=1e-13)
        np.testing.assert_allclose(vel, ref_vel, rtol=1e-12, atol=1e-15)

    def test_velocity_with_half_force_correction(self, randomized_grid):
        force = randomized_grid.force
        vel, _ = macroscopic.compute_velocity(randomized_grid.df, force=force)
        _, ref_vel = reference.macroscopic_loop(randomized_grid.df, force=force)
        np.testing.assert_allclose(vel, ref_vel, rtol=1e-12, atol=1e-15)

    def test_force_shifts_velocity(self, randomized_grid):
        v0, _ = macroscopic.compute_velocity(randomized_grid.df)
        force = np.zeros((3,) + randomized_grid.shape)
        force[0] = 0.01
        v1, rho = macroscopic.compute_velocity(randomized_grid.df, force=force)
        np.testing.assert_allclose(v1[0] - v0[0], 0.005 / rho, rtol=1e-12)
        np.testing.assert_allclose(v1[1:], v0[1:])

    def test_out_parameters(self, randomized_grid):
        out_v = np.empty((3,) + randomized_grid.shape)
        out_d = np.empty(randomized_grid.shape)
        v, d = macroscopic.compute_velocity(
            randomized_grid.df, out_velocity=out_v, out_density=out_d
        )
        assert v is out_v and d is out_d

    def test_precomputed_density_reused(self, randomized_grid):
        rho = macroscopic.compute_density(randomized_grid.df)
        v1, d1 = macroscopic.compute_velocity(randomized_grid.df, density=rho)
        v2, _ = macroscopic.compute_velocity(randomized_grid.df)
        np.testing.assert_allclose(v1, v2)
