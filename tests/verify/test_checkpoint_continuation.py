"""Resuming from a checkpoint never reads the second lattice buffer.

Checkpoints store ``df`` but not ``df_new``: every two-lattice step
must write all of ``df_new`` (streaming, then the boundary repairs)
before anything reads it.  These tests poison the reseeded buffer with
NaN after the restore, on a config whose moving wall, fixed wall and
outflow face take every boundary path, and require the resumed run to
match the straight one exactly — a NaN read anywhere would surface as
a mismatch.

The config is fluid-only: the immersed structure writes ``force`` and
never touches ``df_new``, and without it every variant is reproducible
run to run (the cube solvers' lock-ordered force spreading is not, in
the last bit, once fibers of two threads spread into one node).
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.config import BoundaryConfig, SimulationConfig
from repro.io.checkpoint import load_checkpoint
from repro.verify.oracle import seeded_initial_fluid, variant_config

pytestmark = [pytest.mark.verify, pytest.mark.slow]

#: The checkpoint matrix's variants that keep a second lattice buffer.
TWO_LATTICE_VARIANTS = [
    "sequential",
    "fused",
    "batched",
    "openmp",
    "cube",
    "async_cube",
    "distributed",
    "hybrid",
]

_FIELDS = ("df", "density", "velocity", "velocity_shifted", "force")


def _config(variant):
    base = SimulationConfig(
        fluid_shape=(8, 8, 8),
        tau=0.8,
        cube_size=4,
        num_threads=2,
        boundaries=(
            BoundaryConfig("bounce_back", "z", "high", wall_velocity=(0.02, 0.0, 0.0)),
            BoundaryConfig("bounce_back", "z", "low"),
            BoundaryConfig("outflow", "x", "high"),
        ),
    )
    return variant_config(base, variant)


def _snapshot(sim):
    return {name: np.array(getattr(sim.fluid, name)) for name in _FIELDS}


@pytest.mark.parametrize("variant", TWO_LATTICE_VARIANTS)
def test_resume_never_reads_the_dropped_buffer(variant, tmp_path):
    """2 checkpointed steps + 2 resumed == 4 straight steps, exactly,
    with the restored ``df_new`` poisoned before the resumed steps."""
    config = _config(variant)
    with Simulation(config, initial_fluid=seeded_initial_fluid(config, 31)) as straight:
        straight.run(4)
        reference = _snapshot(straight)

    path = tmp_path / f"{variant}.npz"
    with Simulation(config, initial_fluid=seeded_initial_fluid(config, 31)) as sim:
        sim.run(2)
        sim.checkpoint(path)

    fluid, structure, step = load_checkpoint(path)
    assert step == 2
    fluid.df_new[...] = np.nan
    with Simulation(
        config, initial_fluid=fluid, initial_structure=structure, initial_step=step
    ) as resumed:
        resumed.run(2)
        assert resumed.time_step == 4
        state = _snapshot(resumed)
    for name, expected in reference.items():
        np.testing.assert_array_equal(state[name], expected, err_msg=name)
