"""Tests of checkpoint save/restore."""

import os
import zipfile

import numpy as np
import pytest

from repro.core.ib import geometry
from repro.core.lbm.fields import FluidGrid
from repro.core.solver import SequentialLBMIBSolver
from repro.errors import CheckpointError
from repro.io.checkpoint import load_checkpoint, payload_checksum, save_checkpoint


def _evolved_state():
    grid = FluidGrid((8, 8, 8), tau=0.8)
    structure = geometry.circular_plate(
        (8, 8, 8), num_fibers=5, nodes_per_fiber=5, radius=2.0
    )
    structure.sheets[0].positions[2, 2, 0] += 0.4
    solver = SequentialLBMIBSolver(grid, structure)
    solver.run(4)
    return grid, structure, solver


class TestRoundTrip:
    def test_fluid_state_exact(self, tmp_path):
        grid, structure, solver = _evolved_state()
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid, structure, time_step=solver.time_step)
        restored, _, step = load_checkpoint(path)
        assert step == 4
        assert restored.state_allclose(grid, rtol=0, atol=0)
        assert restored.tau == grid.tau

    def test_structure_state_exact(self, tmp_path):
        grid, structure, solver = _evolved_state()
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid, structure)
        _, restored, _ = load_checkpoint(path)
        sheet, orig = restored.sheets[0], structure.sheets[0]
        np.testing.assert_array_equal(sheet.positions, orig.positions)
        np.testing.assert_array_equal(sheet.active, orig.active)
        np.testing.assert_array_equal(sheet.tethered, orig.tethered)
        np.testing.assert_array_equal(sheet.anchors, orig.anchors)
        assert sheet.tether_coefficient == orig.tether_coefficient
        assert sheet.rest_spacing_fiber == orig.rest_spacing_fiber

    def test_fluid_only_checkpoint(self, tmp_path):
        grid = FluidGrid((4, 4, 4), tau=0.9)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid)
        restored, structure, step = load_checkpoint(path)
        assert structure is None
        assert step == 0
        assert restored.state_allclose(grid)

    def test_restored_run_continues_identically(self, tmp_path):
        """The checkpoint contract: restore and continue bit-for-bit."""
        grid_a, structure_a, solver_a = _evolved_state()
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid_a, structure_a)

        grid_b, structure_b, _ = load_checkpoint(path)
        solver_b = SequentialLBMIBSolver(grid_b, structure_b)

        solver_a.run(3)
        solver_b.run(3)
        assert grid_a.state_allclose(grid_b, rtol=0, atol=0)
        assert structure_a.state_allclose(structure_b, rtol=0, atol=0)


class TestFormat:
    """What an archive stores, and that older archives keep loading."""

    def test_parent_format_archive_loads_bit_identically(self, tmp_path):
        """A deflated archive carrying ``df_new`` (the format written
        before the second buffer was dropped) restores every array,
        ``df_new`` included, exactly as stored."""
        grid, structure, solver = _evolved_state()
        grid.df_new[...] = 0.5 * grid.df  # distinct from df: must be read back
        path = tmp_path / "old.npz"
        save_checkpoint(path, grid, structure, time_step=solver.time_step)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["df_new"] = grid.df_new
        payload["checksum"] = np.array(payload_checksum(payload))
        np.savez_compressed(path, **payload)
        with zipfile.ZipFile(path) as archive:
            assert {m.compress_type for m in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }

        restored, restored_structure, step = load_checkpoint(path)
        assert step == 4
        for name in ("df", "df_new", "density", "velocity", "velocity_shifted", "force"):
            np.testing.assert_array_equal(
                getattr(restored, name), getattr(grid, name), err_msg=name
            )
        assert restored_structure.state_allclose(structure, rtol=0, atol=0)

    def test_archive_is_stored_without_second_buffer(self, tmp_path):
        grid, structure, _ = _evolved_state()
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid, structure)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}
        assert "df_new.npy" not in {m.filename for m in members}
        restored, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(restored.df_new, restored.df)

    def test_archive_costs_what_it_stores(self, tmp_path):
        """File size <= the restart fields' bytes + 16 KiB of zip and
        .npy headers: a second lattice buffer (another 19 x 16^3
        float64 = 608 KiB) cannot hide in the slack."""
        grid = FluidGrid((16, 16, 16), tau=0.8)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid)
        payload = sum(
            getattr(grid, name).nbytes
            for name in ("df", "density", "velocity", "velocity_shifted", "force")
        )
        assert os.path.getsize(path) <= payload + 16 * 1024


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, format_version=np.array(1), shape=np.array([2, 2, 2]))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        grid = FluidGrid((2, 2, 2))
        path = tmp_path / "v.npz"
        save_checkpoint(path, grid)
        data = dict(np.load(path))
        data["format_version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)


class TestRobustness:
    """Crash-safety: truncation, bit rot, and kill-mid-write scenarios."""

    def test_truncated_file_rejected(self, tmp_path):
        grid = FluidGrid((4, 4, 4))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 100)
        with pytest.raises(CheckpointError, match="truncated|unreadable|corrupt"):
            load_checkpoint(path)

    def test_flipped_bytes_fail_checksum(self, tmp_path):
        """Valid archive, corrupted numbers: caught by the payload checksum.

        Flipping raw bytes usually breaks the zip layer first, so to
        isolate the checksum path we re-save one mutated array with the
        *original* digest still attached.
        """
        grid = FluidGrid((4, 4, 4))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid)
        data = dict(np.load(path))
        data["df"] = data["df"].copy()
        data["df"].flat[0] += 1e-3  # silent bit rot
        np.savez(path, **data)  # keeps the stale checksum entry
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_checksum_is_deterministic_and_order_free(self):
        a = {"x": np.arange(4.0), "y": np.ones(2)}
        b = {"y": np.ones(2), "x": np.arange(4.0)}
        assert payload_checksum(a) == payload_checksum(b)
        b["x"] = b["x"] + 1.0
        assert payload_checksum(a) != payload_checksum(b)

    def test_kill_between_tmp_and_replace(self, tmp_path, monkeypatch):
        """A crash after writing .tmp but before the rename must leave
        the previous checkpoint intact and loadable."""
        import repro.io.checkpoint as ck

        grid_old = FluidGrid((4, 4, 4))
        grid_old.density[...] = 2.0
        path = tmp_path / "ck.npz"
        save_checkpoint(path, grid_old)

        grid_new = FluidGrid((4, 4, 4))
        grid_new.density[...] = 3.0

        def crash(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(ck.os, "replace", crash)
        with pytest.raises(CheckpointError, match="cannot write"):
            save_checkpoint(path, grid_new)
        monkeypatch.undo()

        restored, _, _ = load_checkpoint(path)
        assert float(restored.density[0, 0, 0]) == 2.0  # old state survived

    def test_orphan_tmp_never_loads_as_checkpoint(self, tmp_path):
        """The .tmp of an interrupted write is not a valid checkpoint
        name; the real path simply does not exist."""
        grid = FluidGrid((4, 4, 4))
        path = tmp_path / "ck.npz"
        # simulate: crash happened before replace; only the tmp exists
        with open(str(path) + ".tmp", "wb") as fh:
            np.savez_compressed(fh, half=np.ones(3))
        with pytest.raises(CheckpointError, match="missing, truncated"):
            load_checkpoint(path)
        # and a later save happily overwrites the orphan
        save_checkpoint(path, grid)
        restored, _, _ = load_checkpoint(path)
        assert restored.state_allclose(grid)
        assert not os.path.exists(str(path) + ".tmp")

    def test_save_appends_npz_suffix(self, tmp_path):
        grid = FluidGrid((2, 2, 2))
        save_checkpoint(tmp_path / "bare", grid)
        assert (tmp_path / "bare.npz").exists()
        restored, _, _ = load_checkpoint(tmp_path / "bare.npz")
        assert restored.state_allclose(grid)
