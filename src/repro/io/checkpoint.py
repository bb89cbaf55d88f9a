"""Checkpoint / restore of a full simulation state (npz format).

Long FSI runs are expensive; checkpoints capture the fluid grid and the
immersed structure exactly (the present distribution buffer ``df``, the
macroscopic fields, positions, forces) so a restored run continues
bit-for-bit.

What is stored, and why:

* **``df`` only, never ``df_new``.**  Every two-lattice step streams
  into all of ``df_new`` (then repairs the boundary faces) before
  anything reads it, so its content at a step boundary is dead;
  :func:`load_checkpoint` reseeds it from ``df``.  That was a third of
  the payload.  In-place AA grids have no second buffer at all.
* **The derived fields stay.**  ``density``, ``velocity``,
  ``velocity_shifted`` and ``force`` are outputs of the last step, not
  inputs of the next, but the golden digests and every restored
  terminal batch result read them, and recomputing them on load could
  not match every writer variant bit for bit.
* **Stored, not deflated.**  A seeded lattice compresses by ~14% at the
  cost of ~70x the write time, so archives are written with
  :func:`numpy.savez` (``ZIP_STORED`` members).  Older deflated
  archives, with or without ``df_new``, still load.

Checkpoints are crash-safe by construction:

* **Atomic writes** — the payload is written to ``path + ".tmp"`` and
  moved into place with :func:`os.replace`, so a process killed mid-write
  can only ever leave a stale-but-complete previous checkpoint (plus a
  harmless ``.tmp`` orphan), never a half-written file under the real
  name.
* **Payload checksum** — a SHA-256 digest over every stored array is
  saved alongside the data and verified by :func:`load_checkpoint`;
  silently corrupted bytes (bit rot, torn writes on non-POSIX stores)
  raise :class:`~repro.errors.CheckpointError` instead of loading as
  garbage physics.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib

import numpy as np

from repro.core.ib.fiber import FiberSheet, ImmersedStructure
from repro.core.lbm.fields import FluidGrid
from repro.errors import CheckpointError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "payload_checksum",
    "rotate_checkpoints",
]

_FORMAT_VERSION = 1
_CHECKSUM_KEY = "checksum"


def payload_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 digest over every array (key, dtype, shape, bytes).

    Keys are visited in sorted order so the digest is independent of
    insertion order; the ``checksum`` entry itself is excluded.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        if key == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _resolved(path: str | os.PathLike) -> str:
    # np.savez historically appends ".npz" to bare names; keep that
    # contract even though we write through a file object.
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    return final


def save_checkpoint(
    path: str | os.PathLike,
    fluid: FluidGrid,
    structure: ImmersedStructure | None = None,
    time_step: int = 0,
) -> None:
    """Atomically write the restart state to ``path`` (stored npz).

    ``fluid.df_new`` is not written (see the module docs); the loader
    reseeds it from ``df``.
    """
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(_FORMAT_VERSION),
        "time_step": np.array(time_step),
        "shape": np.array(fluid.shape),
        "tau": np.array(fluid.tau),
        "collision_operator": np.array(fluid.collision_operator),
        "precision": np.array(fluid.precision.name),
        "aa_phase": np.array(int(getattr(fluid, "aa_phase", 0))),
        "df": fluid.df,
        "density": fluid.density,
        "velocity": fluid.velocity,
        "velocity_shifted": fluid.velocity_shifted,
        "force": fluid.force,
        "num_sheets": np.array(0 if structure is None else len(structure.sheets)),
    }
    if structure is not None:
        for i, s in enumerate(structure.sheets):
            payload[f"sheet{i}_positions"] = s.positions
            payload[f"sheet{i}_anchors"] = s.anchors
            payload[f"sheet{i}_active"] = s.active
            payload[f"sheet{i}_tethered"] = s.tethered
            payload[f"sheet{i}_velocity"] = s.velocity
            payload[f"sheet{i}_bending"] = s.bending_force
            payload[f"sheet{i}_stretching"] = s.stretching_force
            payload[f"sheet{i}_elastic"] = s.elastic_force
            payload[f"sheet{i}_params"] = np.array(
                [
                    s.stretch_coefficient,
                    s.bend_coefficient,
                    s.rest_spacing_fiber,
                    s.rest_spacing_cross,
                    s.tether_coefficient,
                ]
            )
    payload[_CHECKSUM_KEY] = np.array(payload_checksum(payload))

    final = _resolved(path)
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {final}: {exc}") from exc


def rotate_checkpoints(
    checkpoints: list[tuple[str, int]], keep: int
) -> list[tuple[str, int]]:
    """Garbage-collect a ``(path, step)`` checkpoint window down to ``keep``.

    The list is oldest-first; entries beyond the newest ``keep`` are
    unlinked (a missing file is not an error — a previous rotation or a
    fault-injection test may already have removed it) and the surviving
    window is returned.  Both :class:`~repro.resilience.runner.ResilientRunner`
    and the batch scheduler's per-job checkpoint trail use this so long
    soak runs have bounded disk usage.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    survivors = list(checkpoints)
    while len(survivors) > keep:
        old_path, _old_step = survivors.pop(0)
        try:
            os.unlink(old_path)
        except OSError:
            pass
    return survivors


def load_checkpoint(
    path: str | os.PathLike,
) -> tuple[FluidGrid, ImmersedStructure | None, int]:
    """Restore ``(fluid, structure, time_step)`` from a checkpoint file.

    Verifies the stored payload checksum before reconstructing any
    state; a truncated or bit-flipped file raises
    :class:`~repro.errors.CheckpointError` with the reason (never a
    grid of garbage numbers).
    """
    try:
        data = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc} "
            "(the file is missing, truncated, or not a checkpoint)"
        ) from exc
    try:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {version} unsupported (expected {_FORMAT_VERSION})"
            )
        arrays = {key: data[key] for key in data.files}
        if _CHECKSUM_KEY in arrays:
            stored = str(arrays[_CHECKSUM_KEY])
            actual = payload_checksum(arrays)
            if stored != actual:
                raise CheckpointError(
                    f"checkpoint {path} failed checksum verification "
                    f"(stored {stored[:12]}..., computed {actual[:12]}...): "
                    "the file was corrupted after writing; restore from an "
                    "earlier checkpoint"
                )
        operator = (
            str(arrays["collision_operator"])
            if "collision_operator" in arrays
            else "bgk"
        )
        if "precision" in arrays:
            precision = str(arrays["precision"])
        else:
            # Pre-policy checkpoints carry no precision entry; infer the
            # uniform policy matching the stored lattice dtype.
            precision = (
                "float32" if arrays["df"].dtype == np.float32 else "float64"
            )
        fluid = FluidGrid(
            tuple(int(n) for n in arrays["shape"]),
            tau=float(arrays["tau"]),
            collision_operator=operator,
            precision=precision,
        )
        fluid.df[...] = arrays["df"]
        # Archives written before df_new was dropped still carry it;
        # otherwise seed the second buffer from the (possibly
        # AA-encoded) lattice, whose consumers decode via aa_phase.
        fluid.df_new[...] = arrays.get("df_new", arrays["df"])
        fluid.aa_phase = int(arrays["aa_phase"]) if "aa_phase" in arrays else 0
        fluid.density[...] = arrays["density"]
        fluid.velocity[...] = arrays["velocity"]
        fluid.velocity_shifted[...] = arrays["velocity_shifted"]
        fluid.force[...] = arrays["force"]

        num_sheets = int(arrays["num_sheets"])
        structure = None
        if num_sheets:
            sheets = []
            for i in range(num_sheets):
                params = arrays[f"sheet{i}_params"]
                sheet = FiberSheet(
                    arrays[f"sheet{i}_positions"],
                    stretch_coefficient=float(params[0]),
                    bend_coefficient=float(params[1]),
                    rest_spacing_fiber=float(params[2]),
                    rest_spacing_cross=float(params[3]),
                    active=arrays[f"sheet{i}_active"],
                    tethered=arrays[f"sheet{i}_tethered"],
                    tether_coefficient=float(params[4]),
                )
                sheet.anchors[...] = arrays[f"sheet{i}_anchors"]
                sheet.velocity[...] = arrays[f"sheet{i}_velocity"]
                sheet.bending_force[...] = arrays[f"sheet{i}_bending"]
                sheet.stretching_force[...] = arrays[f"sheet{i}_stretching"]
                sheet.elastic_force[...] = arrays[f"sheet{i}_elastic"]
                sheets.append(sheet)
            structure = ImmersedStructure(sheets)
        return fluid, structure, int(arrays["time_step"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} is missing field {exc}") from exc
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable past its header: {exc} "
            "(truncated or corrupted archive)"
        ) from exc
    finally:
        data.close()
