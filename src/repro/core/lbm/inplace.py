"""Single-lattice in-place AA-pattern collide-and-stream (``variant="inplace"``).

The fused variant (PR 3) already collapses kernels 5 + 6 + 9 into one
traversal, but still carries *two* full D3Q19 lattices (``df`` /
``df_new``) and a pointer swap — the dominant allocation of every
variant.  Following the memory-aware AA-pattern formulation (Bailey et
al. 2009; Fu & Song's memory-aware LBM follow-up, arXiv:2208.05429),
this module streams **within a single lattice**, alternating two phase
kernels that each advance exactly one time step:

Even step (``aa_phase`` 0 -> 1)
    The lattice holds the natural (post-streaming) layout.  Collide in
    place and write each post-collision slab into the *opposite*
    direction's slot of the same cell (a register swap, no neighbour
    traffic); streaming is deferred.  The storage afterwards is
    *AA-encoded*::

        df[opp(i)](x) = f_i^post(x)

    so the natural post-streaming value of the step is the virtual
    field ``f_i(x, t+1) = df[opp(i)](x - e_i)``.

Odd step (``aa_phase`` 1 -> 0)
    Gather each direction's virtual pre-collision value with a pull
    read (``df[opp(i)]`` shifted by ``e_i``), collide in scratch, and
    push-stream the post-collision slab to ``x + e_i`` — which lands
    the lattice back in the natural layout.  Reads and writes of a
    direction pair ``(i, opp(i))`` touch only that pair's two slots, so
    the sweep never overwrites a value a later pair still needs.

Every arithmetic operation replicates :mod:`repro.core.lbm.fused`
operation for operation (the moment reductions replicate the
accumulation order of ``np.sum`` / the momentum GEMM slab by slab), so
the differential oracle sees **zero divergence** against ``sequential``
— K in-place steps equal K two-lattice steps bit for bit, for even and
odd K alike.  The payoff is the memory footprint: ``df_new`` and the
kernel-9 copy do not exist, halving the lattice working set
(:mod:`repro.machine.workload` layout ``"inplace"``).

Boundary conditions interact with the two phases differently: after an
odd step the lattice is natural and the existing
:meth:`~repro.core.lbm.boundaries.Boundary.apply_fused` protocol
applies unchanged; after an even step repairs must be written *through
the encoding* — see
:meth:`~repro.core.lbm.boundaries.Boundary.apply_aa_even`.  Both phases
capture post-collision face layers for
:meth:`~repro.core.lbm.boundaries.Boundary.post_dependencies` during
the sweep, before any repair can clobber them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.constants import Q
from repro.core.coupling import split_velocities
from repro.core.lbm.fields import FluidGrid
from repro.core.lbm.fused import (
    CaptureHook,
    _TRT_PAIRS,
    _direction_velocity,
    _feq_direction,
    _moments,
)
from repro.core.lbm.lattice import OPPOSITE, W
from repro.core.lbm.macroscopic import accumulate_moments
from repro.core.lbm.streaming import periodic_shift_table

__all__ = [
    "aa_even_collide_swap",
    "aa_odd_collide_stream",
    "aa_gather_direction",
    "aa_decode",
    "decoded_fluid",
    "update_velocity_fields_aa",
]

#: Direction pairs ``(i, opp(i))`` with ``i < opp(i)`` (rest excluded).
#: The even step's register swap and the odd step's pull reads are both
#: defined pair-wise, for BGK and TRT alike.
_PAIRS = _TRT_PAIRS


def aa_gather_direction(
    df: np.ndarray, i: int, out: np.ndarray, table=None
) -> np.ndarray:
    """Natural (virtual) slab ``f_i`` from an AA-encoded lattice.

    ``out(x) = df[opp(i)](x - e_i)`` with periodic wrap — the pull read
    that undoes the even step's deferred streaming for one direction.
    The hot kernels pass the grid's ``periodic_shift_table`` explicitly
    so the per-direction loop stays allocation-free (resolving the table
    from ``df.shape`` builds a fresh shape tuple every call).
    """
    if table is None:
        table = periodic_shift_table(df.shape[1:])
    src_slab = df[OPPOSITE[i]]
    for dst, src in table[i]:
        out[dst] = src_slab[src]
    return out


def aa_decode(df_encoded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full natural lattice from an AA-encoded one (allocates unless ``out``)."""
    if out is None:
        out = np.empty_like(df_encoded)
    for i in range(Q):
        aa_gather_direction(df_encoded, i, out[i])
    return out


def decoded_fluid(fluid: FluidGrid) -> FluidGrid:
    """The grid's state in the natural layout, decoding if mid AA-cycle.

    At phase 0 the single lattice *is* natural and the live grid is
    returned; at phase 1 a regular two-lattice :class:`FluidGrid` copy
    is built (``df_new`` seeded with the decoded distributions, as after
    a sequential step) — the same gather-a-copy contract the cube and
    distributed variants use for ``Simulation.fluid``.
    """
    if fluid.aa_phase == 0:
        return fluid
    clone = FluidGrid(
        fluid.shape,
        tau=fluid.tau,
        collision_operator=fluid.collision_operator,
        trt_magic=fluid.trt_magic,
        precision=fluid.precision,
    )
    aa_decode(fluid.df, out=clone.df)
    clone.df_new[...] = clone.df
    clone.density[...] = fluid.density
    clone.velocity[...] = fluid.velocity
    clone.velocity_shifted[...] = fluid.velocity_shifted
    clone.force[...] = fluid.force
    return clone


def _require_phase(fluid: FluidGrid, phase: int, kernel: str) -> None:
    if fluid.aa_phase != phase:
        raise ValueError(
            f"{kernel} requires aa_phase={phase} but the grid is at "
            f"aa_phase={fluid.aa_phase}; even and odd kernels must alternate"
        )


# ----------------------------------------------------------------------
# even step: collide in place + opposite-direction register swap
# ----------------------------------------------------------------------
def _aa_even_bgk(fluid: FluidGrid, capture: CaptureHook | None) -> None:
    arena = fluid.arena
    df = fluid.df
    u = fluid.velocity_shifted
    rho, usq15, tmp = _moments(fluid)
    eu = arena.scalar("fused_eu")
    feq = arena.scalar("fused_feq")
    swap = arena.scalar("aa_swap")
    omega = 1.0 / fluid.tau
    keep = 1.0 - omega

    # Rest direction is its own opposite: collide in place, no swap.
    post = df[0]
    _feq_direction(rho, None, usq15, float(W[0]), feq, tmp)
    post *= keep
    feq *= omega
    post += feq
    if capture is not None:
        capture(0, post)

    for i, j in _PAIRS:
        # post_i = (1-omega) df_i + omega feq_i, landing in slot j (and
        # vice versa).  Same multiply-then-add sequence as the fused
        # kernel, just with the first product written out of place.
        _direction_velocity(u, i, eu)
        _feq_direction(rho, eu, usq15, float(W[i]), feq, tmp)
        np.multiply(df[i], keep, out=swap)
        feq *= omega
        swap += feq
        _direction_velocity(u, j, eu)
        _feq_direction(rho, eu, usq15, float(W[j]), feq, tmp)
        np.multiply(df[j], keep, out=df[i])
        feq *= omega
        df[i] += feq
        df[j][...] = swap
        if capture is not None:
            capture(i, df[j])
            capture(j, df[i])


def _aa_even_trt(fluid: FluidGrid, capture: CaptureHook | None) -> None:
    arena = fluid.arena
    df = fluid.df
    u = fluid.velocity_shifted
    rho, usq15, tmp = _moments(fluid)
    eu = arena.scalar("fused_eu")
    feq_i = arena.scalar("fused_feq")
    feq_j = arena.scalar("fused_feq_j")
    even = arena.scalar("fused_even")
    odd = arena.scalar("fused_odd")
    swap = arena.scalar("aa_swap")

    tau = fluid.tau
    omega_plus = 1.0 / tau
    omega_minus = 1.0 / (fluid.trt_magic / (tau - 0.5) + 0.5)

    post = df[0]
    _feq_direction(rho, None, usq15, float(W[0]), feq_i, tmp)
    np.subtract(post, feq_i, out=feq_i)
    feq_i *= omega_plus
    post -= feq_i
    if capture is not None:
        capture(0, post)

    for i, j in _PAIRS:
        _direction_velocity(u, i, eu)
        _feq_direction(rho, eu, usq15, float(W[i]), feq_i, tmp)
        _feq_direction(rho, eu, usq15, float(W[j]), feq_j, tmp, sign=-1.0)
        np.subtract(df[i], feq_i, out=feq_i)
        np.subtract(df[j], feq_j, out=feq_j)
        np.add(feq_i, feq_j, out=even)
        even *= 0.5
        even *= omega_plus
        np.subtract(feq_i, feq_j, out=odd)
        odd *= 0.5
        odd *= omega_minus
        # post_i = df_i - even - odd -> slot j; post_j = df_j - even + odd
        # -> slot i (same subtraction order as the fused pair update).
        np.subtract(df[i], even, out=swap)
        swap -= odd
        np.subtract(df[j], even, out=df[i])
        df[i] += odd
        df[j][...] = swap
        if capture is not None:
            capture(i, df[j])
            capture(j, df[i])


def aa_even_collide_swap(
    fluid: FluidGrid, capture: CaptureHook | None = None
) -> None:
    """Even AA step: collide the natural lattice in place, swap slots.

    Advances one full time step with zero neighbour traffic; the
    lattice is left AA-encoded (``aa_phase`` 1) with streaming
    deferred to the next odd step's pull reads.  ``capture(i, post_i)``
    receives each finalized post-collision slab (stored in slot
    ``opp(i)``) before any boundary repair runs.
    """
    _require_phase(fluid, 0, "aa_even_collide_swap")
    if fluid.collision_operator == "trt":
        _aa_even_trt(fluid, capture)
    else:
        _aa_even_bgk(fluid, capture)
    fluid.aa_phase = 1


# ----------------------------------------------------------------------
# odd step: pull-swap gather, collide in scratch, push-stream
# ----------------------------------------------------------------------
def _aa_odd_moments(
    fluid: FluidGrid, table
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density + ``1.5 |u*|^2`` for an AA-encoded lattice.

    The gathered slabs carry exactly the natural distribution values,
    and accumulating them in ascending direction order replicates
    ``np.sum(df_nat, axis=0)`` bit for bit (outer-axis reductions
    accumulate slab by slab in order).
    """
    arena = fluid.arena
    df = fluid.df
    u = fluid.velocity_shifted
    rho = arena.scalar("fused_rho")
    g = arena.scalar("aa_gather")
    np.copyto(rho, df[0])  # rest slab needs no gather (opp(0) = 0, e_0 = 0)
    for k in range(1, Q):
        aa_gather_direction(df, k, g, table)
        rho += g
    usq15 = arena.scalar("fused_usq15")
    tmp = arena.scalar("fused_tmp")
    np.multiply(u[0], u[0], out=usq15)
    np.multiply(u[1], u[1], out=tmp)
    usq15 += tmp
    np.multiply(u[2], u[2], out=tmp)
    usq15 += tmp
    usq15 *= 1.5
    return rho, usq15, tmp


def _push(df: np.ndarray, i: int, post: np.ndarray, table) -> None:
    for dst, src in table[i]:
        df[(i,) + dst] = post[src]


def _aa_odd_bgk(fluid: FluidGrid, table, capture: CaptureHook | None) -> None:
    arena = fluid.arena
    df = fluid.df
    u = fluid.velocity_shifted
    rho, usq15, tmp = _aa_odd_moments(fluid, table)
    eu = arena.scalar("fused_eu")
    feq = arena.scalar("fused_feq")
    g_i = arena.scalar("aa_gather")
    g_j = arena.scalar("aa_gather_j")
    omega = 1.0 / fluid.tau
    keep = 1.0 - omega

    post = df[0]
    _feq_direction(rho, None, usq15, float(W[0]), feq, tmp)
    post *= keep
    feq *= omega
    post += feq
    if capture is not None:
        capture(0, post)

    for i, j in _PAIRS:
        aa_gather_direction(df, i, g_i, table)  # reads slot j only
        aa_gather_direction(df, j, g_j, table)  # reads slot i only
        _direction_velocity(u, i, eu)
        _feq_direction(rho, eu, usq15, float(W[i]), feq, tmp)
        g_i *= keep
        feq *= omega
        g_i += feq
        _direction_velocity(u, j, eu)
        _feq_direction(rho, eu, usq15, float(W[j]), feq, tmp)
        g_j *= keep
        feq *= omega
        g_j += feq
        if capture is not None:
            capture(i, g_i)
            capture(j, g_j)
        _push(df, i, g_i, table)
        _push(df, j, g_j, table)


def _aa_odd_trt(fluid: FluidGrid, table, capture: CaptureHook | None) -> None:
    arena = fluid.arena
    df = fluid.df
    u = fluid.velocity_shifted
    rho, usq15, tmp = _aa_odd_moments(fluid, table)
    eu = arena.scalar("fused_eu")
    feq_i = arena.scalar("fused_feq")
    feq_j = arena.scalar("fused_feq_j")
    even = arena.scalar("fused_even")
    odd = arena.scalar("fused_odd")
    g_i = arena.scalar("aa_gather")
    g_j = arena.scalar("aa_gather_j")

    tau = fluid.tau
    omega_plus = 1.0 / tau
    omega_minus = 1.0 / (fluid.trt_magic / (tau - 0.5) + 0.5)

    post = df[0]
    _feq_direction(rho, None, usq15, float(W[0]), feq_i, tmp)
    np.subtract(post, feq_i, out=feq_i)
    feq_i *= omega_plus
    post -= feq_i
    if capture is not None:
        capture(0, post)

    for i, j in _PAIRS:
        aa_gather_direction(df, i, g_i, table)
        aa_gather_direction(df, j, g_j, table)
        _direction_velocity(u, i, eu)
        _feq_direction(rho, eu, usq15, float(W[i]), feq_i, tmp)
        _feq_direction(rho, eu, usq15, float(W[j]), feq_j, tmp, sign=-1.0)
        np.subtract(g_i, feq_i, out=feq_i)
        np.subtract(g_j, feq_j, out=feq_j)
        np.add(feq_i, feq_j, out=even)
        even *= 0.5
        even *= omega_plus
        np.subtract(feq_i, feq_j, out=odd)
        odd *= 0.5
        odd *= omega_minus
        g_i -= even
        g_i -= odd
        g_j -= even
        g_j += odd
        if capture is not None:
            capture(i, g_i)
            capture(j, g_j)
        _push(df, i, g_i, table)
        _push(df, j, g_j, table)


def aa_odd_collide_stream(
    fluid: FluidGrid, capture: CaptureHook | None = None
) -> None:
    """Odd AA step: pull-read the encoded lattice, collide, push-stream.

    Gathers each pair's virtual pre-collision slabs into scratch (the
    pair's own two slots are the only storage it reads *and* the only
    storage it writes, so the in-place push is hazard-free), collides
    with the exact fused operation order, and streams the result —
    restoring the natural layout (``aa_phase`` 0).
    """
    _require_phase(fluid, 1, "aa_odd_collide_stream")
    table = periodic_shift_table(fluid.shape)
    if fluid.collision_operator == "trt":
        _aa_odd_trt(fluid, table, capture)
    else:
        _aa_odd_bgk(fluid, table, capture)
    fluid.aa_phase = 0


# ----------------------------------------------------------------------
# kernel 7 on the encoded lattice
# ----------------------------------------------------------------------
def update_velocity_fields_aa(fluid: FluidGrid, momentum: np.ndarray) -> None:
    """Allocation-free kernel 7 reading an AA-encoded lattice.

    :func:`~repro.core.lbm.macroscopic.accumulate_moments` sums the
    pull-gathered slabs in ascending direction order (the rest slab
    ``df[0]`` is never moved by the encoding), so at float64 and float32
    the result is identical to
    :func:`repro.core.coupling.update_velocity_fields_inplace` on the
    decoded lattice.  Under the mixed policy the float32 density rounds
    after every direction, which ``np.sum`` does only on grids larger
    than NumPy's ufunc buffer.
    """
    _require_phase(fluid, 1, "update_velocity_fields_aa")
    df = fluid.df
    gather = partial(aa_gather_direction, df, table=periodic_shift_table(fluid.shape))
    accumulate_moments(df, momentum, fluid.arena.scalar("aa_gather"), gather, fluid.density)
    split_velocities(
        momentum, fluid.force, fluid.tau_odd, fluid.density, fluid.velocity,
        fluid.velocity_shifted,
    )
