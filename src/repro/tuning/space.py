"""Tuning search space: workload keys, candidate configurations and the
cube-edge axis.

The autotuner searches over the repo's five hand-picked tunables —
solver variant, cube size, scatter method, precision policy and batch
width — but only within the **oracle-safe** region: every variant in
:data:`ORACLE_SAFE_VARIANTS` is pinned equivalent to the sequential
reference by the verification suite, and :func:`allowed_precisions`
only admits precisions that satisfy the *requested* precision contract
(a caller who asked for ``float64`` demanded bit-exactness; one who
asked for ``float32`` accepts anything at least as accurate as the
float32 tolerance band).  A tuned decision can therefore change how
fast an answer arrives, never which answer arrives.

The cube edge ``k`` is the central tunable of the cube-based algorithm
(paper Section V-A): a larger ``k`` means fewer cubes (less
bookkeeping, fewer lock acquisitions) but a bigger per-cube working set
(worse cache fit).  :func:`valid_cube_sizes` lists the edges a grid
admits and :func:`suggest_cube_size` is the model-guided legacy tuner;
the empirical one, :func:`~repro.tuning.probe.autotune_cube_size`,
returns a :class:`TuningResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.machine.spec import MachineSpec
from repro.parallel.cubes import CubeGrid

__all__ = [
    "ORACLE_SAFE_VARIANTS",
    "DEFAULT_VARIANTS",
    "TuningCandidate",
    "TuningResult",
    "TuningWorkload",
    "allowed_precisions",
    "candidate_space",
    "suggest_cube_size",
    "valid_cube_sizes",
]

#: Variants the verification suite pins equivalent to ``sequential``
#: (solo variants bit-identical at float64; batched slots additionally
#: composition-independent).  The tuner refuses anything else.
ORACLE_SAFE_VARIANTS = ("sequential", "fused", "inplace", "batched", "cube")

#: Variants searched when the caller does not restrict the set.  The
#: cube variant joins automatically when the grid admits a usable edge
#: (see :func:`candidate_space`).
DEFAULT_VARIANTS = ("sequential", "fused", "inplace", "batched")

#: Cube candidates below this edge drown in per-cube Python dispatch;
#: above this cube count the dispatch loop dominates the step outright.
_MIN_CUBE_EDGE = 4
_MAX_CUBES = 512


def allowed_precisions(requested: str) -> tuple[str, ...]:
    """Precision policies satisfying the ``requested`` contract.

    * ``float64`` — bit-exactness against the golden baselines is part
      of the ask; only float64 qualifies.
    * ``float32`` — the caller accepts the float32 tolerance band, so
      ``mixed`` (float32 storage, float64 reductions — strictly more
      accurate) is also admissible.
    * ``mixed`` — float64 reductions are part of the contract; plain
      float32 would weaken it, so only mixed qualifies.
    """
    table = {
        "float64": ("float64",),
        "float32": ("float32", "mixed"),
        "mixed": ("mixed",),
    }
    if requested not in table:
        raise ConfigurationError(
            f"unknown precision {requested!r}; expected one of {sorted(table)}"
        )
    return table[requested]


@dataclass(frozen=True)
class TuningWorkload:
    """What the tuner optimises *for*: the concrete problem shape.

    Attributes
    ----------
    fluid_shape / fiber_shape:
        Grid dimensions and total fiber-sheet node layout
        (``(0, 0)`` when no structure is immersed).
    batch_size:
        Concurrent compatible simulations the caller intends to run
        (a service workload); ``1`` is a solo run.
    precision:
        The *requested* precision contract (see
        :func:`allowed_precisions`), not necessarily the stored one.
    """

    fluid_shape: tuple[int, int, int]
    fiber_shape: tuple[int, int]
    batch_size: int = 1
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        allowed_precisions(self.precision)

    @classmethod
    def from_config(
        cls, config: SimulationConfig, batch_size: int = 1
    ) -> "TuningWorkload":
        """The workload a :class:`SimulationConfig` describes."""
        sc = config.structure
        if sc.kind == "none":
            fiber_shape = (0, 0)
        else:
            fibers = sc.num_fibers * (
                sc.num_sheets if sc.kind == "parallel_sheets" else 1
            )
            fiber_shape = (fibers, sc.nodes_per_fiber)
        return cls(
            fluid_shape=tuple(config.fluid_shape),
            fiber_shape=fiber_shape,
            batch_size=batch_size,
            precision=config.precision,
        )

    @property
    def fluid_nodes(self) -> int:
        """Total fluid grid nodes."""
        return self.fluid_shape[0] * self.fluid_shape[1] * self.fluid_shape[2]

    @property
    def fiber_nodes(self) -> int:
        """Total immersed fiber nodes."""
        return self.fiber_shape[0] * self.fiber_shape[1]

    def key(self) -> str:
        """Stable decision-cache key for this workload."""
        shape = "x".join(str(n) for n in self.fluid_shape)
        fibers = "x".join(str(n) for n in self.fiber_shape)
        return f"{shape}/fib{fibers}/b{self.batch_size}/{self.precision}"


@dataclass(frozen=True)
class TuningCandidate:
    """One point of the search space.

    ``cube_size`` is meaningful only for the cube variant (``0``
    otherwise); ``batch_width`` only for the batched variant (``1``
    otherwise).  ``scatter`` is ``"auto"``, ``"bincount"`` or
    ``"add_at"`` — forced for the run the candidate describes.
    """

    variant: str
    precision: str = "float64"
    scatter: str = "auto"
    cube_size: int = 0
    batch_width: int = 1

    def __post_init__(self) -> None:
        if self.variant not in ORACLE_SAFE_VARIANTS:
            raise ConfigurationError(
                f"variant {self.variant!r} is not oracle-verified; tunable "
                f"variants are {ORACLE_SAFE_VARIANTS}"
            )
        if self.scatter not in ("auto", "bincount", "add_at"):
            raise ConfigurationError(
                f"unknown scatter method {self.scatter!r}; expected "
                "'auto', 'bincount' or 'add_at'"
            )
        if self.variant == "cube" and self.cube_size < 1:
            raise ConfigurationError("cube candidates need a positive cube_size")
        if self.batch_width < 1:
            raise ConfigurationError(
                f"batch_width must be positive, got {self.batch_width}"
            )

    def label(self) -> str:
        """Compact display / cache label, e.g. ``fused/float32/add_at``."""
        variant = self.variant
        if self.variant == "cube":
            variant = f"cube[k={self.cube_size}]"
        elif self.variant == "batched" and self.batch_width > 1:
            variant = f"batched[w={self.batch_width}]"
        return f"{variant}/{self.precision}/{self.scatter}"

    def to_config(self, base: SimulationConfig) -> SimulationConfig:
        """``base`` re-pointed at this candidate's variant and precision.

        The physics (grid, tau, structure, boundaries, operator) is
        untouched — a tuned config answers the same question.
        """
        return replace(
            base,
            solver=self.variant,
            precision=self.precision,
            cube_size=self.cube_size if self.variant == "cube" else base.cube_size,
            num_threads=1,
        )

    def to_dict(self) -> dict:
        """JSON-safe form for the decision cache."""
        return {
            "variant": self.variant,
            "precision": self.precision,
            "scatter": self.scatter,
            "cube_size": self.cube_size,
            "batch_width": self.batch_width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TuningCandidate":
        """Inverse of :meth:`to_dict` (validation re-runs)."""
        return cls(
            variant=str(data["variant"]),
            precision=str(data.get("precision", "float64")),
            scatter=str(data.get("scatter", "auto")),
            cube_size=int(data.get("cube_size", 0)),
            batch_width=int(data.get("batch_width", 1)),
        )


def valid_cube_sizes(shape: tuple[int, int, int]) -> list[int]:
    """Cube edges that divide every grid dimension, ascending."""
    if any(n < 1 for n in shape):
        raise ConfigurationError(f"grid shape must be positive, got {shape}")
    g = math.gcd(math.gcd(shape[0], shape[1]), shape[2])
    return [k for k in range(1, g + 1) if g % k == 0]


def suggest_cube_size(
    shape: tuple[int, int, int], machine: MachineSpec
) -> int:
    """Largest valid ``k`` whose cube working set fits the L2 share.

    One L2 instance is shared by ``shared_by`` cores; a cube's field
    set is 48 doubles per node (see
    :attr:`repro.parallel.cubes.CubeGrid.cube_nbytes`).
    """
    l2 = machine.cache(2)
    budget = l2.size_bytes / l2.shared_by
    best = 1
    for k in valid_cube_sizes(shape):
        probe = CubeGrid(shape, k)
        if probe.cube_nbytes <= budget:
            best = k
    return best


@dataclass(frozen=True)
class TuningResult:
    """Outcome of an empirical cube-size sweep.

    ``seconds_by_size`` holds the per-candidate **min over repetitions**
    of the timed-block wall time — the noise-robust statistic of the
    interleaved measurement discipline (see
    :func:`~repro.tuning.probe.autotune_cube_size`).
    """

    best_cube_size: int
    seconds_by_size: dict[int, float]

    def as_rows(self) -> list[list[object]]:
        """Table rows ``[k, seconds, best?]`` sorted by ``k``."""
        return [
            [k, round(s, 4), "*" if k == self.best_cube_size else ""]
            for k, s in sorted(self.seconds_by_size.items())
        ]


def _cube_edges(shape: tuple[int, int, int]) -> list[int]:
    """Usable cube edges: divide every axis, are >= the dispatch floor,
    and keep the Python per-cube loop below :data:`_MAX_CUBES` cubes."""
    nodes = shape[0] * shape[1] * shape[2]
    return [
        k
        for k in valid_cube_sizes(shape)
        if k >= _MIN_CUBE_EDGE and nodes // k**3 <= _MAX_CUBES
    ]


def candidate_space(
    workload: TuningWorkload,
    variants: tuple[str, ...] | None = None,
    scatter_methods: tuple[str, ...] | None = None,
) -> list[TuningCandidate]:
    """Every candidate the tuner may legally consider for ``workload``.

    The cross product of admissible variants, the precisions satisfying
    the workload's requested contract, and the scatter methods — except
    that the scatter axis collapses to ``"auto"`` when no structure is
    immersed (kernel 4 never runs), the cube variant only contributes
    edges that divide the grid without drowning in per-cube dispatch,
    and the batched variant runs at the workload's batch size (width 1
    for a solo workload, where it still amortises nothing but stays an
    honest candidate).
    """
    if variants is None:
        chosen = list(DEFAULT_VARIANTS)
        if _cube_edges(workload.fluid_shape):
            chosen.append("cube")
    else:
        chosen = list(variants)
        for v in chosen:
            if v not in ORACLE_SAFE_VARIANTS:
                raise ConfigurationError(
                    f"variant {v!r} is not oracle-verified; tunable "
                    f"variants are {ORACLE_SAFE_VARIANTS}"
                )
    if scatter_methods is None:
        scatter_methods = (
            ("add_at", "bincount") if workload.fiber_nodes else ("auto",)
        )
    precisions = allowed_precisions(workload.precision)

    out: list[TuningCandidate] = []
    for variant in chosen:
        if variant == "cube":
            edges = _cube_edges(workload.fluid_shape)
        else:
            edges = [0]
        width = workload.batch_size if variant == "batched" else 1
        for edge in edges:
            for precision in precisions:
                for scatter in scatter_methods:
                    out.append(
                        TuningCandidate(
                            variant=variant,
                            precision=precision,
                            scatter=scatter,
                            cube_size=edge,
                            batch_width=width,
                        )
                    )
    if not out:
        raise ConfigurationError(
            f"empty candidate space for workload {workload.key()!r} "
            f"with variants {chosen}"
        )
    return out
