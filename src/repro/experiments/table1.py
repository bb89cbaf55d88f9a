"""Experiment Table I: sequential kernel profile.

Reproduces the paper's gprof analysis two ways:

1. **Measured** — trace our sequential solver on a scaled-down version
   of the paper's input and report each kernel's share of total time
   (the kernel spans rendered as a :class:`~repro.profiling.FlatProfile`).
2. **Modelled** — the machine model's per-kernel breakdown for the
   paper-sized input (124 x 64 x 64 grid, 52 x 52 fibers, 2.9 GHz),
   whose absolute scale reproduces the paper's 967 s / 500 steps.

Both are returned next to the paper's published percentages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Simulation
from repro.experiments.workloads import PROFILING_WORKLOAD, scaled_profiling_config
from repro.machine import PerformanceModel, abu_dhabi
from repro.machine.workload import PAPER_TABLE1_PERCENTAGES
from repro.observe import Tracer
from repro.profiling.report import render_table

__all__ = ["Table1Row", "run_table1", "render_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One kernel's row: paper vs model vs our measurement."""

    kernel: str
    paper_percent: float
    model_percent: float
    measured_percent: float
    measured_seconds: float


def run_table1(scale: int = 4, num_steps: int = 10) -> tuple[list[Table1Row], dict]:
    """Run the Table I experiment.

    Parameters
    ----------
    scale:
        Grid-shrink factor for the real measured run.
    num_steps:
        Measured steps (the percentages stabilize quickly).

    Returns
    -------
    (rows, meta):
        Rows sorted by paper percentage; ``meta`` holds the modelled
        967-second reproduction and the measured configuration.
    """
    # modelled breakdown at paper scale
    model = PerformanceModel(abu_dhabi())
    breakdown = model.sequential_step(
        PROFILING_WORKLOAD.fluid_shape, PROFILING_WORKLOAD.fiber_shape
    )
    model_pct = breakdown.percentages()
    model_total = model.sequential_total_seconds(
        PROFILING_WORKLOAD.fluid_shape,
        PROFILING_WORKLOAD.fiber_shape,
        PROFILING_WORKLOAD.num_steps,
    )

    # measured breakdown at reduced scale
    config = scaled_profiling_config(scale=scale)
    tracer = Tracer()
    with Simulation(config) as sim:
        sim.solver.tracer = tracer
        sim.run(num_steps)
    profile = tracer.flat_profile()
    measured_pct = profile.percentages()

    rows = []
    for kernel, paper in sorted(
        PAPER_TABLE1_PERCENTAGES.items(), key=lambda kv: kv[1], reverse=True
    ):
        rows.append(
            Table1Row(
                kernel=kernel,
                paper_percent=paper,
                model_percent=model_pct.get(kernel, 0.0),
                measured_percent=measured_pct.get(kernel, 0.0),
                measured_seconds=profile.seconds.get(kernel, 0.0),
            )
        )
    meta = {
        "model_total_seconds": model_total,
        "paper_total_seconds": 967.0,
        "measured_fluid_shape": config.fluid_shape,
        "measured_steps": num_steps,
        "measured_total_seconds": profile.total_seconds,
    }
    return rows, meta


def render_table1(rows: list[Table1Row], meta: dict) -> str:
    """Paper-style text rendering of the Table I reproduction."""
    table = render_table(
        ["Kernel", "Paper %", "Model %", "Measured %"],
        [
            [r.kernel, f"{r.paper_percent:.2f}", f"{r.model_percent:.2f}", f"{r.measured_percent:.2f}"]
            for r in rows
        ],
        title=(
            "Table I: sequential LBM-IB kernel profile "
            f"(model total for paper input: {meta['model_total_seconds']:.0f} s, "
            f"paper: {meta['paper_total_seconds']:.0f} s)"
        ),
    )
    footer = (
        f"\nmeasured on {meta['measured_fluid_shape']} grid, "
        f"{meta['measured_steps']} steps, {meta['measured_total_seconds']:.3f} s total "
        "(vectorized NumPy kernels shift shares toward the gather/scatter-bound "
        "fiber kernels relative to the paper's scalar C code)"
    )
    return table + footer
