"""One command for the LBM-IB benchmark declared in ``BENCHMARK.json``.

Run from the repository root (it imports the library from ``./src``)::

    python3 perfbench/run.py --workload table1_fused --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs half the time untraced and half traced and reports the
per-layer metrics (the span file goes to ``.perfbench/``).  Both modes run
the output checks.  End-to-end times are CPU times (the solver thread's,
or the service process's), so that a descheduled vCPU on a shared host
does not count as the program's time; runs still last ``--seconds`` of
wall time.  Per-layer span times are wall times.  Every metric is printed by name with its unit; the
second-to-last line is a JSON report (seed, sample counts, host cache
size, failures) and the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("table1_fused", "table1_dense_mixed", "service_two_tenant")
#: Per-layer metric prefixes of layers only the service workload runs;
#: the simulation workloads report them as 0 (not exercised).
SERVICE_LAYERS = ("batch.", "io.", "service.")
#: Scratch directory (service workdirs, span files) inside the checkout.
OUT_DIR = ".perfbench"


def declared_metrics(root: str) -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` metric name -> unit from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str, scale: int | None = None):
    """Run one workload; returns ``(metrics, outcome, report)``.

    ``scale`` overrides the grid divisor (the self-tests use tiny grids).
    """
    from lbmbench import service, simulation

    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, f"trace-{workload}-seed{seed}.json") if trace else None
    if workload == "service_two_tenant":
        config = service.job_config() if scale is None else service.job_config(scale)
        return service.run(config, seed, seconds, trace, trace_path, out)
    build = {"table1_fused": simulation.table1_fused, "table1_dense_mixed": simulation.table1_dense_mixed}
    spec = build[workload]() if scale is None else build[workload](scale)
    return simulation.run(spec, seed, seconds, trace, trace_path)


def result_object(metrics: dict, units: dict, outcome, workload: str) -> dict:
    """The contract's result object; refuses a metric set that drifted."""
    values = dict(metrics)
    if workload != "service_two_tenant":
        for name in units:
            if name.startswith(SERVICE_LAYERS):
                values.setdefault(name, 0)
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Set before NumPy loads.  The measured solvers are single-core, and
    # BLAS worker threads would only contend with the solver thread for the
    # cores and widen the tail.  NumPy's transparent-huge-page advice on
    # large arrays is granted or not per process, depending on the kernel's
    # free huge pages; on a 2-vCPU Xeon VM that split Table-I step times
    # into two levels ~25% apart from run to run.  Without the advice every
    # run pays the same page costs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no library sources at ./src/repro; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != os.path.abspath(src):
        print(f"perfbench: imported repro from {repro.__file__}, not ./src", file=sys.stderr)
        return 2

    from lbmbench.common import bandwidth_note, host_llc_bytes

    end_to_end, per_layer = declared_metrics(root)
    units = per_layer if args.trace else end_to_end
    metrics, outcome, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    if args.trace:
        metrics["failed_ratio"] = outcome.failed_ratio
    result = result_object(metrics, units, outcome, args.workload)

    llc = host_llc_bytes()
    lattice = report["lattice_bytes"]
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=outcome.attempted,
        failed=outcome.failed,
        failed_ratio=outcome.failed_ratio,
        problems=outcome.problems,
        host_llc_bytes=llc,
        bandwidth_note=bandwidth_note(lattice, llc),
    )
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']} {entry['unit']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
