"""Benchmark entry point: one seeded workload, a closed loop, one JSON result line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload shock_run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One caller runs one operation at a time in this process (a closed loop with a
single client) until ``--seconds`` have passed and at least ``MIN_OPS``
operations are done; timings are medians over the operations.  With
``--trace 1`` the run makes one untraced and then one traced operation and
reports the per-layer metrics instead.  The last line of standard output is
the result object; the lines before it give the metrics with their units,
the output checks and the provenance.  ``--workload all`` runs every
workload in its own process and exits non-zero if any check failed.
"""

from __future__ import annotations

import os

# pinned before numpy loads: the solver is single threaded and so is BLAS
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "SPACETIME_FVM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("shock_run", "advection_check", "rarefaction_ladder")
# every run makes at least this many operations, so each median, setup_s's
# included, is taken over at least three samples
MIN_OPS = 3

SPAN_METRICS = [
    "config.parse", "scheme.select_timestep", "mesh.build", "scheme.solver_init",
    "scheme.initial_state", "mesh.table", "scheme.slab_setup", "scheme.lambdas",
    "scheme.flux", "mesh.invert", "cli.write_csv", "cli.write_json", "cli.load",
    "entropy.verify", "entropy.table_rebuild", "entropy.decomposition", "entropy.lattice",
    "entropy.identity", "entropy.face", "entropy.cell", "entropy.boundary",
    "entropy.convexity", "entropy.dissipation", "cli.report_write", "harness.l1_error",
    "harness.rung_nx20", "harness.rung_nx40", "harness.rung_nx80", "harness.rung_nx160",
]
EVAL_SPANS = [
    "scheme.select_timestep", "scheme.solver_init", "scheme.initial_state", "mesh.table",
    "scheme.slab_setup", "scheme.flux", "mesh.invert", "entropy.table_rebuild",
    "entropy.decomposition", "entropy.identity", "entropy.face", "entropy.cell",
    "entropy.boundary", "entropy.convexity", "entropy.dissipation", "harness.l1_error",
]
COUNTERS = [
    ("mesh.objects", "count"), ("mesh.build_rss_mib", "MiB"), ("scheme.criticals", "count"),
    ("scheme.slabs", "count"), ("scheme.cell_updates", "count"),
    ("entropy.lattice_points", "count"), ("cli.artifact_mib", "MiB"),
]


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({f"{name}.evals": "count" for name in EVAL_SPANS})
    units.update(dict(COUNTERS))
    units.update({"fluxfield.evals_total": "count", "mesh.invert_evals_per_cell": "count",
                  "python.gc_s": "s", "python.gc_collections": "count",
                  "trace.overhead_s": "s"})
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "cell_updates_per_s": "1/s", "peak_rss_mib": "MiB"}


def rss_mib() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "git_sha": git_sha(),
            "src_lines": src_lines, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads_env": {k: os.environ.get(k) for k in THREAD_ENV}}


@contextmanager
def library_spans(tr):
    """Spans around the calls ``RunSetup.triangulation`` makes into its module."""
    import spacetime_fvm.config as config_module

    select, build = config_module.select_timestep, config_module.build_triangulation

    def traced_build(*args, **kwargs):
        before = rss_mib()
        with tr.span("mesh.build"):
            tri = build(*args, **kwargs)
        tr.add("mesh.objects", len(tri.faces) + len(tri.cells))
        grown = rss_mib() - before
        tr.counters["mesh.build_rss_mib"] = max(tr.counters["mesh.build_rss_mib"], grown)
        return tri

    config_module.select_timestep = tr.wrap("scheme.select_timestep", select)
    config_module.build_triangulation = traced_build
    try:
        yield
    finally:
        config_module.select_timestep, config_module.build_triangulation = select, build


def checked_op(wl, params, size, tr, work, corrupt=False):
    """One operation, started like a fresh CLI process: no garbage left behind.

    The solver's slabs refer back to it, so an operation's mesh is freed by
    the cycle collector; collecting first keeps an earlier operation's
    garbage out of this one's time and memory.  An operation that raises
    counts all its operations as failed.
    """
    from workloads import OpOutcome

    gc.collect()
    try:
        out = wl.run_op(params, size, tr, work, corrupt=corrupt)
    except Exception as exc:
        out = OpOutcome(attempted=wl.operations, failed=wl.operations,
                        problems=[f"{type(exc).__name__}: {exc}"])
    durations = tr.durations(tr.op)
    out.info.update(op_s=durations.get("op", 0.0), solve_s=durations.get("op.solve", 0.0))
    return out


def run_ops(wl, params, size, work, seconds, min_ops, corrupt):
    """The untraced closed loop; returns (outcomes, per-op phase durations)."""
    from tracing import Tracer

    tr = Tracer(detail=False)
    outcomes, phases = [], []
    start = time.perf_counter()
    while True:
        tr.op = len(outcomes)
        outcomes.append(checked_op(wl, params, size, tr, work, corrupt))
        phases.append(tr.durations(tr.op))
        if len(outcomes) >= min_ops and time.perf_counter() - start >= seconds:
            return outcomes, phases


def digest_failures(outcomes) -> int:
    """Operations whose final state differs from the first operation's."""
    digests = [o.digest for o in outcomes if o.digest]
    return sum(1 for d in digests[1:] if d != digests[0])


def untraced_result(wl, params, size, work, seconds, min_ops, corrupt):
    outcomes, phases = run_ops(wl, params, size, work, seconds, min_ops, corrupt)
    solved = [(o, p) for o, p in zip(outcomes, phases) if p.get("op.solve", 0.0) > 0.0]

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "wall_s": median([p.get("op", 0.0) for p in phases]),
        "setup_s": median([p.get("op.setup", 0.0) for p in phases]),
        "solve_s": median([p["op.solve"] for _o, p in solved]),
        "cell_updates_per_s": median([o.cells / p["op.solve"] for o, p in solved]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(o.attempted for o in outcomes)
    failed = min(attempted, sum(o.failed for o in outcomes) + digest_failures(outcomes))
    return outcomes, metrics, attempted, failed, None


def traced_result(wl, params, size, work):
    """One untraced reference operation, then the same operation traced."""
    from tracing import GcTimer, Tracer

    plain = Tracer(detail=False)
    ref = checked_op(wl, params, size, plain, work)
    tr = Tracer(detail=True)
    with library_spans(tr), GcTimer() as gc_timer:
        out = checked_op(wl, params, size, tr, work)
    if out.digest != ref.digest:
        out.problems.append("traced slab loop does not reproduce Solver.run bit for bit")
        out.failed += 1
    if out.per_slab != ref.per_slab:
        out.problems.append("traced verifier does not reproduce verify_run's per-slab series")
        out.failed += 1

    spans = tr.durations()
    evals = tr.evals
    metrics = {f"{name}_s": spans.get(name, 0.0) for name in SPAN_METRICS}
    metrics.update({f"{name}.evals": evals.get(name, 0) for name in EVAL_SPANS})
    metrics.update({name: tr.counters.get(name, 0) for name, _unit in COUNTERS})
    cell_nodes = tr.counters.get("scheme.cell_nodes", 0)
    metrics.update({
        "fluxfield.evals_total": sum(evals.values()),
        "mesh.invert_evals_per_cell": evals.get("mesh.invert", 0) / cell_nodes
        if cell_nodes else 0.0,
        "python.gc_s": gc_timer.seconds,
        "python.gc_collections": gc_timer.collections,
        "trace.overhead_s": spans.get("op", 0.0) - plain.durations().get("op", 0.0),
    })
    attempted = ref.attempted + out.attempted
    failed = min(attempted, ref.failed + out.failed)
    return [ref, out], metrics, attempted, failed, tr


def run_single(workload: str, seed: int, seconds: float, trace: bool,
               size_name: str = "full", min_ops: int = MIN_OPS, corrupt: bool = False):
    """Run one workload and return (result object, provenance, outcomes, tracer).

    ``size_name``, ``min_ops`` and ``corrupt`` (perturb each solve's output
    before it is checked) exist for the self-test.
    """
    from workloads import SIZES, WORKLOADS, workload_params

    wl = WORKLOADS[workload]
    params = workload_params(workload, seed)
    size = SIZES[size_name][workload]
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            outcomes, metrics, attempted, failed, tr = traced_result(wl, params, size, str(work))
        else:
            outcomes, metrics, attempted, failed, tr = untraced_result(
                wl, params, size, str(work), seconds, min_ops, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units() if trace else END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    prov = provenance(workload, seed)
    prov["params"] = params
    return result, prov, outcomes, tr


def report(result: dict, prov: dict, outcomes, tr) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    errors = [o.info.get("l1_error") for o in outcomes if "l1_error" in o.info]
    if errors:
        print(f"l1_error = {errors[-1]!r}")
    if any("order" in o.info for o in outcomes):
        print(f"fitted_order = {[o.info['order'] for o in outcomes if 'order' in o.info][-1]!r}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"digests = {sorted({o.digest for o in outcomes if o.digest})}")
    print(f"operations = {len(outcomes)}")
    for key in ("op_s", "solve_s"):
        print(f"per_op_{key} = " + " ".join(f"{o.info[key]:.3f}" for o in outcomes))
    for o in outcomes:
        for problem in o.problems:
            print(f"check failed: {problem}")
    print(f"provenance = {json.dumps(prov, sort_keys=True)}")
    if tr is not None:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{prov['workload']}-seed{prov['seed']}.json"
        path.write_text(json.dumps({"provenance": prov, "result": result, **tr.to_dict()}))
        print(f"trace = {path.relative_to(ROOT)}")
    print(json.dumps(result))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; non-zero exit when any check fails."""
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stderr, file=sys.stderr)
            print(f"{workload}: no result (exit code {proc.returncode})")
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    print("all workloads: " + ("checks passed" if status == 0 else "CHECKS FAILED"))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spacetime_fvm" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, prov, outcomes, tr = run_single(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    report(result, prov, outcomes, tr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
