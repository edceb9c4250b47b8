"""Command line entry point.

Subcommands::

    spacetime-fvm run            --config run.ini [--out DIR]
    spacetime-fvm classify       --config run.ini [--out DIR]
    spacetime-fvm entropy-check  --run out/run.json [--tol TOL] [--out DIR]
    spacetime-fvm convergence    --config study.ini [--out DIR]
    spacetime-fvm mesh-report    --config run.ini [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 scheme abort (a total-flux
inversion left its image or did not converge, a CFL violation, or a
degenerate flux), 4 verification failure (an entropy check or declared
acceptance band failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigError, RunSetup, load_config, setup_from_config
from .entropy import verify_run
from .expressions import ExpressionError
from .fluxfield import NotSpacelikeError, check_hyperbolicity, classify_face
from .forms import CoordinateForm, FormError
from .harness import (
    advection_circle_case,
    appendix_examples,
    burgers_riemann_case,
    convergence_study,
)
from .mesh import (
    ConvergenceError,
    Foliation,
    MeshError,
    SliceFaceIds,
    ValueOutsideImage,
    build_triangulation,
    mesh_regularity_report,
)
from .presets import time_axis_observer
from .scheme import (
    CFLViolation,
    DegenerateFluxError,
    RunResult,
    SliceState,
    Solver,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEME_ABORT = 3
EXIT_VERIFICATION = 4

_SCHEME_ERRORS = (ValueOutsideImage, ConvergenceError, CFLViolation, DegenerateFluxError,
                  NotSpacelikeError)
_CONFIG_ERRORS = (ConfigError, ExpressionError, MeshError, FormError,
                  FileNotFoundError, ValueError)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def write_run_csv(result: RunResult, path: str) -> None:
    """One row per spacelike face: slice_index, t, x_left, x_right, u, q."""
    xs = result.tri.breakpoints.tolist()
    columns = [f"{a:.17g},{b:.17g}" for a, b in zip(xs[:-1], xs[1:])]
    times = result.tri.times.tolist()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("slice_index,t,x_left,x_right,u,q\r\n")
        for state in result.states:
            head = f"{state.slice_index},{times[state.slice_index]:.17g},"
            handle.write("".join(f"{head}{col},{u:.17g},{q:.17g}\r\n" for col, u, q in zip(
                columns, state.values.tolist(), state.fluxes.tolist())))


def run_metadata(result: RunResult, setup: RunSetup, csv_name: str) -> dict:
    tri = result.tri
    return {
        "version": __version__,
        "config": setup.raw,
        "slices_csv": csv_name,
        "mesh": {
            "domain": "circle" if tri.periodic else "interval",
            "times": [float(t) for t in tri.times],
            "breakpoints": [float(x) for x in tri.breakpoints],
        },
        "scheme": {"kind": result.spec.kind.value,
                   "rusanov_speed": result.spec.rusanov_speed},
        "u_range": [result.u_range[0], result.u_range[1]],
        "lambda_max_per_slab": [float(v) for v in result.lambda_max],
        "wall_time_seconds": result.wall_time,
        "n_cells": tri.n_cells,
    }


def load_run_artifact(path: str):
    """Rebuild (setup, triangulation, states) from a written run artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    setup = setup_from_config(meta["config"])
    domain = setup.domain
    fol = Foliation(np.asarray(meta["mesh"]["times"], dtype=float), domain)
    tri = build_triangulation(fol, np.asarray(meta["mesh"]["breakpoints"], dtype=float))
    csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), meta["slices_csv"])
    with warnings.catch_warnings():   # a table without rows is reported below
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    table = table[np.argsort(table[:, 0], kind="stable")]   # rows of a slice keep file order
    start, stop = (np.searchsorted(table[:, 0], np.arange(tri.n_slices), side=side)
                   for side in ("left", "right"))
    states = []
    for j in range(tri.n_slices):
        if stop[j] - start[j] != tri.n_columns:
            raise ConfigError(f"run artifact is missing slice {j} data")
        values, fluxes = table[start[j]:stop[j], 4:6].T.copy()
        states.append(SliceState(j, SliceFaceIds(j, tri.n_columns), values, fluxes))
    urange = tuple(meta["u_range"])
    result = RunResult(tri=tri, flux=setup.flux, spec=setup.spec, bd=setup.bd,
                       cfg=replace(setup.cfg, u_range=urange), u_range=urange,
                       states=states,
                       lambda_max=[float(v) for v in meta.get("lambda_max_per_slab", [])],
                       wall_time=float(meta.get("wall_time_seconds", 0.0)))
    return setup, result


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    setup = load_config(args.config)
    out_dir = args.out or setup.output_dir
    os.makedirs(out_dir, exist_ok=True)
    tri = setup.triangulation()
    solver = Solver(tri, setup.flux, setup.spec, setup.bd, setup.cfg)
    result = solver.run()
    csv_name = "slices.csv"
    write_run_csv(result, os.path.join(out_dir, csv_name))
    meta = run_metadata(result, setup, csv_name)
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)
    print(f"run: {tri.n_cells} cells, {tri.n_slabs} slabs, "
          f"max cell ratio {max(result.lambda_max):.4f}, wrote {out_dir}/run.json")
    return EXIT_OK


def cmd_entropy_check(args) -> int:
    setup, result = load_run_artifact(args.run)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.run)) or "."
    os.makedirs(out_dir, exist_ok=True)
    tol = args.tol if args.tol is not None else setup.entropy_tol
    report = verify_run(result, tol=tol)
    with open(os.path.join(out_dir, "entropy_report.json"), "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    with open(os.path.join(out_dir, "entropy_residuals.csv"), "w", newline="",
              encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["check", "slab_index", "max_residual"])
        for row in report.residual_rows():
            writer.writerow([row[0], row[1], _fmt(row[2])])
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name:24s} max={check.max_residual:.3e} tol={check.tol:.1e} {status}")
    if not report.passed:
        print("entropy-check: FAILED")
        return EXIT_VERIFICATION
    print("entropy-check: all checks passed")
    return EXIT_OK


def cmd_classify(args) -> int:
    setup = load_config(args.config)
    out_dir = args.out or setup.output_dir
    os.makedirs(out_dir, exist_ok=True)
    geometry = setup.raw.get("classify", {}).get("geometry", "run").lower()

    report: dict = {}
    if geometry in ("annulus", "square_with_hole", "both", "appendix"):
        appendix = appendix_examples().to_dict()
        if geometry == "annulus":
            report["appendix"] = {"annulus": appendix["annulus"]}
        elif geometry == "square_with_hole":
            report["appendix"] = {"square_with_hole": appendix["square_with_hole"]}
        else:
            report["appendix"] = appendix
    else:
        tri = setup.triangulation()
        hyp = check_hyperbolicity(setup.flux, time_axis_observer(),
                                  sample_points=setup.flux.domain.sample_points(17))
        dt_form = CoordinateForm(1, 2, {(0,): 1.0})
        dx_form = CoordinateForm(1, 2, {(1,): 1.0})
        pieces = {}
        t_end = float(tri.times[-1])

        def seg(axis, fixed, lo, hi):
            from .forms import FaceChart
            return FaceChart.coordinate_segment(2, axis=axis, fixed=fixed, lo=lo, hi=hi)

        pieces["initial_slice"] = (seg(1, [(0, 0.0)], tri.breakpoints[0],
                                       tri.breakpoints[-1]), dt_form.scaled(-1.0))
        pieces["final_slice"] = (seg(1, [(0, t_end)], tri.breakpoints[0],
                                     tri.breakpoints[-1]), dt_form)
        if not tri.periodic:
            pieces["left_boundary"] = (seg(0, [(1, tri.breakpoints[0])], 0.0, t_end),
                                       dx_form.scaled(-1.0))
            pieces["right_boundary"] = (seg(0, [(1, tri.breakpoints[-1])], 0.0, t_end),
                                        dx_form)
        classes = {}
        for name, (face, normal) in pieces.items():
            classes[name] = classify_face(face, normal, setup.flux).to_dict()
        report["hyperbolicity"] = {"min_coefficient": hyp.min_coefficient,
                                   "passed": hyp.passed}
        report["boundary_classes"] = classes
        report["has_spacelike_inflow"] = any(
            c["kind"] == "spacelike_inflow" for c in classes.values())

    path = os.path.join(out_dir, "classification.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_convergence(args) -> int:
    setup = load_config(args.config)
    section = setup.raw.get("convergence", {})
    case_id = section.get("case", "advection").lower()
    meshes = [int(v) for v in section.get("meshes", "20,40,80").split(",")]
    t_final = float(section.get("t_final", setup.t_final))
    if case_id == "advection":
        case = advection_circle_case(t_final=t_final, spec=setup.spec,
                                     cfl_target=setup.cfg.cfl_target)
    elif case_id in ("burgers_rarefaction", "rarefaction"):
        case = burgers_riemann_case(-0.5, 0.5, t_final=t_final, spec=setup.spec,
                                    cfl_target=setup.cfg.cfl_target)
    elif case_id in ("burgers_shock", "shock"):
        case = burgers_riemann_case(1.0, 0.0, t_final=t_final, spec=setup.spec,
                                    cfl_target=setup.cfg.cfl_target)
    elif case_id in ("burgers_riemann", "riemann"):
        case = burgers_riemann_case(float(section.get("u_left", 1.0)),
                                    float(section.get("u_right", 0.0)),
                                    t_final=t_final, spec=setup.spec,
                                    cfl_target=setup.cfg.cfl_target)
    else:
        raise ConfigError(f"[convergence] case: unknown case {case_id!r}")

    study = convergence_study(case, meshes)
    out_dir = args.out or setup.output_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "convergence.json"), "w", encoding="utf-8") as handle:
        json.dump({"case": case.name, **study.to_dict()}, handle, indent=2)
    with open(os.path.join(out_dir, "convergence.csv"), "w", newline="",
              encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["nx", "h", "l1_error"])
        for nx, h, err in zip(study.mesh_sizes, study.h_values, study.errors):
            writer.writerow([nx, _fmt(h), _fmt(err)])
    print(f"{case.name}: errors {['%.3e' % e for e in study.errors]} "
          f"fitted order {study.order:.3f}")

    band = section.get("order_band")
    if band:
        lo, hi = (float(v) for v in band.split(","))
        if not (lo <= study.order <= hi and study.strictly_decreasing):
            print(f"convergence: order {study.order:.3f} outside band [{lo}, {hi}] "
                  "or errors not strictly decreasing")
            return EXIT_VERIFICATION
    return EXIT_OK


def cmd_mesh_report(args) -> int:
    setup = load_config(args.config)
    out_dir = args.out or setup.output_dir
    os.makedirs(out_dir, exist_ok=True)
    tri = setup.triangulation()
    section = setup.raw.get("mesh_report", {})
    region = None
    if "region" in section:
        vals = [float(v) for v in section["region"].split()]
        if len(vals) != 4:
            raise ConfigError("[mesh_report] region: expected 'T0 T1 X0 X1'")
        region = tuple(vals)
    report = mesh_regularity_report(tri, setup.flux, compact_region=region)
    payload = {"summary": tri.summary(), "regularity": report.to_dict()}
    with open(os.path.join(out_dir, "mesh_report.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(json.dumps(payload["regularity"], indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacetime-fvm",
        description="Finite volume solver and verification harness for "
                    "conservation laws written as flux form families.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory override")

    p_run = sub.add_parser("run", help="execute a configured run")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cls = sub.add_parser("classify", help="hyperbolicity and boundary classification")
    common(p_cls)
    p_cls.set_defaults(fn=cmd_classify)

    p_ent = sub.add_parser("entropy-check", help="verify a written run artifact")
    p_ent.add_argument("--run", required=True, help="path to run.json")
    p_ent.add_argument("--out", default=None)
    p_ent.add_argument("--tol", type=float, default=None)
    p_ent.set_defaults(fn=cmd_entropy_check)

    p_conv = sub.add_parser("convergence", help="refinement study with oracle errors")
    common(p_conv)
    p_conv.set_defaults(fn=cmd_convergence)

    p_mesh = sub.add_parser("mesh-report", help="mesh regularity diagnostics")
    common(p_mesh)
    p_mesh.set_defaults(fn=cmd_mesh_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _SCHEME_ERRORS as exc:
        print(f"scheme abort: {exc}", file=sys.stderr)
        return EXIT_SCHEME_ABORT
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
