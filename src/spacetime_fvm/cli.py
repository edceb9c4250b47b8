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
acceptance band failed).  An entropy tolerance (``--tol`` or ``[entropy]
tol``) that is not finite or is negative is a configuration error.
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
    MeshIds,
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


CSV_ROWS_PER_WRITE = 1024   # rows of slices.csv joined per write: whole slices, at least one


def _texts(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt.format(v)`` per value as an object array; each 64-bit pattern is formatted once
    (slices repeat states), so 0.0 and -0.0 and NaN payloads keep their own text."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([fmt.format(v) for v in keys.view(np.float64).tolist()], dtype=object)[inverse]


def write_run_csv(result: RunResult, path: str) -> None:
    """One row per spacelike face: slice_index, t, x_left, x_right, u, q.

    Slices are written in chunks of about ``CSV_ROWS_PER_WRITE`` rows, each
    one join of its row pieces, so memory does not grow with the run.
    """
    m = result.tri.n_columns
    xs = result.tri.breakpoints.tolist()
    columns = np.array([f"{a:.17g},{b:.17g}" for a, b in zip(xs[:-1], xs[1:])], dtype=object)
    times = result.tri.times.tolist()
    per_write = max(1, CSV_ROWS_PER_WRITE // m)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("slice_index,t,x_left,x_right,u,q\r\n")
        for k in range(0, len(result.states), per_write):
            chunk = result.states[k:k + per_write]
            rows = np.empty((len(chunk), m, 4), dtype=object)
            rows[..., 0] = np.array([f"{s.slice_index},{times[s.slice_index]:.17g},"
                                     for s in chunk], dtype=object)[:, None]
            rows[..., 1] = columns
            rows[..., 2] = _texts(np.concatenate([s.values for s in chunk]),
                                  ",{:.17g}").reshape(len(chunk), m)
            rows[..., 3] = _texts(np.concatenate([s.fluxes for s in chunk]),
                                  ",{:.17g}\r\n").reshape(len(chunk), m)
            handle.write("".join(rows.ravel().tolist()))


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
    """Rebuild (setup, triangulation, states) from a written run artifact.

    Every CSV row must name a slice: the first that does not is a
    ``ConfigError`` naming its line (the header is line 1, and each row one
    line: ``np.loadtxt`` skips blank lines).  Every slice must have one row
    per column, in column order, whose ``t``, ``x_left`` and ``x_right`` equal
    run.json's mesh (the ``.17g`` text reads back to the same float), whose ``q`` is
    finite and whose ``u`` is finite and, past slice 0 (u_B means), inside run.json's
    ``u_range``: else the first such line and column is a ``ConfigError``.
    """
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
    index, n, m = table[:, 0], tri.n_slices, tri.n_columns
    stray = ~((index >= 0) & (index < n) & (index == np.floor(index)))   # NaN too
    if stray.any():
        k = int(np.argmax(stray))
        raise ConfigError(f"run artifact {meta['slices_csv']} line {k + 2}: slice_index "
                          f"{float(index[k]):.17g} is not an integer in 0..{n - 1}")
    short = np.bincount(index.astype(np.intp), minlength=n) != m
    if short.any():
        raise ConfigError(f"run artifact is missing slice {int(np.argmax(short))} data")
    order = np.argsort(index, kind="stable")   # rows of a slice keep file order: row j * m + i
    table, xs = table[order], tri.breakpoints
    mesh = np.stack([np.repeat(tri.times, m), np.tile(xs[:-1], n), np.tile(xs[1:], n)], axis=1)
    urange, u = tuple(meta["u_range"]), table[:, 4]
    bad = np.concatenate([table[:, 1:4] != mesh, ~np.isfinite(table[:, 4:6])], axis=1)
    bad[:, 3] |= (np.arange(n * m) >= m) & ((u < urange[0]) | (u > urange[1]))
    if bad.any():
        rows, cols = np.nonzero(bad)
        k = np.lexsort((cols, order[rows]))[0]   # the first line, then the first column
        r, c = rows[k], cols[k]
        entry = float(table[r, c + 1])
        what = (f"not run.json's {float(mesh[r, c])!r}" if c < 3 else "not finite"
                if not np.isfinite(entry) else f"outside run.json's u_range {list(urange)!r}")
        raise ConfigError(f"run artifact {meta['slices_csv']} line {order[r] + 2}: "
                          f"{('t', 'x_left', 'x_right', 'u', 'q')[c]} {entry!r} is {what}")
    values, fluxes = (table[:, c].reshape(n, m) for c in (4, 5))
    states = [SliceState(j, MeshIds(("S", j, 1, m)), values[j].copy(), fluxes[j].copy())
              for j in range(n)]
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
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol: must be finite and non-negative, got {args.tol!r}")
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


def _convergence_values(section: dict, key: str, count: int | None = None) -> list:
    """``[convergence] <key>``: ``count`` comma-separated finite numbers, or any number
    of positive integers, in increasing order; a ``ConfigError`` names the key."""
    try:
        values = [float(v) if count else int(v) for v in section[key].split(",")]
    except ValueError:
        values = []
    if count:
        ok = len(values) == count and bool(np.all(np.isfinite(values)))
    else:
        ok = bool(values) and values[0] >= 1
    if not ok or values != sorted(values):
        what = {None: "comma-separated positive integers in increasing order",
                1: "a finite number", 2: "two finite numbers lo,hi with lo <= hi"}[count]
        raise ConfigError(f"[convergence] {key}: expected {what}, got {section[key]!r}")
    return values


def cmd_convergence(args) -> int:
    setup = load_config(args.config)
    section = {"meshes": "20,40,80", "t_final": repr(setup.t_final), "u_left": "1.0",
               "u_right": "0.0", **setup.raw.get("convergence", {})}
    case_id = section.get("case", "advection").lower()
    meshes = _convergence_values(section, "meshes")
    t_final = _convergence_values(section, "t_final", 1)[0]
    band = _convergence_values(section, "order_band", 2) if section.get("order_band") else None
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
        case = burgers_riemann_case(*(_convergence_values(section, key, 1)[0]
                                      for key in ("u_left", "u_right")),
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

    if band is not None:
        lo, hi = band
        if not (lo <= study.order <= hi and study.strictly_decreasing):
            print(f"convergence: order {study.order:.3f} outside band [{lo}, {hi}] "
                  "or errors not strictly decreasing")
            return EXIT_VERIFICATION
    return EXIT_OK


def _mesh_report_region(text: str) -> tuple[float, float, float, float]:
    """``[mesh_report] region = T0 T1 X0 X1``: four finite numbers, T0 < T1, X0 < X1."""
    where = f"[mesh_report] region = {text!r}"
    parts = text.split()
    if len(parts) != 4:
        raise ConfigError(f"{where}: expected four numbers 'T0 T1 X0 X1'")
    try:
        t0, t1, x0, x1 = (float(v) for v in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if not all(np.isfinite((t0, t1, x0, x1))):
        raise ConfigError(f"{where}: bounds must be finite")
    if not (t0 < t1 and x0 < x1):
        raise ConfigError(f"{where}: needs T0 < T1 and X0 < X1")
    return t0, t1, x0, x1


def cmd_mesh_report(args) -> int:
    setup = load_config(args.config)
    section = setup.raw.get("mesh_report", {})
    region = _mesh_report_region(section["region"]) if "region" in section else None
    out_dir = args.out or setup.output_dir
    os.makedirs(out_dir, exist_ok=True)
    tri = setup.triangulation()
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
