"""The benchmark's three seeded workloads and the checks on their outputs.

Each workload turns a seed into config text (the program sees nothing else),
then runs one operation through the library's public entry points, the same
calls the CLI's ``run`` and ``entropy-check`` subcommands and the harness's
refinement studies make.  The operation runs inside an ``op`` span split into
``op.setup``, ``op.solve``, ``op.write`` and ``op.verify`` phases; the output
checks run after it and are not part of its time.

``shock_run`` and ``rarefaction_ladder`` pin the flux state range with
``[run] u_min/u_max``.  The CFL slab height depends on that range, so
pinning it keeps the slab count, and with it the work, the same for every
seed; the seed only moves the data inside the range.  ``advection_check``
leaves the range to the config's data scan, because its flux is linear in
the state and its slab count does not depend on the data.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from spacetime_fvm.cli import load_run_artifact, run_metadata, write_run_csv
from spacetime_fvm.config import parse_config
from spacetime_fvm.entropy import verify_run
from spacetime_fvm.harness import BurgersRiemann, CharacteristicsLinear, fit_order, l1_error
from spacetime_fvm.mesh import CircleDomain
from spacetime_fvm.scheme import Solver

from tracing import Tracer, counting_flux, traced_run, traced_verify

TWO_PI = 2.0 * math.pi
# relative slack on the maximum principle: inversion stops at a flux residual
# of 1e-12, which is up to ~1e-9 in the state on the finest meshes
HULL_SLACK = 1e-8

# Mesh sizes and output limits per size.  "full" is what the benchmark runs;
# "tiny" exists for the self-test only.  The l1 limits sit about twice above
# the largest error seen over the seed ranges at the seed commit; the order
# band brackets the fitted order seen there, 0.60 to 0.62 (a first-order
# scheme converges at order 1/2 to 1 on a rarefaction).
SIZES = {
    "full": {
        "shock_run": {"nx": 160, "l1_max": 0.008},
        "advection_check": {"nx": 80, "l1_max": 0.13},
        "rarefaction_ladder": {"nx": (20, 40, 80, 160), "l1_max": 0.02,
                               "order_band": (0.5, 0.75)},
    },
    "tiny": {
        "shock_run": {"nx": 16, "l1_max": 0.3},
        "advection_check": {"nx": 12, "l1_max": 1.0},
        "rarefaction_ladder": {"nx": (8, 12, 16, 24), "l1_max": 0.3,
                               "order_band": (0.0, 2.0)},
    },
}


@dataclass
class OpOutcome:
    """What one workload operation leaves behind once its results are dropped."""

    attempted: int
    failed: int = 0
    cells: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    per_slab: dict | None = None


def _fmt(value: float) -> str:
    return repr(float(value))


def _state_digest(finals) -> str:
    h = hashlib.sha256()
    for final in finals:
        h.update(np.ascontiguousarray(final.values, dtype=float).tobytes())
        h.update(np.ascontiguousarray(final.fluxes, dtype=float).tobytes())
    return h.hexdigest()


def _hull_problem(result, lo: float, hi: float) -> str | None:
    slack = HULL_SLACK * (1.0 + hi - lo)
    for state in result.states:
        v = state.values
        if not (np.all(np.isfinite(v)) and v.min() >= lo - slack and v.max() <= hi + slack):
            return (f"slice {state.slice_index} leaves the data hull [{lo}, {hi}]: "
                    f"[{v.min()!r}, {v.max()!r}]")
    return None


def _corrupt(result) -> None:
    values = result.final_state.values
    values[values.size // 2] += 10.0


# ---------------------------------------------------------------------------
# the calls the CLI makes
# ---------------------------------------------------------------------------

def _setup(text: str, tr: Tracer):
    """Config text to a ready solver, as ``cli.cmd_run`` does it."""
    setup = tr.wrap("config.parse", parse_config)(text)
    if tr.detail:
        setup.flux = counting_flux(setup.flux, tr)
    tri = setup.triangulation()
    solver = tr.wrap("scheme.solver_init", Solver)(tri, setup.flux, setup.spec, setup.bd,
                                                  setup.cfg)
    return setup, solver


def _solve(solver: Solver, tr: Tracer):
    return traced_run(solver, tr) if tr.detail else solver.run()


def _write_run(result, setup, out_dir: str, tr: Tracer) -> str:
    """The artifact writes of ``cli.cmd_run``; returns the run.json path."""
    csv_path = os.path.join(out_dir, "slices.csv")
    json_path = os.path.join(out_dir, "run.json")
    if "csv" in setup.formats:
        tr.wrap("cli.write_csv", write_run_csv)(result, csv_path)

    def write_json():
        meta = run_metadata(result, setup, "slices.csv")
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)

    tr.wrap("cli.write_json", write_json)()
    size = sum(os.path.getsize(p) for p in (csv_path, json_path) if os.path.exists(p))
    tr.add("cli.artifact_mib", size / 2.0 ** 20)
    return json_path


def _entropy_check(json_path: str, out_dir: str, tr: Tracer):
    """The load, verify and report writes of ``cli.cmd_entropy_check``."""
    setup, loaded = tr.wrap("cli.load", load_run_artifact)(json_path)
    tol = setup.entropy_tol
    if tr.detail:
        loaded.flux = counting_flux(loaded.flux, tr)
        with tr.span("entropy.verify"):
            report = traced_verify(loaded, tr, tol=tol)
    else:
        report = verify_run(loaded, tol=tol)

    def write_report():
        with open(os.path.join(out_dir, "entropy_report.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(report.to_json())
        with open(os.path.join(out_dir, "entropy_residuals.csv"), "w", newline="",
                  encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["check", "slab_index", "max_residual"])
            for row in report.residual_rows():
                writer.writerow([row[0], row[1], f"{float(row[2]):.17g}"])

    tr.wrap("cli.report_write", write_report)()
    return loaded, report


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _riemann_config(u_left, u_right, x_jump, t_final, nx, flux_lines, kind, hull) -> str:
    return "\n".join([
        "[spacetime]", "domain = interval 0 1", f"t_final = {t_final}",
        "[flux]", *flux_lines,
        "[mesh]", f"nx = {nx}", "cfl_target = 0.25",
        "[scheme]", f"kind = {kind}",
        "[boundary]",
        f"u_b = {_fmt(u_left)} * (0.5 - 0.5 * sign(x - {_fmt(x_jump)})) "
        f"+ {_fmt(u_right)} * (0.5 + 0.5 * sign(x - {_fmt(x_jump)}))",
        "[run]", f"u_min = {_fmt(hull[0])}", f"u_max = {_fmt(hull[1])}",
        "",
    ])


class ShockRun:
    """Burgers Riemann shock through ``run``: the largest mesh, nothing verified."""

    name = "shock_run"
    operations = 1
    hull = (-0.2, 1.0)

    def params(self, rng: random.Random) -> dict:
        return {"u_left": rng.uniform(0.8, 1.0), "u_right": rng.uniform(-0.2, -0.05),
                "x_jump": rng.uniform(0.35, 0.45)}

    def configs(self, p: dict, size: dict) -> list[str]:
        return [_riemann_config(p["u_left"], p["u_right"], p["x_jump"], 0.25, size["nx"],
                                ["builtin = burgers"], "godunov", self.hull)]

    def run_op(self, p: dict, size: dict, tr: Tracer, work: str,
               corrupt: bool = False) -> OpOutcome:
        [text] = self.configs(p, size)
        out = OpOutcome(attempted=1)
        with tr.span("op"):
            with tr.span("op.setup"):
                setup, solver = _setup(text, tr)
            with tr.span("op.solve"):
                result = _solve(solver, tr)
            if corrupt:
                _corrupt(result)
            with tr.span("op.write"):
                _write_run(result, setup, work, tr)
        out.cells = result.tri.n_slabs * result.tri.n_columns
        out.digest = _state_digest([result.final_state])
        oracle = BurgersRiemann(p["u_left"], p["u_right"], p["x_jump"])
        err = tr.wrap("harness.l1_error", l1_error)(result, oracle)
        out.info["l1_error"] = err
        problems = [_hull_problem(result, p["u_right"], p["u_left"])]
        if not err <= size["l1_max"]:
            problems.append(f"l1 error {err!r} above {size['l1_max']}")
        out.problems = [q for q in problems if q]
        out.failed = 1 if out.problems else 0
        return out


class AdvectionCheck:
    """Smooth transport on a circle through ``run`` and then ``entropy-check``."""

    name = "advection_check"
    operations = 2  # one solve, one verify

    def params(self, rng: random.Random) -> dict:
        return {"amplitude": rng.uniform(0.2, 0.3), "phase": rng.uniform(0.0, TWO_PI)}

    def configs(self, p: dict, size: dict) -> list[str]:
        return ["\n".join([
            "[spacetime]", f"domain = circle {_fmt(TWO_PI)}", "t_final = 0.5",
            "[flux]", "builtin = traveling_density",
            "[mesh]", f"nx = {size['nx']}", "cfl_target = 0.25",
            "[scheme]", "kind = godunov",
            "[boundary]", f"u_b = 0.5 + {_fmt(p['amplitude'])} * sin(x + {_fmt(p['phase'])})",
            "",
        ])]

    def run_op(self, p: dict, size: dict, tr: Tracer, work: str,
               corrupt: bool = False) -> OpOutcome:
        [text] = self.configs(p, size)
        out = OpOutcome(attempted=2)
        with tr.span("op"):
            with tr.span("op.setup"):
                setup, solver = _setup(text, tr)
            with tr.span("op.solve"):
                result = _solve(solver, tr)
            if corrupt:
                _corrupt(result)
            with tr.span("op.write"):
                json_path = _write_run(result, setup, work, tr)
            with tr.span("op.verify"):
                loaded, report = _entropy_check(json_path, work, tr)
        out.cells = result.tri.n_slabs * result.tri.n_columns
        out.digest = _state_digest([result.final_state])
        out.per_slab = report.per_slab
        a, phase = p["amplitude"], p["phase"]
        oracle = CharacteristicsLinear(u0=lambda s: 0.5 + a * np.sin(s + phase),
                                       domain=CircleDomain(TWO_PI))
        err = tr.wrap("harness.l1_error", l1_error)(result, oracle)
        out.info["l1_error"] = err
        solve_problems = [_hull_problem(result, 0.5 - a, 0.5 + a)]
        if not err <= size["l1_max"]:
            solve_problems.append(f"l1 error {err!r} above {size['l1_max']}")
        verify_problems = []
        if not report.passed:
            failing = [c.name for c in report.checks if not c.passed]
            verify_problems.append(f"entropy report failed: {failing}")
        if len(loaded.states) != len(result.states) or any(
                x.values.tobytes() != y.values.tobytes()
                or x.fluxes.tobytes() != y.fluxes.tobytes()
                for x, y in zip(loaded.states, result.states)):
            verify_problems.append("run artifact does not reproduce the states bit for bit")
        solve_problems = [q for q in solve_problems if q]
        out.problems = solve_problems + verify_problems
        out.failed = int(bool(solve_problems)) + int(bool(verify_problems))
        return out


class RarefactionLadder:
    """Burgers rarefaction with an expression flux, solved on a refinement ladder."""

    name = "rarefaction_ladder"
    hull = (-0.5, 0.6)
    x_jump = 0.5
    t_final = 0.15
    flux_lines = ["builtin = custom", "wx = u", "wt = -0.5 * u * u",
                  "dwx_du = 1", "dwt_du = -u"]

    @property
    def operations(self) -> int:
        return len(SIZES["full"][self.name]["nx"])

    def params(self, rng: random.Random) -> dict:
        return {"u_left": rng.uniform(-0.5, -0.3), "u_right": rng.uniform(0.4, 0.6)}

    def configs(self, p: dict, size: dict) -> list[str]:
        return [_riemann_config(p["u_left"], p["u_right"], self.x_jump, self.t_final, nx,
                                self.flux_lines, "rusanov", self.hull) for nx in size["nx"]]

    def run_op(self, p: dict, size: dict, tr: Tracer, work: str,
               corrupt: bool = False) -> OpOutcome:
        oracle = BurgersRiemann(p["u_left"], p["u_right"], self.x_jump)
        texts = self.configs(p, size)
        out = OpOutcome(attempted=len(texts))
        finals, errors, rung_problems = [], [], []
        with tr.span("op"):
            for rung, text in enumerate(texts):
                # rung spans carry the full ladder's labels so both sizes emit one name
                with tr.span(f"harness.rung_nx{SIZES['full'][self.name]['nx'][rung]}"):
                    with tr.span("op.setup"):
                        _, solver = _setup(text, tr)
                    with tr.span("op.solve"):
                        result = _solve(solver, tr)
                    if corrupt:
                        _corrupt(result)
                    errors.append(tr.wrap("harness.l1_error", l1_error)(result, oracle))
                rung_problems.append(_hull_problem(result, p["u_left"], p["u_right"]))
                out.cells += result.tri.n_slabs * result.tri.n_columns
                finals.append(result.final_state)
                del solver, result  # one rung's mesh in memory at a time
            order = fit_order([1.0 / nx for nx in size["nx"]], errors)
        out.digest = _state_digest(finals)
        out.info.update(l1_error=errors[-1], errors=errors, order=order)
        lo, hi = size["order_band"]
        if not errors[-1] <= size["l1_max"]:
            rung_problems[-1] = rung_problems[-1] or f"l1 error {errors[-1]!r} above {size['l1_max']}"
        if not all(b < a for a, b in zip(errors, errors[1:])):
            rung_problems[-1] = rung_problems[-1] or f"errors not strictly decreasing: {errors}"
        if not lo <= order <= hi:
            rung_problems[-1] = rung_problems[-1] or f"fitted order {order!r} outside [{lo}, {hi}]"
        out.problems = [q for q in rung_problems if q]
        out.failed = len(out.problems)
        return out


WORKLOADS = {w.name: w for w in (ShockRun(), AdvectionCheck(), RarefactionLadder())}


def workload_params(name: str, seed: int) -> dict:
    """Data parameters of a workload, drawn from its ranges by the seed alone."""
    return WORKLOADS[name].params(random.Random(f"{name}:{seed}"))
