"""Spans, counters and the mirrored loops of the traced benchmark run.

Every span is recorded from the benchmark's own code, around calls into the
library's public functions; nothing inside ``src/`` is instrumented.  The
traced run re-runs the slab loop of ``Solver.run`` and the per-slab loop of
``entropy.verify_run`` step by step so that each layer gets its own span, and
the caller asserts that both mirrors reproduce the library's results bit for
bit.  When either loop changes in ``src/``, its mirror here must change too.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from spacetime_fvm.entropy import (
    CheckSummary,
    EntropyReport,
    convex_decomposition_residual,
    cell_entropy_residuals,
    decomposition_states,
    face_entropy_residuals,
    global_dissipation_report,
    kruzkov_lattice,
    kruzkov_numerical_flux,
    outflow_entropy_convexity_residual,
    square_pair,
)
from spacetime_fvm.fluxfield import FluxField
from spacetime_fvm.forms import ParamForm
from spacetime_fvm.scheme import (
    CFL_LIMIT,
    CFLViolation,
    RunResult,
    SliceState,
    Solver,
)


class Tracer:
    """In-memory spans ``(name, start, end, parent, op)`` plus named counters.

    Spans nest through a stack; ``parent`` is the index of the enclosing span
    (-1 at the top).  ``count_evals`` attributes flux-coefficient point
    evaluations to the innermost open span.  With ``detail`` off the workload
    code only opens its few phase spans, which is what the untraced run
    measures.
    """

    def __init__(self, detail: bool):
        self.detail = detail
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.evals: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` itself without detail, else ``fn`` inside a span named ``name``."""
        if not self.detail:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def count_evals(self, n: int) -> None:
        name = self.spans[self._stack[-1]][0] if self._stack else "untraced"
        self.evals[name] += n

    def durations(self, op: int | None = None) -> dict[str, float]:
        """Summed span time per name, optionally for one operation only."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, span_op in self.spans:
            if end is not None and (op is None or span_op == op):
                out[name] += end - start
        return out

    def to_dict(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                          for n, s, e, p, o in self.spans],
                "counters": dict(self.counters), "evals": dict(self.evals)}


class GcTimer:
    """Time spent in, and the number of, cyclic garbage collections."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False


def counting_flux(flux: FluxField, tracer: Tracer) -> FluxField:
    """The same flux field with coefficients that count the points they evaluate."""

    def counted(fn):
        def wrapper(pts, u):
            out = fn(pts, u)
            tracer.count_evals(int(np.size(out)))
            return out
        return wrapper

    omega = flux.omega
    counted_omega = ParamForm(
        omega.degree, omega.chart_dim,
        {idx: counted(fn) for idx, fn in omega.coeffs.items()},
        {idx: counted(fn) for idx, fn in omega.du_coeffs.items()},
        omega.u_range, partials=omega.partials)
    return FluxField(omega=counted_omega, domain=flux.domain,
                     growth_bound=flux.growth_bound, name=flux.name)


def traced_run(solver: Solver, tr: Tracer) -> RunResult:
    """``Solver.run`` step by step, one span per layer call (single thread)."""
    start = time.perf_counter()
    tri = solver.tri
    with tr.span("scheme.initial_state"):
        state = solver.initial_state()
    states = [state]
    lambda_max = []
    for j in range(tri.n_slabs):
        with tr.span("mesh.table"):
            solver.slice_table(j)
            solver.slice_table(j + 1)
        with tr.span("scheme.slab_setup"):
            slab = solver.slab(j)
        tr.add("scheme.criticals", int(np.count_nonzero(np.isfinite(slab.vert.crit_w))))
        with tr.span("scheme.lambdas"):
            report = slab.lambdas()
        lambda_max.append(report.max_cell_ratio())
        if solver.cfg.enforce_cfl and not report.passed:
            raise CFLViolation(f"slab {j}: max cell ratio {report.max_cell_ratio():.6f} "
                               f"exceeds {CFL_LIMIT}")
        with tr.span("scheme.flux"):
            rhs = slab.rhs(state)
        with tr.span("mesh.invert"):
            u_plus = slab.table_plus.invert(rhs, tol=solver.cfg.inversion_tol)
        state = SliceState(j + 1, slab.table_plus.face_ids, u_plus, rhs)
        states.append(state)
    tr.add("scheme.slabs", tri.n_slabs)
    tr.add("scheme.cell_updates", tri.n_slabs * tri.n_columns)
    tr.add("scheme.cell_nodes", tri.n_slabs * tri.n_columns * solver.rule.weights.size)
    return RunResult(tri=tri, flux=solver.flux, spec=solver.spec, bd=solver.bd,
                     cfg=solver.cfg, u_range=solver.u_range, states=states,
                     lambda_max=lambda_max, wall_time=time.perf_counter() - start)


def traced_verify(result: RunResult, tr: Tracer, tol: float | None = None) -> EntropyReport:
    """``verify_run`` with a fresh solver, one span per check family."""
    tri = result.tri
    with tr.span("entropy.table_rebuild"):
        solver = Solver(tri, result.flux, result.spec, result.bd, result.cfg)
    flux_scale = max(float(np.max(np.abs(s.fluxes))) for s in result.states)
    tol = tol if tol is not None else 1e-9 * (1.0 + flux_scale)
    names = ["decomposition_identity", "bracketing", "face_inequality",
             "face_inequality_neighbor", "cell_inequality", "boundary_condition",
             "outflow_convexity_square", "conservation_identity", "dissipation_slack"]
    per_slab: dict[str, list[float]] = {n: [] for n in names}
    lattice_sizes = []
    for j in range(tri.n_slabs):
        with tr.span("entropy.table_rebuild"):
            solver.slice_table(j)
            solver.slice_table(j + 1)
            slab = solver.slab(j)
        state = result.states[j]
        state_next = result.states[j + 1]
        with tr.span("entropy.decomposition"):
            decomp = decomposition_states(slab, state)
        with tr.span("entropy.lattice"):
            c_vals = kruzkov_lattice(slab, state)
        lattice_sizes.append(int(c_vals.size))
        with tr.span("entropy.identity"):
            per_slab["decomposition_identity"].append(
                float(np.max(convex_decomposition_residual(slab, decomp, state_next))))
            per_slab["bracketing"].append(decomp.bracket_residual)
        with tr.span("entropy.face"):
            face_res = face_entropy_residuals(slab, decomp, state, c_vals)
            per_slab["face_inequality"].append(float(np.max(face_res["face_inequality"])))
            per_slab["face_inequality_neighbor"].append(float(np.max(face_res["boundary"])))
        with tr.span("entropy.cell"):
            per_slab["cell_inequality"].append(
                float(np.max(cell_entropy_residuals(slab, state, state_next, c_vals))))
        with tr.span("entropy.boundary"):
            bc = 0.0
            ghosts = slab.ghost_values()
            sides = [] if slab.periodic else [(0, "left", ghosts[0]),
                                              (slab.m - 1, "right", ghosts[1])]
            for column, side, b in sides:
                u_own = float(state.values[column])
                q_ub = float(slab.numerical_flux(column, side, u_own, b))
                q_bb = float(slab.numerical_flux(column, side, b, b))
                qo_ub = np.asarray(kruzkov_numerical_flux(slab, column, side, u_own, b, c_vals))
                qo_bb = np.asarray(kruzkov_numerical_flux(slab, column, side, b, b, c_vals))
                lhs = np.sign(b - c_vals) * (q_ub - q_bb)
                bc = max(bc, float(np.max(np.maximum(0.0, lhs - (qo_ub - qo_bb)))))
            per_slab["boundary_condition"].append(bc)
        with tr.span("entropy.convexity"):
            per_slab["outflow_convexity_square"].append(float(np.max(
                outflow_entropy_convexity_residual(slab, decomp, state_next, square_pair()))))
        with tr.span("entropy.identity"):
            per_slab["conservation_identity"].append(float(np.max(np.abs(
                slab.table_plus.q(state_next.values) - state_next.fluxes))))
        with tr.span("entropy.dissipation"):
            rep = global_dissipation_report(slab, decomp, state, state_next)
            worst = max(0.0, -rep.slack_general)
            if rep.slack_square_variant is not None:
                worst = max(worst, -rep.slack_square_variant)
            per_slab["dissipation_slack"].append(worst)
    checks = []
    for name in names:
        series = per_slab[name]
        worst = max(series) if series else 0.0
        checks.append(CheckSummary(name=name, max_residual=float(worst), tol=tol,
                                   n_checked=len(series), passed=bool(worst <= tol)))
    tr.add("entropy.lattice_points", sum(lattice_sizes))
    return EntropyReport(checks=checks, per_slab=per_slab, tol=tol,
                         c_lattice_sizes=lattice_sizes)
