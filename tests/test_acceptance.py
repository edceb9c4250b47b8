"""Acceptance suite: one test per release criterion.

Each criterion prints a single [PASS]/[FAIL] line with its headline
numbers; tolerances and runtime budgets are pinned here and are not
configurable.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they complete.
"""

import time

import numpy as np
import pytest

from conftest import constant_bd, make_solver, signed_flux, step_bd

from spacetime_fvm import presets
from spacetime_fvm.cli import EXIT_OK, EXIT_SCHEME_ABORT, EXIT_VERIFICATION, main
from spacetime_fvm.entropy import (
    KruzkovPair,
    contraction_check,
    decomposition_states,
    convex_decomposition_residual,
    global_entropy_inequality_report,
    verify_run,
)
from spacetime_fvm.harness import (
    advection_circle_case,
    appendix_examples,
    boundary_driven_burgers_case,
    bump_test_function,
    burgers_riemann_case,
    convergence_study,
    trace_convergence_check,
)
from spacetime_fvm.mesh import (
    CircleDomain,
    Foliation,
    IntervalDomain,
    build_triangulation,
)
from spacetime_fvm.scheme import BoundaryData, NumericalFluxSpec, RunConfig, Solver


def _report(number, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} ({detail})")
    assert ok, f"criterion {number}: {description} -- {detail}"


def _run_uniform(flux, domain, n_slabs, nx, t_final, bd, u_range, kind="godunov_osher"):
    fol = Foliation(np.linspace(0.0, t_final, n_slabs + 1), domain)
    tri = build_triangulation(fol, nx)
    cfg = RunConfig(cfl_target=0.5, u_range=u_range)
    return Solver(tri, flux, NumericalFluxSpec(kind), bd, cfg).run()


# -- criterion 1: constant preservation --------------------------------------

def test_criterion_01_constant_preservation():
    start = time.perf_counter()
    nx = 64
    worst = 0.0

    flux = presets.burgers_flux((0.0, 1.4))
    result = _run_uniform(flux, IntervalDomain(0.0, 1.0), 64, nx,
                          t_final=64 * (1.0 / nx) / 4, bd=constant_bd(0.7),
                          u_range=(0.6, 0.8))
    worst = max(worst, max(float(np.max(np.abs(s.values - 0.7))) for s in result.states))

    phi_flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
    dx = 2 * np.pi / nx
    result2 = _run_uniform(phi_flux, CircleDomain(2 * np.pi), 64, nx,
                           t_final=64 * dx / 24, bd=constant_bd(0.7),
                           u_range=(0.6, 0.8))
    worst = max(worst, max(float(np.max(np.abs(s.values - 0.7))) for s in result2.states))

    elapsed = time.perf_counter() - start
    _report(1, "constant data preserved on 64x64 slabs", worst <= 1e-9 and elapsed < 1.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


# -- criterion 2: maximum principle -------------------------------------------

def test_criterion_02_maximum_principle():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst_excess = -np.inf
    for trial in range(20):
        a1, a2 = rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)
        c = rng.uniform(-1.0, 1.0, 3)
        kind = "godunov_osher" if trial % 2 == 0 else "rusanov"
        vals = rng.uniform(-0.8, 0.8, 3)  # initial left/right and lateral trace
        xj = rng.uniform(0.3, 0.7)
        sup_data = float(np.max(np.abs(vals)))

        flux = presets.capacity_flux(
            lambda x, _a1=a1, _a2=a2: 1.0 + _a1 * x + _a2 * x * x,
            lambda x, _a1=a1, _a2=a2: _a1 + 2.0 * _a2 * x,
            lambda u, _c=c: _c[0] * u + _c[1] * u * u / 2 + _c[2] * u**3 / 3,
            lambda u, _c=c: _c[0] + _c[1] * u + _c[2] * u * u,
            (-1.0, 1.0))

        def u_b(p, _v=vals, _xj=xj):
            initial = np.where(p[..., 1] < _xj, _v[0], _v[1])
            return np.where(np.abs(p[..., 0]) < 1e-13, initial, _v[2])

        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.12,
                             BoundaryData(u=u_b), nx=12, kind=kind,
                             u_range=(-0.8, 0.8))
        result = solver.run()
        sup_run = max(float(np.max(np.abs(s.values))) for s in result.states)
        worst_excess = max(worst_excess, sup_run - sup_data)
    elapsed = time.perf_counter() - start
    _report(2, "randomized runs respect the data bound",
            worst_excess <= 1e-12 and elapsed < 30.0,
            f"max excess {worst_excess:.2e}, {elapsed:.1f}s")


# -- criterion 3: numerical flux axioms ---------------------------------------

@pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
def test_criterion_03_numerical_flux_axioms(kind):
    start = time.perf_counter()
    flux = presets.burgers_flux((-1.2, 1.2))
    solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.05, constant_bd(0.0),
                         nx=4, kind=kind, u_range=(-1.0, 1.0), hbar=0.05)
    slab = solver.slab(0)
    rng = np.random.default_rng(7)
    n = 1000
    u = rng.uniform(-0.95, 0.95, n)
    v = rng.uniform(-0.95, 0.95, n)
    delta = 1e-6

    # consistency: two-point flux at coinciding states equals the face flux
    g_own = np.array([signed_flux(slab, 1, "right", float(w))[0] for w in u[:50]])
    q_diag = np.asarray(slab.numerical_flux(1, "right", u[:50], u[:50]))
    consistency = float(np.max(np.abs(q_diag - g_own)))

    # conservation: the neighboring cell sees the negated flux
    from_left = np.asarray(slab.numerical_flux(1, "right", u, v))
    from_right = np.asarray(slab.numerical_flux(2, "left", v, u))
    conservation = float(np.max(np.abs(from_left + from_right)))

    # monotonicity by central differences in each slot
    dqu = (np.asarray(slab.numerical_flux(1, "right", u + delta, v))
           - np.asarray(slab.numerical_flux(1, "right", u - delta, v))) / (2 * delta)
    dqv = (np.asarray(slab.numerical_flux(1, "right", u, v + delta))
           - np.asarray(slab.numerical_flux(1, "right", u, v - delta))) / (2 * delta)
    mono = float(max(np.max(-dqu), np.max(dqv)))

    elapsed = time.perf_counter() - start
    ok = consistency <= 1e-7 and conservation <= 1e-7 and mono <= 1e-7 and elapsed < 5.0
    _report(3, f"{kind} satisfies the three flux axioms", ok,
            f"consistency {consistency:.1e}, conservation {conservation:.1e}, "
            f"monotonicity excess {mono:.1e}, {elapsed:.1f}s")


# -- shared runs for criteria 4-6 ---------------------------------------------

@pytest.fixture(scope="module")
def entropy_gate_runs():
    cases = []
    for kind in ("godunov_osher", "rusanov"):
        spec = NumericalFluxSpec(kind)
        cases.append(("shock", burgers_riemann_case(1.0, 0.0, t_final=0.25, spec=spec)))
        cases.append(("rarefaction",
                      burgers_riemann_case(-0.5, 0.5, t_final=0.25, spec=spec)))
        cases.append(("boundary_driven",
                      boundary_driven_burgers_case(t_final=0.4, spec=spec)))
    out = []
    for label, case in cases:
        tri, cfg = case.build(16)
        solver = Solver(tri, case.flux, case.spec, case.bd, cfg)
        result = solver.run()
        out.append((f"{label}/{case.spec.kind.value}", solver, result))
    return out


def test_criterion_04_convex_decomposition_identity(entropy_gate_runs):
    start = time.perf_counter()
    label, solver, result = next(
        (entry for entry in entropy_gate_runs if entry[0] == "shock/godunov_osher"))
    worst = 0.0
    for j in range(result.tri.n_slabs):
        slab = solver.slab(j)
        dec = decomposition_states(slab, result.states[j])
        worst = max(worst, float(np.max(
            convex_decomposition_residual(slab, dec, result.states[j + 1]))))
    elapsed = time.perf_counter() - start
    _report(4, "convex decomposition recombines the update exactly",
            worst <= 1e-9 and elapsed < 5.0, f"max residual {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def entropy_gate_reports(entropy_gate_runs):
    reports = []
    start = time.perf_counter()
    for label, solver, result in entropy_gate_runs:
        reports.append((label, verify_run(result, solver=solver)))
    return reports, time.perf_counter() - start


def test_criterion_05_discrete_entropy_inequalities(entropy_gate_reports):
    reports, elapsed = entropy_gate_reports
    worst = 0.0
    worst_label = ""
    for label, report in reports:
        for check in report.checks:
            if check.name in ("face_inequality", "face_inequality_neighbor", "cell_inequality",
                              "boundary_condition"):
                if check.max_residual > worst:
                    worst = check.max_residual
                    worst_label = f"{label}:{check.name}"
    _report(5, "face, cell and boundary entropy inequalities hold",
            worst <= 1e-9 and elapsed < 30.0,
            f"max residual {worst:.2e} at {worst_label or 'n/a'}, {elapsed:.1f}s")


def test_criterion_06_global_dissipation(entropy_gate_reports):
    reports, _ = entropy_gate_reports
    worst = 0.0
    for label, report in reports:
        for check in report.checks:
            if check.name == "dissipation_slack":
                worst = max(worst, check.max_residual)
    _report(6, "per-slab dissipation estimate has non-negative slack",
            worst <= 1e-9, f"max slack violation {worst:.2e}")


# -- criterion 7: contraction --------------------------------------------------

def test_criterion_07_kruzkov_contraction():
    start = time.perf_counter()
    flux = presets.burgers_flux((-1.5, 1.5))

    dom_c = CircleDomain(1.0)
    bd_u = BoundaryData(u=lambda p: 0.7 * np.sin(2 * np.pi * p[..., 1]))
    bd_v = BoundaryData(u=lambda p: 0.4 * np.cos(2 * np.pi * p[..., 1]) + 0.1)
    su = make_solver(flux, dom_c, 0.35, bd_u, nx=24, u_range=(-0.8, 0.8))
    sv = Solver(su.tri, flux, su.spec, bd_v, su.cfg)
    circle = contraction_check(su.run(), sv.run(), tol=1e-9)

    dom_i = IntervalDomain(0.0, 1.0)
    bd_u2 = BoundaryData(u=lambda p: 0.6 + 0.3 * np.sin(2 * np.pi * (p[..., 1] - p[..., 0])))
    bd_v2 = BoundaryData(u=lambda p: 0.4 + 0.2 * np.cos(3 * p[..., 0] + p[..., 1]))
    su2 = make_solver(flux, dom_i, 0.3, bd_u2, nx=24, u_range=(-1.0, 1.0))
    sv2 = Solver(su2.tri, flux, su2.spec, bd_v2, su2.cfg)
    interval = contraction_check(su2.run(), sv2.run(), tol=1e-9)

    elapsed = time.perf_counter() - start
    ok = circle.passed and interval.passed and elapsed < 10.0
    _report(7, "slice distances contract within the boundary budget", ok,
            f"circle slack {circle.max_slack:.2e}, interval slack "
            f"{interval.max_slack:.2e}, {elapsed:.1f}s")


# -- criterion 8: convergence ---------------------------------------------------

def test_criterion_08_convergence_orders():
    start = time.perf_counter()
    meshes = [40, 80, 160, 320]
    results = {}
    results["advection"] = convergence_study(advection_circle_case(t_final=0.5), meshes)
    results["rarefaction"] = convergence_study(
        burgers_riemann_case(-0.5, 0.5, t_final=0.25), meshes)
    results["shock"] = convergence_study(burgers_riemann_case(1.0, 0.0, t_final=0.25),
                                         meshes)
    elapsed = time.perf_counter() - start
    bands = {"advection": (0.7, 1.1), "rarefaction": (0.6, 1.1), "shock": (0.5, 1.1)}
    ok = elapsed < 120.0
    detail = []
    for name, study in results.items():
        lo, hi = bands[name]
        good = study.strictly_decreasing and lo <= study.order <= hi
        ok = ok and good
        detail.append(f"{name} {study.order:.3f}")
    _report(8, "refinement orders inside their bands", ok,
            ", ".join(detail) + f", {elapsed:.0f}s")


# -- criterion 9: boundary trace -------------------------------------------------

def test_criterion_09_boundary_trace():
    start = time.perf_counter()
    case = advection_circle_case(t_final=0.25)
    study = trace_convergence_check(case, [20, 40, 80, 160])
    elapsed = time.perf_counter() - start
    ok = study.decreasing and study.order >= 0.5 and elapsed < 60.0
    _report(9, "first-slice distance to the inflow data shrinks", ok,
            f"order {study.order:.2f}, distances "
            f"{['%.2e' % d for d in study.distances]}, {elapsed:.0f}s")


# -- criterion 10: classification examples ---------------------------------------

def test_criterion_10_appendix_reproduction():
    start = time.perf_counter()
    rep = appendix_examples()
    elapsed = time.perf_counter() - start
    ok = rep.matches_expected and elapsed < 5.0
    _report(10, "reference geometries classify as expected", ok,
            f"annulus spacelike boundary faces {rep.annulus_spacelike_boundary_count}, "
            f"inflow {sorted(rep.hole_inflow)}, {elapsed:.1f}s")


# -- criterion 11: remainder terms vanish -----------------------------------------

def test_criterion_11_remainder_terms_shrink():
    start = time.perf_counter()
    psi = bump_test_function(0.1, 0.45, 0.09, 0.25)
    flux = presets.burgers_flux((-1.2, 1.2))
    totals = []
    for nx in (12, 24, 48):
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.25,
                             step_bd(0.4, 1.0, 0.0), nx=nx, u_range=(0.0, 1.0))
        result = solver.run()
        rep = global_entropy_inequality_report(result, psi, KruzkovPair(0.3),
                                               solver=solver)
        assert rep.satisfied
        totals.append(rep.remainder_total)
    elapsed = time.perf_counter() - start
    ok = totals[0] > totals[1] > totals[2] and elapsed < 60.0
    _report(11, "global inequality remainder terms decrease under refinement", ok,
            f"totals {['%.2e' % t for t in totals]}, {elapsed:.0f}s")


# -- criterion 12: guard behavior ---------------------------------------------------

def test_criterion_12_guards_never_silent(tmp_path):
    outcomes = []

    # injected non-monotone flux through the command line
    cfg1 = tmp_path / "broken.ini"
    cfg1.write_text(f"""
[spacetime]
domain = interval 0 1
t_final = 0.2

[flux]
builtin = burgers

[mesh]
nx = 16
cfl_target = 0.25

[scheme]
kind = antidiffusive
rusanov_speed = 0.002
enforce_cfl = false

[boundary]
u_b = sign(x - 0.4) * (-0.5) + 0.5

[output]
directory = {tmp_path / 'out1'}
""")
    code = main(["run", "--config", str(cfg1)])
    if code == EXIT_SCHEME_ABORT:
        outcomes.append(("non-monotone flux", "abort"))
    else:
        assert code == EXIT_OK
        code = main(["entropy-check", "--run", str(tmp_path / "out1" / "run.json")])
        assert code in (EXIT_SCHEME_ABORT, EXIT_VERIFICATION)
        outcomes.append(("non-monotone flux", f"exit {code}"))

    # breached stability bound with enforcement off
    cfg2 = tmp_path / "cfl.ini"
    cfg2.write_text(f"""
[spacetime]
domain = interval 0 1
t_final = 0.5

[flux]
builtin = burgers

[mesh]
nx = 16
cfl_target = 0.25
dt = 0.2

[scheme]
enforce_cfl = false

[boundary]
u_b = sign(x - 0.4) * (-0.5) + 0.5

[output]
directory = {tmp_path / 'out2'}
""")
    code = main(["run", "--config", str(cfg2)])
    if code == EXIT_SCHEME_ABORT:
        outcomes.append(("stability breach", "abort"))
    else:
        assert code == EXIT_OK
        code = main(["entropy-check", "--run", str(tmp_path / "out2" / "run.json")])
        assert code in (EXIT_SCHEME_ABORT, EXIT_VERIFICATION)
        outcomes.append(("stability breach", f"exit {code}"))

    # with enforcement on, the same height aborts up front
    cfg3 = tmp_path / "cfl_enforced.ini"
    cfg3.write_text(cfg2.read_text().replace("enforce_cfl = false",
                                             "enforce_cfl = true"))
    code = main(["run", "--config", str(cfg3)])
    assert code == EXIT_SCHEME_ABORT
    outcomes.append(("enforced bound", "abort"))

    _report(12, "broken fluxes and stability breaches fail loudly", True,
            "; ".join(f"{k}: {v}" for k, v in outcomes))
