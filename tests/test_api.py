"""Package-wide contracts: every exported name resolves, and no computation
builds a per-face mesh view."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_solver

import spacetime_fvm
from spacetime_fvm import presets
from spacetime_fvm.cli import EXIT_OK, main
from spacetime_fvm.entropy import (
    KruzkovPair,
    contraction_check,
    global_entropy_inequality_report,
    verify_run,
)
from spacetime_fvm.harness import (
    boundary_driven_burgers_case,
    bump_test_function,
    burgers_riemann_case,
)
from spacetime_fvm.mesh import CircleDomain, IntervalDomain
from spacetime_fvm.scheme import BoundaryData, NumericalFluxSpec, Solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ["spacetime_fvm"] + [f"spacetime_fvm.{m.name}"
                               for m in pkgutil.iter_modules(spacetime_fvm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["tracing", "workloads"])
def test_benchmark_modules_import(name, monkeypatch):
    """The benchmark imports library names at load: a rename fails here, not there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        importlib.import_module(name)
    finally:
        for module in ("tracing", "workloads"):
            sys.modules.pop(module, None)


def _advection_on_circle():
    flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s))
    bd = BoundaryData(u=lambda p: 0.5 + 0.25 * np.sin(p[..., 1] + 1.0))
    return make_solver(flux, CircleDomain(2.0 * np.pi), 0.3, bd, nx=12).run()


@pytest.mark.parametrize("make", [
    _advection_on_circle,
    lambda: boundary_driven_burgers_case(t_final=0.2).run(12),
    # states at the hull ends, on every slab's boundary faces
    lambda: burgers_riemann_case(1.0, 0.0).run(40),
    lambda: boundary_driven_burgers_case(t_final=0.2, spec=NumericalFluxSpec("rusanov")).run(12),
], ids=["advection-circle", "boundary-driven-burgers", "riemann-1-0", "boundary-driven-rusanov"])
def test_traced_verify_mirrors_verify_run(make, monkeypatch):
    """The benchmark's traced verify, built from the public checks, gives
    ``verify_run``'s report bit for bit, so the two cannot drift apart."""
    result = make()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracing = importlib.import_module("tracing")
        traced = tracing.traced_verify(result, tracing.Tracer(True))
    finally:
        sys.modules.pop("tracing", None)
    report = verify_run(result)
    assert traced.per_slab == report.per_slab
    assert traced.to_json() == report.to_json()


def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` exits 0: among its checks, the traced run
    (whose flux drops the reads_t and u_free_du declarations) reproduces the
    untraced run bit for bit, so a declared path that changes rounding fails
    here."""
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True,
                          text=True, timeout=300, check=False,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"


CONFIG = """
[spacetime]
domain = interval 0 1
t_final = 0.1

[flux]
builtin = burgers

[mesh]
nx = 12
cfl_target = 0.25

[boundary]
u_b = 0.7 + 0.2 * sin(3 * x - t)

[convergence]
case = shock
meshes = 8,16
t_final = 0.1
order_band = 0.0,5.0

[mesh_report]
region = 0.0 0.05 0.0 0.5

[output]
directory = {out}
"""


class TestNoMeshObjects:
    """Every command and report runs on a mesh of ids: the two partitions."""

    def test_cli_commands(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG.format(out=out))
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert main(["entropy-check", "--run", os.path.join(out, "run.json")]) == EXIT_OK
        assert main(["mesh-report", "--config", str(cfg)]) == EXIT_OK
        assert main(["convergence", "--config", str(cfg)]) == EXIT_OK

    def test_contraction_and_global_reports(self):
        flux = presets.burgers_flux((-1.5, 1.5))
        bd_u = BoundaryData(u=lambda p: 0.6 + 0.3 * np.sin(2 * np.pi * (p[..., 1] - p[..., 0])))
        bd_v = BoundaryData(u=lambda p: 0.4 + 0.2 * np.cos(3 * p[..., 0] + p[..., 1]))
        su = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, bd_u, nx=8, u_range=(-1.0, 1.0))
        ru = su.run()
        rv = Solver(su.tri, flux, su.spec, bd_v, su.cfg).run()
        rep = contraction_check(ru, rv)
        assert rep.passed and np.all(rep.budgets > 0.0)
        psi = bump_test_function(0.04, 0.5, 0.03, 0.3)
        assert global_entropy_inequality_report(ru, psi, KruzkovPair(0.5), solver=su).satisfied
