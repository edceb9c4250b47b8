"""Package-wide contracts: every exported name resolves, and no computation
builds a per-face mesh view."""

import importlib
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_solver

import spacetime_fvm
from spacetime_fvm import presets
from spacetime_fvm.cli import EXIT_OK, main
from spacetime_fvm.entropy import KruzkovPair, contraction_check, global_entropy_inequality_report
from spacetime_fvm.harness import bump_test_function
from spacetime_fvm.mesh import IntervalDomain, Triangulation
from spacetime_fvm.scheme import BoundaryData, Solver

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
    """Every command and report reads the partitions, never a Face/Cell view."""

    @pytest.fixture(autouse=True)
    def refuse_views(self, monkeypatch):
        def refuse(self, tag, a, b):
            raise AssertionError(f"built the mesh object {(tag, a, b)}")

        monkeypatch.setattr(Triangulation, "_face", refuse)
        monkeypatch.setattr(Triangulation, "_cell", refuse)

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
