import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from spacetime_fvm import presets
from spacetime_fvm.fluxfield import FluxField
from spacetime_fvm.forms import ParamForm
from spacetime_fvm.mesh import (
    Foliation,
    IntervalDomain,
    build_triangulation,
    uniform_times,
)
from spacetime_fvm.scheme import BoundaryData, NumericalFluxSpec, RunConfig, Solver, select_timestep

# property tests draw the same examples on every run and keep no example
# database; the constants Hypothesis caches from the source files go to a
# directory that lives for one session, so a run leaves no .hypothesis/
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


@pytest.fixture
def unit_interval():
    return IntervalDomain(0.0, 1.0)


@pytest.fixture
def burgers():
    return presets.burgers_flux((-1.5, 1.5))


def make_solver(flux, domain, t_final, bd, nx, kind="godunov_osher", cfl=0.25,
                u_range=None, hbar=None, **cfg_kwargs):
    """Assemble a solver with an automatically selected admissible slab height."""
    xs = np.linspace(domain.a, domain.b, nx + 1)
    spec = NumericalFluxSpec(kind)
    cfg = RunConfig(cfl_target=cfl, u_range=u_range, **cfg_kwargs)
    if hbar is None:
        hull = u_range
        if hull is None:
            probe = Solver(build_triangulation(
                Foliation(np.array([0.0, t_final]), domain), xs), flux, spec, bd, cfg)
            hull = probe.u_range
        hbar = select_timestep(domain, xs, flux, spec, hull, cfl, t_final)
    fol = Foliation(uniform_times(t_final, hbar), domain)
    tri = build_triangulation(fol, xs)
    return Solver(tri, flux, spec, bd, cfg)


def constant_bd(value):
    return BoundaryData(u=lambda p, _v=value: np.full(p.shape[:-1], _v))


def step_bd(x_jump, left, right):
    return BoundaryData(
        u=lambda p: np.where(p[..., 1] < x_jump, left, right))


def classical_godunov_step(u, u_ghost_left, u_ghost_right, f, lam, n_scan=4001):
    """Reference scalar Godunov update for the flat flux u_t + f(u)_x = 0.

    Independent oracle: interface fluxes by dense scanning of f over the
    Riemann interval, explicit conservative update with ratio lam = dt/dx.
    """
    ext = np.concatenate([[u_ghost_left], u, [u_ghost_right]])

    def riemann_flux(a, b):
        lo, hi = min(a, b), max(a, b)
        w = np.linspace(lo, hi, n_scan)
        return float(np.min(f(w))) if a <= b else float(np.max(f(w)))

    flux_vals = np.array([riemann_flux(ext[i], ext[i + 1]) for i in range(len(ext) - 1)])
    return u - lam * (flux_vals[1:] - flux_vals[:-1])


def counting_flux(flux):
    """The same flux with coefficients that record every call.

    Returns ``(flux, calls)``: ``calls[("w", axis)]`` and ``calls[("dw", axis)]``
    list the number of points each call of the form coefficient or its
    u-derivative evaluated, so ``len`` counts calls and ``sum`` points.
    """
    calls = defaultdict(list)

    def counted(key, fn):
        def wrapper(pts, u):
            out = fn(pts, u)
            calls[key].append(int(np.size(out)))
            return out
        return wrapper

    omega = flux.omega
    counted_omega = ParamForm(
        omega.degree, omega.chart_dim,
        {idx: counted(("w",) + idx, fn) for idx, fn in omega.coeffs.items()},
        {idx: counted(("dw",) + idx, fn) for idx, fn in omega.du_coeffs.items()},
        omega.u_range, partials=omega.partials)
    return FluxField(omega=counted_omega, domain=flux.domain,
                     growth_bound=flux.growth_bound, name=flux.name), calls
