import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from spacetime_fvm import presets, scheme
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


def block_ranges(tri):
    """The slabs of each of a solver's table blocks on ``tri``: runs of one nominal
    height, cut every ``BLOCK_ROWS // m`` slabs from the run's first slab."""
    size, blocks = max(1, scheme.BLOCK_ROWS // tri.n_columns), []
    for j in range(tri.n_slabs):
        if blocks and len(blocks[-1]) < size and tri.heights[j] == tri.heights[blocks[-1].start]:
            blocks[-1] = range(blocks[-1].start, j + 1)
        else:
            blocks.append(range(j, j + 1))
    return blocks


def signed_flux(slab, column, side, u):
    """g_{K, e}(u): the oriented total flux through a vertical face of cell row ``column``
    as the cell sees it, one face-flux call per state."""
    idx = slab.right_idx[column] if side == "right" else slab.left_idx[column]
    sign = 1.0 if side == "right" else -1.0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    faces = np.full(u.shape[0], idx, dtype=int)
    return sign * slab.vert.G(u, faces=faces)


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


@st.composite
def densities(draw):
    """A positive density ``a0 (1 + ratio sin(k s + phase))`` and its derivative."""
    a0 = draw(st.floats(0.5, 3.0))
    ratio = draw(st.floats(-0.9, 0.9))
    k = draw(st.floats(0.5, 12.0))
    phase = draw(st.floats(0.0, 2 * np.pi))
    return (lambda s: a0 + ratio * a0 * np.sin(k * s + phase),
            lambda s: ratio * a0 * k * np.cos(k * s + phase))


def capacity_field(density, u_range):
    """``a(x) u dx - u^2/2 dt`` for a density ``(a, da)`` drawn by :func:`densities`."""
    a, da = density
    return presets.capacity_flux(a, da, lambda w: 0.5 * np.asarray(w) ** 2,
                                 lambda w: np.asarray(w), u_range)


@st.composite
def flux_fields(draw, u_range):
    """A random ``capacity_flux`` or ``traveling_density_flux`` field on ``u_range``."""
    density = draw(densities())
    if draw(st.sampled_from(["capacity", "traveling_density"])) == "capacity":
        return capacity_field(density, u_range)
    return presets.traveling_density_flux(*density, u_range)


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
    """The same flux, declarations included, with coefficients that record every call.

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
                     growth_bound=flux.growth_bound, name=flux.name, reads_t=flux.reads_t,
                     u_free_du=flux.u_free_du), calls
