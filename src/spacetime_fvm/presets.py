"""Built-in flux fields, observers and reference geometries.

Solver charts use coordinates ``(t, x)`` with ``dt ^ dx`` positive; the
two classification examples live on ``(x, y)`` charts with ``dx ^ dy``
positive.  All built-ins carry analytic u-derivatives and analytic chart
partials, so geometry-compatibility checks are exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fluxfield import (
    AnnulusDomain,
    FluxField,
    Observer,
    RectangleDomain,
    RectangleWithHoleDomain,
)
from .forms import CoordinateForm, FaceChart, ParamForm

__all__ = [
    "BoundaryPiece",
    "annulus_example",
    "burgers_flux",
    "capacity_flux",
    "flat_flux",
    "linear_advection_flux",
    "square_with_hole_example",
    "traveling_density_flux",
    "time_axis_observer",
]

_T, _X = 0, 1  # chart axis order on solver charts


def _zero(pts, u):
    return np.zeros(np.broadcast_shapes(np.shape(pts)[:-1], np.shape(u)))


def time_axis_observer() -> Observer:
    """The observer ``T = dt`` on a (t, x) chart."""
    return Observer(CoordinateForm(1, 2, {(_T,): 1.0}))


def flat_flux(f: Callable, df: Callable, u_range: tuple[float, float],
              domain: RectangleDomain | None = None, name: str = "flat") -> FluxField:
    """``omega(u) = u dx - f(u) dt`` on a flat (t, x) chart.

    This is the classical conservation law ``u_t + f(u)_x = 0``; it is
    geometry compatible for any f since neither coefficient depends on
    the chart point, and it declares ``reads_t=False`` and, as the dx
    derivative is 1, ``u_free_du={(1,)}``.
    """
    dom = domain if domain is not None else RectangleDomain((0.0, 0.0), (1.0, 1.0))
    coeffs = {(_T,): lambda pts, u: -np.asarray(f(u)) + 0.0 * pts[..., 0],
              (_X,): lambda pts, u: np.asarray(u) + 0.0 * pts[..., 0]}
    du = {(_T,): lambda pts, u: -np.asarray(df(u)) + 0.0 * pts[..., 0],
          (_X,): lambda pts, u: np.ones(np.broadcast_shapes(np.shape(pts)[:-1], np.shape(u)))}
    partials = {(_T,): {_T: _zero, _X: _zero}, (_X,): {_T: _zero, _X: _zero}}
    omega = ParamForm(1, 2, coeffs, du, u_range, partials=partials)
    return FluxField(omega=omega, domain=dom, name=name, reads_t=False,
                     u_free_du=frozenset({(_X,)}))


def burgers_flux(u_range: tuple[float, float] = (-1.0, 1.0),
                 domain: RectangleDomain | None = None) -> FluxField:
    return flat_flux(lambda u: 0.5 * np.asarray(u) ** 2, lambda u: np.asarray(u),
                     u_range, domain, name="burgers")


def linear_advection_flux(speed: float = 1.0, u_range: tuple[float, float] = (-1.0, 1.0),
                          domain: RectangleDomain | None = None) -> FluxField:
    return replace(flat_flux(lambda u, _a=speed: _a * np.asarray(u),
                             lambda u, _a=speed: _a + 0.0 * np.asarray(u),
                             u_range, domain, name=f"advection{speed:g}"),
                   u_free_du=frozenset({(_T,), (_X,)}))


def traveling_density_flux(phi: Callable, dphi: Callable,
                           u_range: tuple[float, float] = (-1.0, 1.0),
                           domain: RectangleDomain | None = None,
                           name: str = "traveling_density") -> FluxField:
    """``omega(u) = phi(x - t) u (dx - dt)`` for a positive density phi.

    Closed for every frozen u because the same density multiplies both
    components; the exact solution transports initial data at unit speed.
    Linear in u, it declares ``u_free_du={(0,), (1,)}``.
    """
    dom = domain if domain is not None else RectangleDomain((0.0, 0.0), (1.0, 2.0 * np.pi),
                                                            periodic_axes=(1,))

    def wx(pts, u):
        s = pts[..., _X] - pts[..., _T]
        return phi(s) * np.asarray(u)

    def wt(pts, u):
        s = pts[..., _X] - pts[..., _T]
        return -phi(s) * np.asarray(u)

    def dwx(pts, u):
        s = pts[..., _X] - pts[..., _T]
        return phi(s) + 0.0 * np.asarray(u)

    def dwt(pts, u):
        s = pts[..., _X] - pts[..., _T]
        return -phi(s) + 0.0 * np.asarray(u)

    # chart partials: d/dt phi(x-t) = -phi', d/dx phi(x-t) = +phi'
    def w_t_t(pts, u):
        return dphi(pts[..., _X] - pts[..., _T]) * np.asarray(u)

    def w_t_x(pts, u):
        return -dphi(pts[..., _X] - pts[..., _T]) * np.asarray(u)

    def w_x_t(pts, u):
        return -dphi(pts[..., _X] - pts[..., _T]) * np.asarray(u)

    def w_x_x(pts, u):
        return dphi(pts[..., _X] - pts[..., _T]) * np.asarray(u)

    partials = {(_T,): {_T: w_t_t, _X: w_t_x}, (_X,): {_T: w_x_t, _X: w_x_x}}
    omega = ParamForm(1, 2, {(_T,): wt, (_X,): wx}, {(_T,): dwt, (_X,): dwx},
                      u_range, partials=partials)
    return FluxField(omega=omega, domain=dom, name=name, u_free_du=frozenset({(_T,), (_X,)}))


def capacity_flux(a: Callable, da: Callable, f: Callable, df: Callable,
                  u_range: tuple[float, float],
                  domain: RectangleDomain | None = None,
                  name: str = "capacity") -> FluxField:
    """``omega(u) = a(x) u dx - f(u) dt`` with spatial capacity ``a > 0``.

    Closed for frozen u (the dx coefficient is time independent and the dt
    coefficient is space independent), so constants remain exact solutions.
    No coefficient reads t and ``a(x)`` does not read u: it declares
    ``reads_t=False`` and ``u_free_du={(1,)}``.
    """
    dom = domain if domain is not None else RectangleDomain((0.0, 0.0), (1.0, 1.0))

    coeffs = {(_T,): lambda pts, u: -np.asarray(f(u)) + 0.0 * pts[..., 0],
              (_X,): lambda pts, u: a(pts[..., _X]) * np.asarray(u)}
    du = {(_T,): lambda pts, u: -np.asarray(df(u)) + 0.0 * pts[..., 0],
          (_X,): lambda pts, u: a(pts[..., _X]) + 0.0 * np.asarray(u)}
    partials = {(_T,): {_T: _zero, _X: _zero},
                (_X,): {_T: _zero, _X: lambda pts, u: da(pts[..., _X]) * np.asarray(u)}}
    omega = ParamForm(1, 2, coeffs, du, u_range, partials=partials)
    return FluxField(omega=omega, domain=dom, name=name, reads_t=False,
                     u_free_du=frozenset({(_X,)}))


# ---------------------------------------------------------------------------
# classification geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryPiece:
    """A named boundary face together with its outward normal 1-form."""

    name: str
    face: FaceChart
    normal: CoordinateForm


def _circle_face(radius: float) -> FaceChart:
    def param(s, _r=radius):
        s = np.asarray(s, dtype=float)
        th = s[..., 0]
        return np.stack([_r * np.cos(th), _r * np.sin(th)], axis=-1)

    def jac(s, _r=radius):
        s = np.asarray(s, dtype=float)
        th = s[..., 0]
        out = np.empty(s.shape[:-1] + (2, 1))
        out[..., 0, 0] = -_r * np.sin(th)
        out[..., 1, 0] = _r * np.cos(th)
        return out

    return FaceChart(param=param, ref_dim=1, chart_dim=2, jacobian=jac,
                     ref_lo=(0.0,), ref_hi=(2.0 * np.pi,))


def annulus_example(u_range: tuple[float, float] = (-1.0, 1.0)):
    """Radial field on the annulus ``1 <= x^2 + y^2 <= 2``.

    ``omega(u) = u x dx + u y dy`` with observer ``T = y dx - x dy``;
    hyperbolic everywhere, yet every boundary normal satisfies
    ``N ^ du_omega = 0`` so the boundary has no spacelike part.
    """
    domain = AnnulusDomain(1.0, float(np.sqrt(2.0)))
    coeffs = {(0,): lambda pts, u: np.asarray(u) * pts[..., 0],
              (1,): lambda pts, u: np.asarray(u) * pts[..., 1]}
    du = {(0,): lambda pts, u: pts[..., 0] + 0.0 * np.asarray(u),
          (1,): lambda pts, u: pts[..., 1] + 0.0 * np.asarray(u)}
    partials = {(0,): {0: lambda pts, u: np.asarray(u) + 0.0 * pts[..., 0], 1: _zero},
                (1,): {0: _zero, 1: lambda pts, u: np.asarray(u) + 0.0 * pts[..., 0]}}
    omega = ParamForm(1, 2, coeffs, du, u_range, partials=partials)
    flux = FluxField(omega=omega, domain=domain, name="annulus_radial")
    observer = Observer(CoordinateForm(1, 2, {(0,): lambda p: p[..., 1],
                                              (1,): lambda p: -p[..., 0]}))
    radial = CoordinateForm(1, 2, {(0,): lambda p: p[..., 0], (1,): lambda p: p[..., 1]})
    boundary = (
        BoundaryPiece("inner_circle", _circle_face(domain.r_inner), radial.scaled(-1.0)),
        BoundaryPiece("outer_circle", _circle_face(domain.r_outer), radial),
    )
    return flux, observer, boundary


def square_with_hole_example(u_range: tuple[float, float] = (-1.0, 1.0)):
    """Leftward transport on ``[0,3]^2`` minus the open hole ``(1,2)^2``.

    ``omega(u) = -u dx`` with observer ``T = dy``.  The inflow boundary is
    the bottom edge of the square together with the top edge of the hole;
    the geometry admits no foliation by spacelike graphs over one axis.
    """
    domain = RectangleWithHoleDomain((0.0, 0.0), (3.0, 3.0), (1.0, 1.0), (2.0, 2.0))
    coeffs = {(0,): lambda pts, u: -np.asarray(u) + 0.0 * pts[..., 0],
              (1,): lambda pts, u: _zero(pts, u)}
    du = {(0,): lambda pts, u: -np.ones(np.broadcast_shapes(np.shape(pts)[:-1], np.shape(u))),
          (1,): lambda pts, u: _zero(pts, u)}
    partials = {(0,): {0: _zero, 1: _zero}, (1,): {0: _zero, 1: _zero}}
    omega = ParamForm(1, 2, coeffs, du, u_range, partials=partials)
    flux = FluxField(omega=omega, domain=domain, name="square_with_hole")
    observer = Observer(CoordinateForm(1, 2, {(1,): 1.0}))

    dx_form = CoordinateForm(1, 2, {(0,): 1.0})
    dy_form = CoordinateForm(1, 2, {(1,): 1.0})
    seg = FaceChart.segment
    boundary = (
        BoundaryPiece("outer_bottom", seg((0.0, 0.0), (3.0, 0.0)), dy_form.scaled(-1.0)),
        BoundaryPiece("outer_top", seg((0.0, 3.0), (3.0, 3.0)), dy_form),
        BoundaryPiece("outer_left", seg((0.0, 0.0), (0.0, 3.0)), dx_form.scaled(-1.0)),
        BoundaryPiece("outer_right", seg((3.0, 0.0), (3.0, 3.0)), dx_form),
        BoundaryPiece("hole_bottom", seg((1.0, 1.0), (2.0, 1.0)), dy_form),
        BoundaryPiece("hole_top", seg((1.0, 2.0), (2.0, 2.0)), dy_form.scaled(-1.0)),
        BoundaryPiece("hole_left", seg((1.0, 1.0), (1.0, 2.0)), dx_form),
        BoundaryPiece("hole_right", seg((2.0, 1.0), (2.0, 2.0)), dx_form.scaled(-1.0)),
    )
    return flux, observer, boundary
