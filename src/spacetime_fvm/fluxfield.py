"""Flux fields and their causal structure.

A flux field is a state-parametrized family of n-forms ``omega(u)`` on an
(n+1)-dimensional chart together with its u-derivative family.  This module
verifies the structural conditions the solver relies on:

* global hyperbolicity: an observer 1-form T with ``T ^ du_omega(u) > 0``,
* geometry compatibility: ``d(omega(u)) = 0`` for frozen u,
* face classification into spacelike inflow / outflow / not spacelike from
  the sign of ``N ^ du_omega(u)`` for an outward normal N,
* orientation of spacelike faces so the pulled-back ``du_omega`` is positive.

Positivity of forms is sampled at quadrature nodes plus a dense grid; the
reports carry the extremal sampled coefficient so callers can judge margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .forms import (
    CoordinateForm,
    FaceChart,
    FormError,
    ParamForm,
    exterior_derivative,
    gauss_legendre,
    pullback,
    wedge,
)

__all__ = [
    "AnnulusDomain",
    "FaceClass",
    "FaceKind",
    "FluxField",
    "GeometryReport",
    "HyperbolicityReport",
    "NotSpacelikeError",
    "Observer",
    "RectangleDomain",
    "RectangleWithHoleDomain",
    "check_geometry_compatible",
    "check_hyperbolicity",
    "classify_face",
    "orient_spacelike",
]

DEFAULT_FACE_SAMPLES = 64
DEFAULT_U_SAMPLES = 17


class NotSpacelikeError(ValueError):
    """A face failed the sign conditions required of a spacelike face."""


class DegenerateNormalError(ValueError):
    """The supplied normal 1-form vanishes at a sample point."""


# ---------------------------------------------------------------------------
# chart domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectangleDomain:
    """Axis-aligned box; axes listed in ``periodic_axes`` wrap around."""

    lo: tuple[float, float]
    hi: tuple[float, float]
    periodic_axes: tuple[int, ...] = ()

    def sample_points(self, n_per_axis: int = 17) -> np.ndarray:
        axes = [np.linspace(self.lo[k], self.hi[k], n_per_axis) for k in range(2)]
        g0, g1 = np.meshgrid(*axes, indexing="ij")
        return np.stack([g0.ravel(), g1.ravel()], axis=-1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for k in range(2):
            if k in self.periodic_axes:
                continue
            ok &= (pts[..., k] >= self.lo[k] - 1e-12) & (pts[..., k] <= self.hi[k] + 1e-12)
        return ok


@dataclass(frozen=True)
class AnnulusDomain:
    """Points with ``r_inner <= |(x, y)| <= r_outer``."""

    r_inner: float
    r_outer: float

    def sample_points(self, n_per_axis: int = 17) -> np.ndarray:
        radii = np.linspace(self.r_inner, self.r_outer, max(3, n_per_axis // 2))
        thetas = np.linspace(0.0, 2.0 * np.pi, n_per_axis, endpoint=False)
        r, th = np.meshgrid(radii, thetas, indexing="ij")
        return np.stack([(r * np.cos(th)).ravel(), (r * np.sin(th)).ravel()], axis=-1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        rr = pts[..., 0] ** 2 + pts[..., 1] ** 2
        return (rr >= self.r_inner**2 - 1e-12) & (rr <= self.r_outer**2 + 1e-12)


@dataclass(frozen=True)
class RectangleWithHoleDomain:
    """Closed box minus an open axis-aligned hole."""

    lo: tuple[float, float]
    hi: tuple[float, float]
    hole_lo: tuple[float, float]
    hole_hi: tuple[float, float]

    def sample_points(self, n_per_axis: int = 17) -> np.ndarray:
        pts = RectangleDomain(self.lo, self.hi).sample_points(n_per_axis)
        return pts[self.contains(pts)]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        inside_outer = RectangleDomain(self.lo, self.hi).contains(pts)
        inside_hole = np.ones(pts.shape[:-1], dtype=bool)
        for k in range(2):
            inside_hole &= (pts[..., k] > self.hole_lo[k] + 1e-12) & \
                           (pts[..., k] < self.hole_hi[k] - 1e-12)
        return inside_outer & ~inside_hole


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observer:
    """Candidate time-orientation 1-form; verified by check_hyperbolicity."""

    form: CoordinateForm

    def __post_init__(self):
        if self.form.degree != 1:
            raise FormError("an observer is a 1-form field")


class FaceKind(Enum):
    SPACELIKE_INFLOW = "spacelike_inflow"
    SPACELIKE_OUTFLOW = "spacelike_outflow"
    NOT_SPACELIKE = "not_spacelike"


@dataclass(frozen=True)
class FaceClass:
    kind: FaceKind
    min_coefficient: float
    max_coefficient: float

    def to_dict(self) -> dict:
        return {"kind": self.kind.value,
                "min_coefficient": self.min_coefficient,
                "max_coefficient": self.max_coefficient}


@dataclass(frozen=True)
class HyperbolicityReport:
    min_coefficient: float
    argmin_point: tuple[float, ...]
    argmin_u: float
    n_samples: int
    passed: bool


@dataclass(frozen=True)
class GeometryReport:
    max_residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class FluxField:
    """Flux family on a 2-dimensional chart plus optional growth bound.

    ``omega`` is the degree-1 family (chart dimension 2, so n = 1);
    ``growth_bound`` is a user-supplied 1-form alpha with
    ``-i*alpha <= i* du_omega(u) <= i*alpha`` on sampled faces, verified by
    :meth:`verify_growth_bound` rather than synthesized.

    ``reads_t`` declares whether any coefficient of ``omega`` or of its
    u-derivative reads the chart's t coordinate.  ``reads_t=False`` says
    that d/dt is a symmetry of the flux: faces that differ only by a shift
    in t then have the same total flux function, and the solver builds
    the flux tables of a run once per slice shape instead of once per
    slice (every spacelike slice; every slab of the same height).  The
    default, True, is always safe and means no reuse; the solver checks a
    False declaration on samples and rejects a flux that breaks it.

    ``u_free_du`` holds the indices, ``(0,)`` for dt and ``(1,)`` for dx, whose
    u-derivative does not read u: the face tables evaluate it on one state
    column and broadcast it.  Empty, the default, is always safe; checked like ``reads_t``.
    """

    omega: ParamForm
    domain: object
    growth_bound: CoordinateForm | None = None
    name: str = "flux"
    reads_t: bool = True
    u_free_du: frozenset = frozenset()

    def __post_init__(self):
        if self.omega.degree != self.omega.chart_dim - 1:
            raise FormError("flux forms must have degree chart_dim - 1")

    @property
    def u_range(self) -> tuple[float, float]:
        return self.omega.u_range

    def u_samples(self, n: int = DEFAULT_U_SAMPLES) -> np.ndarray:
        lo, hi = self.u_range
        return np.linspace(lo, hi, n)

    def verify_growth_bound(self, faces: Sequence[FaceChart],
                            u_samples: Iterable[float] | None = None,
                            n_face_samples: int = DEFAULT_FACE_SAMPLES) -> float:
        """Largest violation of the two-sided growth bound on the given faces.

        Returns the max of ``|i* du_omega| - i*alpha`` over samples (negative
        means the bound holds with margin).  Raises if no bound was supplied.
        """
        if self.growth_bound is None:
            raise ValueError("flux field carries no growth bound to verify")
        u_samples = self.u_samples() if u_samples is None else np.asarray(list(u_samples))
        worst = -np.inf
        ref = np.linspace(0.0, 1.0, n_face_samples)[:, None]
        for face in faces:
            nodes = face.ref_points(ref)
            alpha = pullback(self.growth_bound, face).evaluate((0,), nodes)
            for ubar in u_samples:
                du = pullback(self.omega.du(float(ubar)), face).evaluate((0,), nodes)
                worst = max(worst, float(np.max(np.abs(du) - alpha)))
        return worst


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------

def _top_wedge_values(one_form: CoordinateForm, flux: FluxField,
                      pts: np.ndarray, ubar: float) -> np.ndarray:
    product = wedge(one_form, flux.omega.du(ubar))
    return product.top_coefficient(pts)


def check_hyperbolicity(flux: FluxField, observer: Observer,
                        sample_points: np.ndarray | None = None,
                        u_samples: Iterable[float] | None = None) -> HyperbolicityReport:
    """Sample the top coefficient of ``T ^ du_omega`` over the domain.

    Passes iff the coefficient is strictly positive at every sampled
    (point, u); the report records the minimum and where it occurred.
    """
    pts = flux.domain.sample_points() if sample_points is None else np.asarray(sample_points)
    us = flux.u_samples() if u_samples is None else np.asarray(list(u_samples), dtype=float)
    best = np.inf
    arg_pt: tuple[float, ...] = ()
    arg_u = float("nan")
    for ubar in us:
        vals = _top_wedge_values(observer.form, flux, pts, float(ubar))
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            arg_pt = tuple(float(v) for v in pts[k])
            arg_u = float(ubar)
    return HyperbolicityReport(min_coefficient=best, argmin_point=arg_pt, argmin_u=arg_u,
                               n_samples=int(pts.shape[0] * len(us)), passed=bool(best > 0.0))


def check_geometry_compatible(flux: FluxField,
                              sample_points: np.ndarray | None = None,
                              u_samples: Iterable[float] | None = None,
                              tol: float = 1e-5) -> GeometryReport:
    """Max magnitude of the top coefficient of ``d(omega(u))`` over samples."""
    pts = flux.domain.sample_points() if sample_points is None else np.asarray(sample_points)
    us = flux.u_samples() if u_samples is None else np.asarray(list(u_samples), dtype=float)
    worst = 0.0
    for ubar in us:
        closed = exterior_derivative(flux.omega.base(float(ubar)))
        worst = max(worst, float(np.max(np.abs(closed.top_coefficient(pts)))))
    return GeometryReport(max_residual=worst, tol=tol, passed=bool(worst <= tol))


def classify_face(face: FaceChart, normal: CoordinateForm, flux: FluxField,
                  u_samples: Iterable[float] | None = None,
                  n_face_samples: int = DEFAULT_FACE_SAMPLES,
                  zero_tol: float = 1e-10) -> FaceClass:
    """Classify a boundary face from the sign of ``N ^ du_omega``.

    ``normal`` must be outward pointing for the region under consideration
    (caller's contract).  The classifying scalar is sampled along the face
    for every u sample; a strictly positive sign means spacelike outflow,
    strictly negative spacelike inflow, anything else (vanishing or sign
    change) is not spacelike.
    """
    us = flux.u_samples() if u_samples is None else np.asarray(list(u_samples), dtype=float)
    ref = np.linspace(0.0, 1.0, n_face_samples)[:, None]
    nodes = face.ref_points(ref)
    pts = face.param(nodes)

    norm_scale = np.zeros(pts.shape[0])
    for idx in ((0,), (1,)):
        norm_scale = norm_scale + normal.evaluate(idx, pts) ** 2
    if np.any(norm_scale < 1e-26):
        raise DegenerateNormalError("normal form vanishes at a face sample")

    lo = np.inf
    hi = -np.inf
    for ubar in us:
        vals = wedge(normal, flux.omega.du(float(ubar))).top_coefficient(pts)
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    scale = max(abs(lo), abs(hi), 1e-30)
    if lo > zero_tol * scale and lo > 0.0:
        kind = FaceKind.SPACELIKE_OUTFLOW
    elif hi < -zero_tol * scale and hi < 0.0:
        kind = FaceKind.SPACELIKE_INFLOW
    else:
        kind = FaceKind.NOT_SPACELIKE
    return FaceClass(kind=kind, min_coefficient=lo, max_coefficient=hi)


def orient_spacelike(face: FaceChart, flux: FluxField,
                     u_samples: Iterable[float] | None = None,
                     n_face_samples: int = DEFAULT_FACE_SAMPLES) -> FaceChart:
    """Return the face oriented so the pulled-back ``du_omega`` is positive.

    Raises :class:`NotSpacelikeError` when the pullback vanishes or changes
    sign across the sampled (point, u) set.
    """
    us = flux.u_samples() if u_samples is None else np.asarray(list(u_samples), dtype=float)
    rule = gauss_legendre(5, 1)
    dense = np.linspace(0.0, 1.0, n_face_samples)[:, None]
    ref = np.concatenate([face.ref_points(rule.nodes), face.ref_points(dense)], axis=0)
    lo = np.inf
    hi = -np.inf
    for ubar in us:
        pulled = pullback(flux.omega.du(float(ubar)), face)
        vals = pulled.evaluate((0,), ref)
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    if lo > 0.0:
        return face
    if hi < 0.0:
        return face.flipped()
    raise NotSpacelikeError(
        f"pulled-back du_omega is not sign-definite on face (range [{lo:.3e}, {hi:.3e}])")
