"""Coordinate-chart exterior calculus on a single chart.

Differential k-forms are stored in the canonical antisymmetric
representation: one scalar coefficient function per strictly increasing
multi-index over the chart axes ``{0, ..., d-1}``.  The module provides
the algebra the solver is built on:

* wedge products with sign bookkeeping,
* exterior derivatives (analytic partials when supplied, central finite
  differences otherwise),
* pullback of forms onto parametrized faces,
* Gauss-Legendre quadrature of top-degree forms.

Coefficient functions take an array of chart points with shape
``(..., d)`` along with an optional state parameter and must broadcast;
everything here is pure and safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Coefficient",
    "CoordinateForm",
    "FaceChart",
    "ParamForm",
    "QuadratureRule",
    "FormError",
    "as_coefficient",
    "exterior_derivative",
    "gauss_legendre",
    "integrate",
    "integrate_over_face",
    "pullback",
    "wedge",
]

# Central finite-difference step scale for derivatives of coefficient
# functions; the actual step is FD_STEP_SCALE * (1 + |coordinate|).
FD_STEP_SCALE = 1e-6


class FormError(ValueError):
    """Raised for malformed forms, charts or quadrature requests."""


def _merge_sign(left: Sequence[int], right: Sequence[int]):
    """Sign of the permutation sorting ``left + right``; None if indices repeat."""
    combined = list(left) + list(right)
    if len(set(combined)) != len(combined):
        return None, ()
    sign = 1
    # count inversions of the concatenation (both halves are sorted)
    for i, a in enumerate(left):
        for b in right:
            if b < a:
                sign = -sign
    return sign, tuple(sorted(combined))


def _sort_index(idx: Sequence[int]):
    """Canonical (sorted) multi-index and the permutation sign; None if repeated."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return None, ()
    sign = 1
    # parity by counting inversions
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign, tuple(sorted(idx))


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient function with optional analytic partials.

    ``fn(pts)`` evaluates at chart points of shape ``(..., d)``.  When
    ``partials`` is given it maps axis -> callable for the analytic
    derivative; otherwise derivatives fall back to central differences.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    partials: Mapping[int, Callable[[np.ndarray], np.ndarray]] | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        value = self.fn(pts)
        return np.broadcast_to(np.asarray(value, dtype=float), np.shape(pts)[:-1]).copy()

    def partial(self, axis: int, step_scale: float = FD_STEP_SCALE) -> "Coefficient":
        if self.partials is not None and axis in self.partials:
            return as_coefficient(self.partials[axis])

        def fd(pts, _axis=axis, _fn=self.fn):
            pts = np.asarray(pts, dtype=float)
            h = step_scale * (1.0 + np.abs(pts[..., _axis]))
            hi = pts.copy()
            lo = pts.copy()
            hi[..., _axis] += h
            lo[..., _axis] -= h
            return (np.asarray(_fn(hi), dtype=float) - np.asarray(_fn(lo), dtype=float)) / (2.0 * h)

        return Coefficient(fd)


def as_coefficient(value) -> Coefficient:
    """Wrap a callable or constant as a :class:`Coefficient`."""
    if isinstance(value, Coefficient):
        return value
    if callable(value):
        return Coefficient(value)
    const = float(value)
    zero = {  # constants have vanishing derivatives on every axis
    }
    return Coefficient(lambda pts, _c=const: np.full(np.shape(pts)[:-1], _c),
                       partials=_ConstPartials(zero))


class _ConstPartials(dict):
    """Partial-derivative table that returns zero for every axis."""

    def __contains__(self, axis) -> bool:  # noqa: D105
        return True

    def __getitem__(self, axis):  # noqa: D105
        return lambda pts: np.zeros(np.shape(pts)[:-1])


def _scaled(coeff: Coefficient, factor: float) -> Coefficient:
    if factor == 1.0:
        return coeff
    return Coefficient(lambda pts, _c=coeff, _f=factor: _f * _c(pts))


def _summed(coeffs: Sequence[Coefficient]) -> Coefficient:
    if len(coeffs) == 1:
        return coeffs[0]
    return Coefficient(lambda pts, _cs=tuple(coeffs): sum(c(pts) for c in _cs))


def _product(a: Coefficient, b: Coefficient, sign: int) -> Coefficient:
    return Coefficient(lambda pts, _a=a, _b=b, _s=sign: _s * (_a(pts) * _b(pts)))


@dataclass(frozen=True)
class CoordinateForm:
    """A differential k-form on a d-dimensional chart in canonical storage.

    Only strictly increasing multi-indices are kept; constructor input with
    unsorted or repeated indices is normalized (sign folded in, repeats
    dropped).  Nonzero content of degree above the chart dimension cannot be
    represented and is rejected; the degenerate empty form of such degree is
    the zero form.
    """

    degree: int
    chart_dim: int
    coeffs: Mapping[tuple[int, ...], Coefficient] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise FormError("form degree must be non-negative")
        if self.chart_dim < 1:
            raise FormError("chart dimension must be positive")
        canonical: dict[tuple[int, ...], list[Coefficient]] = {}
        for idx, raw in dict(self.coeffs).items():
            idx = (idx,) if isinstance(idx, int) else tuple(idx)
            if len(idx) != self.degree:
                raise FormError(f"multi-index {idx} does not match degree {self.degree}")
            if any(i < 0 or i >= self.chart_dim for i in idx):
                raise FormError(f"multi-index {idx} outside chart axes 0..{self.chart_dim - 1}")
            sign, sorted_idx = _sort_index(idx)
            if sign is None:
                continue  # repeated axis: identically zero
            canonical.setdefault(sorted_idx, []).append(_scaled(as_coefficient(raw), float(sign)))
        if self.degree > self.chart_dim and canonical:
            raise FormError("degree exceeds chart dimension: only the zero form exists")
        merged = {idx: _summed(parts) for idx, parts in canonical.items()}
        object.__setattr__(self, "coeffs", merged)

    @property
    def is_empty(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: Sequence[int]) -> Coefficient:
        sign, sorted_idx = _sort_index(tuple(idx))
        if sign is None or sorted_idx not in self.coeffs:
            return as_coefficient(0.0)
        return _scaled(self.coeffs[sorted_idx], float(sign))

    def evaluate(self, idx: Sequence[int], pts: np.ndarray) -> np.ndarray:
        """Coefficient of ``dx^idx`` at chart points (antisymmetric in idx)."""
        pts = np.asarray(pts, dtype=float)
        return self.coefficient(idx)(pts)

    def top_coefficient(self, pts: np.ndarray) -> np.ndarray:
        """Coefficient of the chart volume element dx^0 ^ ... ^ dx^{d-1}."""
        if self.degree != self.chart_dim:
            raise FormError("top_coefficient requires a top-degree form")
        return self.evaluate(tuple(range(self.chart_dim)), pts)

    def scaled(self, factor: float) -> "CoordinateForm":
        return CoordinateForm(
            self.degree, self.chart_dim,
            {idx: _scaled(c, factor) for idx, c in self.coeffs.items()})


def wedge(a: CoordinateForm, b: CoordinateForm) -> CoordinateForm:
    """Wedge product ``a ^ b`` in canonical representation.

    The result has degree ``deg(a) + deg(b)``; if that exceeds the chart
    dimension there are no admissible multi-indices and the zero form of
    the combined degree is returned.
    """
    if a.chart_dim != b.chart_dim:
        raise FormError("wedge requires forms on the same chart")
    degree = a.degree + b.degree
    coeffs: dict[tuple[int, ...], list[Coefficient]] = {}
    if degree <= a.chart_dim:
        for ia, ca in a.coeffs.items():
            for ib, cb in b.coeffs.items():
                sign, idx = _merge_sign(ia, ib)
                if sign is None:
                    continue
                coeffs.setdefault(idx, []).append(_product(ca, cb, sign))
    merged = {idx: _summed(parts) for idx, parts in coeffs.items()}
    return CoordinateForm(degree, a.chart_dim, merged)


def exterior_derivative(form: CoordinateForm, step_scale: float = FD_STEP_SCALE) -> CoordinateForm:
    """Exterior derivative ``d(form)``.

    Uses analytic partials of the coefficients when available and central
    finite differences with step ``step_scale * (1 + |coordinate|)``
    otherwise.
    """
    coeffs: dict[tuple[int, ...], list[Coefficient]] = {}
    for idx, coeff in form.coeffs.items():
        for axis in range(form.chart_dim):
            if axis in idx:
                continue
            sign, sorted_idx = _sort_index((axis,) + idx)
            coeffs.setdefault(sorted_idx, []).append(
                _scaled(coeff.partial(axis, step_scale), float(sign)))
    merged = {idx: _summed(parts) for idx, parts in coeffs.items()}
    return CoordinateForm(form.degree + 1, form.chart_dim, merged)


# ---------------------------------------------------------------------------
# faces and pullbacks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceChart:
    """Parametrized face: a map from a reference box into the chart.

    ``param`` sends reference points of shape ``(..., ref_dim)`` to chart
    points ``(..., chart_dim)``.  ``jacobian`` returns the tangent map with
    shape ``(..., chart_dim, ref_dim)``; when omitted it is formed by
    central differences of ``param``.  The orientation sign is fixed at
    construction; flipping requires building a new chart.
    """

    param: Callable[[np.ndarray], np.ndarray]
    ref_dim: int
    chart_dim: int
    orientation: int = 1
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    ref_lo: tuple[float, ...] = ()
    ref_hi: tuple[float, ...] = ()

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise FormError("orientation must be +1 or -1")
        lo = self.ref_lo if self.ref_lo else (0.0,) * self.ref_dim
        hi = self.ref_hi if self.ref_hi else (1.0,) * self.ref_dim
        if len(lo) != self.ref_dim or len(hi) != self.ref_dim:
            raise FormError("reference bounds must match ref_dim")
        object.__setattr__(self, "ref_lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "ref_hi", tuple(float(v) for v in hi))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def segment(cls, p0, p1, orientation: int = 1) -> "FaceChart":
        """Affine segment from p0 to p1 over the reference interval [0, 1]."""
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        delta = p1 - p0

        def param(s, _p0=p0, _d=delta):
            s = np.asarray(s, dtype=float)
            return _p0 + s[..., :1] * _d

        def jac(s, _d=delta):
            s = np.asarray(s, dtype=float)
            out = np.empty(s.shape[:-1] + (_d.size, 1))
            out[...] = _d.reshape(-1, 1)
            return out

        return cls(param=param, ref_dim=1, chart_dim=p0.size,
                   orientation=orientation, jacobian=jac)

    @classmethod
    def coordinate_segment(cls, chart_dim: int, axis: int, fixed: Sequence[tuple[int, float]],
                           lo: float, hi: float, orientation: int = 1) -> "FaceChart":
        """Segment along one chart axis with the remaining coordinates fixed.

        The reference interval is ``[lo, hi]`` in the running coordinate
        itself, so pullbacks read off directly in that coordinate.
        """
        fixed = tuple(fixed)

        def param(s, _axis=axis, _fixed=fixed, _d=chart_dim):
            s = np.asarray(s, dtype=float)
            out = np.zeros(s.shape[:-1] + (_d,))
            out[..., _axis] = s[..., 0]
            for ax, val in _fixed:
                out[..., ax] = val
            return out

        def jac(s, _axis=axis, _d=chart_dim):
            s = np.asarray(s, dtype=float)
            out = np.zeros(s.shape[:-1] + (_d, 1))
            out[..., _axis, 0] = 1.0
            return out

        return cls(param=param, ref_dim=1, chart_dim=chart_dim, orientation=orientation,
                   jacobian=jac, ref_lo=(lo,), ref_hi=(hi,))

    @classmethod
    def rectangle(cls, t_bounds: tuple[float, float], x_bounds: tuple[float, float],
                  orientation: int = 1) -> "FaceChart":
        """Axis-aligned 2-cell, reference box = the cell itself."""

        def param(s):
            return np.asarray(s, dtype=float)

        def jac(s):
            s = np.asarray(s, dtype=float)
            out = np.zeros(s.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            return out

        return cls(param=param, ref_dim=2, chart_dim=2, orientation=orientation, jacobian=jac,
                   ref_lo=(t_bounds[0], x_bounds[0]), ref_hi=(t_bounds[1], x_bounds[1]))

    # -- geometry ------------------------------------------------------------

    def with_orientation(self, orientation: int) -> "FaceChart":
        return FaceChart(param=self.param, ref_dim=self.ref_dim, chart_dim=self.chart_dim,
                         orientation=orientation, jacobian=self.jacobian,
                         ref_lo=self.ref_lo, ref_hi=self.ref_hi)

    def flipped(self) -> "FaceChart":
        return self.with_orientation(-self.orientation)

    def tangent(self, ref_pts: np.ndarray, step_scale: float = FD_STEP_SCALE) -> np.ndarray:
        ref_pts = np.asarray(ref_pts, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(ref_pts), dtype=float)
        cols = []
        for axis in range(self.ref_dim):
            h = step_scale * (1.0 + np.abs(ref_pts[..., axis]))
            hi = ref_pts.copy()
            lo = ref_pts.copy()
            hi[..., axis] += h
            lo[..., axis] -= h
            cols.append((self.param(hi) - self.param(lo)) / (2.0 * h)[..., None])
        return np.stack(cols, axis=-1)

    def ref_points(self, unit_nodes: np.ndarray) -> np.ndarray:
        """Map nodes on the unit box to the face's reference box."""
        unit_nodes = np.asarray(unit_nodes, dtype=float)
        lo = np.asarray(self.ref_lo)
        hi = np.asarray(self.ref_hi)
        return lo + unit_nodes * (hi - lo)


def _increasing_indices(n: int, k: int) -> list[tuple[int, ...]]:
    import itertools
    return list(itertools.combinations(range(n), k))


def pullback(form: CoordinateForm, face: FaceChart) -> CoordinateForm:
    """Pull a k-form back to the face's reference cell.

    Coefficients are composed with the parametrization and contracted with
    minors of the jacobian.  The face's orientation sign is applied to
    top-degree results (lower degrees are diagnostics and keep the raw
    sign).  Raises on a rank-deficient jacobian.
    """
    if form.chart_dim != face.chart_dim:
        raise FormError("form and face live on different charts")
    k = form.degree
    if k > face.ref_dim:
        # no strictly increasing multi-indices exist: identically zero
        return CoordinateForm(degree=k, chart_dim=face.ref_dim, coeffs={})
    sign = float(face.orientation) if k == face.ref_dim else 1.0

    out: dict[tuple[int, ...], Coefficient] = {}
    for ref_idx in _increasing_indices(face.ref_dim, k):

        def coeff(ref_pts, _ref_idx=ref_idx, _form=form, _face=face, _sign=sign, _k=k):
            ref_pts = np.asarray(ref_pts, dtype=float)
            pts = _face.param(ref_pts)
            jac = _face.tangent(ref_pts)
            _check_rank(jac)
            total = np.zeros(ref_pts.shape[:-1])
            cols = jac[..., :, list(_ref_idx)]
            for chart_idx, c in _form.coeffs.items():
                rows = cols[..., list(chart_idx), :]
                if _k == 0:
                    minor = np.ones(ref_pts.shape[:-1])
                elif _k == 1:
                    minor = rows[..., 0, 0]
                elif _k == 2:
                    minor = (rows[..., 0, 0] * rows[..., 1, 1]
                             - rows[..., 0, 1] * rows[..., 1, 0])
                else:
                    minor = np.linalg.det(rows)
                total = total + c(pts) * minor
            return _sign * total

        out[ref_idx] = Coefficient(coeff)
    return CoordinateForm(degree=k, chart_dim=max(face.ref_dim, 1), coeffs=out)


def _check_rank(jac: np.ndarray) -> None:
    # cheap full-rank test: squared column norms must be bounded away from 0
    norms = np.sqrt(np.sum(jac * jac, axis=-2))
    if np.any(norms < 1e-13):
        raise FormError("rank-deficient face jacobian at a quadrature node")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on the unit box ``[0,1]^dim``; weights sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape[0] != weights.shape[0]:
            raise FormError("quadrature nodes and weights disagree in length")
        if np.any(weights <= 0.0):
            raise FormError("quadrature weights must be positive")
        if not math.isclose(float(weights.sum()), 1.0, rel_tol=1e-12):
            raise FormError("quadrature weights must sum to the reference volume")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]


@functools.cache
def gauss_legendre(npoints: int = 5, dim: int = 1) -> QuadratureRule:
    """Tensor-product Gauss-Legendre rule on the unit box.

    Exact for polynomials of degree ``2 * npoints - 1`` per axis; the
    5-point default therefore has exactness degree 9.  Rules are cached
    and shared, so their node and weight arrays are read-only.
    """
    if npoints < 1:
        raise FormError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(npoints)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if dim == 1:
        rule = QuadratureRule(x[:, None], w, 2 * npoints - 1)
    else:
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*([w] * dim), indexing="ij")
        weights = np.ones(nodes.shape[0])
        for g in wgrids:
            weights = weights * g.ravel()
        rule = QuadratureRule(nodes, weights, 2 * npoints - 1)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def integrate(form: CoordinateForm, rule: QuadratureRule,
              bounds: tuple[Sequence[float], Sequence[float]] | None = None) -> float:
    """Integrate a top-degree form over its reference box.

    ``bounds`` gives the (lo, hi) corners of the box; the default is the
    unit box.  Exact for polynomial coefficients up to the rule's
    exactness degree.
    """
    if form.degree != rule.dim:
        raise FormError("integrand degree must match the quadrature dimension")
    if form.degree == 0:
        raise FormError("integration of 0-forms over a box is not defined here")
    if bounds is None:
        lo = np.zeros(rule.dim)
        hi = np.ones(rule.dim)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
    volume = float(np.prod(hi - lo))
    pts = lo + rule.nodes * (hi - lo)
    idx = tuple(range(rule.dim))
    values = form.evaluate(idx, pts)
    return float(np.sum(rule.weights * values) * volume)


def integrate_over_face(form: CoordinateForm, face: FaceChart,
                        rule: QuadratureRule | None = None) -> float:
    """Oriented integral of a top-degree form over a parametrized face."""
    rule = rule if rule is not None else gauss_legendre(5, face.ref_dim)
    pulled = pullback(form, face)
    return integrate(pulled, rule, bounds=(face.ref_lo, face.ref_hi))


def param_coefficient(value) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Normalize a state-parametrized coefficient ``f(pts, u)`` (constants allowed)."""
    if callable(value):
        return value
    const = float(value)

    def fn(pts, u, _c=const):
        base = np.zeros(np.broadcast_shapes(np.shape(pts)[:-1], np.shape(u)))
        return base + _c

    return fn


@dataclass(frozen=True)
class ParamForm:
    """State-parametrized family of forms ``u -> omega(u)`` plus its u-derivative.

    ``coeffs`` and ``du_coeffs`` map multi-indices to functions
    ``f(pts, u)`` where ``pts`` has shape ``(..., d)`` and ``u`` broadcasts
    against the leading axes.  ``u_range`` is the closed interval of
    admissible states.  ``partials`` optionally carries analytic chart
    derivatives per multi-index (axis -> f(pts, u)) for exact exterior
    derivatives.
    """

    degree: int
    chart_dim: int
    coeffs: Mapping[tuple[int, ...], Callable]
    du_coeffs: Mapping[tuple[int, ...], Callable]
    u_range: tuple[float, float]
    partials: Mapping[tuple[int, ...], Mapping[int, Callable]] | None = None

    def __post_init__(self):
        lo, hi = float(self.u_range[0]), float(self.u_range[1])
        if not lo < hi:
            raise FormError("u_range must be a non-degenerate closed interval")
        object.__setattr__(self, "u_range", (lo, hi))
        object.__setattr__(self, "coeffs",
                           {tuple(k): param_coefficient(v) for k, v in dict(self.coeffs).items()})
        object.__setattr__(self, "du_coeffs",
                           {tuple(k): param_coefficient(v) for k, v in dict(self.du_coeffs).items()})
        if set(self.coeffs) != set(self.du_coeffs):
            raise FormError("base and du families must carry the same multi-indices")

    def _bound(self, table, ubar: float, with_partials: bool) -> CoordinateForm:
        out = {}
        for idx, fn in table.items():
            part = None
            if with_partials and self.partials is not None and idx in self.partials:
                part = {ax: (lambda pts, _f=pfn, _u=ubar: _f(pts, _u))
                        for ax, pfn in self.partials[idx].items()}
            out[idx] = Coefficient(lambda pts, _f=fn, _u=ubar: _f(pts, _u), partials=part)
        return CoordinateForm(self.degree, self.chart_dim, out)

    def base(self, ubar: float) -> CoordinateForm:
        """The form at a frozen state value."""
        return self._bound(self.coeffs, float(ubar), with_partials=True)

    def du(self, ubar: float) -> CoordinateForm:
        """The u-derivative family at a frozen state value."""
        return self._bound(self.du_coeffs, float(ubar), with_partials=False)

    def check_du_consistency(self, pts: np.ndarray, u_samples: Iterable[float],
                             tol: float = 1e-5, step: float = 1e-6) -> float:
        """Max mismatch between finite differences of ``base`` and ``du``.

        Raises when the declared derivative family disagrees with the base
        family beyond ``tol`` or either is not finite near a sample; returns
        the largest observed residual.  Each coefficient is called at
        ``u ± step`` and its ``du`` at ``u`` once, over all samples at once
        (``pts`` against the samples on a new last axis); a residual that is
        not finite names the first (sample, coefficient) in sample order,
        then coefficient order.
        """
        pts = np.asarray(pts, dtype=float)
        us = np.array([float(u) for u in u_samples])
        grid, axes = pts[..., None, :], tuple(range(pts.ndim - 1))
        resid = np.empty((us.size, len(self.coeffs)))
        for c, (idx, fn) in enumerate(self.coeffs.items()):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                fd = (np.asarray(fn(grid, us + step))
                      - np.asarray(fn(grid, us - step))) / (2 * step)
                exact = np.broadcast_to(self.du_coeffs[idx](grid, us), pts.shape[:-1] + us.shape)
                scale = 1.0 + np.max(np.abs(exact), axis=axes) if exact.size else 1.0
                resid[:, c] = np.max(np.abs(fd - exact), axis=axes) / scale
        bad = np.argwhere(~np.isfinite(resid))   # a NaN would pass the tol check
        if bad.size:
            k, c = bad[0]
            raise FormError(f"coefficient {list(self.coeffs)[c]}: not finite near "
                            f"u = {float(us[k])!r}")
        worst = float(np.max(resid, initial=0.0))
        if worst > tol:
            raise FormError(f"du family inconsistent with base family (residual {worst:.3e})")
        return worst
