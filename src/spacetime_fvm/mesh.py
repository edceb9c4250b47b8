"""Foliation-associated product triangulations and total flux functions.

The solver meshes are products of a strictly increasing time partition
``0 = t_0 < ... < t_N = T`` with a spatial partition of an interval or a
circle.  Each cell is a slab rectangle with one inflow face on the lower
slice, one outflow face on the upper slice and two vertical faces; on an
interval domain the extreme vertical faces lie on the spacetime boundary.

Total flux functions ``q_e(u) = oriented integral of omega(u) over e`` are
the quantities the scheme evolves.  Every one of them, on a single face,
a whole slice or the vertical faces of a slab, is discretized the same
way: :func:`segment_nodes` builds the Gauss nodes and weights of the
face segments, and :func:`face_sums` forms ``sum_k w_k f(x_k, u)``.  On
spacelike faces the total fluxes are strictly monotone, cached with
derivative bounds, and invertible through one guarded Newton/bisection
routine shared by single faces and whole slices.
"""

from __future__ import annotations

import copy
import operator
import sys
from collections.abc import Mapping, Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .fluxfield import FluxField, NotSpacelikeError
from .forms import (
    CoordinateForm,
    FaceChart,
    QuadratureRule,
    gauss_legendre,
    integrate_over_face,
    pullback,
)

__all__ = [
    "Cell",
    "CircleDomain",
    "ConvergenceError",
    "Face",
    "Foliation",
    "IntervalDomain",
    "MeshError",
    "RegularityReport",
    "SliceFaceIds",
    "SpacelikeTable",
    "TotalFlux",
    "Triangulation",
    "ValueOutsideImage",
    "build_triangulation",
    "face_sums",
    "invert_total_flux",
    "mesh_regularity_report",
    "segment_nodes",
    "total_flux",
    "uniform_breakpoints",
    "uniform_times",
]

DQ_SAMPLE_COUNT = 33
DQ_MIN_SAFETY = 0.9   # sampled minimum is an upper bound for the true inf
DQ_MAX_SAFETY = 1.1
INVERT_MAX_ITERATIONS = 100
ROOT_STEP_TOL = 4e-16   # relative step below which a root is converged


class MeshError(ValueError):
    """Raised for inadmissible partitions or malformed mesh queries."""


class ConvergenceError(RuntimeError):
    """A numerical kernel stopped above its tolerance: a scheme failure."""


class ValueOutsideImage(ValueError):
    """A total-flux inversion target left the image of the face's q.

    The scheme guarantees containment under the CFL condition, so this
    signals a CFL breach or a broken numerical flux and is never masked.
    """


@dataclass(frozen=True)
class IntervalDomain:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise MeshError("interval domain requires a < b")

    @property
    def length(self) -> float:
        return self.b - self.a

    periodic = False


@dataclass(frozen=True)
class CircleDomain:
    circumference: float

    def __post_init__(self):
        if not self.circumference > 0:
            raise MeshError("circle domain requires positive circumference")

    @property
    def a(self) -> float:
        return 0.0

    @property
    def b(self) -> float:
        return self.circumference

    @property
    def length(self) -> float:
        return self.circumference

    periodic = True


@dataclass(frozen=True)
class Foliation:
    """Slice times together with the spatial domain of every slice."""

    times: np.ndarray
    spatial_domain: IntervalDomain | CircleDomain

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise MeshError("a foliation needs at least two slice times")
        if abs(times[0]) > 0.0:
            raise MeshError("the first slice must sit at t = 0 (the inflow slice)")
        if np.any(np.diff(times) <= 0.0):
            raise MeshError("slice times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_slabs(self) -> int:
        return len(self.times) - 1


def uniform_times(t_final: float, hbar: float) -> np.ndarray:
    """Uniform slice times covering ``[0, t_final]`` with slabs of height <= hbar."""
    if t_final <= 0.0:
        return np.array([0.0])
    n = max(1, int(np.ceil(t_final / hbar - 1e-12)))
    return np.linspace(0.0, t_final, n + 1)


def uniform_breakpoints(domain: IntervalDomain | CircleDomain, n_cells: int) -> np.ndarray:
    return np.linspace(domain.a, domain.b, n_cells + 1)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """A mesh face; ``kind`` is 'spacelike' or 'vertical'.

    The default chart orientation is +1 along the increasing coordinate;
    flux-dependent orientation (spacelike faces) and per-cell outward
    orientation (vertical faces) are applied by consumers, never mutated
    here.
    """

    id: tuple
    kind: str
    boundary: bool
    neighbors: tuple
    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float

    @property
    def slice_index(self) -> int | None:
        return self.id[1] if self.kind == "spacelike" else None

    @property
    def slab_index(self) -> int | None:
        return self.id[1] if self.kind == "vertical" else None

    def chart(self) -> FaceChart:
        if self.kind == "spacelike":
            return FaceChart.coordinate_segment(2, axis=1, fixed=[(0, self.t_lo)],
                                                lo=self.x_lo, hi=self.x_hi)
        return FaceChart.coordinate_segment(2, axis=0, fixed=[(1, self.x_lo)],
                                            lo=self.t_lo, hi=self.t_hi)

    @property
    def extent(self) -> float:
        return (self.x_hi - self.x_lo) if self.kind == "spacelike" else (self.t_hi - self.t_lo)


@dataclass(frozen=True)
class Cell:
    """Product cell with one inflow face, one outflow face, two vertical faces."""

    id: tuple
    slab_index: int
    column: int
    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float
    inflow_face: tuple
    outflow_face: tuple
    vertical_faces: tuple  # (left id, right id)

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.t_hi - self.t_lo, self.x_hi - self.x_lo))


class _MeshView(Mapping):
    """Read-only id -> object mapping of a product mesh, built on lookup.

    ``blocks`` lists ``(tag, n_outer, n_inner)`` in iteration order; the
    ids are ``(tag, a, b)`` with ``0 <= a < n_outer`` and ``0 <= b < n_inner``,
    and ``build(tag, a, b)`` makes the object of an id.  Nothing per id is
    stored.
    """

    def __init__(self, blocks: tuple, build: Callable):
        self._blocks = blocks
        self._build = build

    def __contains__(self, key) -> bool:
        try:
            tag, a, b = key
            return any(tag == t and a == int(a) and b == int(b) and 0 <= a < n and 0 <= b < k
                       for t, n, k in self._blocks)
        except (TypeError, ValueError, OverflowError):
            return False

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        tag, a, b = key
        return self._build(tag, int(a), int(b))

    def __iter__(self):
        for tag, n, k in self._blocks:
            for a in range(n):
                for b in range(k):
                    yield (tag, a, b)

    def __len__(self) -> int:
        return sum(n * k for _, n, k in self._blocks)


class Triangulation:
    """Admissible triangulation associated with a foliation (product mesh).

    Immutable after construction.  It stores only what defines it: the
    slice times and the spatial breakpoints.  ``faces`` and ``cells`` are
    read-only mappings in deterministic id order (spacelike faces
    ``("S", slice, column)``, then vertical faces ``("V", slab, node)``;
    cells ``("K", slab, column)``) whose :class:`Face`/:class:`Cell` values
    are derived on lookup.  ``cells_in_slab`` (cells whose inflow face lies
    on slice j), ``vertical_faces`` and ``boundary_vertical_faces`` are the
    per-slab index sets the global estimates are summed over.
    """

    def __init__(self, foliation: Foliation, breakpoints: np.ndarray):
        domain = foliation.spatial_domain
        xs = np.asarray(breakpoints, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise MeshError("need at least one spatial cell")
        if np.any(np.diff(xs) <= 0.0):
            raise MeshError("spatial breakpoints must be strictly increasing")
        if abs(xs[0] - domain.a) > 1e-12 * (1 + abs(domain.a)) or \
           abs(xs[-1] - domain.b) > 1e-12 * (1 + abs(domain.b)):
            raise MeshError("spatial breakpoints must partition the domain")

        self.foliation = foliation
        self.domain = domain
        self.times = foliation.times
        self.breakpoints = xs
        self.n_columns = xs.size - 1
        self.n_slabs = foliation.n_slabs
        self.n_slices = len(foliation.times)
        self.periodic = domain.periodic
        self.n_nodes = self.n_columns if self.periodic else self.n_columns + 1
        self.faces = _MeshView((("S", self.n_slices, self.n_columns),
                                ("V", self.n_slabs, self.n_nodes)), self._face)
        self.cells = _MeshView((("K", self.n_slabs, self.n_columns),), self._cell)

    def _face(self, tag: str, j: int, k: int) -> Face:
        xs, m = self.breakpoints, self.n_columns
        if tag == "S":
            below = ("K", j - 1, k) if j > 0 else None
            above = ("K", j, k) if j < self.n_slabs else None
            return Face(id=("S", j, k), kind="spacelike", boundary=(j == 0 or j == self.n_slabs),
                        neighbors=tuple(c for c in (below, above) if c is not None),
                        t_lo=float(self.times[j]), t_hi=float(self.times[j]),
                        x_lo=float(xs[k]), x_hi=float(xs[k + 1]))
        if self.periodic:
            left, right = ("K", j, (k - 1) % m), ("K", j, k)
        else:
            left = ("K", j, k - 1) if k > 0 else None
            right = ("K", j, k) if k < m else None
        return Face(id=("V", j, k), kind="vertical", boundary=left is None or right is None,
                    neighbors=tuple(c for c in (left, right) if c is not None),
                    t_lo=float(self.times[j]), t_hi=float(self.times[j + 1]),
                    x_lo=float(xs[k]), x_hi=float(xs[k]))

    def _cell(self, tag: str, j: int, i: int) -> Cell:
        right_node = (i + 1) % self.n_columns if self.periodic else i + 1
        return Cell(id=("K", j, i), slab_index=j, column=i,
                    t_lo=float(self.times[j]), t_hi=float(self.times[j + 1]),
                    x_lo=float(self.breakpoints[i]), x_hi=float(self.breakpoints[i + 1]),
                    inflow_face=("S", j, i), outflow_face=("S", j + 1, i),
                    vertical_faces=(("V", j, i), ("V", j, right_node)))

    # -- index sets ----------------------------------------------------------

    def cells_in_slab(self, slab_index: int) -> list[Cell]:
        return [self.cells[("K", slab_index, i)] for i in range(self.n_columns)]

    def vertical_faces(self, slab_index: int) -> list[Face]:
        return [self.faces[("V", slab_index, k)] for k in range(self.n_nodes)]

    def boundary_vertical_faces(self, slab_index: int | None = None) -> list[Face]:
        if self.periodic:
            return []
        slabs = range(self.n_slabs) if slab_index is None else [slab_index]
        return [self.faces[("V", j, k)] for j in slabs for k in (0, self.n_columns)]

    @property
    def n_cells(self) -> int:
        return self.n_slabs * self.n_columns

    # -- diagnostics ----------------------------------------------------------

    def admissibility_report(self) -> dict:
        """Check the structural invariants and return per-condition flags."""
        one_in_one_out = all(
            c.inflow_face in self.faces and c.outflow_face in self.faces
            and self.faces[c.inflow_face].kind == "spacelike"
            and self.faces[c.outflow_face].kind == "spacelike"
            for c in self.cells.values())
        faces_on_slices = all(
            self.faces[c.inflow_face].slice_index == c.slab_index
            and self.faces[c.outflow_face].slice_index == c.slab_index + 1
            for c in self.cells.values())
        interior_shared = all(
            len(f.neighbors) == 2
            for f in self.faces.values() if f.kind == "vertical" and not f.boundary)
        inflow_chained = all(
            self.faces[c.inflow_face].slice_index == 0
            or ("K", c.slab_index - 1, c.column) in self.cells
            for c in self.cells.values())
        return {
            "one_inflow_one_outflow": one_in_one_out,
            "spacelike_faces_on_slices": faces_on_slices,
            "interior_vertical_shared_by_two": interior_shared,
            "inflow_is_outflow_or_initial": inflow_chained,
            "admissible": bool(one_in_one_out and faces_on_slices
                               and interior_shared and inflow_chained),
        }

    def summary(self) -> dict:
        return {
            "domain": ("circle" if self.periodic else "interval"),
            "x_lo": float(self.breakpoints[0]),
            "x_hi": float(self.breakpoints[-1]),
            "times": [float(t) for t in self.times],
            "breakpoints": [float(x) for x in self.breakpoints],
            "n_cells": self.n_cells,
            "n_spacelike_faces": self.n_slices * self.n_columns,
            "n_vertical_faces": self.n_slabs * self.n_nodes,
            "n_boundary_vertical_faces": 0 if self.periodic else 2 * self.n_slabs,
            "admissibility": self.admissibility_report(),
        }


def build_triangulation(foliation: Foliation, spatial_cells: Sequence[float] | int) -> Triangulation:
    """Build the product triangulation of a foliation.

    ``spatial_cells`` is either a breakpoint array partitioning the spatial
    domain or an integer cell count for a uniform partition.
    """
    if isinstance(spatial_cells, (int, np.integer)):
        breakpoints = uniform_breakpoints(foliation.spatial_domain, int(spatial_cells))
    else:
        breakpoints = np.asarray(spatial_cells, dtype=float)
    return Triangulation(foliation, breakpoints)


# ---------------------------------------------------------------------------
# face quadrature: the one node builder and the one summation kernel
# ---------------------------------------------------------------------------

def segment_nodes(rule: QuadratureRule, axis: int, fixed, lo, hi):
    """Gauss nodes and weights of coordinate segments in the (t, x) chart.

    Each segment runs along chart ``axis`` from ``lo`` to ``hi`` with the
    other coordinate held at ``fixed``; the three broadcast to the segment
    shape ``S``.  Returns ``pts`` of shape ``S + (nq, 2)`` and ``weights``
    of shape ``shape(hi - lo) + (nq,)``: the rule's weights times the
    segment length, for the orientation of increasing coordinate.
    """
    lo = np.asarray(lo, dtype=float)
    length = np.asarray(hi, dtype=float) - lo
    fixed = np.asarray(fixed, dtype=float)[..., None]
    along = lo[..., None] + rule.nodes[:, 0] * length[..., None]
    pts = np.empty(np.broadcast_shapes(along.shape, fixed.shape) + (2,))
    pts[..., axis] = along
    pts[..., 1 - axis] = fixed
    return pts, length[..., None] * rule.weights


def _weighted_sum(weights: np.ndarray, vals) -> np.ndarray:
    """``np.sum(weights * vals, axis=-1)``, bit for bit.

    When ``vals`` is a float array that only this call references (a
    coefficient's fresh result), the product is formed in its buffer.  A
    G' lattice then allocates one (nv, K, nq) array per slab instead of two,
    which keeps the slab loop inside heap memory it has already touched:
    with two, glibc trimmed and regrew the heap on every slab (~55k page
    faults per 321-slab solve).
    """
    if (type(vals) is np.ndarray and vals.dtype == np.float64 and vals.flags.owndata
            and vals.flags.writeable and sys.getrefcount(vals) == 2
            and vals.shape == np.broadcast_shapes(weights.shape, vals.shape)):
        return np.sum(np.multiply(weights, vals, out=vals), axis=-1)
    return np.sum(weights * vals, axis=-1)


def face_sums(fn: Callable, pts: np.ndarray, weights: np.ndarray, u) -> np.ndarray:
    """``sum_k w_k fn(x_k, u)`` per face: the quadrature of every face table.

    ``pts`` (n, nq, 2) holds one row of face nodes per state row and
    ``weights`` is (n, nq), or (nq,) when all faces share them; ``u`` has
    shape (n,) or (n, K), and the result has the shape of ``u``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return _weighted_sum(weights, fn(pts, u[:, None]))
    if u.ndim == 2:
        return _weighted_sum(weights[..., None, :], fn(pts[:, None, :, :], u[:, :, None]))
    raise MeshError("state array must have shape (n,) or (n, K)")


def _face_integral(fn: Callable, pts: np.ndarray, weights: np.ndarray) -> Callable:
    """``u -> sum_k w_k fn(x_k, u)`` on one face, for states of any shape."""
    def integral(u):
        return _weighted_sum(weights, fn(pts, np.asarray(u, dtype=float)[..., None]))
    return integral


def _chart_integral(family: Callable, chart: FaceChart, rule: QuadratureRule) -> Callable:
    """``u -> integral of family(u) over chart`` per state, through the generic pullback."""
    return np.vectorize(lambda v: integrate_over_face(family(float(v)), chart, rule),
                        otypes=[float])


def _face_nodes(face: Face, rule: QuadratureRule):
    """Chart points and weights of one face for its +1 orientation, and its axis."""
    if face.kind == "spacelike":
        return (*segment_nodes(rule, 1, face.t_lo, face.x_lo, face.x_hi), 1)
    return (*segment_nodes(rule, 0, face.x_lo, face.t_lo, face.t_hi), 0)


# ---------------------------------------------------------------------------
# total flux functions
# ---------------------------------------------------------------------------

@dataclass
class TotalFlux:
    """Cached total flux ``q(u)`` along one face with derivative bounds.

    ``dq_min``/``dq_max`` are safety-factored bounds of the sampled
    derivative (0.9 and 1.1); ``dq_min_raw``/``dq_max_raw`` keep the plain
    sampled extrema, which the CFL bookkeeping uses so that its constants
    match the defining ratios exactly.  ``image`` is the closed interval
    ``[q(u_lo), q(u_hi)]`` over the admissible state range.
    """

    face_id: tuple
    q_fn: Callable[[np.ndarray], np.ndarray]
    dq_fn: Callable[[np.ndarray], np.ndarray]
    u_range: tuple[float, float]
    dq_min: float
    dq_max: float
    dq_min_raw: float
    dq_max_raw: float
    image: tuple[float, float]
    monotone: bool

    def q(self, u):
        return self.q_fn(np.asarray(u, dtype=float))

    def dq(self, u):
        return self.dq_fn(np.asarray(u, dtype=float))

    def invert(self, value: float, tol: float = 1e-12) -> float:
        if not self.monotone:
            raise NotSpacelikeError("total flux on this face is not monotone")
        u = _invert_increasing(self.q_fn, self.dq_fn, np.array([float(value)]), self.u_range,
                               np.array([self.image[0]]), np.array([self.image[1]]),
                               [self.face_id], tol)
        return float(u[0])


def _invert_increasing(q_of, dq_of, values, u_range, image_lo, image_hi, face_ids, tol):
    """Solve ``q(u) = values`` entrywise for increasing q on ``u_range``.

    Newton steps inside a closed bracket ``q(lo) < target <= q(hi)``; a step
    that is not finite or not strictly inside is replaced by bisection.  A
    root stops, frozen, once its step is below ``ROOT_STEP_TOL * (1 + |u|)``
    and its residual within ``tol * max(1, |target|)``.  Targets at an image
    end return that end of ``u_range`` exactly.  Raises
    :class:`ValueOutsideImage` for a target outside the padded image and
    :class:`ConvergenceError` for a root above tolerance after
    ``INVERT_MAX_ITERATIONS``; a target, image end or final residual that
    is NaN counts as outside or above tolerance.
    """
    values = np.asarray(values, dtype=float)
    scale = np.maximum(1.0, np.abs(values))
    tol_abs = tol * scale
    inside = (values >= image_lo - tol_abs) & (values <= image_hi + tol_abs)
    if not inside.all():
        k = int(np.argmax(np.maximum(image_lo - values, values - image_hi)))
        raise ValueOutsideImage(
            f"face {face_ids[k]}: target {float(values[k])!r} outside image "
            f"[{float(image_lo[k])!r}, {float(image_hi[k])!r}]")
    at_lo = values <= image_lo
    at_hi = values >= image_hi
    lo = np.full_like(values, u_range[0])
    hi = np.full_like(values, u_range[1])
    u = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))
    active = ~(at_lo | at_hi)
    for _ in range(INVERT_MAX_ITERATIONS):
        if not active.any():
            return u
        r = q_of(u) - values
        lo = np.where(active & (r < 0.0), u, lo)
        hi = np.where(active & (r >= 0.0), u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = u - r / dq_of(u)
        # the converged test comes first: at a root the step rounds to zero
        # and lands on the endpoint this iteration has just moved to u
        done = (np.abs(nxt - u) <= ROOT_STEP_TOL * (1.0 + np.abs(u))) & (np.abs(r) <= tol_abs)
        active &= ~done
        bad = ~np.isfinite(nxt) | (nxt <= lo) | (nxt >= hi)
        u = np.where(active, np.where(bad, 0.5 * (lo + hi), nxt), u)
    if active.any():
        resid = np.abs(q_of(u) - values)
        failed = active & ~(resid <= np.maximum(tol_abs, 1e-13 * scale))   # NaN fails
        if failed.any():
            k = int(np.argmax(np.where(failed, resid / scale, -1.0)))
            raise ConvergenceError(
                f"face {face_ids[k]}: total-flux inversion of target {float(values[k])!r} "
                f"stopped after {INVERT_MAX_ITERATIONS} iterations with residual "
                f"{float(resid[k])!r} (tolerance {float(tol_abs[k])!r})")
    return u


def total_flux(face: Face | FaceChart, flux: FluxField,
               rule: QuadratureRule | None = None,
               require_monotone: bool = True,
               u_range: tuple[float, float] | None = None) -> TotalFlux:
    """Total flux function of a face, oriented for monotonicity when spacelike.

    For mesh faces the quadrature runs directly on the coordinate segment;
    arbitrary :class:`FaceChart` objects go through the generic pullback.
    With ``require_monotone`` the face must be spacelike (sign-definite
    pulled-back du), otherwise the flux is cached as-is in the chart's own
    orientation.
    """
    rule = rule if rule is not None else gauss_legendre(5, 1)
    u_lo, u_hi = u_range if u_range is not None else flux.u_range
    us = np.linspace(u_lo, u_hi, DQ_SAMPLE_COUNT)

    if isinstance(face, Face):
        pts, weights, axis = _face_nodes(face, rule)
        q_fn = _face_integral(flux.omega.coeffs[(axis,)], pts, weights)
        dq_fn = _face_integral(flux.omega.du_coeffs[(axis,)], pts, weights)
        face_id = face.id
    else:
        q_fn = _chart_integral(flux.omega.base, face, rule)
        dq_fn = _chart_integral(flux.omega.du, face, rule)
        face_id = ("chart",)

    dq_samples = dq_fn(us)
    monotone = bool(np.all(dq_samples > 0.0))
    flipped = bool(np.all(dq_samples < 0.0))
    if require_monotone and not (monotone or flipped):
        raise NotSpacelikeError(
            "face is not spacelike: pulled-back du_omega is not sign-definite "
            f"(sampled range [{float(dq_samples.min()):.3e}, {float(dq_samples.max()):.3e}])")
    sign = -1.0 if (require_monotone and flipped) else 1.0
    if sign < 0:
        base_q, base_dq = q_fn, dq_fn
        q_fn = lambda u: -base_q(u)          # noqa: E731 - orientation flip
        dq_fn = lambda u: -base_dq(u)        # noqa: E731
        dq_samples = -dq_samples

    dq_min_raw = float(dq_samples.min())
    dq_max_raw = float(dq_samples.max())
    image = (float(q_fn(np.asarray(u_lo))), float(q_fn(np.asarray(u_hi))))
    if image[0] > image[1]:
        image = (image[1], image[0])
    return TotalFlux(face_id=face_id, q_fn=q_fn, dq_fn=dq_fn, u_range=(u_lo, u_hi),
                     dq_min=DQ_MIN_SAFETY * dq_min_raw, dq_max=DQ_MAX_SAFETY * dq_max_raw,
                     dq_min_raw=dq_min_raw, dq_max_raw=dq_max_raw,
                     image=image, monotone=monotone or flipped)


def invert_total_flux(tf: TotalFlux, value: float, tol: float = 1e-12) -> float:
    """Recover the state whose total flux equals ``value`` (guarded)."""
    return tf.invert(value, tol=tol)


# ---------------------------------------------------------------------------
# vectorized slice tables (the solver's fast path)
# ---------------------------------------------------------------------------

class SliceFaceIds(SequenceABC):
    """The ids ``("S", slice_index, i)`` of a slice's m faces, built on lookup."""

    __slots__ = ("slice_index", "_n")

    def __init__(self, slice_index: int, n: int):
        self.slice_index = slice_index
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i) -> tuple:
        k = operator.index(i)
        k = k + self._n if k < 0 else k
        if not 0 <= k < self._n:
            raise IndexError(i)
        return ("S", self.slice_index, k)


class SpacelikeTable:
    """Vectorized total fluxes for every spacelike face of one slice.

    Nodes, signed weights and derivative bounds are precomputed once per
    slice; evaluation broadcasts a per-face state array against the face
    axis, so all queries of the scheme and the entropy verifiers are single
    vectorized calls.  The slice's geometry (``slice_index``, ``face_ids``,
    ``t``, ``pts``) is cheap; everything else derives from the flux, and
    :meth:`on_slice` shares it with another slice when the flux does not
    read t.
    """

    def __init__(self, tri: Triangulation, flux: FluxField, slice_index: int,
                 rule: QuadratureRule | None = None,
                 u_range: tuple[float, float] | None = None):
        self._rule = rule if rule is not None else gauss_legendre(5, 1)
        xs = tri.breakpoints
        self.x_lo = xs[:-1].copy()
        self.x_hi = xs[1:].copy()
        self.widths = self.x_hi - self.x_lo
        base_w = self._place(tri, slice_index)
        self._wx = flux.omega.coeffs[(1,)]
        self._dwx = flux.omega.du_coeffs[(1,)]

        u_lo, u_hi = u_range if u_range is not None else flux.u_range
        self.u_range = (float(u_lo), float(u_hi))
        us = np.broadcast_to(np.linspace(u_lo, u_hi, DQ_SAMPLE_COUNT),
                             (tri.n_columns, DQ_SAMPLE_COUNT))
        signs = []

        def dwx_with_signs(pts, u):
            # a face is spacelike when its density has one sign at every node
            dens = self._dwx(pts, u)                                    # (m, k, nq)
            signs.append((np.all(dens > 0.0, axis=(1, 2)), np.all(dens < 0.0, axis=(1, 2))))
            return dens

        dq_samples = face_sums(dwx_with_signs, self.pts, base_w, us)    # (m, k)
        per_face_pos, per_face_neg = signs[0]
        if not np.all(per_face_pos | per_face_neg):
            raise NotSpacelikeError(
                f"slice {slice_index} contains faces that are not spacelike for this flux")
        self.orientation = np.where(per_face_pos, 1.0, -1.0)
        self.weights = self.orientation[:, None] * base_w
        dq_samples = self.orientation[:, None] * dq_samples   # = sums over oriented weights
        self.dq_min_raw = dq_samples.min(axis=1)
        self.dq_max_raw = dq_samples.max(axis=1)
        self.dq_min = DQ_MIN_SAFETY * self.dq_min_raw
        self.dq_max = DQ_MAX_SAFETY * self.dq_max_raw
        self.image_lo = self.q(np.full(len(self.face_ids), u_lo))
        self.image_hi = self.q(np.full(len(self.face_ids), u_hi))

    def _place(self, tri: Triangulation, slice_index: int) -> np.ndarray:
        """Set the geometry of slice ``slice_index``; returns the unsigned weights."""
        self.slice_index = slice_index
        self.face_ids = SliceFaceIds(slice_index, tri.n_columns)
        self.t = float(tri.times[slice_index])
        self.pts, base_w = segment_nodes(self._rule, 1, self.t, self.x_lo, self.x_hi)
        return base_w

    def on_slice(self, tri: Triangulation, slice_index: int) -> "SpacelikeTable":
        """This table's flux-derived arrays on slice ``slice_index`` of ``tri``.

        Only for a flux that does not read t: its table of that slice is
        then this one, bit for bit, except for the geometry set here.  The
        arrays are shared, not copied.
        """
        table = copy.copy(self)
        table._place(tri, slice_index)
        return table

    @property
    def n_faces(self) -> int:
        return len(self.face_ids)

    def q(self, u) -> np.ndarray:
        """Oriented total fluxes; ``u`` has shape (m,) or (m, K)."""
        return face_sums(self._wx, self.pts, self.weights, u)

    def dq(self, u) -> np.ndarray:
        return face_sums(self._dwx, self.pts, self.weights, u)

    def density(self, u) -> np.ndarray:
        """Pointwise oriented pullback density of omega(u) at the face nodes."""
        u = np.asarray(u, dtype=float)
        vals = self._wx(self.pts, u[:, None])
        return self.orientation[:, None] * vals

    def invert(self, values: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """States whose oriented total fluxes equal ``values``, one per face.

        See :func:`_invert_increasing` for the iteration, its stopping rule
        and errors; each result depends only on its own face and target.
        """
        return _invert_increasing(self.q, self.dq, values, self.u_range, self.image_lo,
                                  self.image_hi, self.face_ids, tol)

    def total_flux_view(self, column: int) -> TotalFlux:
        """Per-face TotalFlux sharing this table's cached quadrature."""
        idx = int(column)
        pts, weights = self.pts[idx], self.weights[idx]
        return TotalFlux(face_id=self.face_ids[idx],
                         q_fn=_face_integral(self._wx, pts, weights),
                         dq_fn=_face_integral(self._dwx, pts, weights),
                         u_range=self.u_range,
                         dq_min=float(self.dq_min[idx]), dq_max=float(self.dq_max[idx]),
                         dq_min_raw=float(self.dq_min_raw[idx]),
                         dq_max_raw=float(self.dq_max_raw[idx]),
                         image=(float(self.image_lo[idx]), float(self.image_hi[idx])),
                         monotone=True)


# ---------------------------------------------------------------------------
# regularity diagnostics
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    h: float
    hbar_max: float
    max_cell_diameter: float
    diameter_ratio: float
    dq_over_h_min: float
    dq_over_h_max: float
    boundary_alpha_mass_over_h_max: float
    max_vertical_faces_per_cell: int
    q_derivative_ratio_max: float
    cells_per_slab_in_region_max: int | None
    slabs_in_region: int | None
    region_cell_constant: float | None
    region_slab_constant: float | None
    curvature_oscillation_max: float | None
    slab_translation_sum_max: float | None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def mesh_regularity_report(tri: Triangulation, flux: FluxField,
                           metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
                           compact_region: tuple[float, float, float, float] | None = None,
                           alpha_density: Callable[[np.ndarray], np.ndarray] | None = None,
                           form_family: Callable[[float], CoordinateForm] | None = None,
                           psi=None,
                           lambda_weights: float = 0.5,
                           ubar_samples: Iterable[float] | None = None,
                           rule: QuadratureRule | None = None) -> RegularityReport:
    """Best constants for the mesh regularity conditions (diagnostics only).

    Reports the cell diameter / h ratio, h-scaled bounds on the outflow
    derivative of q, boundary face masses, the pointwise bound on the
    sup/inf ratio of the q-derivative density, counts of cells/slabs
    meeting a compact region, the oscillation of face densities relative
    to their means (for ``form_family`` at the sampled states), and the
    per-slab sum comparing test-function averages on translated inflow and
    outflow faces (O(h^2) on product meshes for smooth data).

    ``metric`` defaults to the Euclidean chart distance, ``alpha_density``
    to the constant 1 density of the coordinate measure, and
    ``lambda_weights`` is the convex weight per vertical face used in the
    face averages (product cells have two vertical faces).
    """
    rule = rule if rule is not None else gauss_legendre(5, 1)
    if metric is None:
        metric = lambda p, q: float(np.linalg.norm(np.asarray(p) - np.asarray(q)))  # noqa: E731
    if alpha_density is None:
        alpha_density = lambda pts: np.ones(np.shape(pts)[:-1])  # noqa: E731

    h = float(np.max(np.diff(tri.breakpoints)))
    hbar_max = float(np.max(np.diff(tri.times)))
    corners = [(c.t_lo, c.x_lo, c.t_hi, c.x_hi) for c in tri.cells.values()]
    max_diam = max(metric((t0, x0), (t1, x1)) for t0, x0, t1, x1 in corners)

    us = np.asarray(list(ubar_samples), dtype=float) if ubar_samples is not None \
        else flux.u_samples(9)

    # h-scaled outflow derivative bounds and the pointwise density ratio bound
    dq_lo = np.inf
    dq_hi = -np.inf
    ratio_max = 0.0
    for j in range(1, tri.n_slices):
        table = SpacelikeTable(tri, flux, j, rule=rule)
        dq_lo = min(dq_lo, float(np.min(table.dq_min_raw)))
        dq_hi = max(dq_hi, float(np.max(table.dq_max_raw)))
        dens = np.abs(table._dwx(table.pts[:, None, :, :], us[None, :, None]))
        ratio_max = max(ratio_max, float(np.max(np.max(dens, axis=(1, 2))
                                                / np.min(dens, axis=(1, 2)))))

    # boundary face masses with respect to the alpha density
    bmass = 0.0
    for face in tri.boundary_vertical_faces():
        pts, w, _ = _face_nodes(face, rule)
        bmass = max(bmass, float(np.sum(w * alpha_density(pts))))

    cells_in_region = None
    slabs_in_region = None
    tri2_cell = None
    tri2_slab = None
    if compact_region is not None:
        t0, t1, x0, x1 = compact_region
        per_slab = []
        for j in range(tri.n_slabs):
            hit = [c for c in tri.cells_in_slab(j)
                   if c.t_hi > t0 and c.t_lo < t1 and c.x_hi > x0 and c.x_lo < x1]
            per_slab.append(len(hit))
        cells_in_region = int(max(per_slab)) if per_slab else 0
        slabs_in_region = int(sum(1 for n in per_slab if n > 0))
        tri2_cell = cells_in_region * h
        tri2_slab = slabs_in_region * h

    family = form_family if form_family is not None else (lambda ub: flux.omega.base(ub))

    # oscillation of the pulled-back face density relative to its alpha mean,
    # normalized by the face's own density scale
    osc_max = 0.0
    dense = np.linspace(0.0, 1.0, 33)[:, None]
    for j in range(tri.n_slabs):
        for face in tri.vertical_faces(j):
            chart = face.chart()
            nodes = chart.ref_points(dense)
            pts = chart.param(nodes)
            aw = alpha_density(pts)
            aw = aw / np.sum(aw)
            for ub in us:
                phi = pullback(family(float(ub)), chart).evaluate((0,), nodes)
                phi = phi / max(1.0, float(np.max(np.abs(phi))))
                mean = float(np.sum(aw * phi))
                osc_max = max(osc_max, float(np.sum(aw * np.abs(phi - mean))))

    trichange = None
    if psi is not None:
        trichange = 0.0
        lam = float(lambda_weights)
        for j in range(1, tri.n_slabs):
            totals = np.zeros(len(us))
            for cell in tri.cells_in_slab(j):
                below = tri.cells[("K", j - 1, cell.column)]
                psi_below = _face_average_psi(tri, below, psi, alpha_density, lam, rule)
                psi_here = _face_average_psi(tri, cell, psi, alpha_density, lam, rule)
                for k, ub in enumerate(us):
                    form = family(float(ub))
                    inflow = _psi_weighted_face_integral(
                        tri.faces[cell.inflow_face], form, psi, psi_below, rule, flux)
                    outflow = _psi_weighted_face_integral(
                        tri.faces[cell.outflow_face], form, psi, psi_here, rule, flux)
                    totals[k] += abs(inflow - outflow)
            trichange = max(trichange, float(np.max(totals)))

    return RegularityReport(
        h=h, hbar_max=hbar_max, max_cell_diameter=float(max_diam),
        diameter_ratio=float(max_diam / h),
        dq_over_h_min=float(dq_lo / h), dq_over_h_max=float(dq_hi / h),
        boundary_alpha_mass_over_h_max=float(bmass / h),
        max_vertical_faces_per_cell=2,
        q_derivative_ratio_max=float(ratio_max),
        cells_per_slab_in_region_max=cells_in_region,
        slabs_in_region=slabs_in_region,
        region_cell_constant=tri2_cell,
        region_slab_constant=tri2_slab,
        curvature_oscillation_max=osc_max,
        slab_translation_sum_max=trichange,
    )


def _face_average_psi(tri, cell, psi, alpha_density, lam, rule):
    total = 0.0
    for fid in cell.vertical_faces:
        face = tri.faces[fid]
        pts, w, _ = _face_nodes(face, rule)
        aw = w * alpha_density(pts)
        total += lam * float(np.sum(aw * psi(pts)) / np.sum(aw))
    return total


def _psi_weighted_face_integral(face, form, psi, psi_avg, rule, flux):
    """Oriented integral of (psi_avg - psi) i*form over a spacelike face."""
    pts, w, axis = _face_nodes(face, rule)
    coeff = form.evaluate((axis,), pts)
    sign = 1.0
    dens = flux.omega.du_coeffs[(axis,)](pts, 0.5 * sum(flux.u_range))
    if np.all(dens < 0):
        sign = -1.0
    return sign * float(np.sum(w * (psi_avg - psi(pts)) * coeff))
