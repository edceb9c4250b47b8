"""Foliation-associated product triangulations and total flux functions.

The solver meshes are products of a strictly increasing time partition
``0 = t_0 < ... < t_N = T`` with a spatial partition of an interval or a
circle.  Each cell is a slab rectangle with one inflow face on the lower
slice, one outflow face on the upper slice and two vertical faces; on an
interval domain the extreme vertical faces lie on the spacetime boundary.

Total flux functions ``q_e(u) = oriented integral of omega(u) over e`` are
the quantities the scheme evolves.  Each one, on a spacelike face of a slice
or a vertical face of a slab, is a row of a block table of slices or slabs,
all discretized alike: :func:`segment_nodes` builds the Gauss nodes and
weights, :func:`face_sums` forms ``sum_k w_k f(x_k, u)`` over a leading node
axis (at one t node on a vertical face of a flux that does not read t); a
slice's or slab's table is a row view of its block's, moved unbuilt for a
flux that does not read t.  On spacelike faces the total fluxes are strictly
monotone, cached with derivative bounds in a :class:`SpacelikeTable`, and
inverted column by column by :func:`bracketed_root`, the one root finder,
whose first two iterates an affine q settles; the solver steps with the
first Newton iterate alone and certifies it in batches.

:func:`mesh_regularity_report` measures the regularity conditions of the
convergence proof on the same node arrays, built for all slices or all
slabs at once and indexed by (slab or slice, column or node).  Faces and
cells are named by ids, ``(tag, a, b)`` by where they sit (:class:`MeshIds`);
no per-face object exists.
"""

from __future__ import annotations

import operator
import sys
import weakref
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fluxfield import FluxField, NotSpacelikeError
from .forms import QuadratureRule, gauss_legendre

__all__ = [
    "CircleDomain",
    "ConvergenceError",
    "Foliation",
    "IntervalDomain",
    "MeshError",
    "MeshIds",
    "RegularityReport",
    "SpacelikeTable",
    "Triangulation",
    "ValueOutsideImage",
    "build_triangulation",
    "column_at",
    "face_sums",
    "mesh_regularity_report",
    "segment_nodes",
    "uniform_breakpoints",
    "uniform_times",
]

DQ_SAMPLE_COUNT = 33
DQ_MIN_SAFETY = 0.9   # sampled minimum is an upper bound for the true inf
DQ_MAX_SAFETY = 1.1
ROOT_MAX_STEPS = 100   # evaluations of f per bracketed_root call
ROOT_STEP_TOL = 4e-16   # relative step below which a root is converged
OSCILLATION_NODES = 33   # equispaced nodes per vertical face of the oscillation diagnostic


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


def _require_finite(name: str, values: np.ndarray) -> None:
    """Raise :class:`MeshError` naming the first non-finite entry of a partition."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        raise MeshError(f"{name}[{k}] is not finite: {float(values[k])!r}")


@dataclass(frozen=True)
class Foliation:
    """Slice times together with the spatial domain of every slice."""

    times: np.ndarray
    spatial_domain: IntervalDomain | CircleDomain

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise MeshError("a foliation needs at least two slice times")
        _require_finite("slice times", times)
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

    @cached_property
    def heights(self) -> np.ndarray:
        """Nominal slab heights: every table places slab j's nodes at
        ``t_j + s_k * heights[j]`` with weights ``heights[j] * w_k``.  A height
        of ``np.diff(times)`` within ``4 * np.spacing(t_final)`` of its group's
        first height takes that height; any other keeps its value and starts a
        group.  This absorbs the ulps by which ``np.linspace`` times split equal
        heights, and it reads the times alone, so a reloaded run gets its bits."""
        tol = 4.0 * np.spacing(self.horizon)
        heights, first = np.diff(self.times).tolist(), np.inf
        for j, h in enumerate(heights):
            if abs(h - first) <= tol:
                heights[j] = first
            else:
                first = h
        return np.array(heights)


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

class MeshIds(SequenceABC):
    """Read-only ids ``(tag, a, b)`` of a product mesh in block order, built on lookup.

    Each block ``(tag, first, n_outer, n_inner)`` holds the ids ``(tag, first + a, b)``
    for ``0 <= a < n_outer`` and ``0 <= b < n_inner``, b running fastest: spacelike
    faces ``("S", slice, column)``, vertical faces ``("V", slab, node)`` and cells
    ``("K", slab, column)``.  Nothing per id is stored.
    """

    __slots__ = ("blocks", "_n")

    def __init__(self, *blocks: tuple):
        self.blocks = blocks
        self._n = 0
        for block in blocks:
            self._n += block[2] * block[3]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i) -> tuple:
        k = operator.index(i)
        k = k + self._n if k < 0 else k
        if k >= 0:
            for tag, first, n, m in self.blocks:
                if k < n * m:
                    return (tag, first + k // m, k % m)
                k -= n * m
        raise IndexError(i)


class Triangulation:
    """Admissible triangulation associated with a foliation (product mesh).

    Immutable after construction.  It stores only what defines it: the
    slice times and the spatial breakpoints.  ``faces`` and ``cells`` are
    the :class:`MeshIds` of the mesh in deterministic order (spacelike faces
    ``("S", slice, column)``, then vertical faces ``("V", slab, node)``;
    cells ``("K", slab, column)``); every computation reads the two partitions.
    """

    def __init__(self, foliation: Foliation, breakpoints: np.ndarray):
        domain = foliation.spatial_domain
        xs = np.asarray(breakpoints, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise MeshError("need at least one spatial cell")
        _require_finite("spatial breakpoints", xs)
        if np.any(np.diff(xs) <= 0.0):
            raise MeshError("spatial breakpoints must be strictly increasing")
        if abs(xs[0] - domain.a) > 1e-12 * (1 + abs(domain.a)) or \
           abs(xs[-1] - domain.b) > 1e-12 * (1 + abs(domain.b)):
            raise MeshError("spatial breakpoints must partition the domain")

        self.foliation = foliation
        self.domain = domain
        self.times = foliation.times
        self.heights = foliation.heights
        self.breakpoints = xs
        self.n_columns = xs.size - 1
        self.n_slabs = foliation.n_slabs
        self.n_slices = len(foliation.times)
        self.periodic = domain.periodic
        self.n_nodes = self.n_columns if self.periodic else self.n_columns + 1
        self.faces = MeshIds(("S", 0, self.n_slices, self.n_columns),
                             ("V", 0, self.n_slabs, self.n_nodes))
        self.cells = MeshIds(("K", 0, self.n_slabs, self.n_columns))

    @property
    def n_cells(self) -> int:
        return self.n_slabs * self.n_columns

    # -- diagnostics ----------------------------------------------------------

    def admissibility_report(self) -> dict:
        """Per-condition flags of the structural invariants.

        Cell ``("K", j, i)`` has inflow face ``("S", j, i)``, outflow face
        ``("S", j + 1, i)`` and vertical faces at nodes i and i + 1 (mod m on
        a circle), so each flag is a property of the two partitions: slab j
        lies between slices j and j + 1 of strictly increasing times, slice 0
        is the initial slice at t = 0, and strictly increasing breakpoints give
        every interior node the two columns on either side of it.
        """
        times, xs = self.times, self.breakpoints
        one_in_one_out = self.n_slices == self.n_slabs + 1
        faces_on_slices = bool(np.all(np.diff(times) > 0.0))
        interior_shared = bool(np.all(np.diff(xs) > 0.0))
        inflow_chained = bool(times[0] == 0.0)
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

def segment_nodes(rule: QuadratureRule, axis: int, fixed, lo, length):
    """Gauss nodes and weights of coordinate segments in the (t, x) chart.

    Each segment runs along chart ``axis`` from ``lo`` over ``length`` with
    the other coordinate held at ``fixed``; the three broadcast to the
    segment shape ``S``.  Returns ``pts`` of shape ``S + (nq, 2)``, the
    nodes ``lo + s_k * length``, and ``weights`` of shape
    ``shape(length) + (nq,)``: the rule's weights times the length, for the
    orientation of increasing coordinate.
    """
    lo = np.asarray(lo, dtype=float)
    length = np.asarray(length, dtype=float)
    fixed = np.asarray(fixed, dtype=float)[..., None]
    along = lo[..., None] + rule.nodes[:, 0] * length[..., None]
    pts = np.empty(np.broadcast_shapes(along.shape, fixed.shape) + (2,))
    pts[..., axis] = along
    pts[..., 1 - axis] = fixed
    return pts, length[..., None] * rule.weights


def _sharing(obj, rows: slice | np.ndarray | None = None, **geometry):
    """A new object of ``obj``'s class sharing all its attributes but ``geometry``; given
    ``rows``, its row-axis arrays (``ROWS``) are cut to them (or gathered, for an array)."""
    new = object.__new__(type(obj))
    attrs = new.__dict__
    attrs.update(obj.__dict__)
    if rows is not None:
        attrs.update({name: attrs[name][rows] for name in obj.ROWS if attrs[name] is not None})
    attrs.update(geometry)
    return new


def _moved_rows(n: int, own: int):
    """The rows that a table of ``own`` rows moved to ``n`` rows takes (:func:`_sharing`): all
    (None), its first n, or, for a table of one slice or slab, that one's rows repeated."""
    return None if n == own else slice(0, n) if n < own else np.arange(n) % own


def _weighted_sum(weights: np.ndarray, vals) -> np.ndarray:
    """``np.add.reduce(weights * vals, axis=0)``: the sum over a leading node axis.

    It adds the node planes in order, ``0.0 + p_0 + ... + p_{nq-1}``, one
    elementwise add per node rather than an inner loop per face.  Below 8
    terms numpy's trailing-axis ``np.sum`` adds in that order too (from 8 on
    it sums pairwise in blocks of 8), so every 5-node table keeps its bits.
    When ``vals`` is a float array that only this call references (a
    coefficient's fresh result), the product is formed in its buffer: a G'
    lattice allocates one (nq, nv, K) array instead of two.  Without that, a
    Burgers shock at nx = 160 declared to read t took 227-280 minor page
    faults per solve instead of 0-8.
    """
    # the node axes first: one t node's (1, ...) values fail there, at the least cost
    if (type(vals) is np.ndarray and vals.shape[:1] == weights.shape[:1]
            and vals.dtype == np.float64 and vals.flags.owndata
            and vals.flags.writeable and sys.getrefcount(vals) == 2
            and vals.shape == np.broadcast_shapes(weights.shape, vals.shape)):
        return np.add.reduce(np.multiply(weights, vals, out=vals), axis=0)
    return np.add.reduce(weights * vals, axis=0)


def face_sums(fn: Callable, pts: np.ndarray, weights: np.ndarray, u) -> np.ndarray:
    """``sum_k w_k fn(x_k, u)`` per face: the quadrature of every face table.

    ``pts`` (n, nq, 2) holds one row of face nodes per state row, each
    (t, x) pair contiguous as :func:`segment_nodes` makes them, and
    ``weights`` is (n, nq), or (nq,) when all faces share them; ``u`` has
    shape (n,) or (n, K), and the result has the shape of ``u``.  ``fn``
    gets the nodes node-major, (nq, n, 2) against ``u`` (n,) or
    (nq, n, 1, 2) against (n, K), copied so that its values come out
    node-major in memory too: the product then stays in place and the
    reduction is elementwise.  Where ``fn`` has the same bits at every node,
    ``pts`` may hold one, (n, 1, 2): its value broadcasts against all nq
    weights, so the products and their sum are those of nq nodes.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        raise MeshError("state array must have shape (n,) or (n, K)")
    if pts.shape[1] == 1:   # one node: fn's values are one plane in any layout
        nodes = pts.transpose(1, 0, 2)
    else:   # each (t, x) pair copies as one complex128, faces innermost
        nodes = np.ascontiguousarray(pts.view(np.complex128).transpose(1, 0, 2)).view(float)
    w = weights.T.reshape(weights.shape[-1], -1)                 # (nq, n) or (nq, 1)
    if u.ndim == 1:
        return _weighted_sum(w, fn(nodes, u))
    return _weighted_sum(w[..., None], fn(nodes[:, :, None, :], u))


def column_at(col: np.ndarray, u) -> np.ndarray:
    """Per-face ``col`` (n,) at states ``u`` (n,) or (n, K); NaN where u is not finite."""
    u = np.asarray(u, dtype=float)
    return np.where(np.isfinite(u), col if u.ndim == 1 else col[:, None], np.nan)


# ---------------------------------------------------------------------------
# total flux functions
# ---------------------------------------------------------------------------

def _secant(lo, hi, flo, fhi):
    # from the end with the smaller |f|: keeps a root within rounding of an end
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (hi - lo) / (fhi - flo)
    return np.where(np.abs(flo) < np.abs(fhi), lo - flo * d, hi - fhi * d)


def bracketed_root(f, w, lo, hi, flo, fhi, df=None, tol=np.inf, fw=None):
    """Roots of ``f`` in brackets ``[lo, hi]`` with ``flo = f(lo) < 0 <= f(hi) = fhi``.

    Each step evaluates f at the iterates (first ``w``, unless its values
    ``fw`` are given) and keeps the sub-bracket whose ends differ in sign.
    The next iterate is the Newton step if ``df`` is given and that step is
    finite and strictly inside, else the Illinois secant of the bracket
    (Dowell & Jarratt 1971: an end kept twice in a row has its value
    halved), or its midpoint when the secant point is not strictly inside or
    the two previous secant steps both failed to halve the bracket: without
    ``df`` the bracket halves at least every three steps.  A root stops once ``|f| <= tol`` and its
    Newton (or secant) step or its bracket is within
    ``ROOT_STEP_TOL * (1 + |w|)``; a point bracket stops unevaluated.
    Returns the last evaluated iterates, their f values (None if no step
    was taken) and the mask of the open roots: at once those whose f is NaN,
    else those open after ``ROOT_MAX_STEPS`` iterates.
    """
    active = lo < hi
    x, fx = w, None
    moved_lo = took = None         # the previous step: the roots that moved lo, took the secant
    slow = slow_before = False     # the two previous secant steps failed to halve the bracket
    for _ in range(ROOT_MAX_STEPS):
        if not active.any():
            break
        x, fx, fw = w, f(w) if fw is None else fw, None
        nan = active & np.isnan(fx)
        if nan.any():
            return x, fx, nan
        move_lo = fx < 0.0
        width = None if took is None else hi - lo
        lo, flo = np.where(move_lo, x, lo), np.where(move_lo, fx, flo)
        hi, fhi = np.where(move_lo, hi, x), np.where(move_lo, fhi, fx)
        slow_before, slow = slow, False if took is None else took & (hi - lo > 0.5 * width)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = _secant(lo, hi, flo, fhi) if df is None else x - fx / df(x)
        step = np.fmin(np.abs(p - x), hi - lo)   # a NaN Newton step: the bracket
        active &= ~((np.abs(fx) <= tol) & (step <= ROOT_STEP_TOL * (1.0 + np.abs(x))))
        fall = active if df is None else active & ~((lo < p) & (p < hi))
        took = None
        if fall.any():
            if moved_lo is not None:
                flo = np.where(fall & ~move_lo & ~moved_lo, 0.5 * flo, flo)
                fhi = np.where(fall & move_lo & moved_lo, 0.5 * fhi, fhi)
            s = _secant(lo, hi, flo, fhi)
            bisect = (slow & slow_before) | ~((lo < s) & (s < hi))
            took = fall & ~bisect
            p = np.where(fall, np.where(bisect, 0.5 * (lo + hi), s), p)
        moved_lo = move_lo
        w = np.where(active, p, x)
    return x, fx, active


def _start(values, u_range, image_lo, image_hi, q_mid):
    """The start of :func:`_invert_increasing` on targets ``values``: the masks of the
    targets at or past each image end, the first iterate ``u`` (that end of ``u_range``
    exactly, else its midpoint) and, given ``q_mid``, ``fw = q_mid - values``: its
    residual wherever the root search reads it, at the open roots."""
    at_lo = values <= image_lo
    at_hi = values >= image_hi
    u = np.where(at_lo, u_range[0], np.where(at_hi, u_range[1], 0.5 * (u_range[0] + u_range[1])))
    return at_lo, at_hi, u, None if q_mid is None else q_mid - values


def _first_iterate(values, u, at_end, fw, u_range, image_lo, image_hi, dq):
    """The first step of :func:`_invert_increasing` from its start ``u`` with residual
    ``fw`` (:func:`_start`) for ``dq`` (per face) that reads no u, with no check: the
    second iterate of its :func:`bracketed_root` call, which :func:`_settle` certifies.
    Returns it and the half-bracket ``(lo, hi)`` of the midpoint that the sign of
    ``fw`` keeps.  Rows ``at_end`` keep ``u``; any other takes the Newton step
    ``mid - fw / dq`` if it lies strictly inside ``(lo, hi)``, else the secant of the
    half-bracket or, if that is not strictly inside either, its midpoint.
    """
    u_lo, u_hi = u_range
    mid = 0.5 * (u_lo + u_hi)
    move_lo = fw < 0.0
    lo, hi = np.where(move_lo, mid, u_lo), np.where(move_lo, u_hi, mid)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = mid - fw / dq
    newton = ((lo < p) & (p < hi)) | at_end
    if not newton.all():
        s = _secant(lo, hi, np.where(move_lo, fw, image_lo - values),
                    np.where(move_lo, image_hi - values, fw))
        p = np.where(newton, p, np.where((lo < s) & (s < hi), s, 0.5 * (lo + hi)))
    return np.where(at_end, u, p), lo, hi


def _settle(q_of, dq, values, u, at_end, u_range, image_lo, image_hi, fw, tol):
    """The states of :func:`_invert_increasing`'s :func:`bracketed_root` call,
    by that call's arithmetic for ``dq`` (per face) that reads no u, when it
    stops every root at its second iterate (:func:`_first_iterate`); None if a
    root is within ``tol`` or NaN at the first, or is open at the second.  Rows
    ``at_end`` keep ``u``.
    """
    if at_end.all():
        return u
    if not ((np.abs(fw) > tol) | at_end).all():
        return None
    x, lo, hi = _first_iterate(values, u, at_end, fw, u_range, image_lo, image_hi, dq)
    fx = q_of(x) - values
    move_lo = fx < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = x - fx / dq
    step = np.fmin(np.abs(p - x), np.where(move_lo, hi, x) - np.where(move_lo, x, lo))
    stop = (np.abs(fx) <= tol) & (step <= ROOT_STEP_TOL * (1.0 + np.abs(x)))
    return x if (stop | at_end).all() else None


def _invert_increasing(q_of, dq_of, values, u_range, image_lo, image_hi, face_ids, tol,
                       q_mid=None, dq_column=None):
    """Solve ``q(u) = values`` entrywise for increasing q on ``u_range``.

    Newton steps from the midpoint of ``u_range`` to the residual tolerance
    ``max(tol, 1e-13) * max(1, |target|)``.  Given ``q_mid``, q at the
    midpoint per face, the first iterate costs no q evaluation.  A target at
    an image end returns that end of ``u_range`` exactly.  Given ``q_mid``
    and ``dq_column`` (dq per face when it reads no u) on a finite
    ``u_range``, :func:`_settle` returns the second iterate when every other
    target stops there, as for an affine q, at one q call.  Otherwise
    :func:`bracketed_root` runs on the whole array, at most ``ROOT_MAX_STEPS``
    q evaluations; both ways give the same bits.  Raises
    :class:`ValueOutsideImage` for a target outside the image padded by
    ``tol`` (NaN counts as outside) and :class:`ConvergenceError` for a NaN
    residual or a root above tolerance after ``ROOT_MAX_STEPS``, naming the
    face, the column of an (n, K) ``values`` and the target.

    ``Solver.run`` steps slabs with the first Newton iterate alone
    (:meth:`SpacelikeTable.first_iterate`: :func:`_first_iterate`, no check)
    and calls this as their certificate, once per batch of
    ``scheme.BATCH_ROWS // m`` slabs (per block table of the batch for a flux
    that reads t).  The first slab whose states differ takes this result, and
    a batch that raises here is replayed slab by slab, so the checks, the
    stopping test and every error text keep their one home here.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:   # the image ends of a face hold for every state of its row
        image_lo, image_hi, q_mid = (e if e is None else np.broadcast_to(e[:, None], values.shape)
                                     for e in (image_lo, image_hi, q_mid))
        dq_column = None if dq_column is None else dq_column[:, None]
    scale = np.maximum(1.0, np.abs(values))
    tol_abs = tol * scale

    def at_fault(score) -> tuple[tuple, str]:
        k = np.unravel_index(int(np.argmax(score)), values.shape)
        return k, f"face {face_ids[k[0]]}" + (f", state column {k[1]}" if len(k) == 2 else "")

    inside = (values >= image_lo - tol_abs) & (values <= image_hi + tol_abs)
    if not inside.all():
        k, at = at_fault(np.maximum(image_lo - values, values - image_hi))
        raise ValueOutsideImage(f"{at}: target {float(values[k])!r} outside image "
                                f"[{float(image_lo[k])!r}, {float(image_hi[k])!r}]")
    ftol = max(tol, 1e-13) * scale   # a floor that the rounding of q lets residuals reach
    at_lo, at_hi, u, fw = _start(values, u_range, image_lo, image_hi, q_mid)
    if fw is not None and dq_column is not None and -np.inf < u_range[0] < u_range[1] < np.inf:
        settled = _settle(q_of, dq_column, values, u, at_lo | at_hi, u_range, image_lo,
                          image_hi, fw, ftol)
        if settled is not None:
            return settled
    u, r, open_ = bracketed_root(lambda w: q_of(w) - values, u, np.where(at_hi, u, u_range[0]),
                                 np.where(at_lo, u, u_range[1]), image_lo - values,
                                 image_hi - values, df=dq_of, tol=ftol, fw=fw)
    if open_.any():
        k, at = at_fault(np.where(open_, np.abs(r) / scale, -1.0))   # a NaN residual first
        stop = (f"at iterate u = {float(u[k])!r} with residual nan" if np.isnan(r[k]) else
                f"after {ROOT_MAX_STEPS} iterations with residual {float(abs(r[k]))!r} "
                f"(tolerance {float(ftol[k])!r})")
        raise ConvergenceError(f"{at}: total-flux inversion of target "
                               f"{float(values[k])!r} stopped {stop}")
    return u


# ---------------------------------------------------------------------------
# vectorized slice tables (the solver's fast path)
# ---------------------------------------------------------------------------

class SpacelikeTable:
    """Vectorized total fluxes for every spacelike face of one slice.

    Nodes, signed weights and derivative bounds are precomputed once per
    slice; evaluation broadcasts a per-face state array against the face
    axis, so all queries of the scheme and the entropy verifiers are single
    vectorized calls.  ``image_lo``, ``q_mid`` and ``image_hi`` are q at the
    lower end, the midpoint and the upper end of ``u_range``, from one
    (m, 3) call.  A range of slices gives their block table, whose
    ``face_ids`` name each row by its own slice's face; :meth:`block_rows`
    views its rows (``ROWS``) and :meth:`on_slice` moves it, ``derived``
    included, to other slices of a flux that does not read t.
    """

    ROWS = ("pts", "orientation", "weights", "dq_column", "dq_min_raw", "dq_max_raw", "dq_min",
            "dq_max", "image_lo", "q_mid", "image_hi")

    def __init__(self, tri: Triangulation, flux: FluxField, slice_index: int | range,
                 rule: QuadratureRule | None = None,
                 u_range: tuple[float, float] | None = None):
        self._rule = rule if rule is not None else gauss_legendre(5, 1)
        xs, m = tri.breakpoints, tri.n_columns
        block = isinstance(slice_index, range)
        slices = np.asarray(slice_index if block else [slice_index])
        x_lo = np.tile(xs[:-1], slices.size)
        self.derived = weakref.WeakKeyDictionary()   # q_omega tables by entropy pair
        self.slice_index = slice_index
        self.face_ids = MeshIds(("S", slice_index.start if block else slice_index, slices.size, m))
        self.t = tri.times[slices] if block else float(tri.times[slice_index])
        self.pts, base_w = segment_nodes(self._rule, 1, np.repeat(tri.times[slices], m),
                                         x_lo, np.tile(xs[1:], slices.size) - x_lo)
        self._wx = flux.omega.coeffs[(1,)]
        self._dwx = flux.omega.du_coeffs[(1,)]

        u_lo, u_hi = u_range if u_range is not None else flux.u_range
        self.u_range = (float(u_lo), float(u_hi))
        n_samples = 1 if (1,) in flux.u_free_du else DQ_SAMPLE_COUNT   # 1: dq reads no u
        us = np.broadcast_to(np.linspace(u_lo, u_hi, DQ_SAMPLE_COUNT)[:n_samples],
                             (self.n_faces, n_samples))
        signs = []

        def dwx_with_signs(pts, u):
            # a face is spacelike when its density has one sign at every node
            dens = self._dwx(pts, u)                                    # (nq, m, k)
            signs.append((np.all(dens > 0.0, axis=(0, 2)), np.all(dens < 0.0, axis=(0, 2))))
            return dens

        dq_samples = face_sums(dwx_with_signs, self.pts, base_w, us)    # (m, k)
        per_face_pos, per_face_neg = signs[0]
        if not np.all(per_face_pos | per_face_neg):
            bad = int(slices[np.argmin(per_face_pos | per_face_neg) // m])
            raise NotSpacelikeError(
                f"slice {bad} contains faces that are not spacelike for this flux")
        self.orientation = np.where(per_face_pos, 1.0, -1.0)
        self.weights = self.orientation[:, None] * base_w
        dq_samples = self.orientation[:, None] * dq_samples   # = sums over oriented weights
        self.dq_column = dq_samples[:, 0] if n_samples == 1 else None
        self.dq_min_raw = dq_samples.min(axis=1)
        self.dq_max_raw = dq_samples.max(axis=1)
        self.dq_min = DQ_MIN_SAFETY * self.dq_min_raw
        self.dq_max = DQ_MAX_SAFETY * self.dq_max_raw
        u_mid = 0.5 * (self.u_range[0] + self.u_range[1])   # the inversion's first iterate
        ends = self.q(np.broadcast_to([u_lo, u_mid, u_hi], (self.n_faces, 3)))
        self.image_lo, self.q_mid, self.image_hi = ends.T

    def on_slice(self, tri: Triangulation, slices: range) -> "SpacelikeTable":
        """This table moved to ``slices`` of ``tri`` (:func:`_moved_rows`; other rows get
        their own ``derived``): for a flux that does not read t, their table, bit for bit.
        The nodes are copied with the t column rewritten (a slice's x nodes and weights do
        not read t); every other array is shared, or for other rows cut or gathered."""
        t, m = tri.times[slices.start:slices.stop], tri.n_columns
        rows = _moved_rows(t.size * m, self.n_faces)
        pts = (self.pts if rows is None else self.pts[rows]).copy()
        pts.reshape(t.size, m, -1, 2)[..., 0] = t[:, None, None]
        other = {} if rows is None else {"derived": weakref.WeakKeyDictionary()}
        return _sharing(self, rows, slice_index=slices, t=t, pts=pts,
                        face_ids=MeshIds(("S", slices.start, t.size, m)), **other)

    def block_rows(self, b: int, n: int | None = None) -> "SpacelikeTable":
        """The b-th slice's rows of this block table: its table built alone, bit for bit;
        given ``n``, the block table of its slices b .. b + n - 1."""
        m, js = self.orientation.size // self.t.size, self.slice_index[b:b + (n or 1)]
        t = self.t[b:b + len(js)]
        return _sharing(self, slice(b * m, (b + len(js)) * m),
                        slice_index=js if n else js.start, t=t if n else float(t[0]),
                        face_ids=MeshIds(("S", js.start, len(js), m)),
                        derived=weakref.WeakKeyDictionary())

    @property
    def n_faces(self) -> int:
        return len(self.face_ids)

    def q(self, u, faces=None) -> np.ndarray:
        """Oriented total fluxes, ``u`` (m,) or (m, K); ``faces`` gathers rows (repeats allowed)."""
        rows = slice(None) if faces is None else np.asarray(faces)
        return face_sums(self._wx, self.pts[rows], self.weights[rows], u)

    def dq(self, u) -> np.ndarray:
        """Oriented dq; ``dq_column`` broadcast if ``(1,)`` is in ``flux.u_free_du``."""
        if self.dq_column is not None:
            return column_at(self.dq_column, u)
        return face_sums(self._dwx, self.pts, self.weights, u)

    def density(self, u) -> np.ndarray:
        """Pointwise oriented pullback density of omega(u) at the face nodes."""
        u = np.asarray(u, dtype=float)
        vals = self._wx(self.pts, u[:, None])
        return self.orientation[:, None] * vals

    def first_iterate(self, values: np.ndarray) -> np.ndarray:
        """:meth:`invert`'s states of targets ``values`` (m,) where its first Newton iterate
        settles them (:func:`_first_iterate`), with no check: no image check, q call or
        stopping test.  Only for a ``dq_column`` on a finite ``u_range``."""
        at_lo, at_hi, u, fw = _start(values, self.u_range, self.image_lo, self.image_hi,
                                     self.q_mid)
        return _first_iterate(values, u, at_lo | at_hi, fw, self.u_range, self.image_lo,
                              self.image_hi, self.dq_column)[0]

    def invert(self, values: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """States whose oriented total fluxes equal ``values``, (m,) or (m, K).

        See :func:`_invert_increasing` for the iteration, its stopping rule
        and errors; each result depends only on its own face and target.
        """
        return _invert_increasing(self.q, self.dq, values, self.u_range, self.image_lo,
                                  self.image_hi, self.face_ids, tol, q_mid=self.q_mid,
                                  dq_column=self.dq_column)


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
                           compact_region: tuple[float, float, float, float] | None = None,
                           psi: Callable[[np.ndarray], np.ndarray] | None = None
                           ) -> RegularityReport:
    """Best constants for the mesh regularity conditions (diagnostics only).

    Reports the cell diameter / h ratio, h-scaled bounds on the outflow
    derivative of q, boundary face masses in the coordinate measure, the
    pointwise bound on the sup/inf ratio of the q-derivative density,
    counts of cells/slabs meeting ``compact_region`` ``(T0, T1, X0, X1)``,
    the oscillation of the vertical face densities relative to their means,
    and, for a test function ``psi``, the per-slab sum comparing its
    averages on translated inflow and outflow faces (O(h^2) on product
    meshes for smooth data).  The states are ``flux.u_samples(9)``, the
    faces are integrated with the 5-point Gauss rule, and a cell's average
    weighs its two vertical faces by 1/2 each.  The dq bounds take one
    :class:`SpacelikeTable` per slice; every other diagnostic is one array
    pass indexed by (slab or slice, column or node).
    """
    rule = gauss_legendre(5, 1)
    us = flux.u_samples(9)
    times, xs = tri.times, tri.breakpoints
    heights, widths = tri.heights, np.diff(xs)
    h = float(np.max(widths))
    # a product mesh has a cell with both the largest height and the largest width
    max_diam = float(np.linalg.norm([np.max(heights), np.max(widths)]))

    # h-scaled outflow derivative bounds and the pointwise density ratio bound
    dq_lo = np.inf
    dq_hi = -np.inf
    ratio_max = 0.0
    for j in range(1, tri.n_slices):
        table = SpacelikeTable(tri, flux, j)
        dq_lo = min(dq_lo, float(np.min(table.dq_min_raw)))
        dq_hi = max(dq_hi, float(np.max(table.dq_max_raw)))
        dens = np.abs(table._dwx(table.pts[:, None, :, :], us[None, :, None]))
        ratio_max = max(ratio_max, float(np.max(np.max(dens, axis=(1, 2))
                                                / np.min(dens, axis=(1, 2)))))

    # vertical faces (slab, node); a slab's boundary faces have its height as mass
    x_nodes = xs[:tri.n_nodes]
    vpts, vweights = segment_nodes(rule, 0, x_nodes, times[:-1, None], heights[:, None])
    bmass = 0.0 if tri.periodic else float(np.max(np.sum(vweights, axis=-1)))

    cells_in_region = None
    slabs_in_region = None
    tri2_cell = None
    tri2_slab = None
    if compact_region is not None:
        t0, t1, x0, x1 = compact_region
        hit = (((times[1:] > t0) & (times[:-1] < t1))[:, None]
               & ((xs[1:] > x0) & (xs[:-1] < x1)))
        per_slab = np.count_nonzero(hit, axis=1)
        cells_in_region = int(np.max(per_slab))
        slabs_in_region = int(np.count_nonzero(per_slab))
        tri2_cell = cells_in_region * h
        tri2_slab = slabs_in_region * h

    # oscillation of the pulled-back vertical density wt relative to its mean
    # over equispaced nodes, normalized by the face's own density scale
    along = times[:-1, None] + np.linspace(0.0, 1.0, OSCILLATION_NODES) * heights[:, None]
    opts = np.stack(np.broadcast_arrays(along[:, None, :], x_nodes[None, :, None]), axis=-1)
    mean_weights = np.full(OSCILLATION_NODES, 1.0 / OSCILLATION_NODES)
    osc_max = 0.0
    for ub in us:
        phi = np.broadcast_to(flux.omega.coeffs[(0,)](opts, ub), opts.shape[:-1])
        phi = phi / np.maximum(1.0, np.max(np.abs(phi), axis=-1, keepdims=True))
        mean = np.sum(mean_weights * phi, axis=-1, keepdims=True)
        osc_max = max(osc_max, float(np.max(np.sum(mean_weights * np.abs(phi - mean),
                                                   axis=-1))))

    trichange = None
    if psi is not None:
        # psi averages: per vertical face, then per cell (1/2 per face); the
        # integral over slice s >= 1 uses the average of the cell below it,
        # both as the inflow of slab s and as the outflow of slab s - 1
        face_avg = np.sum(vweights * psi(vpts), axis=-1) / np.sum(vweights, axis=-1)
        left = np.arange(tri.n_columns)
        cell_avg = 0.5 * face_avg[:, left] + 0.5 * face_avg[:, (left + 1) % tri.n_nodes]
        spts, sweights = segment_nodes(rule, 1, times[1:, None], xs[:-1], widths)
        dens = flux.omega.du_coeffs[(1,)](spts, 0.5 * sum(flux.u_range))
        sign = np.where(np.all(np.broadcast_to(dens, spts.shape[:-1]) < 0, axis=-1), -1.0, 1.0)
        weighted = sweights * (cell_avg[..., None] - psi(spts))
        coeff = flux.omega.coeffs[(1,)](spts[:, :, None], us[:, None])
        integral = sign[..., None] * np.sum(weighted[:, :, None, :] * coeff, axis=-1)
        totals = np.sum(np.abs(integral[:-1] - integral[1:]), axis=1)   # (slab, state)
        trichange = float(np.max(totals, initial=0.0))

    return RegularityReport(
        h=h, hbar_max=float(np.max(heights)), max_cell_diameter=max_diam,
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
