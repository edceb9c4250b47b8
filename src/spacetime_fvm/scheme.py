"""Finite volume scheme driven by total flux functions.

One slab update per cell K reads

    q_plus(u_plus) = q_minus(u_minus) - sum over vertical faces of
                     Q(u_minus, u_neighbor),

where q_minus / q_plus are the monotone total fluxes of the inflow and
outflow faces and Q is a two-point numerical flux that is consistent with
the oriented vertical total flux, conservative across the face and
monotone.  The new state is recovered by inverting q_plus; under the CFL
bound on the lambda ratios the right-hand side provably stays inside the
image, so an inversion failure is reported as a scheme abort rather than
clamped.

Orientation bookkeeping on the product mesh (dt ^ dx positive): a vertical
face oriented as the boundary of its LEFT cell integrates the dt component
of the flux form along decreasing time; the right cell sees the negative.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fluxfield import FluxField, NotSpacelikeError
from .forms import QuadratureRule, gauss_legendre
from .mesh import (
    DQ_SAMPLE_COUNT,
    CircleDomain,
    ConvergenceError,
    IntervalDomain,
    SpacelikeTable,
    Triangulation,
    _sharing,
    bracketed_root,
    column_at,
    face_sums,
    segment_nodes,
)

__all__ = [
    "BoundaryData",
    "CFLViolation",
    "DegenerateFluxError",
    "FluxKind",
    "LambdaReport",
    "NumericalFluxSpec",
    "RunConfig",
    "RunResult",
    "Slab",
    "SliceState",
    "Solver",
    "data_hull",
    "initial_slice_state",
    "select_timestep",
]

CFL_LIMIT = 0.5
CRITICAL_SAMPLES = 65
RUSANOV_MARGIN = 1.1
TIMESTEP_PROBES = 5      # candidate slabs across the horizon in select_timestep
BLOCK_ROWS = 320         # (slab, column) rows per block of slab tables: 4 slabs at m = 80


class CFLViolation(RuntimeError):
    """A slab failed the CFL bound while enforcement was on."""


class DegenerateFluxError(RuntimeError):
    """No admissible slab height exists above the search floor, or a CFL
    ratio is not finite."""


class FluxKind(str, Enum):
    GODUNOV_OSHER = "godunov_osher"
    RUSANOV = "rusanov"
    # deliberately non-monotone; exists so guard rails can be exercised
    ANTI_DIFFUSIVE = "anti_diffusive"


@dataclass(frozen=True)
class NumericalFluxSpec:
    """Numerical flux selector.

    ``godunov_osher`` realizes the exact interval min/max flux (computed
    from cached critical points of the face flux), ``rusanov`` the central
    flux with dissipation speed ``max(|g'|) * 1.1`` unless overridden.
    ``anti_diffusive`` flips the sign of the dissipation and violates the
    monotonicity axiom on purpose; it is for verifying that the guard
    rails catch broken fluxes, never for production runs.
    """

    kind: FluxKind = FluxKind.GODUNOV_OSHER
    rusanov_speed: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", FluxKind(self.kind))


@dataclass(frozen=True)
class BoundaryData:
    """Boundary trace ``u_B`` and the positive averaging density alpha_B.

    ``u`` maps chart points ``(..., 2)`` to states; it is evaluated on the
    initial slice (t = 0) and on the vertical boundary faces.
    ``alpha_density`` is the positive density of alpha_B with respect to
    the coordinate measure of each boundary face.
    """

    u: Callable[[np.ndarray], np.ndarray]
    alpha_density: Callable[[np.ndarray], np.ndarray] | float = 1.0

    def u_values(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.u(np.asarray(pts, dtype=float)), dtype=float)
        return np.broadcast_to(vals, np.shape(pts)[:-1]).copy()

    def alpha_values(self, pts: np.ndarray) -> np.ndarray:
        if callable(self.alpha_density):
            vals = np.asarray(self.alpha_density(np.asarray(pts, dtype=float)), dtype=float)
            return np.broadcast_to(vals, np.shape(pts)[:-1]).copy()
        return np.full(np.shape(pts)[:-1], float(self.alpha_density))


@dataclass(frozen=True)
class RunConfig:
    """Run controls; ``cfl_target`` must respect the stability bound 1/2."""

    cfl_target: float = 0.25
    inversion_tol: float = 1e-12
    quadrature_points: int = 5
    u_range: tuple[float, float] | None = None
    enforce_cfl: bool = True

    def __post_init__(self):
        if not 0.0 < self.cfl_target <= CFL_LIMIT:
            raise ValueError(f"cfl_target must lie in (0, {CFL_LIMIT}]")
        if self.inversion_tol <= 0.0:
            raise ValueError("inversion_tol must be positive")

    def rule(self) -> QuadratureRule:
        return gauss_legendre(self.quadrature_points, 1)


@dataclass
class SliceState:
    """Per-slice map from spacelike faces to states and cached total fluxes."""

    slice_index: int
    face_ids: Sequence[tuple]
    values: np.ndarray
    fluxes: np.ndarray


# ---------------------------------------------------------------------------
# vertical flux tables
# ---------------------------------------------------------------------------

class VerticalFluxes:
    """Oriented fluxes and numerical fluxes on the vertical faces of a slab.

    ``G(u)`` is the total flux through a face as seen from its left cell
    (outward orientation); ``Q(u, v)`` is the numerical flux in that same
    orientation with ``u`` the left-cell state.  Critical points of G over
    the admissible state range are located once (sign changes of G' on a
    ``CRITICAL_SAMPLES`` lattice, polished by ``mesh.bracketed_root``, which
    raises at a NaN G' or at its step bound; exact lattice zeros of G' count
    as found), making the interval min/max flux exact for fluxes with
    finitely many extrema.  With ``(0,)`` in
    ``flux.u_free_du`` the lattice is one column, ``dg_column``, and the
    search is skipped: a G' constant in u has no critical point, so
    ``crit_w``/``crit_g`` are (nv, 0), as the search gives.  The slab's start
    (``t_lo``, ``pts``) is cheap; the rest derives from the flux and the
    slab's nominal ``height`` (:attr:`Foliation.heights`), and :meth:`on_slab`
    shares it with another slab of that height when the flux does not read t.
    Per-row ``x_nodes`` and ``t_lo`` give a block table (:class:`Slab`).
    """

    def __init__(self, x_nodes: np.ndarray, t_lo: float | np.ndarray, height: float,
                 flux: FluxField, spec: NumericalFluxSpec,
                 rule: QuadratureRule, u_range: tuple[float, float]):
        self.x_nodes = np.asarray(x_nodes, dtype=float)
        self.spec = spec
        self.u_range = (float(u_range[0]), float(u_range[1]))
        self._rule = rule
        self.t_lo = t_lo if isinstance(t_lo, np.ndarray) else float(t_lo)
        self.height = float(height)
        self.pts, self.weights = segment_nodes(rule, 0, self.x_nodes, t_lo, height)
        self._wt = flux.omega.coeffs[(0,)]
        self._dwt = flux.omega.du_coeffs[(0,)]
        self.derived: dict = {}   # a slab's CFL report, shared by every on_slab copy

        self.dg_column = None
        u_free = (0,) in flux.u_free_du
        us = np.linspace(*self.u_range, CRITICAL_SAMPLES)[:1 if u_free else None]
        dg = self.dG_lattice(us)                                       # (nv, K)
        self._dg_abs_max = np.max(np.abs(dg), axis=1)
        self._dg_max = np.max(dg, axis=1)
        self._dg_min = np.min(dg, axis=1)
        if u_free:
            self.dg_column = dg[:, 0]
            self.crit_w = self.crit_g = np.empty((self.n_faces, 0))
        else:
            self._locate_criticals(us, dg)

        if spec.rusanov_speed is not None and spec.kind is not FluxKind.GODUNOV_OSHER:
            self.speed = np.full(self.n_faces, float(spec.rusanov_speed))
        else:
            self.speed = RUSANOV_MARGIN * self._dg_abs_max

    def on_slab(self, t_lo: float | np.ndarray) -> "VerticalFluxes":
        """This table's flux-derived arrays on the slab of this ``height`` from ``t_lo``.

        Only for a flux that does not read t: its table of that slab is then
        this one, bit for bit, except for the start set here.  The nodes are
        this table's with the t column rewritten as :func:`segment_nodes`
        places it; the weights, the other arrays and ``derived`` are shared;
        for an array of starts, this table's rows are tiled.
        """
        if isinstance(t_lo, np.ndarray):
            vert = _sharing(self, t_lo.size // self.n_faces, t_lo=t_lo, weights=self.weights)
            vert.pts[..., 0] = t_lo[:, None] + self._rule.nodes[:, 0] * self.height
            return vert
        t_lo, pts = float(t_lo), self.pts.copy()
        pts[..., 0] = t_lo + self._rule.nodes[:, 0] * self.height
        return _sharing(self, t_lo=t_lo, pts=pts)

    def block_rows(self, rows: slice, report: "LambdaReport") -> "VerticalFluxes":
        """The ``rows`` of one slab of this block table, its table built alone, bit for bit,
        with its CFL ``report``."""
        width = self.crit_w.shape[1] and int(np.max(np.count_nonzero(
            ~np.isnan(self.crit_w[rows]), axis=1)))
        return _sharing(self, rows, t_lo=float(self.t_lo[rows.start]), weights=self.weights,
                        crit_w=self.crit_w[rows, :width], crit_g=self.crit_g[rows, :width],
                        derived={"lambdas": report})

    @property
    def n_faces(self) -> int:
        return self.x_nodes.size

    # -- raw face fluxes ------------------------------------------------------

    def _pts(self, faces) -> np.ndarray:
        return self.pts if faces is None else self.pts[np.asarray(faces)]

    def G(self, u, faces=None) -> np.ndarray:
        """Left-cell-oriented total flux at per-face states.

        ``faces`` optionally gathers a subset (with repetition) of the
        slab's vertical faces; the leading axis of ``u`` must match it.
        """
        return -face_sums(self._wt, self._pts(faces), self.weights, u)

    def dG(self, u, faces=None) -> np.ndarray:
        """G' at per-face states; ``dg_column`` broadcast when it does not read u."""
        if self.dg_column is not None:
            return column_at(self.dg_column if faces is None
                             else self.dg_column[np.asarray(faces)], u)
        return -face_sums(self._dwt, self._pts(faces), self.weights, u)

    def dG_lattice(self, us: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=float)
        return self.dG(np.broadcast_to(us, (self.n_faces, us.size)))

    def _locate_criticals(self, us: np.ndarray, dg: np.ndarray) -> None:
        # strict sign changes are polished; samples where G' vanishes exactly
        # (a sonic state landing on a sample node) are criticals themselves
        sign_change = dg[:, :-1] * dg[:, 1:] < 0.0
        face_idx, seg_idx = np.nonzero(sign_change)
        lo, hi = us[seg_idx], us[seg_idx + 1]
        glo, ghi = dg[face_idx, seg_idx], dg[face_idx, seg_idx + 1]
        sign = np.sign(ghi)   # sign * G' is negative at lo
        roots, g, open_ = bracketed_root(lambda w: sign * self.dG(w, faces=face_idx),
                                         lo - glo * (hi - lo) / (ghi - glo), lo, hi,
                                         -np.abs(glo), np.abs(ghi))
        if open_.any():
            k = int(np.argmax(open_))
            t_lo = float(np.broadcast_to(self.t_lo, self.x_nodes.shape)[face_idx[k]])
            raise ConvergenceError(
                f"vertical face x = {float(self.x_nodes[face_idx[k]])!r} of the slab "
                f"[{t_lo!r}, {t_lo + self.height!r}]: critical-point search on the "
                f"lattice segment [{float(lo[k])!r}, {float(hi[k])!r}] stopped at "
                f"u = {float(roots[k])!r} with G' = {float(sign[k] * g[k])!r}")

        is_zero = dg == 0.0
        left_zero = np.pad(is_zero[:, :-1], ((0, 0), (1, 0)), constant_values=True)
        right_zero = np.pad(is_zero[:, 1:], ((0, 0), (0, 1)), constant_values=True)
        isolated = is_zero & ~(left_zero & right_zero)  # skip flat stretches
        zero_face, zero_idx = np.nonzero(isolated)
        face_idx = np.concatenate([face_idx, zero_face])
        roots = np.concatenate([roots, us[zero_idx]])

        # slots per face: polished roots by segment, then lattice zeros by node
        order = np.argsort(face_idx, kind="stable")
        face_sorted = face_idx[order]
        counts = np.bincount(face_idx, minlength=self.n_faces)
        rank = np.arange(face_idx.size) - (np.cumsum(counts) - counts)[face_sorted]
        self.crit_w = np.full((self.n_faces, int(counts.max(initial=0))), np.nan)
        self.crit_g = np.full_like(self.crit_w, np.nan)
        if face_idx.size:
            self.crit_w[face_sorted, rank] = roots[order]
            self.crit_g[face_sorted, rank] = self.G(roots[order], faces=face_sorted)

    # -- numerical fluxes -------------------------------------------------------

    def Q(self, u, v, faces=None) -> np.ndarray:
        """Numerical flux per face in left-cell orientation; shapes (n,) or (n, K)."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if u.ndim == 1 and u.shape == v.shape:
            uv = np.empty((u.size, 2))
            uv[:, 0], uv[:, 1] = u, v
        else:
            u, v = np.broadcast_arrays(u, v)
            uv = np.stack([u, v], axis=-1) if u.ndim == 1 else np.concatenate([u, v], axis=1)
        g = self.G(uv, faces)                             # one flux call for both states
        gu, gv = (g[:, 0], g[:, 1]) if u.ndim == 1 else np.split(g, 2, axis=1)
        return self._combine(u, v, gu, gv, faces)

    def _combine(self, u, v, gu, gv, faces=None) -> np.ndarray:
        """:meth:`Q` from the states and their fluxes ``gu = G(u)``, ``gv = G(v)``."""
        speed = self.speed if faces is None else self.speed[np.asarray(faces)]
        crit_w = self.crit_w if faces is None else self.crit_w[np.asarray(faces)]
        crit_g = self.crit_g if faces is None else self.crit_g[np.asarray(faces)]
        if self.spec.kind is FluxKind.RUSANOV:
            s = speed if u.ndim == 1 else speed[:, None]
            return 0.5 * (gu + gv) - 0.5 * s * (v - u)
        if self.spec.kind is FluxKind.ANTI_DIFFUSIVE:
            s = speed if u.ndim == 1 else speed[:, None]
            return 0.5 * (gu + gv) + 0.5 * s * (v - u)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        qmin = np.minimum(gu, gv)
        qmax = np.maximum(gu, gv)
        for r in range(crit_w.shape[1]):
            w = crit_w[:, r] if u.ndim == 1 else crit_w[:, r, None]
            g = crit_g[:, r] if u.ndim == 1 else crit_g[:, r, None]
            with np.errstate(invalid="ignore"):
                inside = (w > lo) & (w < hi)
            qmin = np.where(inside, np.minimum(qmin, g), qmin)
            qmax = np.where(inside, np.maximum(qmax, g), qmax)
        return np.where(u <= v, qmin, qmax)

    # -- CFL ingredients --------------------------------------------------------

    def lipschitz_sup(self) -> np.ndarray:
        """Per-face bound for sup over (u, v) of (dQ/du - dQ/dv).

        For the interval min/max flux the supremum equals the largest
        magnitude of G' over the state range; the central fluxes add their
        dissipation speed to half the spread of G'.
        """
        if self.spec.kind is FluxKind.RUSANOV:
            return self.speed + 0.5 * (self._dg_max - self._dg_min)
        if self.spec.kind is FluxKind.ANTI_DIFFUSIVE:
            return np.maximum(self._dg_abs_max, self.speed)
        return self._dg_abs_max


# ---------------------------------------------------------------------------
# boundary data handling
# ---------------------------------------------------------------------------

def _face_means(bd: BoundaryData, pts: np.ndarray, weights: np.ndarray,
                face: Callable[[tuple], str]) -> np.ndarray:
    """alpha_B-weighted means of u_B, one per face; nodes run along the last axis.
    ``face(index)`` names the first face (leading index) whose mass is not positive."""
    alpha = weights * bd.alpha_values(pts)
    mass = np.sum(alpha, axis=-1)
    if np.any(mass <= 0.0):
        idx = tuple(np.argwhere(mass <= 0.0)[0].tolist())
        raise ValueError(f"alpha_B mass must be positive on every boundary face: "
                         f"{face(idx)} has mass {float(mass[idx])!r}")
    return np.sum(alpha * bd.u_values(pts), axis=-1) / mass


def initial_slice_state(tri: Triangulation, bd: BoundaryData, flux: FluxField,
                        cfg: RunConfig | None = None,
                        u_range: tuple[float, float] | None = None) -> SliceState:
    """States on the initial slice: alpha_B means of u_B per inflow face.

    Requires the initial slice to be inflow for the flux (positive
    pulled-back du along increasing x); the means use the slice table's
    nodes and weights, and total fluxes are cached alongside.
    """
    cfg = cfg if cfg is not None else RunConfig()
    return _inflow_state(SpacelikeTable(tri, flux, 0, rule=cfg.rule(), u_range=u_range), bd)


def _inflow_state(table: SpacelikeTable, bd: BoundaryData) -> SliceState:
    """The initial slice state on the table of slice 0."""
    if np.any(table.orientation < 0.0):
        raise NotSpacelikeError("initial slice is not an inflow boundary for this flux")
    values = _face_means(bd, table.pts, table.weights,
                         lambda idx: f"initial slice face {table.face_ids[idx[0]]!r}")
    return SliceState(0, table.face_ids, values, table.q(values))


def data_hull(bd: BoundaryData, domain: IntervalDomain | CircleDomain,
              t_final: float) -> tuple[float, float]:
    """Hull of u_B sampled on the initial slice and the boundary lines.

    513 samples in x at t = 0 and, on an interval, 129 samples in t on each
    end of ``[0, t_final]``; a degenerate hull is padded by 0.5e-6 on each
    side.  Raises ``ValueError`` naming the point and the value if a sample
    is not finite.
    """
    xs = np.linspace(domain.a, domain.b, 513)
    pts = [np.stack([np.zeros_like(xs), xs], axis=-1)]
    if not domain.periodic:
        ts = np.linspace(0.0, max(t_final, 1e-12), 129)
        pts += [np.stack([ts, np.full_like(ts, xb)], axis=-1) for xb in (domain.a, domain.b)]
    pts = np.concatenate(pts)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = bd.u_values(pts)
    bad = ~np.isfinite(u)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"boundary data u_B is not finite at (t, x) = "
                         f"({float(pts[k, 0])!r}, {float(pts[k, 1])!r}): {float(u[k])!r}")
    lo, hi = float(np.min(u)), float(np.max(u))
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5e-6, hi + 0.5e-6
    return lo, hi


# ---------------------------------------------------------------------------
# per-slab machinery
# ---------------------------------------------------------------------------

@dataclass
class LambdaReport:
    """Per-cell CFL ratios of one slab or block (arrays indexed by cell row)."""

    lam_hat: np.ndarray          # (m, 2): per cell, per (left, right) face
    lam_hat_cell: np.ndarray     # (m,)
    lam: np.ndarray              # (m, 2) convex weights, rows sum to 1
    cfl_limit: float

    @cached_property
    def passed(self) -> bool:
        return bool(np.max(self.lam_hat_cell) <= self.cfl_limit * (1 + 1e-12))

    def max_cell_ratio(self) -> float:
        return float(np.max(self.lam_hat_cell))


def _lambda_report(vert, table_plus, left, right, j: int) -> LambdaReport:
    """Per-cell lambda ratios of slab j or of a block from it; a non-finite one raises."""
    sup, dq_min = vert.lipschitz_sup(), table_plus.dq_min_raw
    lam_hat = np.stack([sup[left], sup[right]], axis=1) / dq_min[:, None]
    lam_hat_cell = np.sum(lam_hat, axis=1)
    _check_ratios_finite(f"slab {j}", lam_hat_cell, sup, dq_min, left, right,
                         lambda k: repr(("V", j, k)), lambda i: repr(("S", j + 1, i)))
    lam = np.empty_like(lam_hat)
    nonzero = lam_hat_cell > 0.0
    lam[nonzero] = lam_hat[nonzero] / lam_hat_cell[nonzero, None]
    lam[~nonzero] = 0.5
    return LambdaReport(lam_hat=lam_hat, lam_hat_cell=lam_hat_cell, lam=lam, cfl_limit=CFL_LIMIT)


class Slab:
    """Slabs ``j .. j + n - 1`` of one nominal height on the (slab, column) row axis: cell row
    ``b * m + i``, face row ``b * nv + k`` (critical points NaN-padded to the widest row).  A
    slab is a block of one (:meth:`Solver.slab`, which also holds its inflow table
    ``table_minus``); :meth:`Solver.block` gives a block.  The kernels work row by row, so
    each slab's rows get its own tables' bits."""

    def __init__(self, solver: "Solver", j: int, n: int, table_minus, table_plus, vert,
                 report: LambdaReport | None = None):
        self.solver, self.j, self.n = solver, j, n
        self.m, self.periodic = solver.tri.n_columns, solver.tri.periodic
        self.table_minus, self.table_plus, self.vert = table_minus, table_plus, vert
        self.left_idx, self.right_idx = solver.cell_faces[n]
        self.report = report

    @property
    def slabs(self) -> range:
        return range(self.j, self.j + self.n)

    # -- boundary ----------------------------------------------------------------

    def ghost_values(self) -> tuple[float, float] | None:
        """(left, right) ghost states of slab j, or None on a circle."""
        if self.periodic:
            return None
        return tuple(self.solver.ghosts[self.j].tolist())

    def numerical_flux(self, column: int, side: str, u, v):
        """Q_{K, e}(u, v) with u the state of cell row ``column``, v the neighbor state."""
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        uu = np.broadcast_to(np.asarray(u, dtype=float), shape).reshape(1, -1)
        vv = np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(1, -1)
        if side == "right":
            out = self.vert.Q(uu, vv, faces=[self.right_idx[column]])[0]
        else:
            out = -self.vert.Q(vv, uu, faces=[self.left_idx[column]])[0]
        return out.reshape(shape) if shape else float(out[0])

    # -- CFL ------------------------------------------------------------------------

    def lambdas(self) -> LambdaReport:
        """Per-cell lambda ratios; the cell sums must stay below 1/2.

        Uses the exact suprema of the built-in fluxes (from G' samples).  A
        block's ratios come with its tables; a slab's are kept in ``vert.derived``,
        as a shared vertical table implies shared slice arrays.
        """
        if self.report is None:
            derived = self.vert.derived
            if "lambdas" not in derived:
                derived["lambdas"] = _lambda_report(self.vert, self.table_plus, self.left_idx,
                                                    self.right_idx, self.j)
            self.report = derived["lambdas"]
        return self.report

    def per_slab(self, values: np.ndarray, reduce=np.max) -> list[float]:
        """``reduce`` of each slab's rows of ``values`` (cells first), as floats."""
        return reduce(values.reshape(self.n, -1), axis=1).tolist()

    # -- the update -------------------------------------------------------------------

    def neighbor_states(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(left-cell state, right-cell state) per vertical face row, ghosts filled in."""
        cells = values.reshape(self.n, self.m)
        if self.periodic:   # each slab's last cell is its first cell's left neighbour
            return np.concatenate((cells[:, -1:], cells[:, :-1]), axis=1).ravel(), values
        ghosts = self.solver.ghosts[self.j:self.j + self.n]
        padded = np.concatenate((ghosts[:, :1], cells, ghosts[:, 1:]), axis=1)
        return padded[:, :-1].ravel(), padded[:, 1:].ravel()

    def face_fluxes(self, values: np.ndarray) -> np.ndarray:
        """Numerical flux per vertical face in left-cell orientation."""
        u_left, u_right = self.neighbor_states(values)
        return self.vert.Q(u_left, u_right)

    def rhs(self, state: SliceState) -> np.ndarray:
        F = self.face_fluxes(state.values)
        return state.fluxes - (F[self.right_idx] - F[self.left_idx])

    def step(self, state: SliceState) -> SliceState:
        """Advance the whole slab: one vectorized inversion of q_plus.

        Each root of :meth:`SpacelikeTable.invert` depends only on its own
        column and target.
        """
        rhs = self.rhs(state)
        u_plus = self.table_plus.invert(rhs, tol=self.solver.cfg.inversion_tol)
        return SliceState(self.j + 1, self.table_plus.face_ids, u_plus, rhs)


# ---------------------------------------------------------------------------
# solver facade
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Slice states plus the piecewise constant reconstruction.

    ``u_field(t, x)`` returns the inflow-face value of the cell containing
    the point, i.e. the scheme's piecewise constant approximate solution.
    """

    tri: Triangulation
    flux: FluxField
    spec: NumericalFluxSpec
    bd: BoundaryData
    cfg: RunConfig
    u_range: tuple[float, float]
    states: list[SliceState]
    lambda_max: list[float]
    wall_time: float

    @property
    def final_state(self) -> SliceState:
        return self.states[-1]

    def state(self, j: int) -> SliceState:
        return self.states[j]

    def u_field(self, t: float, x: float) -> float:
        times = self.tri.times
        j = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, self.tri.n_slabs - 1))
        xs = self.tri.breakpoints
        if self.tri.periodic:
            x = xs[0] + (x - xs[0]) % (xs[-1] - xs[0])
        i = int(np.clip(np.searchsorted(xs, x, side="right") - 1, 0, self.tri.n_columns - 1))
        return float(self.states[j].values[i])


class Solver:
    """Binds a triangulation, flux field, numerical flux and boundary data.

    For a flux declared not to read t (``flux.reads_t`` False) the solver
    builds the flux-derived arrays of the spacelike tables once per run and
    those of the vertical flux tables where the nominal slab height
    (``tri.heights``) changes; every slice and slab still gets its own
    nodes, so whatever reads t there (u_B, test functions) sees the slab's
    own t.  For a flux that reads t, every table is a row view of its block's
    (:meth:`block`).  The results are the same bits either way.  A slab
    (:meth:`slab`) and a block (:meth:`block`) are both a :class:`Slab`: a
    slab is a block of one.
    """

    def __init__(self, tri: Triangulation, flux: FluxField, spec: NumericalFluxSpec,
                 bd: BoundaryData, cfg: RunConfig | None = None):
        self.tri = tri
        self.flux = flux
        self.spec = spec
        self.bd = bd
        self.cfg = cfg if cfg is not None else RunConfig()
        self.rule = self.cfg.rule()
        self.u_range = self.cfg.u_range if self.cfg.u_range is not None \
            else data_hull(bd, tri.domain, tri.foliation.horizon)
        self._tables: dict[int, SpacelikeTable] = {}   # slices j - 1 and j at most
        self._blocks: dict[int, tuple] = {}   # by first slab: slab j's block tables, those before
        # for a flux that does not read t: the table whose arrays every slice
        # shares, and the last vertical table, shared by slabs of its height
        self._slice_arrays: SpacelikeTable | None = None
        self._vertical_arrays: VerticalFluxes | None = None
        cols = np.arange(tri.n_columns)   # by block size: each cell row's left and right face row
        self.cell_faces = {1: (cols, (cols + 1) % tri.n_columns if tri.periodic else cols + 1)}
        self._check_samples()

    def _samples(self):
        """9 states and a (9 t, 33 x) grid of chart points over the mesh."""
        us = np.linspace(*self.u_range, 9)
        ts = np.linspace(self.tri.times[0], self.tri.times[-1], 9)
        xs = np.linspace(self.tri.breakpoints[0], self.tri.breakpoints[-1], 33)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        return us, np.stack([tt, xx], axis=-1)

    def _check_samples(self) -> None:
        # one pass: hyperbolicity with T = dt (dx component of du > 0), then bit for
        # bit reads_t False (no change along t, axis 0) and u_free_du (along u, axis 2)
        flux, omega = self.flux, self.flux.omega
        us, pts = self._samples()
        grids = (pts[:, 0, 0], pts[0, :, 1], us)
        pts = pts[:, :, None, :]                                  # (t, x, 1, 2) against u
        for name, fn, index in (("dwx_du", omega.du_coeffs[(1,)], (1,)),
                                ("wt", omega.coeffs[(0,)], None), ("wx", omega.coeffs[(1,)], None),
                                ("dwt_du", omega.du_coeffs[(0,)], (0,))):
            axes = [a for a, on in ((0, not flux.reads_t), (2, index in flux.u_free_du)) if on]
            if not axes and name != "dwx_du":
                continue
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                vals = np.ascontiguousarray(
                    np.broadcast_to(fn(pts, us), pts.shape[:2] + us.shape), dtype=float)
            if name == "dwx_du" and np.min(vals) <= 0.0:
                raise NotSpacelikeError(f"flux fails hyperbolicity with the time observer "
                                        f"(min coefficient {float(np.min(vals)):.3e})")
            bits = vals.view(np.int64)
            for axis in axes:
                differs = bits != np.take(bits, [0], axis=axis)
                if differs.any():
                    idx = tuple(np.argwhere(differs)[0])
                    at = [f"{v} = {float(g[i])!r}" for v, g, i in zip("txu", grids, idx)]
                    raise ValueError(
                        f"flux {flux.name!r} is declared not to read {'txu'[axis]}, but {name} "
                        f"does: at {', '.join(at[:axis] + at[axis + 1:])} it is "
                        f"{float(vals[idx[:axis] + (0,) + idx[axis + 1:]])!r} at "
                        f"{'txu'[axis]} = {float(grids[axis][0])!r} and {float(vals[idx])!r} "
                        f"at {at[axis]}")

    def slice_table(self, j: int) -> SpacelikeTable:
        """Table of slice j; a new table evicts every slice but j - 1."""
        if j not in self._tables:
            self._tables = {k: t for k, t in self._tables.items() if k == j - 1}
            if self._slice_arrays is not None:
                table = self._slice_arrays.on_slice(self.tri, j)
            elif j > 0 and self.flux.reads_t:
                js, block_table = self._block_tables(j - 1)[:2]
                table = block_table.block_rows(j - 1 - js.start)
            else:
                table = SpacelikeTable(self.tri, self.flux, j, rule=self.rule,
                                       u_range=self.u_range)
                if not self.flux.reads_t:
                    self._slice_arrays = table
            self._tables[j] = table
        return self._tables[j]

    def vertical_fluxes(self, j: int) -> VerticalFluxes:
        """Vertical flux table of slab j; when the flux does not read t, the
        last table built is shared until the nominal slab height changes."""
        if self.flux.reads_t:
            js, _, vert, report = self._block_tables(j)
            b, nv, m = j - js.start, self.tri.n_nodes, self.tri.n_columns
            own = (a[b * m:(b + 1) * m] for a in (report.lam_hat, report.lam_hat_cell, report.lam))
            return vert.block_rows(slice(b * nv, (b + 1) * nv), LambdaReport(*own, CFL_LIMIT))
        t_lo, height = float(self.tri.times[j]), float(self.tri.heights[j])
        shared = self._vertical_arrays
        if shared is None or shared.height != height:
            shared = self._vertical_arrays = VerticalFluxes(
                self.tri.breakpoints[:self.tri.n_nodes], t_lo, height, self.flux, self.spec,
                self.rule, self.u_range)
        return shared.on_slab(t_lo)

    @cached_property
    def _block_starts(self) -> list[int]:
        """Block starts: every ``BLOCK_ROWS // m``-th slab and each change of nominal height."""
        size, h = max(1, BLOCK_ROWS // self.tri.n_columns), self.tri.heights
        return [j for j in range(self.tri.n_slabs) if j % size == 0 or h[j] != h[j - 1]]

    def block(self, j: int) -> Slab:
        """Slab j's block: one pass for a flux that reads t, else tiled; split if that raises."""
        js, table, vert, report = self._block_tables(j)
        return Slab(self, js.start, len(js), None, table, vert, report)

    def _block_tables(self, j: int) -> tuple:
        starts = self._block_starts
        k = bisect.bisect_right(starts, j) - 1
        js = range(starts[k], starts[k + 1] if k + 1 < len(starts) else self.tri.n_slabs)
        if js.start not in self._blocks:
            tri, slices = self.tri, range(js.start + 1, js.stop + 1)
            t_lo = np.repeat(tri.times[js.start:js.stop], tri.n_nodes)   # per (slab, node) row
            try:
                if self.flux.reads_t:
                    table = SpacelikeTable(tri, self.flux, slices, rule=self.rule,
                                           u_range=self.u_range)
                    vert = VerticalFluxes(np.tile(tri.breakpoints[:tri.n_nodes], len(js)), t_lo,
                                          tri.heights[j], self.flux, self.spec, self.rule,
                                          self.u_range)
                else:
                    table = self.slice_table(slices.start).on_slice(tri, slices)
                    vert = self.vertical_fluxes(js.start).on_slab(t_lo)
                if len(js) not in self.cell_faces:   # a dict, as a cached method makes a cycle
                    shift = tri.n_nodes * np.arange(len(js))[:, None]
                    self.cell_faces[len(js)] = tuple((idx + shift).ravel()
                                                     for idx in self.cell_faces[1])
                report = _lambda_report(vert, table, *self.cell_faces[len(js)], js.start)
            except (NotSpacelikeError, ConvergenceError, DegenerateFluxError):
                if len(js) == 1:
                    raise
                starts[k + 1:k + 1] = js[1:]
                return self._block_tables(j)
            self._blocks = {s: b for s, b in self._blocks.items() if b[0].stop == js.start}
            self._blocks[js.start] = (js, table, vert, report)
        return self._blocks[js.start]

    @cached_property
    def ghosts(self) -> np.ndarray:
        """(n_slabs, 2) left and right ghost states of an interval run, from one u_B call."""
        t, xb = self.tri.times, self.tri.breakpoints[[0, -1]]
        pts, weights = segment_nodes(self.rule, 0, xb[None, :], t[:-1, None],
                                     self.tri.heights[:, None])
        return _face_means(self.bd, pts, weights, lambda idx: (
            f"the {('left', 'right')[idx[1]]} face of slab {idx[0]} (x = "
            f"{float(xb[idx[1]])!r}, t in [{float(t[idx[0]])!r}, {float(t[idx[0] + 1])!r}])"))

    def slab(self, j: int) -> Slab:
        """A new slab j, a block of one with its inflow table, in any order (tables are
        rebuilt deterministically, so a rebuilt slab is bit-identical); the solver keeps
        no slab, so a dropped solver is freed without the cycle collector."""
        return Slab(self, j, 1, self.slice_table(j), self.slice_table(j + 1),
                    self.vertical_fluxes(j))

    def initial_state(self) -> SliceState:
        """The initial slice state, on the cached table of slice 0."""
        return _inflow_state(self.slice_table(0), self.bd)

    def run(self) -> RunResult:
        start = time.perf_counter()
        state = self.initial_state()
        states = [state]
        lambda_max, report = [], None
        for j in range(self.tri.n_slabs):
            slab = self.slab(j)
            shared, report = report, slab.lambdas()
            lambda_max.append(lambda_max[-1] if report is shared else report.max_cell_ratio())
            if self.cfg.enforce_cfl and not report.passed:
                raise CFLViolation(
                    f"slab {j}: max cell ratio {report.max_cell_ratio():.6f} exceeds "
                    f"{CFL_LIMIT}; shrink the slab height")
            state = slab.step(state)
            states.append(state)
        return RunResult(tri=self.tri, flux=self.flux, spec=self.spec, bd=self.bd,
                         cfg=self.cfg, u_range=self.u_range, states=states,
                         lambda_max=lambda_max, wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# time step selection
# ---------------------------------------------------------------------------

def _check_ratios_finite(slab: str, ratios, sup, dq_min, left, right,
                         vertical: Callable[[int], str], outflow: Callable[[int], str]) -> None:
    """Raise :class:`DegenerateFluxError` for the first cell whose CFL ratio
    ``(sup[left] + sup[right]) / dq_min`` is not finite, naming the slab,
    the face whose bound is at fault (the outflow face when none is
    non-finite) and the values; ``vertical(k)``/``outflow(i)`` name faces."""
    bad = ~np.isfinite(ratios)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    parts = [(f"G' bound of vertical face {vertical(int(k))}", sup[k])
             for k in (left[i], right[i])]
    parts.append((f"dq_min of outflow face {outflow(i)}", dq_min[i]))
    what, value = next((p for p in parts if not np.isfinite(p[1])), parts[-1])
    raise DegenerateFluxError(f"{slab}: CFL ratio of cell {i} is {float(ratios[i])!r}: "
                              f"{what} is {float(value)!r}")


def _slab_ratios(domain, xs, flux, spec, u_range, t0: np.ndarray, hbar) -> np.ndarray:
    """Max per-cell lambda ratio of each candidate slab of height ``hbar`` from a start of ``t0``.

    The probes are one block table with per-row starts (as
    :meth:`Solver._block_tables`), so each probe's ratio has the bits of its
    slab's table built alone; a single probe is built from its start alone.
    The first probe with a non-finite ratio raises.
    """
    m, n_probes = xs.size - 1, t0.size
    rule = gauss_legendre(5, 1)
    x_nodes = xs[:-1] if domain.periodic else xs
    t_lo = t0[0] if n_probes == 1 else np.repeat(t0, x_nodes.size)   # per (probe, node) row
    vert = VerticalFluxes(np.concatenate([x_nodes] * n_probes), t_lo, hbar, flux, spec, rule,
                          u_range)
    sup = vert.lipschitz_sup().reshape(n_probes, -1)
    # dq bounds on the outflow slice of each candidate slab (1 column: dq reads no u)
    pts, weights = segment_nodes(rule, 1, (t0 + hbar)[:, None], xs[:-1], np.diff(xs))
    n = 1 if (1,) in flux.u_free_du else DQ_SAMPLE_COUNT
    us = np.broadcast_to(np.linspace(*u_range, DQ_SAMPLE_COUNT)[:n], (n_probes * m, n))
    dq = face_sums(flux.omega.du_coeffs[(1,)], pts.reshape(n_probes * m, *pts.shape[2:]),
                   np.concatenate([weights] * n_probes), us)
    dq_min = np.min(np.abs(dq), axis=1).reshape(n_probes, m)
    left = np.arange(m)
    right = (np.arange(m) + 1) % m if domain.periodic else np.arange(m) + 1
    lam = (sup[:, left] + sup[:, right]) / dq_min
    for start, *row in zip(t0, lam, sup, dq_min):
        _check_ratios_finite(f"probe slab (t0, hbar) = ({float(start)!r}, {float(hbar)!r})",
                             *row, left, right, lambda k: f"x = {float(x_nodes[k])!r}",
                             lambda i: f"[{float(xs[i])!r}, {float(xs[i + 1])!r}]")
    return np.max(lam, axis=1)


def select_timestep(domain: IntervalDomain | CircleDomain, breakpoints: Sequence[float],
                    flux: FluxField, spec: NumericalFluxSpec,
                    u_range: tuple[float, float], cfl_target: float,
                    t_final: float) -> float:
    """Largest slab height whose lambda ratios stay below the target.

    Scales a probe slab to the target ratio and verifies on
    ``TIMESTEP_PROBES`` slabs sampled across the horizon if the flux reads
    t, one table for all of them (:func:`_slab_ratios`), else on the one from
    t = 0 (all slabs of one height then have its ratio), each with 5-point
    Gauss rules.  Returns 0 for a zero horizon;
    raises :class:`DegenerateFluxError` when no height above
    ``1e-12 * t_final`` is admissible.
    """
    if not 0.0 < cfl_target <= CFL_LIMIT:
        raise ValueError(f"cfl_target must lie in (0, {CFL_LIMIT}]")
    if t_final <= 0.0:
        return 0.0
    breakpoints = np.asarray(breakpoints, dtype=float)

    def worst_ratio(hbar: float) -> float:
        starts = np.linspace(0.0, max(t_final - hbar, 0.0),
                             TIMESTEP_PROBES if flux.reads_t else 1)
        try:
            ratios = _slab_ratios(domain, breakpoints, flux, spec, u_range, starts, hbar)
        except Exception:   # whatever a probe's flux raises: the parent's error, probe by probe
            if starts.size == 1:
                raise
            ratios = np.concatenate([_slab_ratios(domain, breakpoints, flux, spec, u_range,
                                                  starts[k:k + 1], hbar)
                                     for k in range(starts.size)])
        return max(ratios.tolist())   # in probe order

    hbar = float(t_final)
    floor = 1e-12 * t_final
    for _ in range(200):
        lam = worst_ratio(hbar)
        if lam <= 0.0:
            return float(t_final)  # flux-free vertical faces: no CFL constraint
        if lam <= cfl_target * (1.0 + 1e-9):
            grown = min(float(t_final), hbar * cfl_target / lam)
            if grown <= hbar * (1.0 + 1e-6):
                return hbar
            hbar = grown
        else:
            hbar = min(float(t_final), hbar * cfl_target / lam)
            if hbar < floor:
                raise DegenerateFluxError("no admissible slab height above the search floor")
    # the fixed point did not settle; fall back to a safe shrinking pass
    while worst_ratio(hbar) > cfl_target * (1.0 + 1e-9):
        hbar *= 0.9
        if hbar < floor:
            raise DegenerateFluxError("no admissible slab height above the search floor")
    return hbar
