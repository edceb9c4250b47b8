"""Entropy pairs, convex decompositions and discrete-inequality verifiers.

The scheme's stability theory rests on rewriting each cell update as a
convex combination of intermediate states and pushing convex entropies
through it.  This module reconstructs those objects from run output and
evaluates every discrete inequality the theory asserts:

* per-face entropy inequalities (interior and boundary-flavored),
* the per-cell entropy inequality,
* the discrete boundary condition relating entropy and plain fluxes,
* the per-slab global dissipation estimate,
* the global entropy inequality with its five remainder terms A..E,
* Kruzkov slice distances, their contraction across slabs against the
  boundary-data budget, and the inflow-trace gap.

Every Kruzkov quantity is one identity, ``F(u v c) - F(u ^ c)`` for the
modulus entropy ``|u - c|``, applied to one flux ``F`` of the states: a
total flux, a flux-form coefficient or a numerical flux (Kruzkov 1970;
Crandall & Majda 1980): :func:`_kruzkov`, and on the check lattices its factored
form :func:`_kruzkov_split`, one ``F`` per lattice point and per state.  The
global-inequality report evaluates Kruzkov pairs only; smooth pairs reduce
to them by superposition.  Gauss rules come from the cached, read-only
:func:`~spacetime_fvm.forms.gauss_legendre`.

Vertical-face fluxes live in face arrays.  With ``u_L``/``u_R`` the states of
the left/right cell of each face (:meth:`Slab.neighbor_states`), a face
holds ``Q(u_L, u_R)``, ``G(u_L)`` and ``G(u_R)`` in left-cell orientation,
plain (:func:`_plain_faces`, once per slab) or cut at ``c`` from ``G(c)``
(:func:`_kruzkov_faces`).  The flux is conservative, so a cell's per-side
triple ``(Q(u, nb), Q(u, u), Q(nb, nb))`` is a signed gather
(:func:`_cell_sides`): ``(-Q, -G(u_R), -G(u_L))`` at its left face,
``(Q, G(u_L), G(u_R))`` at its right face.  The face and cell checks cut
them at the (cell, c) pairs inside each cell's state hull, the boundary
terms at every point on side 0 of cell 0 and side 1 of cell m - 1
(:class:`_CheckLattice`).  A smooth pair's boundary numerical flux
superposes the same face arrays with a fixed Gauss rule on the pieces
between the integrand's kinks (:func:`smooth_entropy_numerical_flux`), so
no check calls a scalar numerical flux.

Every check takes a :class:`~spacetime_fvm.scheme.Slab`: slabs ``j .. j + n - 1``
on the (slab, column) row axis, and a slab is a block of one.
:func:`verify_run` runs the solver's blocks (:meth:`Solver.block`): the
plain face fluxes, the decomposition (one inversion), the identity,
bracketing, conservation, convexity and dissipation checks, a smooth pair's
table and one check lattice once per block, each reduced per slab.  The
lattice holds every slab's points (:func:`_kruzkov_points`, one row sort)
and serves the face and the cell check through masks
(:meth:`_CheckLattice.in_hulls`, one search per side); their per-slab maxima
are segment reductions (:meth:`_CheckLattice.per_slab`).  The boundary
terms of an interval run read slab b's first and last cell rows at that
slab's points.  A smooth pair's table for a dq that does not read u is the
dq column times one (panel, node) factor.

Everything is evaluated with fixed summation order over prebuilt arrays,
so reports are reproducible bit for bit, at every block size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Iterable

import numpy as np

from .forms import Coefficient, CoordinateForm, gauss_legendre
from .fluxfield import FluxField
from .mesh import (
    ConvergenceError,
    SpacelikeTable,
    ValueOutsideImage,
    bracketed_root,
)
from .scheme import RunResult, Slab, SliceState, Solver

__all__ = [
    "ContractionReport",
    "DecompositionStates",
    "DissipationReport",
    "EntropyPair",
    "EntropyReport",
    "GlobalInequalityReport",
    "KruzkovPair",
    "boundary_bound_mass",
    "cell_entropy_residuals",
    "check_discrete_boundary_condition",
    "contraction_check",
    "decomposition_states",
    "entropy_total_flux",
    "face_entropy_residuals",
    "global_dissipation_report",
    "global_entropy_inequality_report",
    "identity_pair",
    "kruzkov_form",
    "kruzkov_lattice",
    "kruzkov_numerical_flux",
    "kruzkov_slice_distance",
    "square_pair",
    "verify_run",
]

SMOOTH_PANELS = 32        # Gauss panels of SmoothFaceEntropy's table on the hull and 0
SMOOTH_PANEL_NODES = 10   # Gauss nodes per panel
SMOOTH_FLUX_NODES = 20    # Gauss nodes per piece of a smooth pair's numerical entropy flux


def _kruzkov(f: Callable, c, *states):
    """``f(u v c, ...) - f(u ^ c, ...)``: the Kruzkov entropy flux of ``f``.

    ``f`` maps one or more states to a flux (total, coefficient or
    numerical); each state is cut at ``c``, which broadcasts against it.
    """
    return (f(*(np.maximum(u, c) for u in states))
            - f(*(np.minimum(u, c) for u in states)))


def _kruzkov_split(f_c, f_s, c, s):
    """:func:`_kruzkov` of a one-state ``f`` from ``f_c = f(c)`` and ``f_s = f(s)``, bit for bit.

    One state: ``s v c`` and ``s ^ c`` are ``c`` or ``s`` by the sign of
    ``c - s``, so the difference picks from ``f_c`` and ``f_s``.  Two states
    ``lo <= hi`` of a face: off the straddle set ``lo < c < hi``,
    ``Q(u_L v c, u_R v c) - Q(u_L ^ c, u_R ^ c)`` is ``Q(c, c) - Q(u_L, u_R)``
    for ``c >= hi``, its negative for ``c <= lo``, and ``Q(c, c) = G(c)``.
    """
    return np.where(c > s, f_c, f_s) - np.where(c < s, f_c, f_s)


# ---------------------------------------------------------------------------
# entropy pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyPair:
    """Convex Lipschitz entropy with derivative callback.

    The associated flux family is the u-derivative-weighted integral of the
    flux derivative, anchored so it vanishes at state zero; it is realized
    on a slice's total-flux table (:class:`SmoothFaceEntropy`).  ``ddu_fn``
    (second derivative) weights the numerical entropy flux superposition;
    when missing it is formed by central differences.
    """

    u_fn: Callable
    du_fn: Callable
    name: str = "entropy"
    ddu_fn: Callable | None = None

    def u(self, w):
        return np.asarray(self.u_fn(np.asarray(w, dtype=float)), dtype=float)

    def du(self, w):
        return np.asarray(self.du_fn(np.asarray(w, dtype=float)), dtype=float)

    def ddu(self, w):
        if self.ddu_fn is not None:
            return np.asarray(self.ddu_fn(np.asarray(w, dtype=float)), dtype=float)
        h = 1e-5
        w = np.asarray(w, dtype=float)
        return (self.du(w + h) - self.du(w - h)) / (2 * h)

    def admissible_bound(self, hull: tuple[float, float]) -> float:
        ws = np.linspace(hull[0], hull[1], 257)
        return float(np.max(np.abs(self.du(ws))))

    def convexity_modulus(self, hull: tuple[float, float]) -> float:
        """c with U'' >= 2c on the hull (sampled)."""
        ws = np.linspace(hull[0], hull[1], 257)
        return float(0.5 * np.min(self.ddu(ws)))

    def validate(self, hull: tuple[float, float], tol: float = 1e-9) -> None:
        ws = np.linspace(hull[0], hull[1], 65)
        h = 1e-4 * (1 + hull[1] - hull[0])
        second = self.u(ws + h) - 2 * self.u(ws) + self.u(ws - h)
        if np.min(second) < -tol * h * h:
            raise ValueError(f"entropy {self.name} is not convex on the hull")


@cache   # one pair, so its q_omega table is built once per slice table
def square_pair() -> EntropyPair:
    return EntropyPair(lambda w: w * w, lambda w: 2.0 * w, name="square",
                       ddu_fn=lambda w: 2.0 + 0.0 * w)


def identity_pair() -> EntropyPair:
    return EntropyPair(lambda w: w, lambda w: 1.0 + 0.0 * w, name="identity",
                       ddu_fn=lambda w: 0.0 * w)


@dataclass(frozen=True)
class KruzkovPair:
    """The modulus entropy ``|u - c|`` with flux ``omega(u v c) - omega(u ^ c)``.

    The flux vanishes identically at coinciding states.
    """

    c: float
    name: str = "kruzkov"

    def u(self, w):
        return np.abs(np.asarray(w, dtype=float) - self.c)

    def du(self, w):
        return np.sign(np.asarray(w, dtype=float) - self.c)


def kruzkov_form(flux: FluxField, ubar: float, c: float) -> CoordinateForm:
    """Kruzkov entropy flux form at frozen states, with analytic partials."""
    def frozen(fn):
        return lambda pts: _kruzkov(lambda u: fn(pts, u), c, ubar)

    partials = flux.omega.partials or {}
    coeffs = {}
    for idx, fn in flux.omega.coeffs.items():
        part = {ax: frozen(p) for ax, p in partials[idx].items()} if idx in partials else None
        coeffs[idx] = Coefficient(frozen(fn), partials=part)
    return CoordinateForm(flux.omega.degree, flux.omega.chart_dim, coeffs)


# ---------------------------------------------------------------------------
# per-face entropy total fluxes
# ---------------------------------------------------------------------------

class SmoothFaceEntropy:
    """Entropy total fluxes of one slice for a smooth pair.

    ``q_omega(w)``, the integral of ``U'(v) dq(v)`` from 0 to ``w``, is a
    per-face cumulative sum from 0 over ``SMOOTH_PANELS`` equal panels of
    ``SMOOTH_PANEL_NODES`` Gauss nodes on the state range and 0 (an edge),
    plus one such rule from the start of the state's panel: polynomial flux
    data is integrated exactly.  The table does not read the states; it is
    kept by pair in the slice table's ``derived``, shared by every slice of
    a flux that does not read t.  A dq that does not read u is one column,
    and the panels are then that column times one (panel, node) factor
    ``gw h U'(v)``, the same for every face and the same bits as the
    per-face rule.
    """

    def __init__(self, pair: EntropyPair, table: SpacelikeTable):
        self.pair = pair
        self.table = table
        rule = gauss_legendre(SMOOTH_PANEL_NODES)
        self._gx = rule.nodes[:, 0]
        self._gw = rule.weights
        if pair not in table.derived:
            lo, hi = min(table.u_range[0], 0.0), max(table.u_range[1], 0.0)
            h = (hi - lo) / SMOOTH_PANELS
            n_neg = int(np.ceil(-lo / h))
            starts = h * np.arange(-n_neg, int(np.ceil(hi / h)))
            if table.dq_column is None:
                panels = self._panels(np.broadcast_to(starts, (table.n_faces, starts.size)), h)
            else:   # dq reads no u: one (panel, node) factor gw h U'(v) serves every face
                factor = self._gw * h * pair.du(starts[:, None] + self._gx * h)
                panels = np.sum(factor * table.dq_column[:, None, None], axis=-1)
            down = -np.cumsum(panels[:, :n_neg][:, ::-1], axis=1)[:, ::-1]
            up = np.cumsum(panels[:, n_neg:], axis=1)
            table.derived[pair] = (h, n_neg, starts, np.concatenate(   # from 0 to each start
                [down, np.zeros((table.n_faces, 1)), up[:, :-1]], axis=1))
        self._h, self._n_neg, self._starts, self._cumulative = table.derived[pair]

    def _panels(self, start: np.ndarray, width) -> np.ndarray:
        """Gauss rules of ``U' dq`` on ``[start, start + width]``; ``start`` is (m, K)."""
        width = np.broadcast_to(width, start.shape)[..., None]
        vn = start[..., None] + self._gx * width                     # (m, K, G)
        dq = self.table.dq(vn.reshape(start.shape[0], -1)).reshape(vn.shape)
        return np.sum(self._gw * width * self.pair.du(vn) * dq, axis=-1)

    def q_omega(self, w) -> np.ndarray:
        """Shape-preserving entropy total flux per face; w is (m,) or (m, K)."""
        w = np.asarray(w, dtype=float)
        flat = w.reshape(w.shape[0], -1)
        # the panel of each state: fmax takes a NaN state to panel 0 (its q_omega stays NaN)
        k = np.fmin(np.fmax(np.floor(flat / self._h) + self._n_neg, 0.0),
                    self._starts.size - 1).astype(np.intp)
        start = self._starts[k]
        # a block table tiled from one slice's table (flux not reading t) repeats its rows
        rows = np.arange(flat.shape[0])[:, None] % self._cumulative.shape[0]
        return (self._cumulative[rows, k] + self._panels(start, flat - start)).reshape(w.shape)


def entropy_total_flux(table: SpacelikeTable, pair, ubar):
    """Entropy total fluxes of a slice's faces for any pair, one per state row.

    For Kruzkov pairs this is the lattice formula
    ``q(u v c) - q(u ^ c)``; for smooth pairs the anchored integral of the
    derivative-weighted q-derivative (:class:`SmoothFaceEntropy`).
    """
    ubar = np.asarray(ubar, dtype=float)
    if isinstance(pair, KruzkovPair):
        return _kruzkov(table.q, pair.c, ubar)
    return SmoothFaceEntropy(pair, table).q_omega(ubar)


# ---------------------------------------------------------------------------
# convex decomposition
# ---------------------------------------------------------------------------

@dataclass
class DecompositionStates:
    """Per-cell intermediate states of one slab (columns: 0 = left, 1 = right).

    ``face_states`` solves the single-face refresh of the update,
    ``anchored_states`` the neighbor-anchored variant; ``lam`` are the convex weights.  Both state
    families are produced by guarded total-flux inversion and satisfy the
    bracketing recorded in ``bracket_residual``.  The rows of a block's
    decomposition are its slabs' cells, slab by slab, and its
    ``bracket_residual`` lists one value per slab.
    """

    slab_index: int
    face_states: np.ndarray        # (m, 2)
    anchored_states: np.ndarray   # (m, 2)
    lam: np.ndarray           # (m, 2)
    lam_hat: np.ndarray       # (m, 2)
    lam_hat_cell: np.ndarray  # (m,)
    delta_q: np.ndarray       # (m, 2): Q(u-, nb) - Q(u-, u-)
    delta_q_bar: np.ndarray   # (m, 2): Q(u-, nb) - Q(nb, nb)
    neighbor: np.ndarray      # (m, 2) neighbor states (ghosts filled in)
    q_face_states: np.ndarray      # (m, 2)
    q_anchored_states: np.ndarray        # (m, 2)
    bracket_residual: float
    q_neighbor: np.ndarray | None = None   # (m, 2)


def _plain_faces(slab: Slab, values: np.ndarray):
    """``(u_L, u_R, G(u_L), G(u_R), Q(u_L, u_R))`` per vertical face row, ``Q`` from the
    two ``G`` arrays: what the decomposition and both check lattices of a slab or a
    block read."""
    u_left, u_right = slab.neighbor_states(values)
    g_left, g_right = slab.vert.G(u_left), slab.vert.G(u_right)
    return u_left, u_right, g_left, g_right, slab.vert._combine(u_left, u_right, g_left, g_right)


def _cell_sides(q, g_left, g_right, left, right):
    """Per-cell ``(Q_uv, Q_uu, Q_vv)`` of side 0 and side 1: face arrays ``Q(u_L, u_R)``,
    ``G(u_L)``, ``G(u_R)`` gathered at ``left`` and ``right``, as the module docstring sets out."""
    return ((-q[left], -g_right[left], -g_left[left]),
            (q[right], g_left[right], g_right[right]))


def decomposition_states(slab: Slab, state: SliceState,
                         tol: float | None = None) -> DecompositionStates:
    """Intermediate states of the convex decomposition for one slab.

    Requires the CFL ratios of the slab to pass (image containment); an
    inversion failure therefore flags a CFL or flux-axiom breach.
    """
    decomp = _decompose(slab, state, tol, None, _plain_faces(slab, state.values))
    return replace(decomp, bracket_residual=decomp.bracket_residual[0])


def _decompose(block: Slab, state: SliceState, tol, q_own, plain) -> DecompositionStates:
    """:func:`decomposition_states` of every slab of ``block``; ``state`` holds the
    block's inflow states and fluxes, ``plain`` its :func:`_plain_faces`."""
    tol = tol if tol is not None else block.solver.cfg.inversion_tol
    values = state.values
    report = block.lambdas()
    lam, lam_hat = report.lam, report.lam_hat
    u_left, u_right, g_left, g_right, q_lr = plain
    nb = np.stack([u_left[block.left_idx], u_right[block.right_idx]], axis=1)
    sides = _cell_sides(q_lr, g_left, g_right, block.left_idx, block.right_idx)
    delta_q = np.stack([q_uv - q_uu for q_uv, q_uu, _ in sides], axis=1)
    delta_q_bar = np.stack([q_uv - q_vv for q_uv, _, q_vv in sides], axis=1)

    zero = lam_hat <= 0.0
    # per slab, from the largest flux of its inflow slice
    flat_tol = 1e-11 * (1.0 + np.repeat(block.per_slab(np.abs(state.fluxes)), block.m))[:, None]
    if np.any(zero & ((np.abs(delta_q) > flat_tol) | (np.abs(delta_q_bar) > flat_tol))):
        raise ValueOutsideImage("flux varies across a face whose lambda ratio is zero")

    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(zero, 0.0, delta_q / np.where(zero, 1.0, lam))
        scaled_bar = np.where(zero, 0.0, delta_q_bar / np.where(zero, 1.0, lam))

    table = block.table_plus
    q_nb = table.q(nb)
    q_own = table.q(values) if q_own is None else q_own
    # one inversion per block; columns: face states of sides 0, 1, then anchored states
    skip = np.concatenate([zero, zero], axis=1)
    targets = np.where(skip, table.image_lo[:, None],   # skipped: a safe in-image value
                       np.concatenate([q_own[:, None] - scaled, q_nb + scaled_bar], axis=1))
    states = np.where(skip, np.concatenate([np.stack([values, values], axis=1), nb], axis=1),
                      table.invert(targets, tol=tol))
    face_states, anchored_states = states[:, :2], states[:, 2:]
    q_states = table.q(states)
    q_face_states, q_anchored_states = q_states[:, :2], q_states[:, 2:]

    lo = np.minimum(q_own[:, None], q_nb)
    hi = np.maximum(q_own[:, None], q_nb)
    scale = 1.0 + np.abs(lo) + np.abs(hi)
    # per slab, the larger of the two families' maxima; a NaN in either stays
    bracket = np.maximum(*(block.per_slab(np.maximum(lo - q, q - hi) / scale)
                           for q in (q_face_states, q_anchored_states))).tolist()

    return DecompositionStates(
        slab_index=block.j, face_states=face_states, anchored_states=anchored_states, lam=lam,
        lam_hat=lam_hat, lam_hat_cell=report.lam_hat_cell, delta_q=delta_q,
        delta_q_bar=delta_q_bar, neighbor=nb, q_face_states=q_face_states,
        q_anchored_states=q_anchored_states, bracket_residual=bracket, q_neighbor=q_nb)


def convex_decomposition_residual(slab: Slab, decomp: DecompositionStates,
                                  state_next: SliceState,
                                  q_next: np.ndarray | None = None) -> np.ndarray:
    """|sum_lam q(face_states) - q(u_plus)| per cell (the defining identity);
    ``q_next`` is ``q(u_plus)`` when the caller has it."""
    recombined = np.sum(decomp.lam * decomp.q_face_states, axis=1)
    q_next = slab.table_plus.q(state_next.values) if q_next is None else q_next
    return np.abs(recombined - q_next)


# ---------------------------------------------------------------------------
# Kruzkov lattice checks
# ---------------------------------------------------------------------------

def kruzkov_lattice(slab: Slab, state: SliceState) -> np.ndarray:
    """Sorted check parameters: state hull endpoints, slab values, consecutive
    midpoints; the face and cell checks read a cell's points in its hull only.
    One slab's :func:`_kruzkov_points`."""
    return _kruzkov_points(slab, state.values)[0]


def _kruzkov_points(block: Slab, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every slab's :func:`kruzkov_lattice` from one row sort: the points slab by slab,
    and the (n + 1,) bounds of each slab's points.

    A slab's row is its values, ghosts and hull ends rounded to 12 digits,
    sorted in place as ``np.unique`` sorts them: of equal points the first is
    kept (so is the sign of a zero).  The midpoints of consecutive points lie
    between them, so interleaving keeps each slab's points sorted; its NaNs
    (and their midpoints) are last and become one point.
    """
    n = block.n
    rows = [values.reshape(n, -1)]
    if not block.periodic:
        rows.append(block.solver.ghosts[block.j:block.j + n])
    rows.append(np.broadcast_to(np.asarray(block.solver.u_range, dtype=float), (n, 2)))
    v = np.round(np.concatenate(rows, axis=1), 12)
    v.sort(axis=1)
    new = np.ones(v.shape, dtype=bool)
    new[:, 1:] = v[:, 1:] != v[:, :-1]
    vals, slab = v[new], np.nonzero(new)[0]
    points = np.empty(2 * vals.size - 1)
    points[0::2], points[1::2] = vals, 0.5 * (vals[:-1] + vals[1:])
    slab = np.repeat(slab, 2)[:-1]
    inside = np.ones(points.size, dtype=bool)
    inside[1::2] = slab[0:-1:2] == slab[2::2]   # no midpoint across two slabs
    points, slab = points[inside], slab[inside]
    new = np.ones(points.size, dtype=bool)
    new[1:] = (slab[1:] != slab[:-1]) | ((points[1:] != points[:-1]) & ~np.isnan(points[:-1]))
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(slab[new], minlength=n), out=bounds[1:])
    return points[new], bounds


def _one_slab_points(c) -> tuple[np.ndarray, np.ndarray]:
    """Check parameters ``c`` of a block of one, sorted and de-duplicated, as
    :func:`_kruzkov_points` gives them."""
    c = np.unique(np.asarray(c, dtype=float))
    return c, np.array([0, c.size])


def _slab_keys(slab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(slab, x)`` as complex keys that sort by slab, then by x: one search serves
    every slab.  A NaN x is ``slab + 0.5``, after the slab's other keys, as in a sort."""
    nan = np.isnan(x)
    keys = np.empty(x.shape, dtype=complex)
    keys.real, keys.imag = slab + 0.5 * nan, np.where(nan, 0.0, x)
    return keys


def kruzkov_numerical_flux(slab: Slab, column: int, side: str, u, v, c):
    """Q(u v c, v v c) - Q(u ^ c, v ^ c) seen from the cell (scalar/broadcast)."""
    return _kruzkov(lambda a, b: slab.numerical_flux(column, side, a, b),
                    np.asarray(c, dtype=float), np.asarray(u, dtype=float),
                    np.asarray(v, dtype=float))


def _kruzkov_faces(vert, faces, c, g_c, plain):
    """Kruzkov face arrays ``(Q, G(u_L), G(u_R))`` at ``faces`` cut at ``c`` (:func:`_kruzkov_split`).

    ``g_c`` is ``G(c)`` and ``plain`` is ``(u_L, u_R, G(u_L), G(u_R), Q(u_L, u_R))``
    at those faces, each of ``c``'s shape.  Q is cut state by state on the
    straddle set and where G(c) is a zero (a central flux may flip its sign
    there), from the G values at hand: G(u v c) is G(c) where c > u, else G(u).
    """
    u_left, u_right, g_left, g_right, q_lr = plain
    lo, hi = np.minimum(u_left, u_right), np.maximum(u_left, u_right)
    k_q = np.where(c >= hi, g_c - q_lr, q_lr - g_c)
    cut = np.nonzero(((lo < c) & (c < hi)) | (g_c == 0.0))[0]
    cf, gc, ul, ur, gl, gr = (a[cut] for a in (c, g_c, u_left, u_right, g_left, g_right))
    k_q[cut] = (
        vert._combine(np.maximum(ul, cf), np.maximum(ur, cf), np.where(cf > ul, gc, gl),
                      np.where(cf > ur, gc, gr), faces[cut])
        - vert._combine(np.minimum(ul, cf), np.minimum(ur, cf), np.where(cf < ul, gc, gl),
                        np.where(cf < ur, gc, gr), faces[cut]))
    return k_q, _kruzkov_split(g_c, g_left, c, u_left), _kruzkov_split(g_c, g_right, c, u_right)


class _CheckLattice:
    """A Kruzkov lattice on the (cell, c) pairs ``cells``, ``c`` (n,) of a slab or a block
    of slabs (:class:`~spacetime_fvm.scheme.Slab`), cells sorted.

    ``sides`` holds the cells' side triples (:func:`_cell_sides`) at the pairs,
    from the face arrays at their left, then right faces (:func:`_kruzkov_faces`)
    and :func:`_plain_faces` ``plain``.  The face and cell checks read the pairs
    in each cell's state hull (:meth:`in_hulls`), each through its entry of
    ``masks``, and reduce per slab from ``slab_pairs``, the first pair of each
    slab (:meth:`per_slab`); the boundary condition reads cells 0 and m - 1 at
    every point (:func:`_boundary_sides`).
    """

    def __init__(self, slab: Slab, cells: np.ndarray, c: np.ndarray, plain):
        self.cells, self.c = cells, c
        self.masks = [slice(None)]
        self.slab_pairs = np.zeros(1, dtype=np.intp)
        self._q = slab.table_plus.q
        faces = np.concatenate([slab.left_idx[cells], slab.right_idx[cells]])
        c = np.concatenate([c, c])
        self.sides = _cell_sides(
            *_kruzkov_faces(slab.vert, faces, c, slab.vert.G(c, faces=faces),
                            [a[faces] for a in plain]),
            slice(None, cells.size), slice(cells.size, None))

    @classmethod
    def in_hulls(cls, block: Slab, values: np.ndarray, points, extra, plain,
                 *more) -> "_CheckLattice":
        """The points of each slab in the closed hull of each of its cells' ``u``, both
        neighbours or ghosts and its ``extra`` states, by cell and then by c.

        ``points`` is ``(c, bounds)``: slab ``b``'s points, sorted and
        de-duplicated, are ``c[bounds[b]:bounds[b + 1]]`` (:func:`_kruzkov_points`).
        Off the hull the checks reduce to the decomposition and conservation
        identities.  An empty hull keeps the first point at or above its low
        end, clamped to its slab's last (a NaN row keeps one NaN pair).  Each
        of ``more`` is the extra states of another hull: a cell's pairs then
        run from the first to the last point of all its hulls, and ``masks``
        selects each hull's own pairs, ``extra``'s first.  Every hull of every
        slab is found by one search per side on keys of (slab, c).
        """
        c, bounds = points
        slab = np.arange(values.size) // block.m
        shared = [values, plain[0][block.left_idx], plain[1][block.right_idx]]
        rows = [np.column_stack(shared + list(states)) for states in (extra, *more)]
        queries = np.tile(slab, len(rows))
        keys = _slab_keys(np.repeat(np.arange(block.n), np.diff(bounds)), c)
        start = np.minimum(np.searchsorted(keys, _slab_keys(queries, np.concatenate(
            [np.min(r, axis=1) for r in rows]))), bounds[1:][queries] - 1)
        stop = np.maximum(np.searchsorted(keys, _slab_keys(queries, np.concatenate(
            [np.max(r, axis=1) for r in rows])), "right"), start + 1)
        hulls = list(zip(start.reshape(len(rows), -1), stop.reshape(len(rows), -1)))
        start = np.minimum.reduce([lo for lo, _ in hulls])
        counts = np.maximum.reduce([hi for _, hi in hulls]) - start
        cells = np.repeat(np.arange(values.size), counts)
        index = np.repeat(start + counts - np.cumsum(counts), counts) + np.arange(cells.size)
        out = cls(block, cells, c[index], plain)
        out.slab_pairs = np.concatenate([[0], np.cumsum(counts)])[:-1:block.m]
        if more:
            out.masks = [(lo[cells] <= index) & (index < hi[cells]) for lo, hi in hulls]
        return out

    def per_slab(self, values: np.ndarray, mask: np.ndarray) -> list[float]:
        """Each slab's largest entry of ``values`` (pairs on the last axis) at its pairs in
        ``mask``: one segment reduction, masked entries at -inf, so a NaN stays in its slab."""
        masked = np.where(mask, values, -np.inf).reshape(-1, self.cells.size)
        return np.max(np.maximum.reduceat(masked, self.slab_pairs, axis=1), axis=0).tolist()

    @cached_property
    def q_c(self) -> np.ndarray:
        return self._q(self.c, faces=self.cells)

    def q(self, s: np.ndarray, q_s: np.ndarray | None = None) -> np.ndarray:
        """Kruzkov q of per-cell states ``s`` (m,) at the pairs, from ``q_s = q(s)`` if given."""
        q_s = self._q(s) if q_s is None else q_s
        return _kruzkov_split(self.q_c, q_s[self.cells], self.c, s[self.cells])


def face_entropy_residuals(slab: Slab, decomp: DecompositionStates, state: SliceState,
                           c_values: np.ndarray) -> dict[str, np.ndarray]:
    """Positive parts of the per-face inequalities on the local check lattice, shape
    (2, n), side by pair: ``face_inequality`` anchored at face_states, ``boundary``
    at the neighbor state.  A cell's pairs are the points of ``c_values`` in the hull
    of ``u``, both neighbours or ghosts and its face and anchored states (:class:`_CheckLattice`).
    """
    values = state.values
    lattice = _CheckLattice.in_hulls(slab, values, _one_slab_points(c_values),
                                     (decomp.face_states, decomp.anchored_states),
                                     _plain_faces(slab, values))
    return _face_residuals(decomp, lattice, lattice.q(values))


def _face_residuals(decomp, lattice, k_own, q_states=None) -> dict[str, np.ndarray]:
    """:func:`face_entropy_residuals` at every pair of ``lattice``, from ``k_own``, the
    Kruzkov q of the old states there; ``q_states`` is q of the face, anchored and
    neighbour states, (m, 2) each, if the caller has them."""
    zero = decomp.lam_hat <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_lam = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, decomp.lam))[lattice.cells]
    states = (decomp.face_states, decomp.anchored_states, decomp.neighbor)
    dei, bnd = [], []
    for side, (Q_uv, Q_uu, Q_vv) in enumerate(lattice.sides):
        q_ut, q_ub, q_nb = (lattice.q(s[:, side], q if q is None else q[:, side])
                            for s, q in zip(states, q_states or (None, None, None)))
        dei.append(np.maximum(0.0, q_ut - (k_own - inv_lam[:, side] * (Q_uv - Q_uu))))
        bnd.append(np.maximum(0.0, q_ub - (q_nb + inv_lam[:, side] * (Q_uv - Q_vv))))
    return {"face_inequality": np.stack(dei), "boundary": np.stack(bnd)}


def cell_entropy_residuals(slab: Slab, state: SliceState, state_next: SliceState,
                           c_values: np.ndarray) -> np.ndarray:
    """Positive part of the per-cell entropy inequality on the local check lattice,
    shape (n,): a cell's pairs are the points of ``c_values`` in the hull of
    ``u``, both neighbours or ghosts, and ``u_plus`` (:class:`_CheckLattice`)."""
    values = state.values
    lattice = _CheckLattice.in_hulls(slab, values, _one_slab_points(c_values),
                                     (state_next.values,), _plain_faces(slab, values))
    return _cell_residuals(state_next.values, lattice, lattice.q(values))


def _cell_residuals(values_next, lattice, k_own, q_next=None) -> np.ndarray:
    """:func:`cell_entropy_residuals` at every pair of ``lattice``, from ``k_own``, the
    Kruzkov q of the old states there, and ``q_next = q(u_plus)`` if given."""
    total = lattice.q(values_next, q_next) - k_own
    for Q_uv, Q_uu, _ in lattice.sides:
        total = total + (Q_uv - Q_uu)
    return np.maximum(0.0, total)


# ---------------------------------------------------------------------------
# discrete boundary condition and smooth-pair numerical entropy fluxes
# ---------------------------------------------------------------------------

def _boundary_sides(slab: Slab, plain, c: np.ndarray, b: int = 0) -> list[tuple]:
    """Slab b's left, then right boundary face as its cell sees it: side 0 of its first
    cell row, side 1 of its last.

    Per face ``(u, g, Q(u, g) - Q(g, g), Q_c(u, g), Q_c(g, g))``: the cell and
    ghost states, the plain flux difference from :func:`_plain_faces` ``plain``
    and the Kruzkov numerical fluxes at every point of ``c``, from a
    :class:`_CheckLattice` holding the two cells at all of them.
    """
    n, first, last = c.size, b * slab.m, (b + 1) * slab.m - 1
    kruzkov = _CheckLattice(slab, np.repeat([first, last], n), np.tile(c, 2), plain).sides
    u_left, u_right, g_left, g_right, q_lr = plain
    left, right = slab.left_idx[first:first + 1], slab.right_idx[last:last + 1]
    sides = _cell_sides(q_lr, g_left, g_right, left, right)
    states = ((u_right[left[0]], u_left[left[0]]), (u_left[right[0]], u_right[right[0]]))
    return [(u, g, float(q_uv[0] - q_vv[0]), k_uv[pairs], k_vv[pairs])
            for (u, g), (q_uv, _, q_vv), (k_uv, _, k_vv), pairs
            in zip(states, sides, kruzkov, (slice(None, n), slice(n, None)))]


def _boundary_condition_gaps(slab: Slab, plain, pair, b: int = 0) -> list[np.ndarray]:
    """``U'(g) (Q(u, g) - Q(g, g)) - (Q_U(u, g) - Q_U(g, g))`` on slab b's left, then right
    boundary face, ``g`` its ghost state.

    ``Q_U`` is the pair's numerical entropy flux: one entry per point of a
    :class:`KruzkovPair`'s ``c`` (:func:`_boundary_sides`), one for a smooth
    pair (:func:`smooth_entropy_numerical_flux`).
    """
    kruzkov = isinstance(pair, KruzkovPair)
    sides = _boundary_sides(slab, plain, np.atleast_1d(np.asarray(pair.c, dtype=float))
                            if kruzkov else np.empty(0), b)
    gaps = []
    for (column, side), (u, g, q_diff, k_ug, k_gg) in zip(
            ((b * slab.m, "left"), ((b + 1) * slab.m - 1, "right")), sides):
        if not kruzkov:
            k_ug, k_gg = (smooth_entropy_numerical_flux(slab, column, side, pair, s, g)
                          for s in (u, g))
        gaps.append(pair.du(g) * q_diff - (k_ug - k_gg))
    return gaps


def _flux_crossings(vert, face: int, lo: float, hi: float) -> list[float]:
    """Where ``G`` of ``face`` crosses its value at ``lo``, at ``hi`` or at a critical point strictly between.

    Between two states on both sides of a critical point, the interval
    min/max (Godunov) flux ``Q(s, c)`` switches the end that attains it where
    ``G(c)`` crosses one of these values: a kink in ``c``.  ``G`` is monotone
    between consecutive critical points, so each such piece holds at most
    one crossing of each value, polished by :func:`~spacetime_fvm.mesh.bracketed_root`.
    """
    crit = vert.crit_w[face]
    inside = np.sort(crit[(lo < crit) & (crit < hi)])
    if not inside.size:
        return []                    # G is monotone on [lo, hi]
    ends = np.concatenate([[lo], inside, [hi]])
    g = vert.G(ends, faces=np.full(ends.size, face))
    piece, value = np.nonzero((g[:-1, None] - g) * (g[1:, None] - g) < 0.0)
    g_lo, g_hi, target = g[piece], g[piece + 1], g[value]
    sign = np.sign(g_hi - target)    # sign * (G - target) is negative at the piece's start
    faces = np.full(piece.size, face)
    roots, _, open_ = bracketed_root(lambda w: sign * (vert.G(w, faces=faces) - target),
                                     0.5 * (ends[piece] + ends[piece + 1]), ends[piece],
                                     ends[piece + 1], sign * (g_lo - target), sign * (g_hi - target))
    if open_.any():
        raise ConvergenceError(f"vertical face x = {float(vert.x_nodes[face])!r}: the crossing of "
                               f"G = {float(target[open_][0])!r} in [{lo!r}, {hi!r}] did not converge")
    return roots.tolist()


def smooth_entropy_numerical_flux(slab: Slab, column: int, side: str,
                                  pair: EntropyPair, u: float, v: float) -> float:
    """Numerical entropy flux for a smooth convex pair via Kruzkov superposition, on the
    ``side`` face of cell row ``column``.

    Decomposes the pair into modulus entropies over the state hull (plus a
    linear part) and integrates the corresponding Kruzkov numerical fluxes
    against the second derivative; consistency with the anchored entropy
    total flux follows because the hull contains the zero state.  The
    parameter integral is split where the integrand has a kink: at the hull
    ends, 0 (the anchor's kink), the states, the face's critical points and
    the flux crossings between the states (:func:`_flux_crossings`).  Each
    piece takes one ``SMOOTH_FLUX_NODES``-point Gauss rule: the Kruzkov fluxes
    are the face arrays of :func:`_kruzkov_faces`, from one G evaluation on the face.
    """
    vert = slab.vert
    face = slab.right_idx[column] if side == "right" else slab.left_idx[column]
    sign = 1.0 if side == "right" else -1.0
    lo, hi = slab.solver.u_range
    lo, hi = min(lo, 0.0, u, v), max(hi, 0.0, u, v)
    beta = 0.5 * (float(pair.du(lo)) + float(pair.du(hi)))
    splits = np.array(sorted({lo, hi, 0.0, float(u), float(v)}
                             | {float(w) for w in vert.crit_w[face] if lo < w < hi}
                             | set(_flux_crossings(vert, face, min(u, v), max(u, v)))))
    rule = gauss_legendre(SMOOTH_FLUX_NODES)
    widths = np.diff(splits)
    c = (splits[:-1, None] + widths[:, None] * rule.nodes[:, 0]).ravel()
    states = np.array([u, v] if side == "right" else [v, u], dtype=float)   # (u_L, u_R)
    g = vert.G(np.concatenate([c, states, [0.0]]), faces=np.full(c.size + 3, face))
    g_c, g_states, g_zero = g[:-3], g[-3:-1], g[-1]
    q_lr = vert._combine(states[:1], states[1:], g_states[:1], g_states[1:], [face])[0]
    plain = [np.broadcast_to(a, c.shape) for a in (*states, *g_states, q_lr)]
    k_q = _kruzkov_faces(vert, np.full(c.size, face), c, g_c, plain)[0]
    integrand = 0.5 * pair.ddu(c) * sign * (k_q - _kruzkov_split(g_c, g_zero, c, 0.0))
    pieces = np.sum(rule.weights * integrand.reshape(widths.size, -1), axis=1)
    return float(beta * sign * (q_lr - g_zero) + np.sum(widths * pieces))


def check_discrete_boundary_condition(slab: Slab, column: int, side: str,
                                      pair, state: SliceState) -> float:
    """Residual of the discrete boundary condition on one boundary face.

    The face is the left one of column 0 or the right one of column m - 1.
    The entropy numerical flux difference must dominate the derivative-
    weighted plain flux difference; returns the positive part of the
    violation, the largest over the points of a :class:`KruzkovPair` whose
    ``c`` is an array.
    """
    if slab.periodic or (column, side) not in ((0, "left"), (slab.m - 1, "right")):
        raise ValueError("discrete boundary condition applies to boundary faces only")
    return _positive_max(
        _boundary_condition_gaps(slab, _plain_faces(slab, state.values), pair)[side == "right"])


def _positive_max(values) -> float:
    """The largest positive part of ``values``: 0.0 (not -0.0) if none is positive, NaN at a NaN."""
    return float(np.max(np.maximum(0.0, values))) + 0.0


# ---------------------------------------------------------------------------
# global dissipation (per slab)
# ---------------------------------------------------------------------------

@dataclass
class DissipationReport:
    slab_index: int
    dissipation: float
    lhs_general: float
    rhs: float
    slack_general: float
    slack_square_variant: float | None

    def passed(self, tol: float) -> bool:
        ok = self.slack_general >= -tol
        if self.slack_square_variant is not None:
            ok = ok and self.slack_square_variant >= -tol
        return ok


def global_dissipation_report(slab: Slab, decomp: DecompositionStates,
                              state: SliceState, state_next: SliceState,
                              pair: EntropyPair | None = None) -> DissipationReport:
    """Per-slab dissipation estimate for a smooth convex pair (default square).

    The quadratic dissipation sum is weighted by the safety-factored
    derivative bounds of the outflow faces, which only weakens the left
    side, so a negative slack still indicates a genuine violation.
    """
    pair = pair if pair is not None else square_pair()
    q_omega_minus = SmoothFaceEntropy(pair, slab.table_minus).q_omega(state.values)
    q_omega_plus = SmoothFaceEntropy(pair, slab.table_plus).q_omega(state_next.values)
    return _dissipation_reports(slab, decomp, state.values, state_next.values, pair,
                                [float(np.sum(q_omega_plus))], float(np.sum(q_omega_minus)))[0]


def _dissipation_reports(block: Slab, decomp, values, values_next, pair, sums_plus,
                         sum_minus) -> list[DissipationReport]:
    """:func:`global_dissipation_report` of each slab of ``block`` from the sums of q_omega
    on each outflow slice, ``sums_plus``, and on the first inflow slice, ``sum_minus``."""
    hull = block.solver.u_range
    c_mod = pair.convexity_modulus((min(hull[0], 0.0), max(hull[1], 0.0)))
    square_like = abs(float(pair.u(0.0))) < 1e-14 and abs(float(pair.du(0.0))) < 1e-14

    table = block.table_plus
    coeff = (table.dq_min ** 2 / table.dq_max)[:, None]
    dissipation = block.per_slab(decomp.lam * coeff * (decomp.face_states - values_next[:, None]) ** 2,
                                 np.sum)
    reports = []
    for b, (diss, sum_plus) in enumerate(zip(dissipation, sums_plus)):
        boundary_sum = 0.0
        if not block.periodic:
            for column, side, ghost in zip((b * block.m, (b + 1) * block.m - 1),
                                           ("left", "right"),
                                           block.solver.ghosts[block.j + b].tolist()):
                boundary_sum += smooth_entropy_numerical_flux(
                    block, column, side, pair, float(values[column]), ghost)
        lhs = sum_plus + c_mod * diss
        rhs = -boundary_sum + sum_minus
        # anchored convex pairs with vanishing slope at zero have q_omega >= 0
        reports.append(DissipationReport(
            slab_index=block.j + b, dissipation=diss, lhs_general=lhs, rhs=rhs,
            slack_general=rhs - lhs,
            slack_square_variant=rhs - c_mod * diss if square_like else None))
        sum_minus = sum_plus
    return reports


def outflow_entropy_convexity_residual(slab: Slab, decomp: DecompositionStates,
                               state_next: SliceState, pair) -> np.ndarray:
    """Positive part of q_omega(u_plus) - sum lam q_omega(face_states), per cell."""
    if isinstance(pair, KruzkovPair):
        q_new = _kruzkov(slab.table_plus.q, pair.c, state_next.values)
        q_ut = _kruzkov(slab.table_plus.q, pair.c, decomp.face_states)
    else:
        ent = SmoothFaceEntropy(pair, slab.table_plus)
        q_new = ent.q_omega(state_next.values)
        q_ut = ent.q_omega(decomp.face_states)
    return _convexity_residual(decomp, q_new, q_ut)


def _convexity_residual(decomp, q_new, q_ut) -> np.ndarray:
    """:func:`outflow_entropy_convexity_residual` on prebuilt q_omega(u_plus), q_omega(ut)."""
    return np.maximum(0.0, q_new - np.sum(decomp.lam * q_ut, axis=1))


# ---------------------------------------------------------------------------
# Kruzkov distances and contraction
# ---------------------------------------------------------------------------

def kruzkov_slice_distance(result_u: RunResult, result_v: RunResult, j: int) -> float:
    """Slice sum of Kruzkov entropy total fluxes between two runs."""
    _require_shared_mesh(result_u, result_v)
    return _slice_distance(_shared_table(result_u, result_v, j), result_u, result_v, j)


def _slice_distance(table: SpacelikeTable, ru: RunResult, rv: RunResult, j: int) -> float:
    return float(np.sum(_kruzkov(table.q, rv.states[j].values, ru.states[j].values)))


def _require_shared_mesh(ru: RunResult, rv: RunResult) -> None:
    # exact: states on slices a rounding apart are not on one mesh
    if not (np.array_equal(ru.tri.breakpoints, rv.tri.breakpoints)
            and np.array_equal(ru.tri.times, rv.tri.times)):
        raise ValueError("contraction checks require both runs on the same triangulation")


def _shared_table(ru: RunResult, rv: RunResult, j: int) -> SpacelikeTable:
    hull = (min(ru.u_range[0], rv.u_range[0]), max(ru.u_range[1], rv.u_range[1]))
    return SpacelikeTable(ru.tri, ru.flux, j, rule=ru.cfg.rule(), u_range=hull)


def boundary_bound_mass(flux: FluxField, t_lo: float, t_hi: float, x: float,
                        u_range: tuple[float, float],
                        inflation: float = 1.05, n_samples: int = 33) -> float:
    """Mass of a sampled bound form dominating |du_omega| on the boundary
    face ``{x} x [t_lo, t_hi]``."""
    ts = np.linspace(t_lo, t_hi, n_samples)
    pts = np.stack([ts, np.full_like(ts, x)], axis=-1)
    us = np.linspace(u_range[0], u_range[1], 17)
    worst = max(float(np.max(np.abs(flux.omega.du_coeffs[(0,)](pts, u)))) for u in us)
    return inflation * worst * (t_hi - t_lo)


@dataclass
class ContractionReport:
    distances: np.ndarray     # (n_slices,)
    budgets: np.ndarray       # (n_slabs,)
    slacks: np.ndarray        # (n_slabs,): d_{j+1} - d_j - budget_j
    max_slack: float
    trace_gap: float
    passed: bool

    def to_dict(self) -> dict:
        return {"distances": self.distances.tolist(),
                "budgets": self.budgets.tolist(),
                "slacks": self.slacks.tolist(),
                "max_slack": self.max_slack,
                "trace_gap": self.trace_gap,
                "passed": self.passed}


def contraction_check(result_u: RunResult, result_v: RunResult,
                      tol: float = 1e-9) -> ContractionReport:
    """Slice distances must not grow beyond the boundary-data budget.

    The budget of a slab is the sum over its boundary faces of the sampled
    sup of |u_B - v_B| times the mass of the inflated bound form; circle
    domains have empty budgets and the distance must be non-increasing.
    The trace gap compares the first interior slice distance with the
    Kruzkov form of the boundary data on the initial slice.
    """
    _require_shared_mesh(result_u, result_v)
    tri = result_u.tri
    hull = (min(result_u.u_range[0], result_v.u_range[0]),
            max(result_u.u_range[1], result_v.u_range[1]))
    tables = [SpacelikeTable(tri, result_u.flux, j, rule=result_u.cfg.rule(), u_range=hull)
              for j in range(tri.n_slices)]
    distances = np.array([_slice_distance(table, result_u, result_v, j)
                          for j, table in enumerate(tables)])

    budgets = np.zeros(tri.n_slabs)
    if not tri.periodic:
        times = tri.times.tolist()
        for j in range(tri.n_slabs):
            t_lo, t_hi = times[j], times[j + 1]
            for x in (float(tri.breakpoints[0]), float(tri.breakpoints[-1])):
                ts = np.linspace(t_lo, t_hi, 33)
                pts = np.stack([ts, np.full_like(ts, x)], axis=-1)
                du_sup = float(np.max(np.abs(result_u.bd.u_values(pts)
                                             - result_v.bd.u_values(pts))))
                budgets[j] += du_sup * boundary_bound_mass(result_u.flux, t_lo, t_hi, x, hull)

    slacks = distances[1:] - distances[:-1] - budgets
    max_slack = float(np.max(slacks)) if slacks.size else 0.0

    # Kruzkov form of the boundary data itself on the initial slice
    table0 = tables[0]
    ub = result_u.bd.u_values(table0.pts)
    vb = result_v.bd.u_values(table0.pts)
    d_bdata = float(np.sum(table0.weights
                           * _kruzkov(lambda w: table0._wx(table0.pts, w), vb, ub)))
    trace_gap = abs(float(distances[1] - d_bdata)) if tri.n_slices > 1 else 0.0

    return ContractionReport(distances=distances, budgets=budgets, slacks=slacks,
                             max_slack=max_slack, trace_gap=trace_gap,
                             passed=bool(max_slack <= tol))


# ---------------------------------------------------------------------------
# global entropy inequality (terms A..E)
# ---------------------------------------------------------------------------

@dataclass
class GlobalInequalityReport:
    lhs: float
    lhs_boundary_variant: float
    A: float
    B: float
    C: float
    D: float
    E: float
    tol: float
    stokes_gap: float = 0.0

    @property
    def rhs(self) -> float:
        return self.A + self.B + self.C + self.D + self.E

    @property
    def remainder_total(self) -> float:
        return abs(self.A) + abs(self.B) + abs(self.C) + abs(self.D) + abs(self.E)

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + self.tol and \
            self.lhs_boundary_variant <= self.rhs + self.tol

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "lhs_boundary_variant": self.lhs_boundary_variant,
                "A": self.A, "B": self.B, "C": self.C, "D": self.D, "E": self.E,
                "rhs": self.rhs, "remainder_total": self.remainder_total,
                "stokes_gap": self.stokes_gap, "satisfied": self.satisfied}


@dataclass(frozen=True)
class TestFunction:
    """Non-negative test function with optional analytic gradient."""

    __test__ = False  # not a pytest class despite the name

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, pts):
        return np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)

    def gradient(self, pts, step: float = 1e-6):
        pts = np.asarray(pts, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(pts), dtype=float)
        out = np.empty(pts.shape)
        for axis in range(pts.shape[-1]):
            h = step * (1.0 + np.abs(pts[..., axis]))
            hi = pts.copy()
            lo = pts.copy()
            hi[..., axis] += h
            lo[..., axis] -= h
            out[..., axis] = (self(hi) - self(lo)) / (2.0 * h)
        return out


def _omega_density(pair: KruzkovPair, table: SpacelikeTable, w: np.ndarray) -> np.ndarray:
    """Pointwise oriented Kruzkov entropy-flux density at the table's face nodes."""
    return table.orientation[:, None] * _kruzkov(lambda u: table._wx(table.pts, u),
                                                 pair.c, w[:, None])


def _vertical_entropy_density(slab: Slab, pair: KruzkovPair, side: int,
                              w: np.ndarray) -> np.ndarray:
    """Kruzkov entropy flux density at vertical-face nodes, oriented as the cell boundary."""
    pts = slab.vert.pts[slab.right_idx if side == 1 else slab.left_idx]
    sign = -1.0 if side == 1 else 1.0
    return sign * _kruzkov(lambda u: slab.vert._wt(pts, u), pair.c, w[:, None])


def global_entropy_inequality_report(result: RunResult, psi: TestFunction, pair,
                                     tol: float | None = None,
                                     validate_support: bool = True,
                                     solver: Solver | None = None) -> GlobalInequalityReport:
    """Evaluate the global entropy inequality and its remainder terms A..E.

    ``psi`` must be non-negative and supported away from the final slice.
    The left-hand side aggregates the volume term, the initial-slice term
    and the boundary numerical entropy fluxes; the boundary variant
    replaces the latter with the trace form implied by the discrete
    boundary condition.  The volume integrals are assembled through the
    per-cell Stokes identity from the same face quadratures as every
    other term, which keeps the inequality exact at the discrete level;
    ``stokes_gap`` reports how far an independent cell quadrature of the
    exterior derivative sits from that assembly.  Only Kruzkov pairs are
    evaluated, with closed-form densities.
    """
    tri = result.tri
    solver = solver if solver is not None else Solver(
        tri, result.flux, result.spec, result.bd, result.cfg)
    if tol is None:
        scale = max(1.0, max(float(np.max(np.abs(s.fluxes))) for s in result.states))
        tol = 1e-9 * (1.0 + scale)

    if validate_support:
        xs_chk = np.linspace(tri.breakpoints[0], tri.breakpoints[-1], 65)
        top = np.stack([np.full_like(xs_chk, tri.times[-1]), xs_chk], axis=-1)
        if float(np.max(np.abs(psi(top)))) > 1e-12:
            raise ValueError("test function must be supported away from the final slice")

    if not isinstance(pair, KruzkovPair):
        raise NotImplementedError(
            "the global inequality report currently evaluates Kruzkov pairs; "
            "smooth pairs reduce to them by superposition")

    c = pair.c
    A = B = C = D = E = 0.0
    volume = 0.0
    volume_direct = 0.0
    initial = 0.0
    boundary = 0.0
    boundary_variant = 0.0
    cell_rule = gauss_legendre(5, 2)

    for j in range(tri.n_slabs):
        slab = solver.slab(j)
        state = result.states[j]
        state_next = result.states[j + 1]
        values = state.values
        plain = _plain_faces(slab, values)
        decomp = _decompose(slab, state, None, None, plain)
        w_t = slab.vert.weights

        # psi averages on vertical faces (coordinate measure) and their
        # lambda-weighted per-cell combinations
        wsum = float(np.sum(w_t))
        psi_vert = np.sum(w_t * psi(slab.vert.pts), axis=-1) / wsum
        psi_face = np.stack([psi_vert[slab.left_idx], psi_vert[slab.right_idx]], axis=1)
        psi_cell_avg = np.sum(decomp.lam * psi_face, axis=1)

        table_plus = slab.table_plus
        q_ut = _kruzkov(table_plus.q, c, decomp.face_states)
        q_new = _kruzkov(table_plus.q, c, state_next.values)

        # A: lambda-weighted average differences against the outflow refresh
        A += float(np.sum(decomp.lam * (psi_cell_avg[:, None] - psi_face)
                          * (q_ut - q_new[:, None])))

        # B: vertical-face mismatch between averaged and pointwise psi
        psi_side = [psi(slab.vert.pts[idx]) for idx in (slab.left_idx, slab.right_idx)]
        dens_side = [_vertical_entropy_density(slab, pair, side, values) for side in (0, 1)]
        for side in (0, 1):
            B += float(np.sum((psi_face[:, side][:, None] - psi_side[side]) * w_t
                              * dens_side[side]))

        # C, D, E: outflow-face pointwise terms
        psi_plus = psi(table_plus.pts)
        wq = table_plus.weights
        dens_ut = [_omega_density(pair, table_plus, decomp.face_states[:, s]) for s in (0, 1)]
        dens_new = _omega_density(pair, table_plus, state_next.values)
        dens_old = _omega_density(pair, table_plus, values)
        raw_new = table_plus.density(state_next.values)
        du_new = pair.du(state_next.values)[:, None]
        for side in (0, 1):
            C -= float(np.sum(decomp.lam[:, side][:, None]
                              * (psi_cell_avg[:, None] - psi_plus)
                              * wq * (dens_ut[side] - dens_new)))
            raw_ut = table_plus.density(decomp.face_states[:, side])
            D -= float(np.sum(decomp.lam[:, side][:, None] * psi_plus * du_new
                              * wq * (raw_ut - raw_new)))
        E -= float(np.sum((psi_cell_avg[:, None] - psi_plus) * wq * (dens_new - dens_old)))

        # volume term assembled by the per-cell Stokes identity from the
        # same face quadratures (exact at the discrete level); its inflow
        # part on slab 0 is the initial-slice term
        table_minus = slab.table_minus
        inflow = float(np.sum(psi(table_minus.pts) * table_minus.weights
                              * _omega_density(pair, table_minus, values)))
        stokes = float(np.sum(psi_plus * wq * dens_old)) - inflow
        for side in (0, 1):
            stokes += float(np.sum(psi_side[side] * w_t * dens_side[side]))
        volume -= stokes
        volume_direct -= _volume_term(tri, slab, result.flux, psi, values, c, cell_rule)
        if j == 0:
            initial -= inflow

        # boundary terms
        if not slab.periodic:
            psi_b = psi_vert[[slab.left_idx[0], slab.right_idx[-1]]]
            for psi_k, (_u, b, q_diff, k_ub, k_bb) in zip(
                    psi_b, _boundary_sides(slab, plain, np.array([float(c)]))):
                boundary += psi_k * float(k_ub[0])
                boundary_variant += psi_k * (float(k_bb[0]) + float(pair.du(b)) * q_diff)

    lhs = volume + initial + boundary
    lhs_variant = volume + initial + boundary_variant
    return GlobalInequalityReport(lhs=lhs, lhs_boundary_variant=lhs_variant,
                                  A=A, B=B, C=C, D=D, E=E, tol=tol,
                                  stokes_gap=abs(volume - volume_direct))


def _volume_term(tri, slab, flux, psi, values, c, cell_rule) -> float:
    """Sum over the slab's cells of the cell integrals of d(psi Omega)(u-)."""
    xs = tri.breakpoints
    t0, t1 = tri.times[slab.j], tri.times[slab.j + 1]
    xl = xs[:-1]
    widths = np.diff(xs)
    X = xl[:, None] + cell_rule.nodes[:, 0][None, :] * widths[:, None]
    T = np.broadcast_to(t0 + cell_rule.nodes[:, 1] * (t1 - t0), X.shape)
    pts = np.stack([T, X], axis=-1)                                  # (m, 25, 2)
    area = widths[:, None] * (t1 - t0)
    w = cell_rule.weights[None, :] * area

    def omega(fn, p):
        return _kruzkov(lambda u: fn(p, u), c, values[:, None])

    grad = psi.gradient(pts)
    om = flux.omega
    integrand = grad[..., 0] * omega(om.coeffs[(1,)], pts) \
        - grad[..., 1] * omega(om.coeffs[(0,)], pts)

    if om.partials is not None and (0,) in om.partials and (1,) in om.partials:
        d_omega_x_dt = omega(om.partials[(1,)][0], pts)
        d_omega_t_dx = omega(om.partials[(0,)][1], pts)
    else:
        h = 1e-6
        shift = np.zeros_like(pts)
        shift[..., 0] = h * (1.0 + np.abs(pts[..., 0]))
        d_omega_x_dt = (omega(om.coeffs[(1,)], pts + shift)
                        - omega(om.coeffs[(1,)], pts - shift)) / (2.0 * shift[..., 0])
        shift[...] = 0.0
        shift[..., 1] = h * (1.0 + np.abs(pts[..., 1]))
        d_omega_t_dx = (omega(om.coeffs[(0,)], pts + shift)
                        - omega(om.coeffs[(0,)], pts - shift)) / (2.0 * shift[..., 1])
    integrand = integrand + psi(pts) * (d_omega_x_dt - d_omega_t_dx)

    return float(np.sum(w * integrand))


# ---------------------------------------------------------------------------
# run-level verification
# ---------------------------------------------------------------------------

_CHECK_NAMES = ("decomposition_identity", "bracketing", "face_inequality",
                "face_inequality_neighbor", "cell_inequality", "boundary_condition",
                "outflow_convexity_square", "conservation_identity", "dissipation_slack")


@dataclass
class CheckSummary:
    name: str
    max_residual: float
    tol: float
    n_checked: int
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "tol": self.tol, "n_checked": self.n_checked, "passed": self.passed}


@dataclass
class EntropyReport:
    checks: list[CheckSummary]
    per_slab: dict[str, list[float]]
    tol: float
    c_lattice_sizes: list[int]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        return {"passed": self.passed, "tol": self.tol,
                "checks": [c.to_dict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps({**self.summary(), "per_slab": self.per_slab}, indent=2)

    def residual_rows(self) -> Iterable[tuple]:
        for name, series in self.per_slab.items():
            for j, value in enumerate(series):
                yield (name, j, value)


def verify_run(result: RunResult, tol: float | None = None,
               solver: Solver | None = None) -> EntropyReport:
    """Run every discrete entropy check over a finished run.

    The Kruzkov family is checked on the per-slab :func:`kruzkov_lattice`: the
    boundary condition at every point, the face and cell checks at each cell's
    points in its state hull (elsewhere they reduce to the decomposition and
    conservation identities); ``c_lattice_sizes`` records the full lattice
    sizes.  The quadratic pair drives the dissipation estimate.  Slab 0's
    conservation identity also covers the initial slice.  The default
    tolerance scales with the largest finite slice flux; a given one must
    be finite and non-negative (``ValueError``).

    The slabs run in the solver's blocks (:meth:`Solver.block`): every family
    once per block, the face and cell checks on one check lattice of the
    block's slabs, each reduced per slab (:func:`_verify_block`).
    """
    tri = result.tri
    solver = solver if solver is not None else Solver(
        tri, result.flux, result.spec, result.bd, result.cfg)
    states = result.states
    if tol is None:
        flux_scale = max(float(np.max(np.abs(s.fluxes), initial=0.0, where=np.isfinite(s.fluxes)))
                         for s in states)
        tol = 1e-9 * (1.0 + flux_scale)
    elif not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"entropy tolerance must be finite and non-negative, got {tol!r}")

    per_slab: dict[str, list[float]] = {n: [] for n in _CHECK_NAMES}
    lattice_sizes: list[int] = []
    first = solver.slice_table(0)
    slice0_gap = float(np.max(np.abs(first.q(states[0].values) - states[0].fluxes)))
    sum_minus = float(np.sum(SmoothFaceEntropy(square_pair(), first).q_omega(states[0].values)))
    j = 0
    while j < tri.n_slabs:
        block = solver.block(j)
        j = block.slabs.stop
        try:
            series, sizes, sum_minus = _verify_block(states, block, sum_minus)
        except (ValueOutsideImage, ConvergenceError):
            for k in block.slabs:   # slab by slab, so the first failing slab names its own face
                sum_minus = _verify_block(states, solver.slab(k), sum_minus)[2]
            raise
        for name in _CHECK_NAMES:
            per_slab[name] += series[name]
        lattice_sizes += sizes
    conservation = per_slab["conservation_identity"]
    conservation[0] = float(np.maximum(slice0_gap, conservation[0]))   # a NaN in either stays

    checks = []
    for name in _CHECK_NAMES:
        series = per_slab[name]
        worst = float(np.max(series)) if series else 0.0   # a NaN anywhere fails the check
        checks.append(CheckSummary(name=name, max_residual=float(worst), tol=tol,
                                   n_checked=len(series), passed=bool(worst <= tol)))
    return EntropyReport(checks=checks, per_slab=per_slab, tol=tol,
                         c_lattice_sizes=lattice_sizes)


def _verify_block(states: list[SliceState], block: Slab, sum_minus: float):
    """The per-slab series of :func:`verify_run` for the slabs of ``block``, their lattice
    sizes, and the sum of the square pair's q_omega on the last outflow slice.

    ``sum_minus`` is that sum on the first inflow slice.  Every family runs
    once on the block's rows and reduces per slab: the decomposition, the
    identity, bracketing, conservation, convexity and dissipation checks, and
    the face and cell checks on one check lattice of the block
    (:meth:`_CheckLattice.in_hulls`), the union of their pairs, with G(c), q(c)
    and the face arrays evaluated once for both.  The boundary condition of
    an interval run reads each slab's points alone, at its boundary rows.
    """
    inflow, outflow = (SliceState(block.j + k, None,
                                  np.concatenate([states[j + k].values for j in block.slabs]),
                                  np.concatenate([states[j + k].fluxes for j in block.slabs]))
                       for k in (0, 1))
    values, values_next = inflow.values, outflow.values
    table = block.table_plus
    q_own, q_next = table.q(values), table.q(values_next)
    plain = _plain_faces(block, values)
    decomp = _decompose(block, inflow, None, q_own, plain)
    square = square_pair()
    ent = SmoothFaceEntropy(square, table)
    q_omega_plus = ent.q_omega(values_next)
    sums_plus = block.per_slab(q_omega_plus, np.sum)
    reports = _dissipation_reports(block, decomp, values, values_next, square, sums_plus,
                                   sum_minus)
    points, bounds = _kruzkov_points(block, values)
    lattice = _CheckLattice.in_hulls(block, values, (points, bounds),
                                     (decomp.face_states, decomp.anchored_states), plain,
                                     (values_next,))
    face_pairs, cell_pairs = lattice.masks
    k_own = lattice.q(values, q_own)
    face = _face_residuals(decomp, lattice, k_own, (decomp.q_face_states,
                                                    decomp.q_anchored_states, decomp.q_neighbor))
    series = {
        "decomposition_identity": block.per_slab(
            convex_decomposition_residual(block, decomp, outflow, q_next)),
        "bracketing": decomp.bracket_residual,
        "face_inequality": lattice.per_slab(face["face_inequality"], face_pairs),
        "face_inequality_neighbor": lattice.per_slab(face["boundary"], face_pairs),
        "cell_inequality": lattice.per_slab(
            _cell_residuals(values_next, lattice, k_own, q_next), cell_pairs),
        "boundary_condition": [0.0] * block.n if block.periodic else [
            _positive_max(np.concatenate(_boundary_condition_gaps(
                block, plain, KruzkovPair(points[bounds[b]:bounds[b + 1]]), b)))
            for b in range(block.n)],
        "outflow_convexity_square": block.per_slab(
            _convexity_residual(decomp, q_omega_plus, ent.q_omega(decomp.face_states))),
        "conservation_identity": block.per_slab(np.abs(q_next - outflow.fluxes)),
        "dissipation_slack": [_positive_max(-np.array(
            [s for s in (rep.slack_general, rep.slack_square_variant) if s is not None]))
            for rep in reports],
    }
    return series, np.diff(bounds).tolist(), sums_plus[-1]
