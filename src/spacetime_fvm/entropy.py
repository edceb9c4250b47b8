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
plain or cut at the check lattice.  The flux is conservative, so a cell's
per-side triple ``(Q(u, nb), Q(u, u), Q(nb, nb))`` is a signed gather
(:func:`_cell_sides`): ``(-Q, -G(u_R), -G(u_L))`` at its left face,
``(Q, G(u_L), G(u_R))`` at its right face.

Everything is evaluated with fixed summation order over prebuilt arrays,
so reports are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable

import numpy as np

from .forms import Coefficient, CoordinateForm, ParamForm, gauss_legendre
from .fluxfield import FluxField
from .mesh import SpacelikeTable, ValueOutsideImage
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

SIMPSON_TOL = 1e-12
SMOOTH_PANELS = 32        # Gauss panels of SmoothFaceEntropy's table on the hull and 0
SMOOTH_PANEL_NODES = 10   # Gauss nodes per panel
# raw [-1, 1] Gauss-Legendre pairs of the adaptive quadrature
_GAUSS_10 = np.polynomial.legendre.leggauss(10)
_GAUSS_20 = np.polynomial.legendre.leggauss(20)


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
    on demand as a :class:`ParamForm` or on a slice's total-flux table.
    ``ddu_fn`` (second derivative) enables the exact numerical entropy flux
    superposition; when missing it is formed by central differences.
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

    def omega_form(self, flux: FluxField, tol: float = SIMPSON_TOL) -> ParamForm:
        """The entropy flux family as a ParamForm (frozen-state coefficients).

        Coefficients integrate the derivative-weighted flux derivative from
        state zero by adaptive Simpson quadrature; intended for frozen
        scalar states (diagnostics), not for the solver hot path.
        """
        coeffs = {}
        du_coeffs = {}
        for idx, dfn in flux.omega.du_coeffs.items():
            def coeff(pts, u, _dfn=dfn):
                u = float(u)
                return adaptive_simpson(
                    lambda v, _p=pts: self.du(v) * _dfn(_p, v), 0.0, u, tol,
                    shape=np.shape(pts)[:-1])

            def dcoeff(pts, u, _dfn=dfn):
                return self.du(u) * _dfn(pts, u)

            coeffs[idx] = coeff
            du_coeffs[idx] = dcoeff
        return ParamForm(flux.omega.degree, flux.omega.chart_dim,
                         coeffs, du_coeffs, flux.omega.u_range)


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


def adaptive_simpson(f: Callable, a: float, b: float, tol: float,
                     shape: tuple = (), max_depth: int = 28) -> np.ndarray:
    """Adaptive Simpson quadrature for array-valued integrands.

    ``f(v)`` may return an array; the refinement criterion is the max-norm
    Richardson error estimate.  Handles ``a > b`` with the usual sign flip.
    """
    if a == b:
        return np.zeros(shape)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, depth):
        mid = 0.5 * (lo + hi)
        lm = f(0.5 * (lo + mid))
        rm = f(0.5 * (mid + hi))
        left = simp(lo, mid, flo, lm, fmid)
        right = simp(mid, hi, fmid, rm, fhi)
        err = np.max(np.abs(left + right - whole))
        if depth >= max_depth or err <= 15.0 * tol * max(1.0, hi - lo):
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, lm, fmid, left, depth + 1)
                + recurse(mid, hi, fmid, rm, fhi, right, depth + 1))

    fa = f(a)
    fm = f(0.5 * (a + b))
    fb = f(b)
    whole = simp(a, b, fa, fm, fb)
    return sign * recurse(a, b, fa, fm, fb, whole, 0)


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
    a flux that does not read t.  A dq that does not read u is one column.
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
            panels = self._panels(np.broadcast_to(starts, (table.n_faces, starts.size)), h)
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
        return (np.take_along_axis(self._cumulative, k, axis=1)
                + self._panels(start, flat - start)).reshape(w.shape)


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
    bracketing recorded in ``bracket_residual``.
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


def _cell_sides(slab: Slab, q, g_left, g_right):
    """Per-cell ``(Q_uv, Q_uu, Q_vv)`` of side 0 (left face) and side 1 (right).

    Gathers face arrays ``Q(u_L, u_R)``, ``G(u_L)``, ``G(u_R)`` (leading
    axis the face) as the module docstring sets out.
    """
    left, right = slab.left_idx, slab.right_idx
    return ((-q[left], -g_right[left], -g_left[left]),
            (q[right], g_left[right], g_right[right]))


def decomposition_states(slab: Slab, state: SliceState, tol: float | None = None,
                         q_own: np.ndarray | None = None) -> DecompositionStates:
    """Intermediate states of the convex decomposition for one slab.

    Requires the CFL ratios of the slab to pass (image containment); an
    inversion failure therefore flags a CFL or flux-axiom breach.
    ``q_own`` is ``slab.table_plus.q(state.values)`` when the caller has it.
    """
    tol = tol if tol is not None else slab.solver.cfg.inversion_tol
    values = state.values
    report = slab.lambdas()
    lam = report.lam
    lam_hat = report.lam_hat
    u_left, u_right = slab.neighbor_states(values)
    nb = np.stack([u_left[slab.left_idx], u_right[slab.right_idx]], axis=1)
    sides = _cell_sides(slab, slab.face_fluxes(values), slab.vert.G(u_left), slab.vert.G(u_right))

    m = slab.m
    delta_q = np.empty((m, 2))
    delta_q_bar = np.empty((m, 2))
    for side, (q_uv, q_uu, q_vv) in enumerate(sides):
        delta_q[:, side] = q_uv - q_uu
        delta_q_bar[:, side] = q_uv - q_vv

    zero = lam_hat <= 0.0
    flat_tol = 1e-11 * (1.0 + float(np.max(np.abs(state.fluxes))))
    if np.any(np.abs(delta_q[zero]) > flat_tol) or np.any(np.abs(delta_q_bar[zero]) > flat_tol):
        raise ValueOutsideImage("flux varies across a face whose lambda ratio is zero")

    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(zero, 0.0, delta_q / np.where(zero, 1.0, lam))
        scaled_bar = np.where(zero, 0.0, delta_q_bar / np.where(zero, 1.0, lam))

    q_nb = slab.table_plus.q(nb)
    q_own = slab.table_plus.q(values) if q_own is None else q_own
    # one inversion per slab; columns: face states of sides 0, 1, then anchored states
    skip = np.concatenate([zero, zero], axis=1)
    targets = np.where(skip, slab.table_plus.image_lo[:, None],   # skipped: a safe in-image value
                       np.concatenate([q_own[:, None] - scaled, q_nb + scaled_bar], axis=1))
    states = np.where(skip, np.concatenate([np.stack([values, values], axis=1), nb], axis=1),
                      slab.table_plus.invert(targets, tol=tol))
    face_states, anchored_states = states[:, :2], states[:, 2:]
    q_states = slab.table_plus.q(states)
    q_face_states, q_anchored_states = q_states[:, :2], q_states[:, 2:]

    lo = np.minimum(q_own[:, None], q_nb)
    hi = np.maximum(q_own[:, None], q_nb)
    scale = 1.0 + np.abs(lo) + np.abs(hi)
    bracket = max(
        float(np.max(np.maximum(lo - q_face_states, q_face_states - hi) / scale)),
        float(np.max(np.maximum(lo - q_anchored_states, q_anchored_states - hi) / scale)))

    return DecompositionStates(
        slab_index=slab.j, face_states=face_states, anchored_states=anchored_states, lam=lam, lam_hat=lam_hat,
        lam_hat_cell=report.lam_hat_cell, delta_q=delta_q, delta_q_bar=delta_q_bar,
        neighbor=nb, q_face_states=q_face_states, q_anchored_states=q_anchored_states,
        bracket_residual=bracket)


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
    """Check parameters: state hull endpoints, slab values, consecutive midpoints."""
    values = [state.values]
    ghosts = slab.ghost_values()
    if ghosts is not None:
        values.append(np.asarray(ghosts))
    lo, hi = slab.solver.u_range
    vals = np.unique(np.round(np.concatenate(values + [np.array([lo, hi])]), 12))
    mids = 0.5 * (vals[:-1] + vals[1:])
    return np.unique(np.concatenate([vals, mids]))


def kruzkov_numerical_flux(slab: Slab, column: int, side: str, u, v, c):
    """Q(u v c, v v c) - Q(u ^ c, v ^ c) seen from the cell (scalar/broadcast)."""
    return _kruzkov(lambda a, b: slab.numerical_flux(column, side, a, b),
                    np.asarray(c, dtype=float), np.asarray(u, dtype=float),
                    np.asarray(v, dtype=float))


class _CheckLattice:
    """One slab's Kruzkov lattices (:func:`_kruzkov_split`) for the face and cell checks.

    Q is cut state by state on the straddle set and where G(c) is a zero,
    whose sign ``Q(c, c) = 0.5 (G + G) -+ 0.5 s 0`` of a central flux may
    flip; its G values there are those of ``G(c)``, ``G(u_L)`` and ``G(u_R)``,
    so the lattices cost no flux evaluation beyond those three arrays.
    ``q_values`` is ``slab.table_plus.q(values)`` when the caller has it.
    """

    def __init__(self, slab: Slab, values: np.ndarray, c, q_values: np.ndarray | None = None):
        self.c = c = np.asarray(c, dtype=float)
        vert, self._q = slab.vert, slab.table_plus.q
        self.q_c = self._q(np.broadcast_to(c, (slab.m, c.size)))
        self.q_own = self.q(values, q_values)
        u_left, u_right = slab.neighbor_states(values)
        g_c = vert.G(np.broadcast_to(c, (vert.n_faces, c.size)))
        g_left, g_right = vert.G(u_left), vert.G(u_right)
        lo, hi = np.minimum(u_left, u_right)[:, None], np.maximum(u_left, u_right)[:, None]
        q_lr = vert._combine(u_left, u_right, g_left, g_right)[:, None]
        k_q = np.where(c >= hi, g_c - q_lr, q_lr - g_c)
        faces, cols = np.nonzero(((lo < c) & (c < hi)) | (g_c == 0.0))
        # Q at both cuts from the G values at hand: G(u v c) is G(c) where c > u, else G(u)
        cf, gc, ul, ur, gl, gr = (c[cols], g_c[faces, cols], u_left[faces], u_right[faces],
                                  g_left[faces], g_right[faces])
        k_q[faces, cols] = (
            vert._combine(np.maximum(ul, cf), np.maximum(ur, cf), np.where(cf > ul, gc, gl),
                          np.where(cf > ur, gc, gr), faces)
            - vert._combine(np.minimum(ul, cf), np.minimum(ur, cf), np.where(cf < ul, gc, gl),
                            np.where(cf < ur, gc, gr), faces))
        self.sides = _cell_sides(
            slab, k_q, _kruzkov_split(g_c, g_left[:, None], c, u_left[:, None]),
            _kruzkov_split(g_c, g_right[:, None], c, u_right[:, None]))

    def q(self, s: np.ndarray, q_s: np.ndarray | None = None) -> np.ndarray:
        """Kruzkov q lattice of per-cell states ``s`` (m,), shape (m, nc), from
        ``q_s = q(s)`` if given."""
        q_s = self._q(s) if q_s is None else q_s
        return _kruzkov_split(self.q_c, q_s[:, None], self.c, s[:, None])


def face_entropy_residuals(slab: Slab, decomp: DecompositionStates, state: SliceState,
                           c_values: np.ndarray) -> dict[str, np.ndarray]:
    """Positive parts of the per-face inequalities over the check lattice.

    Returns residual arrays of shape (m, 2, nc): ``dei`` for the interior
    flavor anchored at face_states, ``boundary`` for the neighbor flavor
    anchored at the neighbor state.
    """
    return _face_residuals(slab, decomp, _CheckLattice(slab, state.values, c_values))


def _face_residuals(slab, decomp, lattice: _CheckLattice) -> dict[str, np.ndarray]:
    """:func:`face_entropy_residuals` on a prebuilt :class:`_CheckLattice`."""
    m = slab.m
    out_dei = np.empty((m, 2, lattice.c.size))
    out_bnd = np.empty((m, 2, lattice.c.size))
    for side, (Q_uv, Q_uu, Q_vv) in enumerate(lattice.sides):
        lam = decomp.lam[:, side]
        zero = decomp.lam_hat[:, side] <= 0.0
        q_ut = lattice.q(decomp.face_states[:, side])
        q_ub = lattice.q(decomp.anchored_states[:, side])
        q_nb = lattice.q(decomp.neighbor[:, side])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_lam = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, lam))[:, None]
        out_dei[:, side, :] = np.maximum(0.0, q_ut - (lattice.q_own - inv_lam * (Q_uv - Q_uu)))
        out_bnd[:, side, :] = np.maximum(0.0, q_ub - (q_nb + inv_lam * (Q_uv - Q_vv)))
    return {"face_inequality": out_dei, "boundary": out_bnd}


def cell_entropy_residuals(slab: Slab, state: SliceState, state_next: SliceState,
                           c_values: np.ndarray) -> np.ndarray:
    """Positive part of the per-cell entropy inequality, shape (m, nc)."""
    return _cell_residuals(state_next, _CheckLattice(slab, state.values, c_values))


def _cell_residuals(state_next, lattice: _CheckLattice, q_next=None) -> np.ndarray:
    """:func:`cell_entropy_residuals` on a prebuilt :class:`_CheckLattice`,
    with ``q_next = q(u_plus)`` if given."""
    total = lattice.q(state_next.values, q_next) - lattice.q_own
    for Q_uv, Q_uu, _ in lattice.sides:
        total = total + (Q_uv - Q_uu)
    return np.maximum(0.0, total)


# ---------------------------------------------------------------------------
# discrete boundary condition and smooth-pair numerical entropy fluxes
# ---------------------------------------------------------------------------

def _boundary_faces(slab: Slab) -> list[tuple[int, str, int, float]]:
    """(column, side name, vertical node index, ghost state) of the boundary faces."""
    if slab.periodic:
        return []
    left, right = slab.ghost_values()
    return [(0, "left", 0, left), (slab.m - 1, "right", slab.m, right)]


def _adaptive_gauss(f_vec: Callable, a: float, b: float, tol: float,
                    depth: int = 0, max_depth: int = 18) -> float:
    """Adaptive Gauss quadrature; ``f_vec`` evaluates arrays of points."""
    if b <= a:
        return 0.0
    (x10, w10), (x20, w20) = _GAUSS_10, _GAUSS_20
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    coarse = half * float(np.sum(w10 * f_vec(mid + half * x10)))
    fine = half * float(np.sum(w20 * f_vec(mid + half * x20)))
    if depth >= max_depth or abs(fine - coarse) <= tol * max(1.0, abs(fine)):
        return fine
    return (_adaptive_gauss(f_vec, a, mid, tol, depth + 1, max_depth)
            + _adaptive_gauss(f_vec, mid, b, tol, depth + 1, max_depth))


def smooth_entropy_numerical_flux(slab: Slab, column: int, side: str,
                                  pair: EntropyPair, u: float, v: float,
                                  tol: float = SIMPSON_TOL) -> float:
    """Numerical entropy flux for a smooth convex pair via Kruzkov superposition.

    Decomposes the pair into modulus entropies over the state hull (plus a
    linear part) and integrates the corresponding Kruzkov numerical fluxes
    against the second derivative; consistency with the anchored entropy
    total flux follows because the hull contains the zero state.  The
    parameter integral is split at the states and the face's critical
    points and refined adaptively across any remaining kinks.
    """
    lo, hi = slab.solver.u_range
    lo = min(lo, 0.0, u, v)
    hi = max(hi, 0.0, u, v)
    beta = 0.5 * (float(pair.du(lo)) + float(pair.du(hi)))
    base = float(slab.numerical_flux(column, side, u, v)) \
        - float(slab.signed_flux(column, side, 0.0)[0])

    def integrand(cv: np.ndarray) -> np.ndarray:
        cv = np.asarray(cv, dtype=float)
        qk = np.asarray(kruzkov_numerical_flux(slab, column, side, u, v, cv))
        anchor = _kruzkov(lambda w: slab.signed_flux(column, side, w), cv, 0.0)
        return 0.5 * pair.ddu(cv) * (qk - anchor)

    node = slab.right_idx[column] if side == "right" else slab.left_idx[column]
    crit = slab.vert.crit_w[node]
    splits = sorted({lo, hi, float(np.clip(u, lo, hi)), float(np.clip(v, lo, hi))}
                    | {float(w) for w in crit if np.isfinite(w) and lo < w < hi})
    total = 0.0
    for a, b in zip(splits[:-1], splits[1:]):
        total += _adaptive_gauss(integrand, a, b, tol)
    return beta * base + total


def _boundary_violation(slab: Slab, column: int, side: str, pair, u: float, b: float):
    """``U'(b) (Q(u, b) - Q(b, b)) - (Q_U(u, b) - Q_U(b, b))`` on a boundary face.

    ``b`` is the ghost state and ``Q_U`` the pair's numerical entropy flux.
    A :class:`KruzkovPair` whose ``c`` is an array gives one violation per
    entry, the whole check lattice in one call.
    """
    q_ub = float(slab.numerical_flux(column, side, u, b))
    q_bb = float(slab.numerical_flux(column, side, b, b))
    if isinstance(pair, KruzkovPair):
        qo_ub = kruzkov_numerical_flux(slab, column, side, u, b, pair.c)
        qo_bb = kruzkov_numerical_flux(slab, column, side, b, b, pair.c)
    else:
        qo_ub = smooth_entropy_numerical_flux(slab, column, side, pair, u, b)
        qo_bb = smooth_entropy_numerical_flux(slab, column, side, pair, b, b)
    return pair.du(b) * (q_ub - q_bb) - (qo_ub - qo_bb)


def check_discrete_boundary_condition(slab: Slab, column: int, side: str,
                                      pair, state: SliceState) -> float:
    """Residual of the discrete boundary condition on one boundary face.

    The entropy numerical flux difference must dominate the derivative-
    weighted plain flux difference; returns the positive part of the
    violation.
    """
    ghosts = slab.ghost_values()
    if ghosts is None:
        raise ValueError("discrete boundary condition applies to boundary faces only")
    b = ghosts[0] if side == "left" else ghosts[1]
    return max(0.0, float(_boundary_violation(slab, column, side, pair,
                                              float(state.values[column]), b)))


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
    return _dissipation_report(slab, decomp, state, state_next, pair,
                               SmoothFaceEntropy(pair, slab.table_plus).q_omega(state_next.values),
                               SmoothFaceEntropy(pair, slab.table_minus).q_omega(state.values))


def _dissipation_report(slab, decomp, state, state_next, pair, q_omega_plus, q_omega_minus):
    """:func:`global_dissipation_report` on prebuilt ``q_omega`` of both slices' states."""
    hull = slab.solver.u_range
    c_mod = pair.convexity_modulus((min(hull[0], 0.0), max(hull[1], 0.0)))

    coeff = (slab.table_plus.dq_min ** 2 / slab.table_plus.dq_max)[:, None]
    diss = float(np.sum(decomp.lam * coeff
                        * (decomp.face_states - state_next.values[:, None]) ** 2))

    boundary_sum = 0.0
    for column, side, _node, b in _boundary_faces(slab):
        boundary_sum += smooth_entropy_numerical_flux(
            slab, column, side, pair, float(state.values[column]), b)

    lhs = float(np.sum(q_omega_plus)) + c_mod * diss
    rhs = -boundary_sum + float(np.sum(q_omega_minus))
    slack = rhs - lhs

    square_like = abs(float(pair.u(0.0))) < 1e-14 and abs(float(pair.du(0.0))) < 1e-14
    slack_sq = None
    if square_like:
        # anchored convex pairs with vanishing slope at zero have q_omega >= 0
        slack_sq = rhs - c_mod * diss
    return DissipationReport(slab_index=slab.j, dissipation=diss, lhs_general=lhs,
                             rhs=rhs, slack_general=slack,
                             slack_square_variant=slack_sq)


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
        decomp = decomposition_states(slab, state)
        values = state.values
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
        for column, side, node, b in _boundary_faces(slab):
            psi_b = psi_vert[node]
            u_own = float(values[column])
            boundary += psi_b * float(kruzkov_numerical_flux(slab, column, side, u_own, b, c))
            q_omega_ghost = float(_kruzkov(lambda w: slab.signed_flux(column, side, w), c, b)[0])
            qd = float(slab.numerical_flux(column, side, u_own, b)
                       - slab.numerical_flux(column, side, b, b))
            boundary_variant += psi_b * (q_omega_ghost + float(pair.du(b)) * qd)

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

    The Kruzkov family is checked on the per-slab lattice (state hull
    endpoints, slab values and consecutive midpoints); the quadratic pair
    drives the dissipation estimate.  The default tolerance scales with
    the slab flux magnitude.
    """
    tri = result.tri
    solver = solver if solver is not None else Solver(
        tri, result.flux, result.spec, result.bd, result.cfg)

    flux_scale = max(float(np.max(np.abs(s.fluxes))) for s in result.states)
    tol = tol if tol is not None else 1e-9 * (1.0 + flux_scale)

    names = ["decomposition_identity", "bracketing", "face_inequality", "face_inequality_neighbor",
             "cell_inequality", "boundary_condition", "outflow_convexity_square",
             "conservation_identity", "dissipation_slack"]
    per_slab: dict[str, list[float]] = {n: [] for n in names}
    lattice_sizes = []
    square = square_pair()
    q_omega_minus = SmoothFaceEntropy(square, solver.slice_table(0)).q_omega(
        result.states[0].values)

    for j in range(tri.n_slabs):
        slab = solver.slab(j)
        state = result.states[j]
        state_next = result.states[j + 1]
        # q of both slices' states on the outflow table, each evaluated once
        q_own = slab.table_plus.q(state.values)
        q_next = slab.table_plus.q(state_next.values)
        decomp = decomposition_states(slab, state, q_own=q_own)
        c_vals = kruzkov_lattice(slab, state)
        lattice_sizes.append(int(c_vals.size))

        per_slab["decomposition_identity"].append(
            float(np.max(convex_decomposition_residual(slab, decomp, state_next, q_next))))
        per_slab["bracketing"].append(decomp.bracket_residual)

        lattice = _CheckLattice(slab, state.values, c_vals, q_own)
        face_res = _face_residuals(slab, decomp, lattice)
        per_slab["face_inequality"].append(float(np.max(face_res["face_inequality"])))
        per_slab["face_inequality_neighbor"].append(float(np.max(face_res["boundary"])))
        per_slab["cell_inequality"].append(
            float(np.max(_cell_residuals(state_next, lattice, q_next))))
        del lattice, face_res  # freed before the smooth-pair checks set the peak memory

        bc = 0.0
        for column, side, _node, b in _boundary_faces(slab):
            violation = _boundary_violation(slab, column, side, KruzkovPair(c_vals),
                                            float(state.values[column]), b)
            bc = max(bc, float(np.max(np.maximum(0.0, violation))))
        per_slab["boundary_condition"].append(bc)

        # q_omega(u_plus) serves convexity, dissipation and the next slab's inflow
        ent = SmoothFaceEntropy(square, slab.table_plus)
        q_omega_plus = ent.q_omega(state_next.values)
        per_slab["outflow_convexity_square"].append(float(np.max(
            _convexity_residual(decomp, q_omega_plus, ent.q_omega(decomp.face_states)))))

        per_slab["conservation_identity"].append(float(np.max(np.abs(q_next - state_next.fluxes))))

        rep = _dissipation_report(slab, decomp, state, state_next, square,
                                  q_omega_plus, q_omega_minus)
        q_omega_minus = q_omega_plus
        worst = max(0.0, -rep.slack_general)
        if rep.slack_square_variant is not None:
            worst = max(worst, -rep.slack_square_variant)
        per_slab["dissipation_slack"].append(worst)

    checks = []
    for name in names:
        series = per_slab[name]
        worst = max(series) if series else 0.0
        checks.append(CheckSummary(name=name, max_residual=float(worst), tol=tol,
                                   n_checked=len(series), passed=bool(worst <= tol)))
    return EntropyReport(checks=checks, per_slab=per_slab, tol=tol,
                         c_lattice_sizes=lattice_sizes)
