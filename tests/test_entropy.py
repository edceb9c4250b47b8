from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (block_ranges, capacity_field, constant_bd, counting_flux, densities,
                      make_solver, signed_flux, step_bd)

from spacetime_fvm import entropy, presets
from spacetime_fvm import scheme as scheme_module
from spacetime_fvm.entropy import (
    SMOOTH_PANEL_NODES,
    SMOOTH_PANELS,
    EntropyPair,
    KruzkovPair,
    SmoothFaceEntropy,
    TestFunction,
    boundary_bound_mass,
    cell_entropy_residuals,
    check_discrete_boundary_condition,
    contraction_check,
    convex_decomposition_residual,
    decomposition_states,
    entropy_total_flux,
    face_entropy_residuals,
    global_dissipation_report,
    global_entropy_inequality_report,
    identity_pair,
    kruzkov_form,
    kruzkov_lattice,
    kruzkov_numerical_flux,
    kruzkov_slice_distance,
    outflow_entropy_convexity_residual,
    smooth_entropy_numerical_flux,
    square_pair,
    verify_run,
    _CheckLattice,
    _one_slab_points,
    _cell_sides,
    _kruzkov,
    _plain_faces,
)
from spacetime_fvm.fluxfield import FluxField, RectangleDomain
from spacetime_fvm.forms import ParamForm, exterior_derivative, gauss_legendre
from spacetime_fvm.harness import (
    advection_circle_case,
    boundary_driven_burgers_case,
    bump_test_function,
)
from spacetime_fvm.mesh import (
    CircleDomain,
    Foliation,
    IntervalDomain,
    SpacelikeTable,
    build_triangulation,
)
from spacetime_fvm.scheme import BoundaryData, NumericalFluxSpec, Slab, SliceState, Solver


def burgers_shock_solver(nx=12, t_final=0.25, kind="godunov_osher"):
    flux = presets.burgers_flux((-1.2, 1.2))
    return make_solver(flux, IntervalDomain(0.0, 1.0), t_final,
                       step_bd(0.4, 1.0, 0.0), nx=nx, kind=kind, u_range=(0.0, 1.0))


def burgers_rarefaction_solver(nx=12, t_final=0.2, kind="godunov_osher"):
    flux = presets.burgers_flux((-1.5, 1.5))
    return make_solver(flux, IntervalDomain(0.0, 1.0), t_final,
                       step_bd(0.5, -0.5, 0.5), nx=nx, kind=kind, u_range=(-0.5, 0.5))


class TestEntropyTotalFlux:
    @staticmethod
    def _unit_face_table(flux=None, width=1.0, **kwargs):
        # one spacelike face [0, width] on the initial slice
        flux = flux if flux is not None else presets.burgers_flux((-2.0, 2.0))
        fol = Foliation(np.array([0.0, 0.1]), IntervalDomain(0.0, width))
        return SpacelikeTable(build_triangulation(fol, 1), flux, 0,
                              u_range=(-2.0, 2.0), **kwargs)

    def test_identity_pair_reduces_to_q(self):
        table = self._unit_face_table()
        for ub in (-1.0, 0.25, 1.5):
            assert entropy_total_flux(table, identity_pair(), [ub])[0] == \
                pytest.approx(table.q(np.array([ub]))[0], abs=1e-12)

    def test_kruzkov_modulus_on_unit_face(self):
        table = self._unit_face_table()  # q(u) = u
        c = 0.3
        for ub in (-1.0, 0.0, 0.7, 1.2):
            assert entropy_total_flux(table, KruzkovPair(c), [ub])[0] == \
                pytest.approx(abs(ub - c), abs=1e-13)

    def test_kruzkov_vanishes_at_parameter(self):
        table = self._unit_face_table()
        assert entropy_total_flux(table, KruzkovPair(0.4), [0.4])[0] == 0.0

    def test_square_pair_quadratic(self):
        table = self._unit_face_table()
        assert entropy_total_flux(table, square_pair(), [0.5])[0] == \
            pytest.approx(0.25, abs=1e-12)

    def test_smooth_pair_columns_are_independent(self):
        # one (m, K) evaluation equals K column evaluations bit for bit
        solver = burgers_rarefaction_solver(nx=8)
        table = solver.slab(0).table_plus
        w = np.linspace(-0.5, 0.5, 24).reshape(8, 3)
        ent = SmoothFaceEntropy(square_pair(), table)
        both = ent.q_omega(w)
        assert both.shape == w.shape
        for k in range(w.shape[1]):
            assert both[:, k].tobytes() == ent.q_omega(w[:, k]).tobytes()

    def test_total_entropy_flux_derivative_identity(self):
        # d/dq of (entropy total flux composed with the inverse of q) equals
        # the entropy derivative at the recovered state, by finite differences
        from spacetime_fvm.forms import gauss_legendre
        flux = presets.capacity_flux(lambda x: 2.0 + np.sin(x), lambda x: np.cos(x),
                                     lambda u: 0.0 * np.asarray(u),
                                     lambda u: 0.0 * np.asarray(u), (-2.0, 2.0))
        table = self._unit_face_table(flux, width=np.pi, rule=gauss_legendre(20, 1))
        pair = square_pair()
        h = 1e-5
        for qv in np.linspace(table.image_lo[0] * 0.5, table.image_hi[0] * 0.5, 7):
            hi = entropy_total_flux(table, pair, table.invert(np.array([qv + h])))[0]
            lo = entropy_total_flux(table, pair, table.invert(np.array([qv - h])))[0]
            assert (hi - lo) / (2 * h) == pytest.approx(
                float(pair.du(table.invert(np.array([qv]))[0])), abs=1e-6)


SMOOTH_TABLE_TOL = 1e-12   # relative gap of the cumulative table to the per-state rule


def _composite_q_omega(pair, table, w):
    """The per-state rule: ``SMOOTH_PANELS`` composite Gauss panels of
    ``SMOOTH_PANEL_NODES`` nodes on [0, w] for every state w, no table."""
    w = np.asarray(w, dtype=float)
    flat = w.reshape(w.shape[0], -1)
    m, k = flat.shape
    rule = gauss_legendre(SMOOTH_PANEL_NODES)
    edges = np.linspace(0.0, 1.0, SMOOTH_PANELS + 1)
    starts = edges[:-1][None, None, :, None] * flat[:, :, None, None]
    widths = (edges[1] - edges[0]) * flat[:, :, None, None]
    vn = (starts + rule.nodes[:, 0] * widths).reshape(m, k, -1)
    dq = table.dq(vn.reshape(m, -1)).reshape(vn.shape)
    vw = np.broadcast_to(rule.weights * widths, (m, k, SMOOTH_PANELS, rule.weights.size))
    return np.sum(vw.reshape(vn.shape) * pair.du(vn) * dq, axis=-1).reshape(w.shape)


def _cubic_capacity_flux(u_range):
    """``(1 + 0.3 x)(u + u^3 / 3) dx - u^2 / 2 dt``: a dq that reads u; no t."""
    coeffs = {(0,): lambda p, u: -0.5 * np.asarray(u) ** 2 + 0.0 * p[..., 0],
              (1,): lambda p, u: (1.0 + 0.3 * p[..., 1]) * (u + u ** 3 / 3.0)}
    du = {(0,): lambda p, u: -np.asarray(u) + 0.0 * p[..., 0],
          (1,): lambda p, u: (1.0 + 0.3 * p[..., 1]) * (1.0 + u * u)}
    return FluxField(ParamForm(1, 2, coeffs, du, u_range),
                     RectangleDomain((0.0, 0.0), (1.0, 1.0)), name="cubic", reads_t=False)


_SMOOTH_TABLE_CASES = {
    # (flux, domain, table u_range): dq summed at every state, or one column
    "burgers-undeclared": (replace(presets.burgers_flux((-1.5, 1.5)), u_free_du=frozenset()),
                           IntervalDomain(0.0, 1.0), (-0.5, 1.0)),
    "cubic": (_cubic_capacity_flux((-1.5, 1.5)), IntervalDomain(0.0, 1.0), (-0.7, 1.2)),
    "traveling-density": (presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), np.cos),
                          CircleDomain(2 * np.pi), (-0.4, 0.9)),
    "traveling-density-positive-hull": (
        presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), np.cos),
        CircleDomain(2 * np.pi), (0.2, 0.8)),
    "capacity": (capacity_field((lambda x: 1.5 + np.sin(3 * x), lambda x: 3 * np.cos(3 * x)),
                                (-1.2, 1.2)), IntervalDomain(0.0, 1.0), (-0.3, 1.0)),
    "capacity-negative-hull": (
        capacity_field((lambda x: 1.5 + np.sin(3 * x), lambda x: 3 * np.cos(3 * x)),
                       (-1.2, 1.2)), IntervalDomain(0.0, 1.0), (-0.8, -0.2)),
}


class TestSmoothEntropyTable:
    """``q_omega`` from one cumulative table per face against the per-state rule."""

    @pytest.mark.parametrize("case", list(_SMOOTH_TABLE_CASES))
    def test_agrees_with_per_state_rule(self, case):
        flux, domain, u_range = _SMOOTH_TABLE_CASES[case]
        tri = build_triangulation(Foliation(np.array([0.0, 0.1, 0.25]), domain), 12)
        lo, hi = u_range
        h = (max(hi, 0.0) - min(lo, 0.0)) / SMOOTH_PANELS
        w = np.random.default_rng(5).uniform(lo, hi, (12, 10))
        # 0, both hull ends, one panel width outside them, a negative state, NaN
        w[:, :6] = [0.0, lo, hi, lo - h, hi + h, -0.37 * h]
        w[4, 7] = np.nan
        pairs = (square_pair(), EntropyPair(np.exp, np.exp, name="exp", ddu_fn=np.exp))
        for j in (1, 2):
            table = SpacelikeTable(tri, flux, j, u_range=u_range)
            for pair in pairs:
                new = SmoothFaceEntropy(pair, table).q_omega(w)
                old = _composite_q_omega(pair, table, w)
                assert np.array_equal(np.isnan(new), np.isnan(w))
                ok = np.isnan(w) | (np.abs(new - old) <= SMOOTH_TABLE_TOL * np.maximum(1.0, np.abs(old)))
                assert ok.all(), case
                assert np.all(new[:, 0] == 0.0)       # anchored at the zero state

    def test_table_is_shared_across_slices_of_a_flux_without_t(self):
        flux, domain, u_range = _SMOOTH_TABLE_CASES["cubic"]
        tri = build_triangulation(Foliation(np.array([0.0, 0.1, 0.25]), domain), 12)
        table = SpacelikeTable(tri, flux, 1, u_range=u_range)
        w = np.random.default_rng(6).uniform(*u_range, (12, 3))
        first = SmoothFaceEntropy(square_pair(), table).q_omega(w)
        shared = table.on_slice(tri, 2)
        assert shared.derived is table.derived
        assert SmoothFaceEntropy(square_pair(), shared).q_omega(w).tobytes() == first.tobytes()
        fresh = SpacelikeTable(tri, flux, 2, u_range=u_range)
        assert SmoothFaceEntropy(square_pair(), fresh).q_omega(w).tobytes() == first.tobytes()

    @pytest.mark.parametrize("reads_t", [True, False], ids=["reads-t", "t-free"])
    def test_verify_builds_one_table_per_slice_or_per_run(self, reads_t, monkeypatch):
        # one table for slice 0 and one per block of three slabs (the last one
        # short) for a flux that reads t; one per run for one that does not,
        # which every block's tiled table reads
        solver = _traveling_density_solver() if reads_t else burgers_shock_solver(nx=8)
        assert solver.flux.reads_t is reads_t
        result = solver.run()
        monkeypatch.setattr(scheme_module, "BLOCK_ROWS", 3 * result.tri.n_columns)
        blocks, n = block_ranges(result.tri), result.tri.n_slabs
        assert n % 3 != 0 and len(blocks) == -(-n // 3) > 1
        tables = []
        init = SmoothFaceEntropy.__init__

        def recording(self, pair, table):
            init(self, pair, table)
            tables.append(self._cumulative)           # kept alive: ids stay distinct

        monkeypatch.setattr(SmoothFaceEntropy, "__init__", recording)
        assert verify_run(result).passed
        assert len(tables) == 1 + len(blocks)
        assert len({id(t) for t in tables}) == (1 + len(blocks) if reads_t else 1)


class TestKruzkovIdentity:
    @given(density=densities(), c=st.floats(-0.8, 1.2),
           u=st.lists(st.floats(-0.8, 1.2), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_equals_signed_difference_on_capacity_fields(self, density, c, u):
        flux = capacity_field(density, (-0.8, 1.2))
        tri = build_triangulation(Foliation(np.array([0.0, 0.5, 1.0]),
                                            IntervalDomain(0.0, 1.0)), 6)
        table = SpacelikeTable(tri, flux, 1, u_range=(-0.8, 1.2))
        u = np.asarray(u)
        expected = np.sign(u - c) * (table.q(u) - table.q(np.full_like(u, c)))
        assert np.array_equal(_kruzkov(table.q, c, u), expected)


class TestKruzkovNumericalFlux:
    def test_vanishes_at_coincident_parameter(self):
        slab = burgers_shock_solver().slab(0)
        for c in (-0.3, 0.0, 0.8):
            assert kruzkov_numerical_flux(slab, 1, "right", c, c, c) == \
                pytest.approx(0.0, abs=0)

    def test_lattice_identity_above_parameter(self):
        slab = burgers_shock_solver().slab(0)
        c = 0.1
        for u, v in ((0.2, 0.9), (0.5, 0.3), (0.1, 0.7)):
            direct = kruzkov_numerical_flux(slab, 1, "right", u, v, c)
            expected = slab.numerical_flux(1, "right", u, v) \
                - slab.numerical_flux(1, "right", c, c)
            assert direct == pytest.approx(float(expected), abs=1e-14)

    def test_burgers_transonic_cancellation(self):
        # dense Riemann oracle for each term: Q(1, 0) and Q(0, -1) are both
        # the maximum of the parabola over the respective intervals
        flux = presets.burgers_flux((-1.5, 1.5))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1,
                             constant_bd(0.0), nx=4, u_range=(-1.0, 1.0), hbar=0.1)
        slab = solver.slab(0)
        g = lambda w: 0.1 * w * w / 2  # noqa: E731
        q_10 = float(np.max(g(np.linspace(0, 1, 4001))))
        q_0m1 = float(np.max(g(np.linspace(-1, 0, 4001))))
        assert q_10 == pytest.approx(0.05) and q_0m1 == pytest.approx(0.05)
        value = kruzkov_numerical_flux(slab, 1, "right", 1.0, -1.0, 0.0)
        assert value == pytest.approx(q_10 - q_0m1, abs=1e-12)


class TestDecomposition:
    def test_equal_neighbors_collapse(self):
        # constant data: every neighbor and both ghosts equal the cell state
        solver = make_solver(presets.burgers_flux((-1.2, 1.2)), IntervalDomain(0.0, 1.0), 0.25,
                             constant_bd(0.6), nx=12, u_range=(0.0, 1.0))
        state = solver.initial_state()
        state.values[:] = 0.6
        state.fluxes[:] = solver.slab(0).table_minus.q(state.values)
        slab = solver.slab(0)
        np.testing.assert_allclose(slab.ghost_values(), 0.6, rtol=1e-15)
        dec = decomposition_states(slab, state)
        np.testing.assert_allclose(dec.face_states, 0.6, atol=1e-13)
        np.testing.assert_allclose(dec.anchored_states, 0.6, atol=1e-13)

    def test_convex_decomposition_identity(self):
        solver = burgers_shock_solver(nx=16)
        result = solver.run()
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            dec = decomposition_states(slab, result.states[j])
            res = convex_decomposition_residual(slab, dec, result.states[j + 1])
            assert float(np.max(res)) <= 1e-10

    def test_bracketing_invariant(self):
        solver = burgers_rarefaction_solver(nx=16)
        result = solver.run()
        for j in range(result.tri.n_slabs):
            dec = decomposition_states(solver.slab(j), result.states[j])
            assert dec.bracket_residual <= 1e-12

    def test_lambda_weights_sum_to_one(self):
        solver = burgers_shock_solver()
        dec = decomposition_states(solver.slab(0), solver.initial_state())
        np.testing.assert_allclose(np.sum(dec.lam, axis=1), 1.0, atol=1e-14)


class TestFaceInequalities:
    def test_constant_run_zero_residual(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=8, u_range=(0.4, 0.6))
        result = solver.run()
        slab = solver.slab(0)
        dec = decomposition_states(slab, result.states[0])
        res = face_entropy_residuals(slab, dec, result.states[0],
                                     kruzkov_lattice(slab, result.states[0]))
        assert float(np.max(res["face_inequality"])) <= 1e-12
        assert float(np.max(res["boundary"])) <= 1e-12

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_shock_run_within_tolerance(self, kind):
        solver = burgers_shock_solver(nx=16, kind=kind)
        result = solver.run()
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            dec = decomposition_states(slab, result.states[j])
            c_vals = kruzkov_lattice(slab, result.states[j])
            res = face_entropy_residuals(slab, dec, result.states[j], c_vals)
            assert float(np.max(res["face_inequality"])) <= 1e-9
            assert float(np.max(res["boundary"])) <= 1e-9

    def test_non_monotone_flux_flagged(self):
        # anti-dissipative flux with a mild speed so the run survives long
        # enough for the verifier to flag it
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.02,
                             step_bd(0.4, 0.9, 0.1), nx=12,
                             u_range=(0.0, 1.0))
        solver = Solver(solver.tri, flux,
                        NumericalFluxSpec("anti_diffusive", rusanov_speed=0.004),
                        solver.bd, solver.cfg)
        state = solver.initial_state()
        slab = solver.slab(0)
        dec = decomposition_states(slab, state)
        c_vals = kruzkov_lattice(slab, state)
        res = face_entropy_residuals(slab, dec, state, c_vals)
        assert float(np.max(res["face_inequality"])) > 1e-9


def _signed_q(slab, side, u, v):
    """Q_{K, e}(u, v) of every cell on one side, evaluated on that side's faces."""
    if side == 1:
        return slab.vert.Q(u, v, faces=slab.right_idx)
    return -slab.vert.Q(v, u, faces=slab.left_idx)


def _signed_g(slab, side, w):
    if side == 1:
        return slab.vert.G(w, faces=slab.right_idx)
    return -slab.vert.G(w, faces=slab.left_idx)


def _signed_kruzkov_q(slab, side, u, v, c):
    return _kruzkov(lambda a, b: _signed_q(slab, side, a, b), c, u[:, None], v[:, None])


def _oracle_neighbors(slab, values):
    u_left, u_right = slab.neighbor_states(values)
    nb = np.empty((slab.m, 2))
    nb[:, 0] = u_left[slab.left_idx]
    nb[:, 1] = u_right[slab.right_idx]
    return nb


def _oracle_deltas(slab, values):
    """(delta_q, delta_q_bar), each flux rebuilt once per cell side."""
    nb = _oracle_neighbors(slab, values)
    delta_q = np.empty((slab.m, 2))
    delta_q_bar = np.empty((slab.m, 2))
    for side in (0, 1):
        q_uv = _signed_q(slab, side, values, nb[:, side])
        delta_q[:, side] = q_uv - _signed_g(slab, side, values)
        delta_q_bar[:, side] = q_uv - _signed_g(slab, side, nb[:, side])
    return delta_q, delta_q_bar


def _oracle_face_residuals(slab, decomp, state, c):
    values = state.values
    q = slab.table_plus.q
    out = {"face_inequality": np.empty((slab.m, 2, c.size)),
           "boundary": np.empty((slab.m, 2, c.size))}
    q_own = _kruzkov(q, c, values[:, None])
    for side in (0, 1):
        nbv = decomp.neighbor[:, side]
        zero = decomp.lam_hat[:, side] <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_lam = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, decomp.lam[:, side]))[:, None]
        Q_uv = _signed_kruzkov_q(slab, side, values, nbv, c)
        Q_uu = _signed_kruzkov_q(slab, side, values, values, c)
        Q_vv = _signed_kruzkov_q(slab, side, nbv, nbv, c)
        q_ut = _kruzkov(q, c, decomp.face_states[:, side, None])
        q_ub = _kruzkov(q, c, decomp.anchored_states[:, side, None])
        q_nb = _kruzkov(q, c, nbv[:, None])
        out["face_inequality"][:, side, :] = np.maximum(
            0.0, q_ut - (q_own - inv_lam * (Q_uv - Q_uu)))
        out["boundary"][:, side, :] = np.maximum(0.0, q_ub - (q_nb + inv_lam * (Q_uv - Q_vv)))
    return out


def _oracle_cell_residuals(slab, state, state_next, c):
    values = state.values
    total = (_kruzkov(slab.table_plus.q, c, state_next.values[:, None])
             - _kruzkov(slab.table_plus.q, c, values[:, None]))
    nb = _oracle_neighbors(slab, values)
    for side in (0, 1):
        total = total + (_signed_kruzkov_q(slab, side, values, nb[:, side], c)
                         - _signed_kruzkov_q(slab, side, values, values, c))
    return np.maximum(0.0, total)


def _oracle_decomposition_states(slab, values, decomp):
    """Face and anchored states by one inversion per state family and side."""
    table, tol = slab.table_plus, slab.solver.cfg.inversion_tol
    zero = decomp.lam_hat <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(zero, 0.0, decomp.delta_q / np.where(zero, 1.0, decomp.lam))
        scaled_bar = np.where(zero, 0.0, decomp.delta_q_bar / np.where(zero, 1.0, decomp.lam))
    q_own, q_nb = table.q(values), table.q(decomp.neighbor)
    face, anchored = np.empty((slab.m, 2)), np.empty((slab.m, 2))
    for side in (0, 1):
        z = zero[:, side]
        face[:, side] = np.where(z, values, table.invert(
            np.where(z, table.image_lo, q_own - scaled[:, side]), tol=tol))
        anchored[:, side] = np.where(z, decomp.neighbor[:, side], table.invert(
            np.where(z, table.image_lo, q_nb[:, side] + scaled_bar[:, side]), tol=tol))
    return face, anchored


OFF_HULL_EPS = 64 * np.finfo(float).eps   # an off-hull entry is at most this times 1 + max |q|


def _face_rows(slab, decomp, values):
    """The states a cell's face inequalities read: u, both neighbours, face and anchored states."""
    return np.column_stack([values, _oracle_neighbors(slab, values), decomp.face_states,
                            decomp.anchored_states])


def _cell_rows(slab, values, values_next):
    """The states a cell's cell inequality reads: u, both neighbours and u_plus."""
    return np.column_stack([values, _oracle_neighbors(slab, values), values_next])


def _loop_pairs(rows, c):
    """(cells, cols) of each row's lattice points in its closed hull, row by row;
    a row with none keeps the first point at or above its low end, else the last."""
    cells, cols = [], []
    for i, row in enumerate(rows):
        lo, hi = np.min(row), np.max(row)
        inside = np.nonzero((lo <= c) & (c <= hi))[0].tolist()
        if not inside:
            above = np.nonzero(c >= lo)[0]
            inside = [int(above[0]) if above.size else c.size - 1]
        cells += [i] * len(inside)
        cols += inside
    return np.array(cells, dtype=np.intp), np.array(cols, dtype=np.intp)


def _off_hull_bound(*states):
    return OFF_HULL_EPS * (1.0 + max(float(np.max(np.abs(s.fluxes))) for s in states))


def _assert_local_on_oracle(local, oracle, rows, c, bound):
    """``local`` (..., n) holds ``oracle`` (m, ..., nc) at the pairs of ``rows`` bit
    for bit, in pair order; every oracle entry off the pairs is at most ``bound``."""
    cells, cols = _loop_pairs(rows, c)
    assert local.shape == oracle.shape[1:-1] + (cells.size,)
    at_pairs = np.moveaxis(oracle[cells, ..., cols], 0, -1)
    assert np.ascontiguousarray(at_pairs).tobytes() == local.tobytes()
    off = np.ones((oracle.shape[0], c.size), dtype=bool)
    off[cells, cols] = False
    assert np.all(np.moveaxis(oracle, -1, 1)[off] <= bound)
    assert np.max(local) <= np.max(oracle) <= np.max(local) + bound


def _half_still_solver():
    # u dx - b(x) u^2 / 2 dt with b = 0 on x <= 0.5: the vertical faces there
    # have G' = 0, so their lambda ratio is zero
    def b(p):
        return np.maximum(0.0, p[..., 1] - 0.5)

    coeffs = {(0,): lambda p, u: -0.5 * np.asarray(u) ** 2 * b(p),
              (1,): lambda p, u: np.asarray(u) + 0.0 * p[..., 0]}
    du = {(0,): lambda p, u: -np.asarray(u) * b(p),
          (1,): lambda p, u: 1.0 + 0.0 * (p[..., 0] + u)}
    flux = FluxField(ParamForm(1, 2, coeffs, du, (-1.2, 1.2)),
                     RectangleDomain((0.0, 0.0), (1.0, 1.0)), name="half-still", reads_t=False)
    return make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, step_bd(0.3, 0.9, 0.1), nx=12,
                       u_range=(0.0, 1.0))


def _direct_straddle_sides(slab, values, c):
    """:class:`_CheckLattice` sides with Q evaluated at both cuts of each
    straddle point (and zero of G(c)), and the number of those points."""
    vert = slab.vert
    u_left, u_right = slab.neighbor_states(values)
    g_c = vert.G(np.broadcast_to(c, (vert.n_faces, c.size)))
    lo, hi = np.minimum(u_left, u_right)[:, None], np.maximum(u_left, u_right)[:, None]
    q_lr = vert.Q(u_left, u_right)[:, None]
    k_q = np.where(c >= hi, g_c - q_lr, q_lr - g_c)
    faces, cols = np.nonzero(((lo < c) & (c < hi)) | (g_c == 0.0))
    k_q[faces, cols] = _kruzkov(lambda a, b: vert.Q(a, b, faces=faces),
                                c[cols], u_left[faces], u_right[faces])
    sides = _cell_sides(k_q, _kruzkov(vert.G, c, u_left[:, None]),
                        _kruzkov(vert.G, c, u_right[:, None]), slab.left_idx, slab.right_idx)
    return sides, faces.size


def _circle_burgers_solver(kind="godunov_osher"):
    flux = presets.burgers_flux((-1.5, 1.5))
    bd = BoundaryData(u=lambda p: 0.6 * np.sin(2 * np.pi * p[..., 1]) + 0.1)
    return make_solver(flux, CircleDomain(1.0), 0.15, bd, nx=12, kind=kind,
                       u_range=(-0.8, 0.8))


def _traveling_density_solver():
    # the advection benchmark's flux and data on a coarse circle
    flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s))
    bd = BoundaryData(u=lambda p: 0.5 + 0.25 * np.sin(p[..., 1] + 1.0))
    return make_solver(flux, CircleDomain(2.0 * np.pi), 0.3, bd, nx=12)


def _capacity_solver():
    flux = capacity_field((lambda x: 1.5 + np.sin(3.0 * x), lambda x: 3.0 * np.cos(3.0 * x)),
                          (-1.2, 1.2))
    return make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, step_bd(0.45, 0.9, -0.1),
                       nx=12, u_range=(-0.2, 1.0))


def _anti_diffusive_solver():
    # a mild anti-diffusive speed survives a short run
    flux = presets.burgers_flux((-1.2, 1.2))
    base = make_solver(flux, IntervalDomain(0.0, 1.0), 0.02, step_bd(0.4, 0.9, 0.1),
                       nx=12, u_range=(0.0, 1.0))
    return Solver(base.tri, flux, NumericalFluxSpec("anti_diffusive", rusanov_speed=0.004),
                  base.bd, base.cfg)


def _boundary_driven_solver():
    result = boundary_driven_burgers_case(t_final=0.2).run(12)
    return Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)


class TestFaceArrays:
    """Each vertical-face flux is built once and read by both cells beside it.

    The oracle rebuilds every flux once per cell side, as the per-cell
    formulas read; both layouts must agree bit for bit.
    """

    @pytest.mark.parametrize("make", [
        lambda: burgers_shock_solver(nx=12, kind="godunov_osher"),
        lambda: burgers_shock_solver(nx=12, kind="rusanov"),
        _circle_burgers_solver,
        _boundary_driven_solver,
        _traveling_density_solver,
        _capacity_solver,
        _anti_diffusive_solver,
    ], ids=["interval-godunov", "interval-rusanov", "circle", "boundary-driven",
            "traveling-density-circle", "capacity", "anti-diffusive"])
    def test_equal_to_per_cell_side_oracle(self, make):
        solver = make()
        result = solver.run()
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            state, state_next = result.states[j], result.states[j + 1]
            decomp = decomposition_states(slab, state)
            delta_q, delta_q_bar = _oracle_deltas(slab, state.values)
            assert decomp.delta_q.tobytes() == delta_q.tobytes()
            assert decomp.delta_q_bar.tobytes() == delta_q_bar.tobytes()
            assert decomp.neighbor.tobytes() == _oracle_neighbors(slab, state.values).tobytes()
            c = kruzkov_lattice(slab, state)
            bound = _off_hull_bound(state, state_next)
            face = face_entropy_residuals(slab, decomp, state, c)
            oracle = _oracle_face_residuals(slab, decomp, state, c)
            for key in ("face_inequality", "boundary"):
                _assert_local_on_oracle(face[key], oracle[key],
                                        _face_rows(slab, decomp, state.values), c, bound)
            _assert_local_on_oracle(cell_entropy_residuals(slab, state, state_next, c),
                                    _oracle_cell_residuals(slab, state, state_next, c),
                                    _cell_rows(slab, state.values, state_next.values), c, bound)

    def test_decomposition_states_equal_per_column_inversions(self):
        # one (m, 4) inversion per slab against four calls, one per family and side
        zeros = 0
        for make in (lambda: burgers_shock_solver(nx=12), _boundary_driven_solver,
                     _traveling_density_solver, _capacity_solver, _half_still_solver):
            solver = make()
            result = solver.run()
            for j in range(result.tri.n_slabs):
                slab, state = solver.slab(j), result.states[j]
                decomp = decomposition_states(slab, state)
                face, anchored = _oracle_decomposition_states(slab, state.values, decomp)
                zeros += int(np.count_nonzero(decomp.lam_hat <= 0.0))
                q = slab.table_plus.q
                for got, expected in ((decomp.face_states, face),
                                      (decomp.anchored_states, anchored),
                                      (decomp.q_face_states, q(face)),
                                      (decomp.q_anchored_states, q(anchored))):
                    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
        assert zeros > 0                              # faces with a zero lambda ratio occur

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_straddle_q_equals_direct_q(self, kind):
        # Burgers on a circle with states on both sides of the sonic point:
        # Godunov faces carry a critical point inside the straddle brackets
        solver = _circle_burgers_solver(kind)
        result = solver.run()
        straddles = local_straddles = 0
        for j in range(result.tri.n_slabs):
            slab, state = solver.slab(j), result.states[j]
            values = state.values
            c = kruzkov_lattice(slab, state)
            expected, direct = _direct_straddle_sides(slab, values, c)
            straddles += direct
            # rows spanning the lattice: every cell holds every point, in the full layout
            plain = _plain_faces(slab, values)
            spanning = (np.broadcast_to(c[[0, -1]], (slab.m, 2)),)
            full = _CheckLattice.in_hulls(slab, values, _one_slab_points(c), spanning,
                                          plain)
            for arrays, oracle in zip(full.sides, expected):
                assert [a.reshape(slab.m, c.size).tobytes() for a in arrays] \
                    == [e.tobytes() for e in oracle]
            # the face check's own rows: the same entries at its pairs
            decomp = decomposition_states(slab, state)
            local = _CheckLattice.in_hulls(slab, values, _one_slab_points(c),
                                           (decomp.face_states, decomp.anchored_states), plain)
            cells, cols = _loop_pairs(_face_rows(slab, decomp, values), c)
            assert local.cells.tobytes() == cells.tobytes()
            assert local.c.tobytes() == c[cols].tobytes()
            for arrays, oracle in zip(local.sides, expected):
                assert [a.tobytes() for a in arrays] == [e[cells, cols].tobytes() for e in oracle]
            u_left, u_right = slab.neighbor_states(values)
            for idx in (slab.left_idx, slab.right_idx):
                lo = np.minimum(u_left, u_right)[idx[cells]]
                hi = np.maximum(u_left, u_right)[idx[cells]]
                local_straddles += int(np.count_nonzero((lo < local.c) & (local.c < hi)))
        assert straddles > 0 and local_straddles > 0
        if kind == "godunov_osher":
            assert np.isfinite(solver.slab(0).vert.crit_w).any()

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov", "anti_diffusive"])
    def test_ties_equal_per_cell_side_oracle(self, kind):
        # step data: states 1 and 0 on most cells, so most faces have
        # u_L == u_R; c repeats states and ghosts exactly, lies below and
        # above every state, is unsorted and has duplicates; G(0) is -0.0,
        # which the anti-diffusive Q(0, 0) rounds to +0.0
        flux = presets.burgers_flux((-2.0, 2.0))
        base = make_solver(flux, IntervalDomain(0.0, 1.0), 0.05, step_bd(0.4, 1.0, 0.0),
                           nx=12, u_range=(-0.5, 1.5))
        solver = Solver(base.tri, flux, NumericalFluxSpec(kind), base.bd, base.cfg)
        slab = solver.slab(0)
        state = solver.initial_state()
        state_next = slab.step(state)
        values = state.values
        u_left, u_right = slab.neighbor_states(values)
        assert np.sum(u_left == u_right) >= 8 and 0.0 < values[4] < 1.0
        c = np.array([0.5, 1.0, values[4], -0.7, 0.0, 1.3, 1.0, values[4], 0.0, -0.7, 0.25])
        cs = np.unique(c)     # the lattice the checks read
        # the factored face arrays equal the ones cut at c state by state, at
        # every (cell, c) when the rows span the lattice
        uL, uR = u_left[:, None], u_right[:, None]
        vert = slab.vert
        unfactored = _cell_sides(_kruzkov(vert.Q, cs, uL, uR), _kruzkov(vert.G, cs, uL),
                                 _kruzkov(vert.G, cs, uR), slab.left_idx, slab.right_idx)
        full = _CheckLattice.in_hulls(slab, values, _one_slab_points(c),
                                      (np.broadcast_to([-0.7, 1.3], (slab.m, 2)),),
                                      _plain_faces(slab, values))
        for arrays, expected in zip(full.sides, unfactored):
            assert [a.reshape(slab.m, cs.size).tobytes() for a in arrays] \
                == [e.tobytes() for e in expected]
        decomp = decomposition_states(slab, state)
        bound = _off_hull_bound(state, state_next)
        face = face_entropy_residuals(slab, decomp, state, c)
        oracle = _oracle_face_residuals(slab, decomp, state, cs)
        for key in ("face_inequality", "boundary"):
            _assert_local_on_oracle(face[key], oracle[key], _face_rows(slab, decomp, values),
                                    cs, bound)
        _assert_local_on_oracle(cell_entropy_residuals(slab, state, state_next, c),
                                _oracle_cell_residuals(slab, state, state_next, cs),
                                _cell_rows(slab, values, state_next.values), cs, bound)

    @pytest.mark.parametrize("domain", [IntervalDomain(0.0, 1.0), CircleDomain(1.0)],
                             ids=["interval", "circle"])
    def test_face_and_cell_checks_evaluate_each_face_lattice_once(self, domain):
        flux, calls = counting_flux(presets.burgers_flux((-1.5, 1.5)))
        bd = BoundaryData(u=lambda p: 0.5 + 0.3 * np.sin(2 * np.pi * p[..., 1]))
        solver = make_solver(flux, domain, 0.05, bd, nx=10, u_range=(-1.0, 1.0))
        result = solver.run()
        slab = solver.slab(1)
        state, state_next = result.states[1], result.states[2]
        decomp = decomposition_states(slab, state)
        c = kruzkov_lattice(slab, state)
        nv, nq = slab.vert.pts.shape[:2]
        m, nq_s = slab.table_plus.pts.shape[:2]
        # Q is cut state by state where c straddles a face's two states, and
        # where G(c) is a zero (Q(c, c) may carry the other sign there)
        u_left, u_right = slab.neighbor_states(state.values)
        lo, hi = np.minimum(u_left, u_right)[:, None], np.maximum(u_left, u_right)[:, None]
        g_zero = slab.vert.G(np.broadcast_to(c, (nv, c.size))) == 0.0
        direct = int(np.count_nonzero(((lo < c) & (c < hi)) | g_zero))
        assert 0 < direct < nv * c.size // 4
        n_face = _loop_pairs(_face_rows(slab, decomp, state.values), c)[0].size
        n_cell = _loop_pairs(_cell_rows(slab, state.values, state_next.values), c)[0].size
        assert 2 * m <= n_face + n_cell < m * c.size   # the full layout had 2 m nc pairs
        calls.clear()
        face_entropy_residuals(slab, decomp, state, c)
        cell_entropy_residuals(slab, state, state_next, c)
        # per check: G(c) at both faces of each pair's cell and G(u_L), G(u_R)
        # per face; Q(u_L, u_R) and Q at both cuts of a direct point combine
        # those G values
        assert sum(calls[("w", 0)]) == nq * (2 * (n_face + n_cell) + 2 * 2 * nv)
        # q(c) at each pair's cell; per cell q of the old state in each check,
        # of the three face-check states per side and of u_plus
        assert sum(calls[("w", 1)]) == nq_s * (n_face + n_cell + 2 * m + 6 * m + m)


@cache
def _step_solver(kind):
    """Burgers step data on 8 cells, ghosts 1 and 0, slab height admissible on [-0.5, 1.5]."""
    flux = presets.burgers_flux((-2.0, 2.0))
    base = make_solver(flux, IntervalDomain(0.0, 1.0), 0.05, step_bd(0.4, 1.0, 0.0),
                       nx=8, u_range=(-0.5, 1.5))
    return Solver(base.tri, flux, NumericalFluxSpec(kind), base.bd, base.cfg)


class TestLocalLattice:
    """The face and cell checks read each cell only at the lattice points in its state hull."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["godunov_osher", "rusanov"]), data=st.data())
    def test_local_entries_are_the_full_lattice_at_the_hull_pairs(self, kind, data):
        # states with ties, at the u_range ends, at the ghosts and at lattice
        # points; c unsorted with duplicates
        solver = _step_solver(kind)
        slab = solver.slab(0)
        pool = [-0.5, 1.5, 0.0, 1.0, 0.25, 0.5]
        values = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(pool), st.floats(-0.5, 1.5)), min_size=8, max_size=8)))
        table = slab.table_minus
        state = SliceState(0, table.face_ids, values, table.q(values))
        state_next = slab.step(state)
        c = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(pool + values.tolist()), st.floats(-1.0, 2.0)),
            min_size=1, max_size=12)))
        c = np.concatenate([c, c[:data.draw(st.integers(0, c.size))]])
        c = c[data.draw(st.permutations(range(c.size)))]
        cs = np.unique(c)
        decomp = decomposition_states(slab, state)
        face_rows = _face_rows(slab, decomp, values)
        cell_rows = _cell_rows(slab, values, state_next.values)
        plain = _plain_faces(slab, values)
        for extra, rows in (((decomp.face_states, decomp.anchored_states), face_rows),
                            ((state_next.values,), cell_rows)):
            lattice = _CheckLattice.in_hulls(slab, values, _one_slab_points(c), extra,
                                             plain)
            cells, cols = _loop_pairs(rows, cs)
            assert lattice.cells.tobytes() == cells.tobytes()
            assert lattice.c.tobytes() == cs[cols].tobytes()
        bound = _off_hull_bound(state, state_next)
        face = face_entropy_residuals(slab, decomp, state, c)
        oracle = _oracle_face_residuals(slab, decomp, state, cs)
        for key in ("face_inequality", "boundary"):
            _assert_local_on_oracle(face[key], oracle[key], face_rows, cs, bound)
        _assert_local_on_oracle(cell_entropy_residuals(slab, state, state_next, c),
                                _oracle_cell_residuals(slab, state, state_next, cs),
                                cell_rows, cs, bound)

    def test_pairs_per_cell_stay_bounded_as_the_lattice_grows(self):
        for nx in (40, 80, 160):
            result = advection_circle_case().run(nx)
            solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
            pairs = lattice = 0
            for j in range(result.tri.n_slabs):
                slab, state = solver.slab(j), result.states[j]
                c = kruzkov_lattice(slab, state)
                decomp = decomposition_states(slab, state)
                lattice += c.size
                pairs += _loop_pairs(_face_rows(slab, decomp, state.values), c)[0].size
                pairs += _loop_pairs(_cell_rows(slab, state.values,
                                                result.states[j + 1].values), c)[0].size
            per_check = result.tri.n_slabs * nx
            assert 1.5 * nx <= lattice / result.tri.n_slabs <= 2.5 * nx   # nc ~ 2m
            assert pairs / (2 * per_check) <= 12.0

    def test_nan_u_plus_gives_a_nan_cell_residual_and_fails_the_report(self):
        result = boundary_driven_burgers_case(t_final=0.2).run(12)
        solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
        j = result.tri.n_slabs - 1
        last = result.states[-1]
        values = last.values.copy()
        values[5] = np.nan
        bad = replace(result, states=result.states[:-1]
                      + [SliceState(last.slice_index, last.face_ids, values, last.fluxes)])
        slab, state = solver.slab(j), bad.states[j]
        res = cell_entropy_residuals(slab, state, bad.states[-1], kruzkov_lattice(slab, state))
        assert np.isnan(np.max(res))
        report = verify_run(bad)
        assert np.isnan(report.per_slab["cell_inequality"][j])
        assert np.isnan(report.per_slab["dissipation_slack"][j])
        check = next(c for c in report.checks if c.name == "cell_inequality")
        assert np.isnan(check.max_residual) and not check.passed and not report.passed

    def test_nan_face_state_gives_a_nan_face_residual_and_fails_the_report(self, monkeypatch):
        result = boundary_driven_burgers_case(t_final=0.2).run(12)
        solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
        slab, state = solver.slab(2), result.states[2]
        decomp = decomposition_states(slab, state)
        decomp.face_states[4, 0] = np.nan
        res = face_entropy_residuals(slab, decomp, state, kruzkov_lattice(slab, state))
        assert np.isnan(np.max(res["face_inequality"]))

        decompose = entropy._decompose

        def nan_face_state(block, *args):
            # cell 4 of slab 2 in the block that holds it; q of a NaN state is NaN
            out = decompose(block, *args)
            if block.j <= 2 < block.j + block.n:
                row = (2 - block.j) * block.m + 4
                out.face_states[row, 0] = out.q_face_states[row, 0] = np.nan
            return out

        monkeypatch.setattr(entropy, "_decompose", nan_face_state)
        report = verify_run(result)
        assert np.isnan(report.per_slab["face_inequality"][2])
        check = next(c for c in report.checks if c.name == "face_inequality")
        assert np.isnan(check.max_residual) and not check.passed and not report.passed

    def test_nan_anchored_state_gives_a_nan_bracketing_residual(self, monkeypatch):
        # the decomposition's inversion leaves cell 4 of slab 2 a NaN anchored
        # state on side 1 and finite face states: the bracketing residual of
        # slab 2 takes the larger of the two families' maxima, and a NaN in
        # either stays
        result = boundary_driven_burgers_case(t_final=0.2).run(12)
        invert = SpacelikeTable.invert

        def nan_anchored_state(table, values, tol=1e-12):
            out = invert(table, values, tol)
            rows = np.flatnonzero(table.pts[:, 0, 0] == result.tri.times[3])   # slab 2's outflow
            if values.ndim == 2 and rows.size:
                out[rows[4], 3] = np.nan
            return out

        monkeypatch.setattr(SpacelikeTable, "invert", nan_anchored_state)
        report = verify_run(result)
        bracketing = report.per_slab["bracketing"]
        assert np.isnan(bracketing[2]) and not np.isnan(np.delete(bracketing, 2)).any()
        check = next(c for c in report.checks if c.name == "bracketing")
        assert np.isnan(check.max_residual) and not check.passed and not report.passed

    @pytest.mark.parametrize("make", [_boundary_driven_solver, _circle_burgers_solver],
                             ids=["interval", "circle"])
    def test_public_checks_give_verify_runs_per_slab_series(self, make):
        solver = make()
        result = solver.run()
        report = verify_run(result)
        for j in range(result.tri.n_slabs):
            slab, state, state_next = solver.slab(j), result.states[j], result.states[j + 1]
            c = kruzkov_lattice(slab, state)
            face = face_entropy_residuals(slab, decomposition_states(slab, state), state, c)
            assert float(np.max(face["face_inequality"])) == report.per_slab["face_inequality"][j]
            assert float(np.max(face["boundary"])) == report.per_slab["face_inequality_neighbor"][j]
            assert float(np.max(cell_entropy_residuals(slab, state, state_next, c))) \
                == report.per_slab["cell_inequality"][j]

    def test_verify_evaluates_the_plain_face_fluxes_once_per_slab(self):
        # a circle has no boundary terms, so G is evaluated only by the plain
        # face arrays and at the pairs of the one lattice the face and cell
        # checks share: per cell, its points from the first to the last pair
        # of either check
        base = _traveling_density_solver()
        flux, calls = counting_flux(base.flux)
        solver = Solver(base.tri, flux, base.spec, base.bd, base.cfg)
        result = solver.run()
        nv, nq = solver.slab(0).vert.pts.shape[:2]
        expected = 0
        for j in range(result.tri.n_slabs):
            slab, state = solver.slab(j), result.states[j]
            c = kruzkov_lattice(slab, state)
            face = _loop_pairs(_face_rows(slab, decomposition_states(slab, state), state.values), c)
            cell = _loop_pairs(_cell_rows(slab, state.values, result.states[j + 1].values), c)
            cells, cols = (np.concatenate(a) for a in zip(face, cell))
            first, last = np.full(slab.m, c.size), np.full(slab.m, -1)
            np.minimum.at(first, cells, cols)
            np.maximum.at(last, cells, cols)
            expected += nq * (2 * nv + 2 * int(np.sum(last - first + 1)))
        calls.clear()
        verify_run(result, solver=solver)
        assert sum(calls[("w", 0)]) == expected


class TestCellInequality:
    def test_constant_zero(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=6, u_range=(0.4, 0.6))
        result = solver.run()
        res = cell_entropy_residuals(solver.slab(0), result.states[0], result.states[1],
                                     np.array([0.45, 0.5, 0.55]))
        assert float(np.max(res)) <= 1e-12

    def test_rarefaction_within_tolerance(self):
        solver = burgers_rarefaction_solver(nx=16)
        result = solver.run()
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            c_vals = kruzkov_lattice(slab, result.states[j])
            res = cell_entropy_residuals(slab, result.states[j], result.states[j + 1],
                                         c_vals)
            assert float(np.max(res)) <= 1e-9

    def test_parameter_outside_hull_degenerates_to_conservation(self):
        # with the parameter below every state the lattice operations are
        # trivial and the inequality collapses to the conservation identity
        solver = burgers_shock_solver(nx=10)
        result = solver.run()
        slab = solver.slab(0)
        res = cell_entropy_residuals(slab, result.states[0], result.states[1],
                                     np.array([-5.0]))
        assert float(np.max(res)) <= 1e-11


class TestDiscreteBoundaryCondition:
    def test_ghost_equal_state_zero(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.05, constant_bd(0.7),
                             nx=6, u_range=(0.6, 0.8))
        state = solver.initial_state()
        for pair in (KruzkovPair(0.65), square_pair()):
            res = check_discrete_boundary_condition(solver.slab(0), 0, "left",
                                                    pair, state)
            assert res <= 1e-12

    def test_linear_entropy_equality(self):
        # for the identity entropy both sides of the boundary condition agree
        solver = burgers_shock_solver(nx=10)
        state = solver.initial_state()
        slab = solver.slab(0)
        ghosts = slab.ghost_values()
        for column, side, b in ((0, "left", ghosts[0]), (slab.m - 1, "right", ghosts[1])):
            pair = identity_pair()
            lhs = float(pair.du(b)) * (slab.numerical_flux(column, side,
                                                           float(state.values[column]), b)
                                       - slab.numerical_flux(column, side, b, b))
            rhs = smooth_entropy_numerical_flux(slab, column, side, pair,
                                                float(state.values[column]), b) \
                - smooth_entropy_numerical_flux(slab, column, side, pair, b, b)
            assert lhs == pytest.approx(rhs, abs=1e-11)
            assert check_discrete_boundary_condition(slab, column, side, pair,
                                                     state) <= 1e-11

    def test_interior_face_rejected(self):
        solver = burgers_shock_solver(nx=10)
        state = solver.initial_state()
        for column, side in ((1, "left"), (0, "right"), (9, "left")):
            with pytest.raises(ValueError, match="boundary faces only"):
                check_discrete_boundary_condition(solver.slab(0), column, side,
                                                  KruzkovPair(0.5), state)

    def test_outflow_boundary_within_tolerance(self):
        solver = burgers_shock_solver(nx=12, t_final=0.35)
        result = solver.run()
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            for c in kruzkov_lattice(slab, result.states[j]):
                res = check_discrete_boundary_condition(
                    slab, slab.m - 1, "right", KruzkovPair(float(c)), result.states[j])
                assert res <= 1e-9


def _reference_smooth_flux(slab, column, side, pair, u, v, extra=(), zero=True, panels=64):
    """:func:`smooth_entropy_numerical_flux` by the scalar path: the Kruzkov
    superposition integrand from ``kruzkov_numerical_flux`` and ``conftest.signed_flux``
    on ``panels`` composite 20-point Gauss panels per piece.  The pieces end at the
    hull ends, the states, the face's critical points, ``extra`` and, with ``zero``, 0."""
    lo, hi = slab.solver.u_range
    lo, hi = min(lo, 0.0, u, v), max(hi, 0.0, u, v)
    beta = 0.5 * (float(pair.du(lo)) + float(pair.du(hi)))
    base = float(slab.numerical_flux(column, side, u, v)) \
        - float(signed_flux(slab, column, side, 0.0)[0])
    crit = slab.vert.crit_w[slab.right_idx[column] if side == "right" else slab.left_idx[column]]
    ends = {lo, hi, u, v, *extra} | {float(w) for w in crit if lo < w < hi} \
        | ({0.0} if zero else set())
    splits = np.array(sorted(ends))
    edges = np.concatenate([np.linspace(a, b, panels + 1)[:-1]
                            for a, b in zip(splits[:-1], splits[1:])] + [splits[-1:]])
    rule = gauss_legendre(20)
    widths = np.diff(edges)[:, None]
    c = (edges[:-1, None] + widths * rule.nodes[:, 0]).ravel()
    qk = np.asarray(kruzkov_numerical_flux(slab, column, side, u, v, c))
    anchor = _kruzkov(lambda w: signed_flux(slab, column, side, w), c, 0.0)
    integrand = (0.5 * pair.ddu(c) * (qk - anchor)).reshape(widths.size, -1)
    return beta * base + float(np.sum(widths * np.sum(rule.weights * integrand, axis=1)[:, None]))


_EXP_PAIR = EntropyPair(np.exp, np.exp, name="exp", ddu_fn=np.exp)


class TestSmoothBoundaryFlux:
    """The array superposition against the scalar integrand on fine composite rules."""

    @pytest.mark.parametrize("flux", [
        presets.linear_advection_flux(1.0, (-1.5, 1.5)),
        presets.flat_flux(lambda u: 0.5 * (np.asarray(u) - 0.3) ** 2,
                          lambda u: np.asarray(u) - 0.3, (-1.5, 1.5)),
    ], ids=["advection", "shifted-burgers"])
    def test_zero_split_matches_composite_reference(self, flux):
        # G'(0) != 0 and 0 is no critical point: the anchor G(0 v c) - G(0 ^ c)
        # has its kink at 0, inside the hull, between boundary states
        bd = BoundaryData(u=lambda p: 0.6 * np.sin(2 * np.pi * (p[..., 1] - 0.7 * p[..., 0])) + 0.1)
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.3, bd, nx=30, u_range=(-0.5, 0.7))
        result = solver.run()
        err = miss = 0.0
        states = []
        for j in range(result.tri.n_slabs):
            slab, values = solver.slab(j), result.states[j].values
            assert not np.any(slab.vert.crit_w == 0.0)
            for (column, side), b in zip(((0, "left"), (slab.m - 1, "right")),
                                         slab.ghost_values()):
                u = float(values[column])
                states += [u, b]
                for w, pair in ((u, square_pair()), (b, square_pair()), (u, _EXP_PAIR)):
                    ref = _reference_smooth_flux(slab, column, side, pair, w, b)
                    err = max(err, abs(smooth_entropy_numerical_flux(slab, column, side,
                                                                     pair, w, b) - ref))
                    miss = max(miss, abs(_reference_smooth_flux(slab, column, side, pair, w, b,
                                                                zero=False, panels=1) - ref))
        assert min(states) < 0.0 < max(states)
        assert err <= 1e-14
        assert miss > 1e-7          # the same pieces without the split at 0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_transonic_godunov_face_splits_at_flux_crossings(self, side):
        # a Burgers shock from 0.9 to -0.2: for -0.2 < c < 0.9, Q(c, -0.2) =
        # max(G(c), G(-0.2)) switches its end at c = 0.2
        solver = make_solver(presets.burgers_flux((-1.5, 1.5)), IntervalDomain(0.0, 1.0), 0.1,
                             constant_bd(0.0), nx=8, u_range=(-1.0, 1.0))
        slab = solver.slab(0)
        column = 0 if side == "left" else slab.m - 1
        own, nb = (-0.2, 0.9) if side == "left" else (0.9, -0.2)
        for pair in (square_pair(), _EXP_PAIR):
            ref = _reference_smooth_flux(slab, column, side, pair, own, nb, extra=(0.2,))
            new = smooth_entropy_numerical_flux(slab, column, side, pair, own, nb)
            assert abs(new - ref) <= 1e-14
            without = _reference_smooth_flux(slab, column, side, pair, own, nb, panels=1)
            assert abs(without - ref) > 1e-8


class TestDissipation:
    def test_constant_run_balances(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=8, u_range=(0.4, 0.6))
        result = solver.run()
        slab = solver.slab(0)
        dec = decomposition_states(slab, result.states[0])
        rep = global_dissipation_report(slab, dec, result.states[0], result.states[1])
        assert rep.dissipation == pytest.approx(0.0, abs=1e-13)
        assert abs(rep.slack_general) <= 1e-10

    def test_shock_dissipates(self):
        solver = burgers_shock_solver(nx=16)
        result = solver.run()
        slab = solver.slab(3)
        dec = decomposition_states(slab, result.states[3])
        rep = global_dissipation_report(slab, dec, result.states[3], result.states[4])
        assert rep.dissipation > 1e-8           # quadratic jump content
        assert rep.slack_general >= -1e-9       # bounded by the right side
        assert rep.slack_square_variant >= -1e-9

    def test_circle_domain_has_no_boundary_sum(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        bd = BoundaryData(u=lambda p: 0.5 * np.sin(2 * np.pi * p[..., 1]))
        solver = make_solver(flux, CircleDomain(1.0), 0.1, bd, nx=12,
                             u_range=(-0.6, 0.6))
        result = solver.run()
        slab = solver.slab(0)
        dec = decomposition_states(slab, result.states[0])
        rep = global_dissipation_report(slab, dec, result.states[0], result.states[1])
        # right side is purely the incoming slice content
        ent = SmoothFaceEntropy(square_pair(), slab.table_minus)
        assert rep.rhs == pytest.approx(float(np.sum(ent.q_omega(result.states[0].values))),
                                        abs=1e-13)
        assert rep.slack_general >= -1e-9


class TestConvdecFluxLemma:
    @pytest.mark.parametrize("make_pair", [lambda: square_pair(),
                                           lambda: KruzkovPair(0.25)])
    def test_outflow_entropy_convexity(self, make_pair):
        solver = burgers_shock_solver(nx=12)
        result = solver.run()
        for j in range(0, result.tri.n_slabs, 3):
            slab = solver.slab(j)
            dec = decomposition_states(slab, result.states[j])
            res = outflow_entropy_convexity_residual(slab, dec, result.states[j + 1], make_pair())
            assert float(np.max(res)) <= 1e-9


class TestHFunctionBracketing:
    def test_lattice_inequalities_on_samples(self):
        solver = burgers_shock_solver(nx=8)
        state = solver.initial_state()
        slab = solver.slab(0)
        dec = decomposition_states(slab, state)
        rng = np.random.default_rng(2)
        column, side_name, side = 3, "right", 1

        def h_fn(u, v):
            lam = dec.lam[column, side]
            q_plus = slab.table_plus.q(np.full(slab.m, u))[column]
            return float(q_plus) - (slab.numerical_flux(column, side_name, u, v)
                                         - slab.numerical_flux(column, side_name, u, u)) / lam

        for u, v, c in rng.uniform(0.0, 1.0, size=(30, 3)):
            up = h_fn(max(u, c), max(v, c))
            dn = h_fn(min(u, c), min(v, c))
            mid = h_fn(u, v)
            ref = h_fn(c, c)
            assert max(mid, ref) <= up + 1e-11
            assert min(mid, ref) >= dn - 1e-11


class TestGlobalInequality:
    def test_zero_test_function(self):
        solver = burgers_shock_solver(nx=8, t_final=0.1)
        result = solver.run()
        psi = TestFunction(fn=lambda p: np.zeros(p.shape[:-1]),
                           grad=lambda p: np.zeros(p.shape))
        rep = global_entropy_inequality_report(result, psi, KruzkovPair(0.2),
                                               solver=solver)
        for term in (rep.lhs, rep.A, rep.B, rep.C, rep.D, rep.E):
            assert term == pytest.approx(0.0, abs=0)

    def test_constant_test_function_kills_average_terms(self):
        solver = burgers_shock_solver(nx=8, t_final=0.1)
        result = solver.run()
        psi = TestFunction(fn=lambda p: np.ones(p.shape[:-1]),
                           grad=lambda p: np.zeros(p.shape))
        rep = global_entropy_inequality_report(result, psi, KruzkovPair(0.2),
                                               validate_support=False, solver=solver)
        assert rep.A == 0.0 and rep.B == 0.0 and rep.C == 0.0 and rep.E == 0.0
        assert rep.D == pytest.approx(0.0, abs=1e-12)   # the decomposition identity
        assert rep.satisfied

    def test_smooth_bump_terms_shrink_under_refinement(self):
        psi = bump_test_function(0.1, 0.45, 0.09, 0.25)
        totals = []
        for nx in (10, 20):
            solver = burgers_shock_solver(nx=nx, t_final=0.25)
            result = solver.run()
            rep = global_entropy_inequality_report(result, psi, KruzkovPair(0.3),
                                                   solver=solver)
            assert rep.satisfied
            totals.append(rep.remainder_total)
        assert totals[1] < totals[0]

    def test_support_validation(self):
        solver = burgers_shock_solver(nx=8, t_final=0.1)
        result = solver.run()
        psi = TestFunction(fn=lambda p: np.ones(p.shape[:-1]))
        with pytest.raises(ValueError):
            global_entropy_inequality_report(result, psi, KruzkovPair(0.0), solver=solver)


class TestContraction:
    def _circle_runs(self, nx=16, t_final=0.25):
        flux = presets.burgers_flux((-1.5, 1.5))
        dom = CircleDomain(1.0)
        bd_u = BoundaryData(u=lambda p: 0.7 * np.sin(2 * np.pi * p[..., 1]))
        bd_v = BoundaryData(u=lambda p: 0.4 * np.cos(2 * np.pi * p[..., 1]) + 0.1)
        su = make_solver(flux, dom, t_final, bd_u, nx=nx, u_range=(-0.8, 0.8))
        sv = Solver(su.tri, flux, su.spec, bd_v, su.cfg)
        return su.run(), sv.run()

    def test_identical_runs_zero_distance(self):
        ru, _ = self._circle_runs(nx=10, t_final=0.1)
        rep = contraction_check(ru, ru)
        np.testing.assert_allclose(rep.distances, 0.0, atol=0)
        assert rep.passed

    def test_circle_distance_non_increasing(self):
        ru, rv = self._circle_runs()
        rep = contraction_check(ru, rv)
        assert rep.max_slack <= 1e-9
        assert np.all(rep.budgets == 0.0)
        assert rep.distances[-1] <= rep.distances[0]

    def test_interval_with_boundary_budget(self):
        flux = presets.burgers_flux((-1.5, 1.5))
        dom = IntervalDomain(0.0, 1.0)
        bd_u = BoundaryData(u=lambda p: 0.6 + 0.3 * np.sin(2 * np.pi * (p[..., 1]
                                                                        - p[..., 0])))
        bd_v = BoundaryData(u=lambda p: 0.4 + 0.2 * np.cos(3 * p[..., 0] + p[..., 1]))
        su = make_solver(flux, dom, 0.25, bd_u, nx=16, u_range=(-1.0, 1.0))
        sv = Solver(su.tri, flux, su.spec, bd_v, su.cfg)
        rep = contraction_check(su.run(), sv.run())
        assert rep.max_slack <= 1e-9
        assert np.any(rep.budgets > 0.0)

    def test_slice_distance_positive(self):
        ru, rv = self._circle_runs(nx=10, t_final=0.1)
        for j in (0, 1, len(ru.states) - 1):
            assert kruzkov_slice_distance(ru, rv, j) >= 0.0

    @staticmethod
    def _assert_rejected_both_ways(ru, rv):
        for a, b in ((ru, rv), (rv, ru)):
            with pytest.raises(ValueError, match="both runs on the same triangulation"):
                contraction_check(a, b)

    def test_mismatched_meshes_rejected(self):
        ru, _ = self._circle_runs(nx=10, t_final=0.1)
        flux = presets.burgers_flux((-1.5, 1.5))
        other = make_solver(flux, CircleDomain(1.0), 0.1,
                            BoundaryData(u=lambda p: 0.1 + 0.0 * p[..., 1]),
                            nx=12, u_range=(-0.8, 0.8)).run()
        self._assert_rejected_both_ways(ru, other)

    def test_equal_columns_on_different_slabs_rejected(self):
        # the inflow speed sets the slab height: 26 and 21 slabs over 12 columns
        ra = boundary_driven_burgers_case(u_inflow=0.9, t_final=0.3).run(12)
        rb = boundary_driven_burgers_case(u_inflow=0.7, t_final=0.3).run(12)
        assert ra.tri.n_columns == rb.tri.n_columns
        assert ra.tri.n_slabs != rb.tri.n_slabs
        self._assert_rejected_both_ways(ra, rb)

    def test_equal_shapes_with_different_slice_times_rejected(self):
        ru, rv = self._circle_runs(nx=10, t_final=0.1)
        times = ru.tri.times.copy()
        times[1:-1] += 0.25 * (times[2] - times[1])
        tri = build_triangulation(Foliation(times, ru.tri.domain), ru.tri.breakpoints)
        moved = Solver(tri, rv.flux, rv.spec, rv.bd, rv.cfg).run()
        assert moved.tri.n_slabs == ru.tri.n_slabs
        self._assert_rejected_both_ways(ru, moved)

    def test_shifted_interior_slice_time_rejected(self):
        # a mesh is one mesh bit for bit; 5e-9 is inside a default allclose
        ru, rv = self._circle_runs(nx=10, t_final=0.1)
        times = ru.tri.times.copy()
        times[2] += 5e-9
        tri = build_triangulation(Foliation(times, ru.tri.domain), ru.tri.breakpoints)
        moved = Solver(tri, rv.flux, rv.spec, rv.bd, rv.cfg).run()
        self._assert_rejected_both_ways(ru, moved)

    def test_slice_distance_on_different_meshes_rejected(self):
        # 26 and 21 slabs: slice 20 sits at t = 0.2308 in one run, 0.2857 in the other
        ra = boundary_driven_burgers_case(u_inflow=0.9, t_final=0.3).run(12)
        rb = boundary_driven_burgers_case(u_inflow=0.7, t_final=0.3).run(12)
        with pytest.raises(ValueError, match="both runs on the same triangulation"):
            kruzkov_slice_distance(ra, rb, 20)

    def test_boundary_bound_dominates_flux_derivative(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        times = burgers_shock_solver(nx=8).tri.times
        mass = boundary_bound_mass(flux, times[0], times[1], 0.0, (0.0, 1.0))
        # |d(dt-component)/du| = |u| <= 1 on the hull; 5 percent inflation
        assert mass == pytest.approx(1.05 * 1.0 * (times[1] - times[0]), rel=1e-12)


class TestEntropyPairs:
    def test_square_pair_properties(self):
        pair = square_pair()
        pair.validate((-1.0, 1.0))
        assert pair.convexity_modulus((-1.0, 1.0)) == pytest.approx(1.0)
        assert pair.admissible_bound((-1.0, 1.0)) == pytest.approx(2.0)

    def test_non_convex_rejected(self):
        bad = EntropyPair(lambda w: -w * w, lambda w: -2.0 * w, name="concave")
        with pytest.raises(ValueError):
            bad.validate((-1.0, 1.0))

    def test_kruzkov_form_keeps_analytic_partials(self):
        # the traveling-density family is closed, so with analytic partials
        # the top coefficient of d(Omega) cancels exactly
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s),
                                              u_range=(-1.5, 1.5))
        pts = np.array([[0.1, 0.3], [0.2, 1.7], [0.05, 4.0]])
        for ubar, c in ((0.2, 0.7), (0.7, 0.2)):
            top = exterior_derivative(kruzkov_form(flux, ubar, c)).evaluate((0, 1), pts)
            assert np.max(np.abs(top)) <= 1e-14

    def test_kruzkov_flux_vanishes_at_equal_states(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        form = kruzkov_form(flux, 0.4, 0.4)
        pts = np.array([[0.0, 0.5]])
        np.testing.assert_allclose(form.evaluate((0,), pts), 0.0, atol=0)
        np.testing.assert_allclose(form.evaluate((1,), pts), 0.0, atol=0)


class TestVerifyRun:
    def test_full_verifier_on_boundary_driven_run(self):
        from spacetime_fvm.harness import boundary_driven_burgers_case
        case = boundary_driven_burgers_case(t_final=0.3)
        result = case.run(10)
        report = verify_run(result)
        assert report.passed
        names = {c.name for c in report.checks}
        assert {"decomposition_identity", "face_inequality", "cell_inequality", "dissipation_slack",
                "boundary_condition", "conservation_identity"} <= names

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_meaningless_tolerance_is_rejected(self, tol):
        result = boundary_driven_burgers_case(t_final=0.2).run(12)
        with pytest.raises(ValueError, match=f"finite and non-negative, got {tol!r}"):
            verify_run(result, tol=tol)

    @pytest.mark.parametrize("tol", [None, 1e-9], ids=["default-tol", "given-tol"])
    def test_nan_slice_flux_fails_wherever_it_sits(self, tol):
        # slice 0's fluxes are checked by slab 0's conservation identity, and
        # the default tolerance reads finite fluxes only
        result = boundary_driven_burgers_case(t_final=0.2).run(12)
        clean = verify_run(result, tol=tol)
        assert clean.passed
        for j in (0, 3):
            state = result.states[j]
            fluxes = state.fluxes.copy()
            fluxes[5] = np.nan
            states = list(result.states)
            states[j] = SliceState(state.slice_index, state.face_ids, state.values, fluxes)
            report = verify_run(replace(result, states=states), tol=tol)
            assert np.isnan(report.per_slab["conservation_identity"][max(j - 1, 0)])
            assert not report.passed
            assert report.tol == clean.tol and np.isfinite(report.tol)

    def test_boundary_condition_is_the_single_pair_check_over_the_lattice(self):
        result = boundary_driven_burgers_case(t_final=0.3).run(10)
        solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)
        report = verify_run(result, solver=solver)
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            state = result.states[j]
            worst = max(check_discrete_boundary_condition(slab, column, side,
                                                          KruzkovPair(float(c)), state)
                        for c in kruzkov_lattice(slab, state)
                        for column, side in ((0, "left"), (slab.m - 1, "right")))
            assert report.per_slab["boundary_condition"][j] == worst

    def test_verifier_makes_no_scalar_numerical_flux_call(self, monkeypatch):
        result = boundary_driven_burgers_case(t_final=0.2).run(12)
        solver = Solver(result.tri, result.flux, result.spec, result.bd, result.cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("scalar numerical-flux path")

        monkeypatch.setattr(Slab, "numerical_flux", refuse)
        monkeypatch.setattr(entropy, "kruzkov_numerical_flux", refuse)
        report = verify_run(result, solver=solver)
        assert report.passed
        for j in range(result.tri.n_slabs):
            slab, state = solver.slab(j), result.states[j]
            lattice = KruzkovPair(kruzkov_lattice(slab, state))
            faces = ((0, "left"), (slab.m - 1, "right"))
            assert max(check_discrete_boundary_condition(slab, column, side, lattice, state)
                       for column, side in faces) == report.per_slab["boundary_condition"][j]
            for column, side in faces:
                assert check_discrete_boundary_condition(slab, column, side, square_pair(),
                                                         state) <= report.tol
        psi = bump_test_function(0.05, 0.5, 0.04, 0.3)
        assert global_entropy_inequality_report(result, psi, KruzkovPair(0.5),
                                                solver=solver).satisfied

    def test_warm_verify_computes_no_gauss_rule(self, monkeypatch):
        result = boundary_driven_burgers_case(t_final=0.3).run(10)
        verify_run(result)
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        verify_run(result)
        assert calls == []

    def test_report_serialization_roundtrip(self):
        import json
        solver = burgers_shock_solver(nx=8, t_final=0.1)
        result = solver.run()
        report = verify_run(result, solver=solver)
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        rows = list(report.residual_rows())
        assert len(rows) == sum(len(v) for v in report.per_slab.values())
