import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import capacity_field, constant_bd, counting_flux, densities, make_solver, step_bd

from spacetime_fvm import presets
from spacetime_fvm.entropy import (
    EntropyPair,
    KruzkovPair,
    SmoothFaceEntropy,
    TestFunction,
    adaptive_simpson,
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
    _cell_sides,
    _kruzkov,
)
from spacetime_fvm.forms import exterior_derivative
from spacetime_fvm.harness import boundary_driven_burgers_case, bump_test_function
from spacetime_fvm.mesh import (
    CircleDomain,
    Foliation,
    IntervalDomain,
    SpacelikeTable,
    build_triangulation,
)
from spacetime_fvm.scheme import BoundaryData, NumericalFluxSpec, Solver


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
        solver = burgers_shock_solver()
        state = solver.initial_state()
        state.values[:] = 0.6
        state.fluxes[:] = solver.slab(0).table_minus.q(state.values)
        solver_bd_backup = solver.bd
        solver.bd = constant_bd(0.6)
        slab = solver.slab(0)
        slab._ghosts = None
        dec = decomposition_states(slab, state)
        np.testing.assert_allclose(dec.face_states, 0.6, atol=1e-13)
        np.testing.assert_allclose(dec.anchored_states, 0.6, atol=1e-13)
        solver.bd = solver_bd_backup

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
            face = face_entropy_residuals(slab, decomp, state, c)
            oracle = _oracle_face_residuals(slab, decomp, state, c)
            for key in ("face_inequality", "boundary"):
                assert face[key].tobytes() == oracle[key].tobytes()
            assert cell_entropy_residuals(slab, state, state_next, c).tobytes() \
                == _oracle_cell_residuals(slab, state, state_next, c).tobytes()

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
        # the factored face arrays equal the ones cut at c state by state
        uL, uR = u_left[:, None], u_right[:, None]
        vert = slab.vert
        unfactored = _cell_sides(slab, _kruzkov(vert.Q, c, uL, uR), _kruzkov(vert.G, c, uL),
                                 _kruzkov(vert.G, c, uR))
        for arrays, expected in zip(_CheckLattice(slab, values, c).sides, unfactored):
            assert [a.tobytes() for a in arrays] == [e.tobytes() for e in expected]
        decomp = decomposition_states(slab, state)
        face = face_entropy_residuals(slab, decomp, state, c)
        oracle = _oracle_face_residuals(slab, decomp, state, c)
        for key in ("face_inequality", "boundary"):
            assert face[key].tobytes() == oracle[key].tobytes()
        assert cell_entropy_residuals(slab, state, state_next, c).tobytes() \
            == _oracle_cell_residuals(slab, state, state_next, c).tobytes()

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
        # Q is evaluated directly where c straddles a face's two states, and
        # where G(c) is a zero (Q(c, c) may carry the other sign there)
        u_left, u_right = slab.neighbor_states(state.values)
        lo, hi = np.minimum(u_left, u_right)[:, None], np.maximum(u_left, u_right)[:, None]
        g_zero = slab.vert.G(np.broadcast_to(c, (nv, c.size))) == 0.0
        direct = int(np.count_nonzero(((lo < c) & (c < hi)) | g_zero))
        assert 0 < direct < nv * c.size // 4
        calls.clear()
        face_entropy_residuals(slab, decomp, state, c)
        cell_entropy_residuals(slab, state, state_next, c)
        # per check: G at every (face, c); G(u_L), G(u_R) and Q(u_L, u_R)
        # (two G) per face; Q at both cuts (four G) per direct point
        assert sum(calls[("w", 0)]) == 2 * nq * (nv * c.size + 4 * nv + 4 * direct)
        # q at every (cell, c) per check; per cell q of the old state in
        # each, of the three face-check states per side and of u_plus
        assert sum(calls[("w", 1)]) == nq_s * (2 * m * c.size + 2 * m + 6 * m + m)


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

    def test_outflow_boundary_within_tolerance(self):
        solver = burgers_shock_solver(nx=12, t_final=0.35)
        result = solver.run()
        for j in range(result.tri.n_slabs):
            slab = solver.slab(j)
            for c in kruzkov_lattice(slab, result.states[j]):
                res = check_discrete_boundary_condition(
                    slab, slab.m - 1, "right", KruzkovPair(float(c)), result.states[j])
                assert res <= 1e-9


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

    def test_omega_form_anchored_and_consistent(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        pair = square_pair()
        omega = pair.omega_form(flux)
        pts = np.array([[0.0, 0.3], [0.1, 0.8]])
        # anchored at the zero state
        np.testing.assert_allclose(omega.base(0.0).evaluate((1,), pts), 0.0, atol=1e-14)
        # dx coefficient: integral of 2v dv = u^2; dt coefficient: -2u^3/3
        np.testing.assert_allclose(omega.base(0.5).evaluate((1,), pts), 0.25, atol=1e-11)
        np.testing.assert_allclose(omega.base(0.5).evaluate((0,), pts),
                                   -2 * 0.5**3 / 3, atol=1e-11)
        assert omega.check_du_consistency(pts, [0.2, -0.4], tol=1e-4) < 1e-4

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

    def test_adaptive_simpson_array_valued(self):
        out = adaptive_simpson(lambda v: np.array([v * v, np.sin(v)]), 0.0, 1.0, 1e-12,
                               shape=(2,))
        np.testing.assert_allclose(out, [1 / 3, 1 - np.cos(1.0)], atol=1e-10)
        assert adaptive_simpson(lambda v: v, 1.0, 0.0, 1e-12) == pytest.approx(-0.5)


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
