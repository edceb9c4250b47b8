import gc
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_ranges,
    classical_godunov_step,
    constant_bd,
    counting_flux,
    flux_fields,
    make_solver,
    signed_flux,
    step_bd,
)

from spacetime_fvm import entropy as entropy_module
from spacetime_fvm import presets
from spacetime_fvm import scheme as scheme_module
from spacetime_fvm.config import load_config, parse_config
from spacetime_fvm.entropy import (
    SMOOTH_PANEL_NODES,
    SMOOTH_PANELS,
    KruzkovPair,
    SmoothFaceEntropy,
    global_entropy_inequality_report,
    square_pair,
    verify_run,
)
from spacetime_fvm.fluxfield import FluxField, NotSpacelikeError
from spacetime_fvm.forms import ParamForm, gauss_legendre
from spacetime_fvm.harness import CharacteristicsLinear, bump_test_function, l1_error
from spacetime_fvm.mesh import (
    CircleDomain,
    ConvergenceError,
    Foliation,
    IntervalDomain,
    SpacelikeTable,
    ValueOutsideImage,
    _weighted_sum,
    build_triangulation,
    segment_nodes,
    uniform_times,
)
from spacetime_fvm.scheme import (
    CFL_LIMIT,
    BoundaryData,
    CFLViolation,
    DegenerateFluxError,
    NumericalFluxSpec,
    RunConfig,
    SliceState,
    Solver,
    VerticalFluxes,
    _face_means,
    data_hull,
    initial_slice_state,
    select_timestep,
)


@pytest.fixture
def burgers_slab():
    flux = presets.burgers_flux((-1.2, 1.2))
    solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                         nx=4, u_range=(-1.0, 1.0), hbar=0.1)
    return solver.slab(0)


class TestVerticalSignedFlux:
    def test_flat_burgers_right_face(self, burgers_slab):
        # dt component is -u^2/2; the right face oriented outward integrates
        # to +duration * u^2 / 2
        assert signed_flux(burgers_slab, 0, "right", 1.0)[0] == pytest.approx(0.05)

    def test_flat_burgers_left_face(self, burgers_slab):
        assert signed_flux(burgers_slab, 0, "left", 1.0)[0] == pytest.approx(-0.05)

    def test_traveling_density_antiderivative(self):
        # g(u) = u * int phi(x_e - t) dt with phi = 2 + sin: the antiderivative
        # of sin(x - t) in t is cos(x - t)
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
        t0, t1 = 0.0, 0.125
        solver = make_solver(flux, CircleDomain(2 * np.pi), t1, constant_bd(0.3),
                             nx=4, u_range=(-1.0, 1.0), hbar=t1)
        slab = solver.slab(0)
        x_e = float(slab.vert.x_nodes[slab.right_idx[0]])
        ub = 0.7
        expected = ub * (2.0 * (t1 - t0) + (np.cos(x_e - t1) - np.cos(x_e - t0)))
        assert signed_flux(slab, 0, "right", ub)[0] == pytest.approx(expected, rel=1e-12)


class TestNumericalFlux:
    def test_godunov_against_dense_riemann_oracle(self, burgers_slab):
        # independent oracle: dense scan of g over the Riemann interval
        g = lambda w: 0.1 * w**2 / 2  # noqa: E731
        w = np.linspace(-1.0, 1.0, 20001)
        assert float(np.max(g(w))) == pytest.approx(0.05)
        assert burgers_slab.numerical_flux(0, "right", 1.0, -1.0) == pytest.approx(0.05)
        # interior minimum through the sonic point; the oracle resolves the
        # minimum to its scan granularity only
        w2 = np.linspace(-0.4, 0.8, 20001)
        assert burgers_slab.numerical_flux(0, "right", -0.4, 0.8) == \
            pytest.approx(float(np.min(g(w2))), abs=1e-9)

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_consistency(self, kind):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=4, kind=kind, u_range=(-1.0, 1.0), hbar=0.1)
        slab = solver.slab(0)
        for ub in (-0.8, 0.0, 0.3, 1.0):
            assert slab.numerical_flux(1, "right", ub, ub) == \
                pytest.approx(float(signed_flux(slab, 1, "right", ub)[0]), abs=1e-14)
            assert slab.numerical_flux(1, "left", ub, ub) == \
                pytest.approx(float(signed_flux(slab, 1, "left", ub)[0]), abs=1e-14)

    def test_rusanov_formula(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=4, kind="rusanov", u_range=(-1.0, 1.0), hbar=0.1)
        solver = Solver(solver.tri, flux, NumericalFluxSpec("rusanov", rusanov_speed=0.1),
                        solver.bd, solver.cfg)
        q = solver.slab(0).numerical_flux(0, "right", 0.0, 1.0)
        assert q == pytest.approx(0.5 * (0.0 + 0.05) - 0.5 * 0.1 * 1.0)

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_conservation_across_face(self, kind):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=4, kind=kind, u_range=(-1.0, 1.0), hbar=0.1)
        slab = solver.slab(0)
        rng = np.random.default_rng(3)
        for ub, vb in rng.uniform(-1, 1, size=(25, 2)):
            lhs = slab.numerical_flux(0, "right", ub, vb)   # cell 0's right face
            rhs = slab.numerical_flux(1, "left", vb, ub)    # cell 1 sees the same face
            assert lhs == pytest.approx(-rhs, abs=1e-14)

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_monotonicity_by_finite_differences(self, kind):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=4, kind=kind, u_range=(-1.0, 1.0), hbar=0.1)
        slab = solver.slab(0)
        rng = np.random.default_rng(11)
        delta = 1e-6
        uv = rng.uniform(-0.9, 0.9, size=(200, 2))
        for ub, vb in uv:
            dqu = (slab.numerical_flux(0, "right", ub + delta, vb)
                   - slab.numerical_flux(0, "right", ub - delta, vb)) / (2 * delta)
            dqv = (slab.numerical_flux(0, "right", ub, vb + delta)
                   - slab.numerical_flux(0, "right", ub, vb - delta)) / (2 * delta)
            assert dqu >= -1e-7
            assert dqv <= 1e-7

    def test_anti_diffusive_violates_monotonicity(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1, constant_bd(0.5),
                             nx=4, kind="anti_diffusive", u_range=(-1.0, 1.0), hbar=0.1)
        slab = solver.slab(0)
        delta = 1e-6
        dqv = (slab.numerical_flux(0, "right", 0.1, 0.2 + delta)
               - slab.numerical_flux(0, "right", 0.1, 0.2 - delta)) / (2 * delta)
        assert dqv > 1e-3  # wrong sign on purpose


FIELD_U_RANGE = (-0.8, 1.2)
FD_STEP = 1e-6
# central differences of Q with step 1e-6: rounding of Q values of size < 1
# contributes ~1e-10, and Q is piecewise quadratic in each argument here
FD_SLACK = 1e-8


def _field_vertical_fluxes(flux, kind):
    """Vertical flux table of the slab [0.1, 0.15] over six cells of [0, 1]."""
    return VerticalFluxes(np.linspace(0.0, 1.0, 7), 0.1, 0.15, flux, NumericalFluxSpec(kind),
                          gauss_legendre(5, 1), FIELD_U_RANGE)


@pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
class TestNumericalFluxProperties:
    """The numerical flux axioms on random capacity and traveling-density fields."""

    @given(flux=flux_fields(FIELD_U_RANGE),
           u=st.lists(st.floats(*FIELD_U_RANGE), min_size=7, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_consistency_bit_for_bit(self, kind, flux, u):
        vert = _field_vertical_fluxes(flux, kind)
        u = np.asarray(u)
        assert np.array_equal(vert.Q(u, u), vert.G(u))

    @given(flux=flux_fields(FIELD_U_RANGE),
           grid=st.lists(st.floats(*FIELD_U_RANGE), min_size=2, max_size=16),
           other=st.floats(*FIELD_U_RANGE))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_argument(self, kind, flux, grid, other):
        vert = _field_vertical_fluxes(flux, kind)
        grid = np.broadcast_to(np.sort(grid), (vert.n_faces, len(grid)))
        fixed = np.full_like(grid, other)
        q_own = vert.Q(grid, fixed)          # nondecreasing along the grid
        q_neighbor = vert.Q(fixed, grid)     # nonincreasing along the grid
        for q, sign in ((q_own, 1.0), (q_neighbor, -1.0)):
            # a step between neighbouring floats may round either way
            slack = 8 * np.finfo(float).eps * np.max(np.abs(q), axis=1, keepdims=True)
            assert np.all(sign * np.diff(q, axis=1) >= -slack)

    @given(flux=flux_fields(FIELD_U_RANGE),
           uv=st.lists(st.tuples(st.floats(FIELD_U_RANGE[0] + FD_STEP, FIELD_U_RANGE[1] - FD_STEP),
                                 st.floats(FIELD_U_RANGE[0] + FD_STEP, FIELD_U_RANGE[1] - FD_STEP)),
                       min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_difference_quotients_below_lipschitz_sup(self, kind, flux, uv):
        vert = _field_vertical_fluxes(flux, kind)
        u, v = (np.broadcast_to(np.asarray(c), (vert.n_faces, len(uv))) for c in zip(*uv))
        dqu = (vert.Q(u + FD_STEP, v) - vert.Q(u - FD_STEP, v)) / (2 * FD_STEP)
        dqv = (vert.Q(u, v + FD_STEP) - vert.Q(u, v - FD_STEP)) / (2 * FD_STEP)
        assert np.all(dqu - dqv <= vert.lipschitz_sup()[:, None] + FD_SLACK)

    @given(flux=flux_fields(FIELD_U_RANGE), left=st.floats(*FIELD_U_RANGE),
           right=st.floats(*FIELD_U_RANGE), x_jump=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_maximum_principle_on_riemann_data(self, kind, flux, left, right, x_jump):
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.05,
                             step_bd(x_jump, left, right), nx=10, kind=kind)
        result = solver.run()
        values = np.concatenate([state.values for state in result.states])
        # the update is monotone under the CFL bound and keeps constants, so
        # states leave the data's range only by rounding
        assert np.all(values >= min(left, right) - 1e-12)
        assert np.all(values <= max(left, right) + 1e-12)

    @given(flux=flux_fields(FIELD_U_RANGE),
           values=st.lists(st.floats(*FIELD_U_RANGE), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_exact_conservation_on_circle(self, kind, flux, values):
        solver = make_solver(flux, CircleDomain(1.0), 0.1, constant_bd(0.5), nx=8,
                             kind=kind, u_range=FIELD_U_RANGE, hbar=0.05)
        slab = solver.slab(0)
        values = np.asarray(values)
        state = SliceState(0, slab.table_minus.face_ids, values, slab.table_minus.q(values))
        rhs = slab.rhs(state)
        face_fluxes = slab.face_fluxes(values)
        # the face fluxes telescope; each of the m terms and partial sums
        # rounds at most twice
        bound = 2 * len(values) * np.finfo(float).eps * (
            np.sum(np.abs(state.fluxes)) + 2 * np.sum(np.abs(face_fluxes)))
        assert abs(np.sum(rhs) - np.sum(state.fluxes)) <= bound


class TestBoundaryGhostValue:
    @staticmethod
    def _ghost(bd, t0=0.0, height=1.0, x=0.0, rule=None):
        """alpha_B-weighted mean of u_B over the boundary face {x} x [t0, t0 + height]."""
        rule = rule if rule is not None else gauss_legendre(5, 1)
        return float(_face_means(bd, *segment_nodes(rule, 0, x, t0, height), str))

    def test_constant_data(self):
        assert self._ghost(constant_bd(0.7)) == pytest.approx(0.7)

    def test_linear_data_unweighted(self):
        bd = BoundaryData(u=lambda p: p[..., 0])
        assert self._ghost(bd) == pytest.approx(0.5)

    def test_linear_data_weighted(self):
        bd = BoundaryData(u=lambda p: p[..., 0], alpha_density=lambda p: 2.0 * p[..., 0])
        # int t * 2t dt / int 2t dt on [0, 1] = (2/3) / 1
        assert self._ghost(bd) == pytest.approx(2.0 / 3.0)

    def test_nonpositive_mass_rejected(self):
        bd = BoundaryData(u=lambda p: p[..., 0], alpha_density=lambda p: 0.0 * p[..., 0])
        with pytest.raises(ValueError, match="alpha_B mass must be positive"):
            self._ghost(bd)

    @pytest.mark.parametrize("points", [5, 12])
    def test_slab_ghosts_equal_face_means_bit_for_bit(self, points):
        # one u_B call for every slab gives each slab the bits of its own
        # boundary faces, placed by the slab's nominal height also where the
        # exact uniform heights differ by rounding
        bd = BoundaryData(u=lambda p: np.sin(5.0 * p[..., 0]) + p[..., 1],
                          alpha_density=lambda p: 1.5 + np.cos(3.0 * p[..., 0]))
        solver = make_solver(presets.burgers_flux((-1.5, 2.5)), IntervalDomain(0.0, 1.0),
                             0.3, bd, nx=5, u_range=(-1.0, 2.0), quadrature_points=points)
        times, heights, xs = solver.tri.times, solver.tri.heights, solver.tri.breakpoints
        assert np.unique(np.diff(times)).size > 1 == np.unique(heights).size
        for j in range(solver.tri.n_slabs):
            expected = tuple(self._ghost(bd, float(times[j]), float(heights[j]),
                                         float(xs[i]), solver.rule) for i in (0, 5))
            slab = solver.slab(j)
            assert slab.ghost_values() == expected
            # the per-slab oracle: the means on the slab's own vertical nodes
            means = _face_means(bd, slab.vert.pts[[0, -1]], slab.vert.weights, str)
            assert expected == (float(means[0]), float(means[1]))

    @pytest.mark.parametrize("nx", [8, 32])
    def test_ghosts_of_a_run_cost_one_u_b_call(self, nx):
        calls = []

        def u_b(p):
            calls.append(p.shape)
            return 0.5 + 0.4 * np.sin(3.0 * p[..., 0]) * np.cos(2.0 * p[..., 1])

        bd = BoundaryData(u=u_b)
        solver = make_solver(presets.burgers_flux((-1.5, 1.5)), IntervalDomain(0.0, 1.0),
                             0.2, bd, nx=nx, u_range=(-1.0, 1.0))
        calls.clear()                                   # the data hull and the probe solver
        result = solver.run()
        n_slabs, nq = solver.tri.n_slabs, solver.rule.nodes.shape[0]
        assert n_slabs > 2
        # the initial slice, then every slab's two boundary faces at once
        assert calls == [(nx, nq, 2), (n_slabs, 2, nq, 2)]
        # the verifier rebuilds the run's solver, which makes one table of its own
        verify_run(result)
        assert calls[2:] == [(n_slabs, 2, nq, 2)]


class TestInitialSliceState:
    def _tri(self, nx):
        fol = Foliation(np.array([0.0, 0.1]), IntervalDomain(0.0, 1.0))
        return build_triangulation(fol, nx)

    def test_constant(self):
        flux = presets.burgers_flux((-1.0, 2.0))
        state = initial_slice_state(self._tri(4), constant_bd(1.0), flux)
        np.testing.assert_allclose(state.values, 1.0)
        np.testing.assert_allclose(state.fluxes, 0.25)

    def test_aligned_step(self):
        flux = presets.burgers_flux((-2.0, 2.0))
        bd = step_bd(0.5, -1.0, 1.0)
        state = initial_slice_state(self._tri(4), bd, flux)
        np.testing.assert_allclose(state.values, [-1.0, -1.0, 1.0, 1.0])

    def test_linear_profile_mean(self):
        flux = presets.burgers_flux((-1.0, 2.0))
        bd = BoundaryData(u=lambda p: p[..., 1])
        state = initial_slice_state(self._tri(4), bd, flux)
        assert state.values[0] == pytest.approx(0.125)  # mean of x over [0, 0.25]

    def test_time_reversed_flux_rejected(self):
        # a flux whose state derivative is negative makes the initial slice
        # an outflow boundary
        flux = presets.flat_flux(lambda u: 0.0 * np.asarray(u),
                                 lambda u: 0.0 * np.asarray(u), (-1.0, 1.0))
        bad = presets.flat_flux(lambda u: 0.0 * np.asarray(u),
                                lambda u: 0.0 * np.asarray(u), (-1.0, 1.0))
        coeffs = dict(bad.omega.coeffs)
        du = dict(bad.omega.du_coeffs)
        coeffs[(1,)] = lambda p, u: -np.asarray(u) + 0.0 * p[..., 0]
        du[(1,)] = lambda p, u: -np.ones(np.broadcast_shapes(np.shape(p)[:-1],
                                                             np.shape(u)))
        from spacetime_fvm.forms import ParamForm
        from spacetime_fvm.fluxfield import FluxField
        reversed_flux = FluxField(ParamForm(1, 2, coeffs, du, (-1.0, 1.0)),
                                  domain=flux.domain)
        with pytest.raises(NotSpacelikeError):
            initial_slice_state(self._tri(4), constant_bd(0.5), reversed_flux)
        del flux

    def test_nonpositive_mass_names_the_face(self):
        bd = BoundaryData(u=lambda p: p[..., 1], alpha_density=lambda p: p[..., 1] - 0.5)
        with pytest.raises(ValueError, match=re.escape(
                "alpha_B mass must be positive on every boundary face: initial slice face "
                "('S', 0, 0) has mass -0.09375")):
            initial_slice_state(self._tri(4), bd, presets.burgers_flux((-1.0, 2.0)))

    @pytest.mark.parametrize("points", [5, 12])
    def test_equals_per_face_means_bit_for_bit(self, points):
        # reference: the alpha_B-weighted mean of each inflow face on its own
        fol = Foliation(np.array([0.0, 0.1]), IntervalDomain(0.0, 1.0))
        tri = build_triangulation(fol, np.array([0.0, 0.07, 0.3, 0.31, 0.8, 1.0]))
        bd = BoundaryData(u=lambda p: np.sin(7.0 * p[..., 1]) + p[..., 1] ** 3,
                          alpha_density=lambda p: 1.5 + np.cos(3.0 * p[..., 1]))
        cfg = RunConfig(quadrature_points=points)
        rule = cfg.rule()
        s = rule.nodes[:, 0]
        expected = []
        for i in range(tri.n_columns):
            face = tri.faces[("S", 0, i)]
            xs = face.x_lo + s * (face.x_hi - face.x_lo)
            pts = np.stack([np.zeros_like(xs), xs], axis=-1)
            alpha = rule.weights * (face.x_hi - face.x_lo) * bd.alpha_values(pts)
            expected.append(np.sum(alpha * bd.u_values(pts)) / np.sum(alpha))
        state = initial_slice_state(tri, bd, presets.burgers_flux((-1.0, 2.0)), cfg=cfg)
        assert state.values.tobytes() == np.array(expected).tobytes()

    def test_nonpositive_mass_rejected(self):
        bd = BoundaryData(u=lambda p: p[..., 1],
                          alpha_density=lambda p: np.where(p[..., 1] > 0.5, 0.0, 1.0))
        with pytest.raises(ValueError, match="alpha_B mass must be positive"):
            initial_slice_state(self._tri(4), bd, presets.burgers_flux((-1.0, 2.0)))


def lipschitz_sup_fd(vert, n_grid: int = 17) -> np.ndarray:
    """Finite-difference estimate of ``vert.lipschitz_sup()`` on a (u, v) grid: the oracle."""
    lo, hi = vert.u_range
    delta = 1e-5 * (1.0 + (hi - lo))
    us = np.linspace(lo + delta, hi - delta, n_grid)
    uu, vv = np.meshgrid(us, us, indexing="ij")
    uu = np.broadcast_to(uu.ravel(), (vert.n_faces, n_grid * n_grid))
    vv = np.broadcast_to(vv.ravel(), (vert.n_faces, n_grid * n_grid))
    dqu = (vert.Q(uu + delta, vv) - vert.Q(uu - delta, vv)) / (2 * delta)
    dqv = (vert.Q(uu, vv + delta) - vert.Q(uu, vv - delta)) / (2 * delta)
    return np.clip(np.max(dqu - dqv, axis=1), 0.0, None)


def _fd_ratios(slab):
    """Per-cell (left, right) ratios from the finite-difference Lipschitz estimate."""
    sup = lipschitz_sup_fd(slab.vert)
    return np.stack([sup[slab.left_idx], sup[slab.right_idx]], axis=1) \
        / slab.table_plus.dq_min_raw[:, None]


class TestComputeLambdas:
    def test_upwind_advection_ratios(self):
        dx = 1.0 / 8.0
        hbar = dx / 8.0
        adv = presets.linear_advection_flux(1.0, (-1.0, 1.0))
        solver = make_solver(adv, IntervalDomain(0.0, 1.0), hbar, constant_bd(0.5),
                             nx=8, cfl=0.5, u_range=(-1.0, 1.0), hbar=hbar)
        lam_hat = _fd_ratios(solver.slab(0))
        lam_hat_cell = np.sum(lam_hat, axis=1)
        np.testing.assert_allclose(lam_hat, hbar / dx, rtol=1e-6)
        np.testing.assert_allclose(lam_hat_cell, 2 * hbar / dx, rtol=1e-6)
        assert np.max(lam_hat_cell) <= CFL_LIMIT * (1 + 1e-12)
        assert float(np.max(lam_hat_cell)) == pytest.approx(0.25, rel=1e-6)

    def test_symmetric_weights(self):
        adv = presets.linear_advection_flux(1.0, (-1.0, 1.0))
        solver = make_solver(adv, IntervalDomain(0.0, 1.0), 1.0 / 64, constant_bd(0.5),
                             nx=8, cfl=0.5, u_range=(-1.0, 1.0), hbar=1.0 / 64)
        report = solver.slab(0).lambdas()
        np.testing.assert_allclose(report.lam, 0.5)
        np.testing.assert_allclose(np.sum(report.lam, axis=1), 1.0)

    def test_derivative_and_fd_estimators_agree(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.01, constant_bd(0.5),
                             nx=6, u_range=(-1.0, 1.0), hbar=0.01)
        slab = solver.slab(0)
        np.testing.assert_allclose(slab.lambdas().lam_hat, _fd_ratios(slab), rtol=2e-2)


class TestSelectTimestep:
    def test_unit_advection_exact_quarter(self):
        dom = IntervalDomain(0.0, 1.0)
        adv = presets.linear_advection_flux(1.0, (-1.0, 1.0))
        hbar = select_timestep(dom, np.linspace(0, 1, 9), adv, NumericalFluxSpec(),
                               (-1.0, 1.0), 0.5, t_final=1.0)
        assert hbar == pytest.approx((1 / 8) / 4, rel=1e-9)

    def test_burgers_bound(self):
        dom = IntervalDomain(0.0, 1.0)
        flux = presets.burgers_flux((-1.2, 1.2))
        hbar = select_timestep(dom, np.linspace(0, 1, 9), flux, NumericalFluxSpec(),
                               (-1.0, 1.0), 0.5, t_final=1.0)
        # |g'| <= duration * max|u| = duration over the [-1, 1] hull
        assert hbar <= (1 / 8) / 4 * (1 + 1e-9)
        assert hbar >= (1 / 8) / 8

    def test_zero_horizon(self):
        dom = IntervalDomain(0.0, 1.0)
        adv = presets.linear_advection_flux(1.0, (-1.0, 1.0))
        assert select_timestep(dom, np.linspace(0, 1, 9), adv, NumericalFluxSpec(),
                               (-1.0, 1.0), 0.5, t_final=0.0) == 0.0


class TestStepCell:
    def test_constant_state_preserved(self):
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
        solver = make_solver(flux, CircleDomain(2 * np.pi), 0.05, constant_bd(0.7),
                             nx=8, u_range=(0.0, 1.0))
        state = solver.initial_state()
        np.testing.assert_allclose(solver.slab(0).step(state).values, 0.7, atol=1e-12)

    def test_upwind_identity(self):
        adv = presets.linear_advection_flux(1.0, (-1.0, 1.0))
        nx = 8
        hbar = (1 / nx) / 8
        solver = make_solver(adv, IntervalDomain(0.0, 1.0), hbar,
                             step_bd(0.5, 1.0, 0.0), nx=nx, cfl=0.5,
                             u_range=(-1.0, 1.0), hbar=hbar)
        state = solver.initial_state()
        new = solver.slab(0).step(state)
        lam = hbar * nx
        left = np.concatenate([[1.0], state.values[:-1]])
        expected = state.values + lam * (left - state.values)
        np.testing.assert_allclose(new.values, expected, atol=1e-14)

    def test_burgers_jump_cell_matches_reference_godunov(self):
        # reference oracle: classical scalar Godunov update with dense
        # Riemann-scan interface fluxes
        flux = presets.burgers_flux((-1.2, 1.2))
        nx = 8
        hbar = (1 / nx) / 8
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), hbar,
                             step_bd(0.5, 1.0, 0.0), nx=nx,
                             u_range=(0.0, 1.0), hbar=hbar)
        state = solver.initial_state()
        new = solver.slab(0).step(state)
        expected = classical_godunov_step(state.values, 1.0, 0.0,
                                          lambda w: w**2 / 2, hbar * nx)
        np.testing.assert_allclose(new.values, expected, atol=1e-9)

    def test_update_map_monotone_under_cfl(self):
        # the refreshed state is non-decreasing in the own and neighbor states
        flux = presets.burgers_flux((-1.2, 1.2))
        nx = 6
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.01,
                             constant_bd(0.2), nx=nx, u_range=(-1.0, 1.0))
        slab = solver.slab(0)
        assert slab.lambdas().passed
        rng = np.random.default_rng(5)
        delta = 1e-6
        state = solver.initial_state()
        for trial in range(20):
            values = rng.uniform(-0.9, 0.9, nx)
            state.values[:] = values
            state.fluxes[:] = slab.table_minus.q(values)
            base = slab.step(state).values.copy()
            for k in (1, 2, 3):
                bumped = values.copy()
                bumped[k] += delta
                state.values[:] = bumped
                state.fluxes[:] = slab.table_minus.q(bumped)
                shifted = slab.step(state).values
                assert np.all(shifted - base >= -1e-9)


def vertical_fluxes(flux, u_range, nx=10, t0=0.0, t1=0.05):
    return VerticalFluxes(np.linspace(0.0, 1.0, nx + 1), t0, t1, flux,
                          NumericalFluxSpec(), gauss_legendre(5, 1), u_range)


def bisected_criticals(vert, n_steps=80):
    """Reference, one face at a time: sign changes of G' on the lattice, each
    bisected n_steps times, then the isolated exact zeros of G' on it."""
    us = np.linspace(*vert.u_range, 65)
    dg = vert.dG_lattice(us)
    roots = []
    for f in range(vert.n_faces):
        face_roots = []
        for k in np.nonzero(dg[f, :-1] * dg[f, 1:] < 0.0)[0]:
            lo, hi, flo = us[k], us[k + 1], dg[f, k]
            for _ in range(n_steps):
                mid = 0.5 * (lo + hi)
                fmid = float(vert.dG(np.array([mid]), faces=[f])[0])
                if flo * fmid > 0.0:
                    lo, flo = mid, fmid
                else:
                    hi = mid
            face_roots.append(0.5 * (lo + hi))
        for k in np.nonzero(dg[f] == 0.0)[0]:
            flat_left = k == 0 or dg[f, k - 1] == 0.0
            flat_right = k == us.size - 1 or dg[f, k + 1] == 0.0
            if not (flat_left and flat_right):
                face_roots.append(us[k])
        roots.append(face_roots)
    return np.array(roots)


class TestCriticalPoints:
    """Critical points of G: lattice detection plus the polish by ``bracketed_root``."""

    def test_burgers_sonic_state_within_a_few_ulps(self):
        sonic = 0.3 + 1e-3 * np.sqrt(2.0)            # off the G' lattice
        flux, calls = counting_flux(presets.flat_flux(
            lambda u: 0.5 * (np.asarray(u) - sonic) ** 2, lambda u: np.asarray(u) - sonic,
            (-0.6, 1.1)))
        vert = vertical_fluxes(flux, (-0.6, 1.1))
        assert vert.crit_w.shape == (vert.n_faces, 1)
        assert np.all(np.abs(vert.crit_w[:, 0] - sonic) <= 4 * np.spacing(sonic))
        np.testing.assert_allclose(vert.crit_g[:, 0], vert.G(vert.crit_w[:, 0]), rtol=0)
        # affine G': one or two polish steps on top of the single lattice call
        assert 1 <= len(calls[("dw", 0)]) - 1 <= 2

    def test_nonlinear_criticals_match_reference_bisection(self):
        u_range = (-1.3, 1.45)
        flux, calls = counting_flux(presets.flat_flux(
            lambda u: np.exp(u) - 2.0 * u + 0.25 * np.asarray(u) ** 4,
            lambda u: np.exp(u) - 2.0 + np.asarray(u) ** 3, u_range))
        vert = vertical_fluxes(flux, u_range)
        steps = len(calls[("dw", 0)]) - 1
        reference = bisected_criticals(vert)
        assert reference.shape[1] >= 1
        assert vert.crit_w.shape == reference.shape
        np.testing.assert_allclose(vert.crit_w, reference, rtol=0, atol=1e-14)
        # the polish stops well under its cap (3 steps per halving, ~140 here);
        # without the Illinois halving this root takes 8 steps
        assert steps <= 6

    def test_sonic_state_on_a_lattice_node_found_once(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        vert = vertical_fluxes(flux, (-1.0, 1.0))    # 0 is lattice node 32 of 65
        assert vert.crit_w.shape == (vert.n_faces, 1)
        assert np.all(vert.crit_w == 0.0)

    def test_slot_order_polished_roots_then_lattice_zeros(self):
        # G' ~ u (u - 0.3)(u + 0.55): 0 is a lattice node, the others are not
        flux = presets.flat_flux(
            lambda u: np.asarray(u) ** 4 / 4 + 0.25 * np.asarray(u) ** 3 / 3
            - 0.165 * np.asarray(u) ** 2 / 2,
            lambda u: np.asarray(u) * (np.asarray(u) - 0.3) * (np.asarray(u) + 0.55),
            (-1.0, 1.0))
        vert = vertical_fluxes(flux, (-1.0, 1.0), nx=4)
        expected = np.tile([-0.55, 0.3, 0.0], (vert.n_faces, 1))
        np.testing.assert_allclose(vert.crit_w, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(vert.crit_w, bisected_criticals(vert), rtol=0, atol=1e-14)

    def test_nan_g_prime_at_the_polish_is_a_convergence_error(self):
        # G' is NaN on (0.51, 0.52), between the lattice states 0.5 and
        # 0.53125, and the secant start is the root 0.515 inside that band
        flux = presets.flat_flux(
            lambda u: 0.5 * (np.asarray(u) - 0.515) ** 2,
            lambda u: np.where(np.abs(np.asarray(u) - 0.515) < 0.005, np.nan,
                               np.asarray(u) - 0.515), (-1.0, 1.0))
        with pytest.raises(ConvergenceError, match=(
                r"^vertical face x = 0\.0 of the slab \[0\.0, 0\.05\]: critical-point search on "
                r"the lattice segment \[0\.5, 0\.53125\] stopped at u = 0\.51\d* with G' = nan$")):
            vertical_fluxes(flux, (-1.0, 1.0))

    def test_no_criticals_for_monotone_g(self):
        flux = presets.linear_advection_flux(1.0, (-1.0, 1.0))
        vert = vertical_fluxes(flux, (-1.0, 1.0))
        assert vert.crit_w.shape == (vert.n_faces, 0)
        assert vert.crit_g.shape == (vert.n_faces, 0)


class TestRun:
    def test_constant_data_exact(self):
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
        solver = make_solver(flux, CircleDomain(2 * np.pi), 0.5, constant_bd(0.7),
                             nx=16, u_range=(0.0, 1.0))
        result = solver.run()
        worst = max(float(np.max(np.abs(s.values - 0.7))) for s in result.states)
        assert worst <= 1e-10

    def test_circle_revolution_error_decreases(self):
        u0 = lambda x: 0.5 + 0.25 * np.sin(x)  # noqa: E731
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                              lambda s: np.cos(s))
        errors = []
        for nx in (16, 32):
            solver = make_solver(flux, CircleDomain(2 * np.pi), 2 * np.pi,
                                 BoundaryData(u=lambda p: u0(p[..., 1])),
                                 nx=nx, u_range=(0.0, 1.0))
            result = solver.run()
            oracle = CharacteristicsLinear(u0=u0, domain=CircleDomain(2 * np.pi))
            errors.append(l1_error(result, oracle))
        assert errors[1] < errors[0]

    def test_inflow_only_boundary_topology(self):
        # all data enters through the initial slice; the lateral traces are
        # never used upstream of the flow on this supersonic profile
        flux = presets.burgers_flux((0.0, 2.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.2,
                             constant_bd(1.0), nx=12, u_range=(0.5, 1.5))
        result = solver.run()
        np.testing.assert_allclose(result.final_state.values, 1.0, atol=1e-11)

    def test_conservation_on_circle(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        bd = BoundaryData(u=lambda p: 0.6 * np.sin(2 * np.pi * p[..., 1]))
        solver = make_solver(flux, CircleDomain(1.0), 0.3, bd, nx=20,
                             u_range=(-0.7, 0.7))
        result = solver.run()
        totals = [float(np.sum(s.fluxes)) for s in result.states]
        np.testing.assert_allclose(totals, totals[0], atol=1e-12)

    def test_u_field_piecewise_constant(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.1,
                             step_bd(0.5, 1.0, 0.0), nx=4, u_range=(0.0, 1.0))
        result = solver.run()
        assert result.u_field(0.0, 0.1) == pytest.approx(result.states[0].values[0])
        assert result.u_field(0.05, 0.9) == pytest.approx(
            result.states[_slab_of(result, 0.05)].values[3])


    def test_solver_keeps_two_tables(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.2,
                             step_bd(0.5, 1.0, 0.0), nx=8, u_range=(0.0, 1.0))
        assert solver.tri.n_slabs > 3
        solver.run()
        assert sorted(solver._tables) == [solver.tri.n_slabs - 1, solver.tri.n_slabs]
        solver.slab(1)
        assert sorted(solver._tables) == [1, 2]
        solver.slice_table(1)       # a cached slice evicts nothing
        assert sorted(solver._tables) == [1, 2]

    def test_dropped_solver_is_freed_without_the_cycle_collector(self, monkeypatch):
        # no reference cycle holds a solver: with the collector off, its last
        # reference going frees it, and verify_run's own solver too
        solver = make_solver(presets.burgers_flux((-1.2, 1.2)), IntervalDomain(0.0, 1.0), 0.2,
                             step_bd(0.5, 1.0, 0.0), nx=8, u_range=(0.0, 1.0))
        inner = []

        class TrackedSolver(Solver):
            def __init__(self, *args):
                super().__init__(*args)
                inner.append(weakref.ref(self))

        monkeypatch.setattr(entropy_module, "Solver", TrackedSolver)
        gc.disable()
        try:
            result = solver.run()
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
            verify_run(result)
            assert len(inner) == 1 and inner[0]() is None
        finally:
            gc.enable()

    def test_run_builds_one_table_per_slice(self, monkeypatch):
        # the initial state takes slice 0's table from the solver's cache,
        # where slab 0 finds it again; a flux that reads t builds one slice
        # table and one vertical table per block of slabs (blocks of 3 here,
        # the last one short), each from one call of dwx_du and of dwt_du; a
        # flux that does not read t (Burgers) builds one table and moves it to
        # every other slice, and one vertical table
        built, calls = [], []

        class CountingTable(scheme_module.SpacelikeTable):
            def __init__(self, tri, flux, slice_index, **kwargs):
                built.append(slice_index)
                super().__init__(tri, flux, slice_index, **kwargs)

        def counted(name, fn):
            return lambda pts, u: calls.append(name) or fn(pts, u)

        traveling = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s),
                                                   lambda s: np.cos(s))
        omega = traveling.omega
        traveling = replace(traveling, omega=replace(omega, du_coeffs={
            (1,): counted("dwx_du", omega.du_coeffs[(1,)]),
            (0,): counted("dwt_du", omega.du_coeffs[(0,)])}))
        monkeypatch.setattr(scheme_module, "BLOCK_ROWS", 3 * 8)
        for flux in (traveling, presets.burgers_flux((-1.2, 1.2))):
            built.clear()
            solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.2,
                                 step_bd(0.5, 1.0, 0.0), nx=8, u_range=(0.0, 1.0))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(scheme_module, "SpacelikeTable", CountingTable)
                solver.run()
            blocks = block_ranges(solver.tri)
            assert solver.tri.n_slabs > 3 and solver.tri.n_slabs % 3 != 0
            assert built == ([0] + [range(b.start + 1, b.stop + 1) for b in blocks]
                             if flux.reads_t else [0])
            if flux.reads_t:
                assert calls.count("dwx_du") == 1 + len(blocks)
                assert calls.count("dwt_du") == len(blocks) == -(-solver.tri.n_slabs // 3)

    def test_slab_rebuilt_after_run_is_bit_identical(self, monkeypatch):
        # record every slab's rhs and step during the run, then rebuild the
        # slabs out of order from the finished solver
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.2,
                             step_bd(0.45, 1.0, -0.2), nx=10, u_range=(-0.2, 1.0))
        seen = {}
        original = Solver.slab

        def recording_slab(self, j):
            slab = original(self, j)
            step = slab.step
            slab.step = lambda state: seen.setdefault(
                j, (slab.rhs(state).tobytes(), step(state)))[1]
            return slab

        with monkeypatch.context() as patch:
            patch.setattr(Solver, "slab", recording_slab)
            result = solver.run()
        assert sorted(seen) == list(range(solver.tri.n_slabs))
        for j in reversed(range(solver.tri.n_slabs)):
            slab = solver.slab(j)
            rhs, stepped = seen[j]
            assert slab.rhs(result.states[j]).tobytes() == rhs
            again = slab.step(result.states[j])
            assert again.values.tobytes() == stepped.values.tobytes()
            assert again.fluxes.tobytes() == stepped.fluxes.tobytes()
            assert again.values.tobytes() == result.states[j + 1].values.tobytes()


def _slab_of(result, t):
    return int(np.searchsorted(result.tri.times, t, side="right") - 1)


def _boundary_in_t():
    # u_B varies in t on both boundary lines: a slab whose vertical table
    # carried another slab's nodes would get other ghost states
    return BoundaryData(u=lambda p: np.where(p[..., 1] < 0.4, 0.7 + 0.2 * np.sin(9.0 * p[..., 0]),
                                             -0.1 + 0.1 * np.cos(5.0 * p[..., 0])))


def _mixed_heights(hbar, t_final, seed):
    # slab heights drawn from 20 distinct values: some repeat, and more
    # heights than the solver keeps, so its cache both hits and evicts
    rng = np.random.default_rng(seed)
    heights = hbar * np.linspace(0.5, 1.0, 20)
    times = [0.0]
    while times[-1] < t_final:
        times.append(times[-1] + float(rng.choice(heights)))
    return np.array(times)


def assert_declaration_changes_no_bit(flux, tri, bd, u_range, kind="godunov_osher",
                                      undeclared=None):
    """A run of ``flux`` equals the run of ``undeclared`` (by default ``flux``
    declared to read t) bit for bit: states, fluxes, lambda_max, every slab's
    critical points, verify_run's per-slab series and the global entropy
    inequality for a t-dependent test function."""
    psi = bump_test_function(0.4 * tri.times[-1], 0.45, 0.3 * tri.times[-1], 0.3)
    outcomes = []
    for f in (flux, undeclared if undeclared is not None else replace(flux, reads_t=True)):
        solver = Solver(tri, f, NumericalFluxSpec(kind), bd, RunConfig(u_range=u_range))
        slabs = []                                  # the run's slabs, kept as it asks for them
        solver.slab = lambda j, _slab=solver.slab: slabs.append(_slab(j)) or slabs[-1]
        result = solver.run()
        crits = [(s.vert.crit_w.shape, s.vert.crit_w.tobytes(), s.vert.crit_g.tobytes())
                 for s in slabs]
        outcomes.append((result, crits, verify_run(result).per_slab,
                         global_entropy_inequality_report(result, psi, KruzkovPair(0.3)).to_dict()))
    (a, crits_a, per_slab_a, global_a), (b, crits_b, per_slab_b, global_b) = outcomes
    for x, y in zip(a.states, b.states, strict=True):
        assert x.values.tobytes() == y.values.tobytes()
        assert x.fluxes.tobytes() == y.fluxes.tobytes()
    assert a.lambda_max == b.lambda_max
    assert crits_a == crits_b
    assert per_slab_a == per_slab_b
    assert global_a == global_b


class TestTableReuse:
    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_declared_run_equals_undeclared_bit_for_bit(self, kind, monkeypatch):
        flux = presets.burgers_flux((-1.2, 1.2))
        domain, xs, u_range = IntervalDomain(0.0, 1.0), np.linspace(0.0, 1.0, 17), (-0.3, 1.0)
        hbar = select_timestep(domain, xs, flux, NumericalFluxSpec(kind), u_range, 0.25, 0.25)
        tri = build_triangulation(Foliation(_mixed_heights(hbar, 0.25, 5), domain), xs)
        runs = 1 + np.count_nonzero(np.diff(tri.heights))   # of consecutive equal heights
        assert runs < tri.n_slabs
        built = []

        class CountingVertical(scheme_module.VerticalFluxes):
            def __init__(self, x_nodes, t_lo, height, flux, *args):
                built.append(flux.reads_t)
                super().__init__(x_nodes, t_lo, height, flux, *args)

        with monkeypatch.context() as patch:
            patch.setattr(scheme_module, "VerticalFluxes", CountingVertical)
            assert_declaration_changes_no_bit(flux, tri, _boundary_in_t(), u_range, kind)
        # three solvers per flux (run, verify_run, global report): without the
        # declaration each builds a table per block (one height each), with it
        # one per run of a height
        assert built.count(True) == 3 * len(block_ranges(tri)) < 3 * tri.n_slabs
        assert built.count(False) == 3 * runs

    @pytest.mark.parametrize("domain", [IntervalDomain(0.0, 1.0), CircleDomain(1.0)],
                             ids=["interval", "circle"])
    def test_uniform_run_builds_one_vertical_table_per_solver(self, domain, monkeypatch):
        # np.linspace times split the uniform height by rounding and the
        # nominal height joins them again: declared, each of the three solvers
        # builds one vertical table, and the run equals the undeclared one
        flux = presets.burgers_flux((-1.2, 1.2))
        xs, u_range = np.linspace(0.0, 1.0, 17), (-0.3, 1.0)
        hbar = select_timestep(domain, xs, flux, NumericalFluxSpec(), u_range, 0.25, 0.3)
        tri = build_triangulation(Foliation(uniform_times(0.3, hbar), domain), xs)
        assert np.unique(np.diff(tri.times)).size > 1 == np.unique(tri.heights).size
        built = []

        class CountingVertical(scheme_module.VerticalFluxes):
            def __init__(self, x_nodes, t_lo, height, flux, *args):
                built.append(flux.reads_t)
                super().__init__(x_nodes, t_lo, height, flux, *args)

        with monkeypatch.context() as patch:
            patch.setattr(scheme_module, "VerticalFluxes", CountingVertical)
            assert_declaration_changes_no_bit(flux, tri, _boundary_in_t(), u_range)
        assert built.count(False) == 3
        assert built.count(True) == 3 * len(block_ranges(tri)) < 3 * tri.n_slabs

    @pytest.mark.parametrize("flux", [
        presets.burgers_flux((-1.2, 1.2)),
        presets.capacity_flux(lambda x: 1.0 + 0.3 * np.sin(5.0 * x),
                              lambda x: 1.5 * np.cos(5.0 * x),
                              lambda w: 0.5 * np.asarray(w) ** 2, lambda w: np.asarray(w),
                              (-1.2, 1.2))], ids=["burgers", "capacity"])
    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_t_free_timestep_search_probes_once_per_iteration(self, flux, kind, monkeypatch):
        # a flux that does not read t gives every slab of one height the ratio
        # of the slab at t = 0: one probe per iteration finds the bits of the
        # TIMESTEP_PROBES-probe search, whose probes share one table (one
        # start per (probe, node) row)
        domain, xs, u_range = IntervalDomain(0.0, 1.0), np.linspace(0.0, 1.0, 17), (-0.3, 1.0)
        starts, hbars, tables = {}, {}, []

        class CountingVertical(scheme_module.VerticalFluxes):
            def __init__(self, x_nodes, t_lo, height, flux, *args):
                starts[flux.reads_t] += np.broadcast_to(t_lo, np.shape(x_nodes)).tolist()
                tables.append(flux.reads_t)
                super().__init__(x_nodes, t_lo, height, flux, *args)

        monkeypatch.setattr(scheme_module, "VerticalFluxes", CountingVertical)
        for f in (flux, replace(flux, reads_t=True)):
            starts[f.reads_t] = []
            hbars[f.reads_t] = select_timestep(domain, xs, f, NumericalFluxSpec(kind), u_range,
                                               0.25, 0.3)
        assert np.float64(hbars[False]).tobytes() == np.float64(hbars[True]).tobytes()
        assert set(starts[False]) == {0.0}
        assert len(starts[True]) == scheme_module.TIMESTEP_PROBES * len(starts[False])
        assert tables.count(True) == tables.count(False)   # one table per iteration

    def test_failing_probe_batch_reruns_probe_by_probe(self, monkeypatch):
        # a flux that reads t: a batch that raises is rerun one probe at a
        # time, so the height keeps its bits and the first failing probe
        # raises its own error
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), np.cos)
        args = (CircleDomain(2 * np.pi), np.linspace(0.0, 2 * np.pi, 17), flux,
                NumericalFluxSpec(), (0.2, 0.8), 0.25, 0.5)
        expected = select_timestep(*args)
        ratios, calls = scheme_module._slab_ratios, []

        def batch_fails(*a):
            calls.append(a[5].tolist())
            if a[5].size > 1:
                raise ConvergenceError("the batch")
            return ratios(*a)

        monkeypatch.setattr(scheme_module, "_slab_ratios", batch_fails)
        assert np.float64(select_timestep(*args)).tobytes() == np.float64(expected).tobytes()
        assert max(len(c) for c in calls) == scheme_module.TIMESTEP_PROBES

        def late_probe_fails(*a):
            if a[5].size == 1 and a[5][0] > 0.0:
                calls.append(a[5].tolist())
                raise DegenerateFluxError(f"probe from {a[5][0]!r}")
            return batch_fails(*a)

        calls.clear()
        monkeypatch.setattr(scheme_module, "_slab_ratios", late_probe_fails)
        with pytest.raises(DegenerateFluxError) as raised:
            select_timestep(*args)
        *_, batch, first, second = calls
        assert first == batch[:1] and second == batch[1:2] and 0.0 == batch[0] < batch[1]
        assert str(raised.value) == f"probe from {np.float64(batch[1])!r}"

    @given(a0=st.floats(0.5, 3.0), ratio=st.floats(-0.9, 0.9), k=st.floats(0.0, 12.0),
           phase=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_declared_capacity_runs_equal_undeclared(self, a0, ratio, k, phase, seed):
        flux = presets.capacity_flux(lambda x: a0 + ratio * a0 * np.sin(k * x + phase),
                                     lambda x: ratio * a0 * k * np.cos(k * x + phase),
                                     lambda w: 0.5 * np.asarray(w) ** 2,
                                     lambda w: np.asarray(w), (-1.2, 1.2))
        domain, xs, u_range = IntervalDomain(0.0, 1.0), np.linspace(0.0, 1.0, 9), (-0.3, 1.0)
        hbar = select_timestep(domain, xs, flux, NumericalFluxSpec(), u_range, 0.25, 0.1)
        tri = build_triangulation(Foliation(_mixed_heights(hbar, 0.1, seed), domain), xs)
        assert_declaration_changes_no_bit(flux, tri, _boundary_in_t(), u_range)

    @pytest.mark.parametrize("lines, reads_t", [
        ("wx = u\nwt = -0.5 * u * u\ndwx_du = 1\ndwt_du = -u", False),
        ("wx = u\nwt = -0.5 * u * u", False),
        ("wx = u\nwt = -0.5 * u * u\ndwx_du = 1\ndwt_du = -u + 0 * t", True),
        ("wx = (2 + sin(x - t)) * u\nwt = -(2 + sin(x - t)) * u", True)],
        ids=["analytic", "fd", "zero_times_t", "traveling"])
    def test_config_flux_reads_t_from_its_expressions(self, lines, reads_t):
        setup = parse_config("[spacetime]\ndomain = interval 0 1\nt_final = 0.1\n"
                             f"[flux]\nbuiltin = custom\n{lines}\n"
                             "[mesh]\nnx = 8\n[boundary]\nu_b = 0.3 + 0.2 * x\n")
        assert setup.flux.reads_t is reads_t

    def test_flux_reading_t_never_shares_tables(self, monkeypatch):
        setup = parse_config("[spacetime]\ndomain = interval 0 1\nt_final = 0.1\n"
                             "[flux]\nbuiltin = custom\nwx = u\nwt = -0.5 * u * u + 0 * t\n"
                             "[mesh]\nnx = 8\n[boundary]\nu_b = 0.3 + 0.2 * x\n")
        slabs, slices = [], []

        class CountingVertical(scheme_module.VerticalFluxes):
            def __init__(self, *args, **kwargs):
                slabs.append(args[1])
                super().__init__(*args, **kwargs)

        class CountingTable(scheme_module.SpacelikeTable):
            def __init__(self, tri, flux, slice_index, **kwargs):
                slices.append(slice_index)
                super().__init__(tri, flux, slice_index, **kwargs)

        solver = Solver(setup.triangulation(), setup.flux, setup.spec, setup.bd, setup.cfg)
        with monkeypatch.context() as patch:
            patch.setattr(scheme_module, "VerticalFluxes", CountingVertical)
            patch.setattr(scheme_module, "SpacelikeTable", CountingTable)
            solver.run()
        tri = solver.tri
        assert len(set(np.diff(tri.times))) < tri.n_slabs
        blocks = block_ranges(tri)
        assert slices == [0] + [range(b.start + 1, b.stop + 1) for b in blocks]
        assert [t.tolist() for t in slabs] == \
            [np.repeat(tri.times[b.start:b.stop], tri.n_nodes).tolist() for b in blocks]
        assert solver._slice_arrays is None and not solver._vertical_arrays

    @pytest.mark.parametrize("coefficient", ["wt", "wx", "dwt_du", "dwx_du"])
    def test_wrong_declaration_is_caught(self, coefficient):
        # Burgers with one coefficient scaled by (1 + t / 1000), declared not to read t
        omega = presets.burgers_flux((-1.0, 1.0)).omega
        coeffs, du = dict(omega.coeffs), dict(omega.du_coeffs)
        table, axis = {"wt": (coeffs, 0), "wx": (coeffs, 1),
                       "dwt_du": (du, 0), "dwx_du": (du, 1)}[coefficient]
        fn = table[(axis,)]
        table[(axis,)] = lambda pts, u: fn(pts, u) * (1.0 + 1e-3 * pts[..., 0])
        flux = FluxField(omega=ParamForm(1, 2, coeffs, du, omega.u_range), domain=None,
                         name="drifting", reads_t=False)
        tri = build_triangulation(Foliation(np.linspace(0.0, 0.1, 5), IntervalDomain(0.0, 1.0)), 8)
        with pytest.raises(ValueError, match=(
                rf"flux 'drifting' is declared not to read t, but {coefficient} does: "
                r"at x = \S+, u = \S+ it is \S+ at t = 0\.0 and \S+ at t = 0\.0125$")):
            Solver(tri, flux, NumericalFluxSpec(), constant_bd(0.5),
                   RunConfig(u_range=(0.2, 0.8)))
        Solver(tri, replace(flux, reads_t=True), NumericalFluxSpec(), constant_bd(0.5),
               RunConfig(u_range=(0.2, 0.8)))

    @pytest.mark.parametrize("domain", [IntervalDomain(0.0, 1.0), CircleDomain(1.0)],
                             ids=["interval", "circle"])
    def test_shared_nodes_equal_segment_nodes(self, domain):
        # a shared table's nodes are the first table's with the t column
        # rewritten: for every slice and slab they are segment_nodes', bit for
        # bit, a slab's from its start and nominal height
        flux = presets.burgers_flux((-1.2, 1.2))
        xs = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 11))
        xs[0], xs[-1] = 0.0, 1.0
        tri = build_triangulation(Foliation(_mixed_heights(0.01, 0.2, 7), domain), xs)
        solver = Solver(tri, flux, NumericalFluxSpec(), constant_bd(0.5),
                        RunConfig(u_range=(-0.3, 1.0)))
        rule, x_nodes = solver.rule, xs[:tri.n_nodes]
        for j in range(tri.n_slices):
            table = solver.slice_table(j)
            pts, weights = segment_nodes(rule, 1, tri.times[j], xs[:-1], np.diff(xs))
            assert table.t == tri.times[j] and table.pts.tobytes() == pts.tobytes()
            assert table.weights.tobytes() == (table.orientation[:, None] * weights).tobytes()
        for j in range(tri.n_slabs):
            vert = solver.vertical_fluxes(j)
            pts, weights = segment_nodes(rule, 0, x_nodes, tri.times[j], tri.heights[j])
            assert (vert.t_lo, vert.height) == (tri.times[j], tri.heights[j])
            assert vert.pts.tobytes() == pts.tobytes()
            assert vert.weights.tobytes() == weights.tobytes()
        assert solver._slice_arrays is not None and solver._vertical_arrays

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_numerical_flux_from_one_call_equals_two(self, kind):
        # Q evaluates G(u) and G(v) in one (n, 2) or (n, 2K) call: its bits
        # are those of _combine on two separate G calls
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), np.cos,
                                              u_range=(-1.0, 1.0))
        vert = VerticalFluxes(np.linspace(0.0, 1.0, 9), 0.1, 0.13, flux,
                              NumericalFluxSpec(kind), gauss_legendre(5, 1), (-1.0, 1.0))
        rng = np.random.default_rng(11)
        for shape in ((9,), (9, 4)):
            u, v = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
            two = vert._combine(u, v, vert.G(u), vert.G(v))
            assert vert.Q(u, v).tobytes() == two.tobytes()

    def test_one_lambda_report_per_slab_height(self):
        # heights 1, 1, 1, 2, 1, 2 times 2^-7, exact in binary: declared, each
        # run of consecutive slabs of one height shares one CFL report, equal
        # bit for bit to the report each slab builds alone
        tri = build_triangulation(Foliation(np.array([0, 1, 2, 3, 5, 6, 8]) * 2.0 ** -7,
                                            IntervalDomain(0.0, 1.0)), 10)
        flux = presets.burgers_flux((-1.2, 1.2))
        reports = []
        for f in (flux, replace(flux, reads_t=True)):
            solver = Solver(tri, f, NumericalFluxSpec(), step_bd(0.45, 1.0, -0.2),
                            RunConfig(u_range=(-0.2, 1.0)))
            reports.append([solver.slab(j).lambdas() for j in range(tri.n_slabs)])
        shared, own = reports
        assert len({id(r) for r in shared}) == 4 and len({id(r) for r in own}) == tri.n_slabs
        for a, b in zip(shared, own):
            assert (a.lam_hat.tobytes(), a.lam_hat_cell.tobytes(), a.lam.tobytes(), a.passed) \
                == (b.lam_hat.tobytes(), b.lam_hat_cell.tobytes(), b.lam.tobytes(), b.passed)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_shared_height_names_the_slab_at_fault(self):
        # G' is NaN for |x - 0.6| < 0.05: a failed report is not kept, so
        # every slab of the shared height that is asked names itself
        omega = presets.burgers_flux((-1.2, 1.2)).omega
        dwt = omega.du_coeffs[(0,)]
        du = {**omega.du_coeffs,
              (0,): lambda pts, u: dwt(pts, u) + 0.0 * (np.abs(pts[..., 1] - 0.6) - 0.05) ** 0.5}
        flux = FluxField(omega=ParamForm(1, 2, dict(omega.coeffs), du, omega.u_range),
                         domain=None, name="nan_stretch", reads_t=False)
        tri = build_triangulation(Foliation(np.arange(6) * 2.0 ** -7, IntervalDomain(0.0, 1.0)), 16)
        solver = Solver(tri, flux, NumericalFluxSpec(), constant_bd(0.5),
                        RunConfig(u_range=(0.2, 0.8)))
        for j in (3, 1, 3):
            with pytest.raises(DegenerateFluxError,
                               match=rf"^slab {j}: CFL ratio of cell 8 is nan: "
                                     rf"G' bound of vertical face \('V', {j}, 9\) is nan$"):
                solver.slab(j).lambdas()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
U_FREE_BOTH = frozenset({(0,), (1,)})
U_FREE_DX = frozenset({(1,)})
CONFIG_FLUX = ("[spacetime]\ndomain = interval 0 1\nt_final = 0.1\n[flux]\nbuiltin = custom\n"
               "{}\n[mesh]\nnx = 8\n[boundary]\nu_b = 0.3 + 0.2 * x\n")


class TestUFreeDerivatives:
    """``u_free_du``: a u-derivative that does not read u is one column per face."""

    @pytest.mark.parametrize("name, declared", [
        ("advection_circle", U_FREE_BOTH), ("burgers_shock", U_FREE_DX),
        ("convergence_advection", U_FREE_BOTH), ("custom_capacity", U_FREE_DX)])
    def test_config_declarations(self, name, declared):
        assert load_config(str(CONFIGS / f"{name}.ini")).flux.u_free_du == declared

    @pytest.mark.parametrize("lines, declared", [
        # the benchmark's rarefaction flux
        ("wx = u\nwt = -0.5 * u * u\ndwx_du = 1\ndwt_du = -u", U_FREE_DX),
        ("wx = u\nwt = -0.5 * u * u", frozenset()),       # derivatives of wx, wt read u
        ("wx = (2 + sin(x - t)) * u\nwt = -(2 + sin(x - t)) * u\n"
         "dwx_du = 2 + sin(x - t)\ndwt_du = -(2 + sin(x - t))", U_FREE_BOTH),
        ("wx = u\nwt = -0.5 * u * u\ndwx_du = 1 + 0 * u\ndwt_du = -u", frozenset())],
        ids=["rarefaction", "fd", "traveling", "zero_times_u"])
    def test_config_flux_declares_from_its_expressions(self, lines, declared):
        assert parse_config(CONFIG_FLUX.format(lines)).flux.u_free_du == declared

    def test_preset_declarations(self):
        assert presets.linear_advection_flux(0.7).u_free_du == U_FREE_BOTH
        assert presets.burgers_flux().u_free_du == U_FREE_DX
        assert presets.traveling_density_flux(np.exp, np.exp).u_free_du == U_FREE_BOTH
        assert FluxField(omega=presets.burgers_flux().omega, domain=None).u_free_du == frozenset()

    def test_advection_on_the_circle_equals_undeclared_bit_for_bit(self):
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s))
        domain, xs, u_range = CircleDomain(2 * np.pi), np.linspace(0.0, 2 * np.pi, 17), (0.2, 0.8)
        hbar = select_timestep(domain, xs, flux, NumericalFluxSpec(), u_range, 0.25, 0.3)
        tri = build_triangulation(Foliation(_mixed_heights(hbar, 0.3, 3), domain), xs)
        bd = BoundaryData(u=lambda p: 0.5 + 0.25 * np.sin(p[..., 1]))
        assert flux.u_free_du == U_FREE_BOTH
        assert_declaration_changes_no_bit(flux, tri, bd, u_range,
                                          undeclared=replace(flux, u_free_du=frozenset()))

    @pytest.mark.parametrize("kind", ["godunov_osher", "rusanov"])
    def test_interval_burgers_equals_undeclared_bit_for_bit(self, kind):
        flux = presets.burgers_flux((-1.2, 1.2))
        domain, xs, u_range = IntervalDomain(0.0, 1.0), np.linspace(0.0, 1.0, 17), (-0.3, 1.0)
        hbar = select_timestep(domain, xs, flux, NumericalFluxSpec(kind), u_range, 0.25, 0.25)
        tri = build_triangulation(Foliation(_mixed_heights(hbar, 0.25, 5), domain), xs)
        assert_declaration_changes_no_bit(flux, tri, _boundary_in_t(), u_range, kind,
                                          undeclared=replace(flux, u_free_du=frozenset()))

    @given(a0=st.floats(0.5, 3.0), ratio=st.floats(-0.9, 0.9), k=st.floats(0.0, 12.0),
           phase=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=10, deadline=None)
    def test_capacity_runs_equal_undeclared(self, a0, ratio, k, phase, seed):
        flux = presets.capacity_flux(lambda x: a0 + ratio * a0 * np.sin(k * x + phase),
                                     lambda x: ratio * a0 * k * np.cos(k * x + phase),
                                     lambda w: 0.5 * np.asarray(w) ** 2,
                                     lambda w: np.asarray(w), (-1.2, 1.2))
        domain, xs, u_range = IntervalDomain(0.0, 1.0), np.linspace(0.0, 1.0, 9), (-0.3, 1.0)
        hbar = select_timestep(domain, xs, flux, NumericalFluxSpec(), u_range, 0.25, 0.1)
        tri = build_triangulation(Foliation(_mixed_heights(hbar, 0.1, seed), domain), xs)
        assert_declaration_changes_no_bit(flux, tri, _boundary_in_t(), u_range,
                                          undeclared=replace(flux, u_free_du=frozenset()))

    def test_q_omega_evaluates_dq_once_per_face(self):
        # the table's dq column costs m * nq points of dwx, and q_omega on an
        # (m, K) state array evaluates no more (undeclared: the cumulative
        # table's m * 32 panels and one panel per state, 10 nodes each)
        base = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s))
        flux, calls = counting_flux(base)
        tri = build_triangulation(Foliation(np.array([0.0, 0.1]), CircleDomain(2 * np.pi)), 12)
        table = SpacelikeTable(tri, flux, 1, u_range=(-1.0, 1.0))
        w = np.random.default_rng(2).uniform(-1.0, 1.0, (12, 7))
        q = SmoothFaceEntropy(square_pair(), table).q_omega(w)
        m, nq = table.pts.shape[:2]
        assert sum(calls[("dw", 1)]) == m * nq
        undeclared = SpacelikeTable(tri, replace(flux, u_free_du=frozenset()), 1,
                                    u_range=(-1.0, 1.0))
        calls.clear()
        again = SmoothFaceEntropy(square_pair(), undeclared).q_omega(w)
        assert sum(calls[("dw", 1)]) == m * (SMOOTH_PANELS + 7) * SMOOTH_PANEL_NODES * nq
        assert q.tobytes() == again.tobytes()

    def test_broadcast_derivatives_keep_non_finite_states(self):
        flux = presets.burgers_flux((-1.0, 1.0))        # dwx = 1 at every state
        tri = build_triangulation(Foliation(np.array([0.0, 0.1]), IntervalDomain(0.0, 1.0)), 4)
        table = SpacelikeTable(tri, flux, 1, u_range=(-1.0, 1.0))
        u = np.array([0.3, np.nan, np.inf, -0.2])
        np.testing.assert_allclose(table.dq(u), [0.25, np.nan, np.nan, 0.25], rtol=1e-14)
        assert table.dq(np.zeros((4, 3))).shape == (4, 3)
        vert = vertical_fluxes(presets.linear_advection_flux(0.5, (-1.0, 1.0)), (-1.0, 1.0), nx=3)
        assert vert.dg_column is not None and vert.crit_w.shape == (4, 0)
        np.testing.assert_allclose(vert.dG(u), [0.025, np.nan, np.nan, 0.025], rtol=1e-14)

    @pytest.mark.parametrize("coefficient", ["dwt_du", "dwx_du"])
    def test_wrong_declaration_is_caught(self, coefficient):
        # Burgers with one u-derivative scaled by (1 + u / 1000), declared free of u
        omega = presets.burgers_flux((-1.0, 1.0)).omega
        du = dict(omega.du_coeffs)
        axis = {"dwt_du": 0, "dwx_du": 1}[coefficient]
        fn = du[(axis,)]
        du[(axis,)] = lambda pts, u: fn(pts, u) * (1.0 + 1e-3 * np.asarray(u))
        flux = FluxField(omega=ParamForm(1, 2, dict(omega.coeffs), du, omega.u_range),
                         domain=None, name="stiffening", u_free_du=frozenset({(axis,)}))
        tri = build_triangulation(Foliation(np.linspace(0.0, 0.1, 5), IntervalDomain(0.0, 1.0)), 8)
        with pytest.raises(ValueError, match=(
                rf"^flux 'stiffening' is declared not to read u, but {coefficient} does: "
                r"at t = 0\.0, x = 0\.0 it is \S+ at u = 0\.2 and \S+ at u = 0\.275$")):
            Solver(tri, flux, NumericalFluxSpec(), constant_bd(0.5),
                   RunConfig(u_range=(0.2, 0.8)))
        Solver(tri, replace(flux, u_free_du=frozenset()), NumericalFluxSpec(), constant_bd(0.5),
               RunConfig(u_range=(0.2, 0.8)))


class TestVerticalFaceSums:
    @pytest.mark.parametrize("lattice", [(), (7,)])
    def test_gathered_faces_equal_full_rows_bit_for_bit(self, lattice):
        flux = presets.traveling_density_flux(lambda s: 2.0 + np.sin(s), lambda s: np.cos(s))
        vert = vertical_fluxes(flux, (-1.0, 1.0), nx=12, t0=0.3, t1=0.45)
        rng = np.random.default_rng(11)
        u_full = rng.uniform(-1.0, 1.0, (vert.n_faces,) + lattice)
        idx = rng.integers(0, vert.n_faces, 20)
        assert vert.G(u_full[idx], faces=idx).tobytes() == vert.G(u_full)[idx].tobytes()
        assert vert.dG(u_full[idx], faces=idx).tobytes() == vert.dG(u_full)[idx].tobytes()
        assert vert.weights.shape == (5,)


class TestWeightedSum:
    def test_bit_identical_and_leaves_held_arrays_alone(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, 5)
        held = rng.normal(size=(7, 9, 5))
        before = held.copy()
        expected = np.sum(w * held, axis=-1)
        assert _weighted_sum(w, held).tobytes() == expected.tobytes()
        assert np.array_equal(held, before)          # referenced here: not reused
        assert _weighted_sum(w, held.copy()).tobytes() == expected.tobytes()
        readonly = np.broadcast_to(held[:, :1, :], held.shape)
        assert _weighted_sum(w, readonly).tobytes() == \
            np.sum(w * readonly, axis=-1).tobytes()

    def test_lattice_allocates_one_full_size_array(self):
        # the (nv, K, nq) coefficient result takes the weights in place; a
        # separate product array puts the peak at 2.2 * full
        vert = vertical_fluxes(presets.burgers_flux((-1.0, 1.0)), (-1.0, 1.0), nx=160)
        us = np.linspace(-1.0, 1.0, 65)
        full = vert.n_faces * us.size * vert.weights.size * 8
        tracemalloc.start()
        try:
            vert.dG_lattice(us)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert full < peak < 1.75 * full


class TestDataHull:
    def test_samples_initial_slice_and_boundary_lines(self):
        # u_B peaks on the right boundary line at the final time only
        bd = BoundaryData(u=lambda p: p[..., 1] * (1.0 + p[..., 0]))
        assert data_hull(bd, IntervalDomain(0.0, 1.0), 0.5) == (0.0, 1.5)
        assert data_hull(bd, CircleDomain(1.0), 0.5) == (0.0, 1.0)

    def test_degenerate_hull_is_padded(self):
        assert data_hull(constant_bd(2.0), IntervalDomain(0.0, 1.0), 0.5) == \
            (2.0 - 0.5e-6, 2.0 + 0.5e-6)

    def test_solver_rejects_non_finite_data(self):
        # u_B = 1 / (t - 0.25) blows up on the lateral boundary lines only
        bd = BoundaryData(u=lambda p: 1.0 / (p[..., 0] - 0.25) + 0.0 * p[..., 1])
        tri = build_triangulation(Foliation(np.array([0.0, 0.5]), IntervalDomain(0.0, 1.0)), 4)
        with pytest.raises(ValueError, match=r"not finite at \(t, x\) = \(0\.25, 0\.0\): -?inf"):
            Solver(tri, presets.burgers_flux((-1.0, 1.0)), NumericalFluxSpec(), bd)


class TestGuards:
    def test_cfl_violation_aborts(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.5,
                             step_bd(0.5, 1.0, 0.0), nx=8,
                             u_range=(0.0, 1.0), hbar=0.25)  # far too tall
        with pytest.raises(CFLViolation):
            solver.run()

    def test_unenforced_cfl_never_silently_succeeds(self):
        from spacetime_fvm.entropy import verify_run
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.5,
                             step_bd(0.5, 1.0, 0.0), nx=8,
                             u_range=(0.0, 1.0), hbar=0.25, enforce_cfl=False)
        try:
            result = solver.run()
        except ValueOutsideImage:
            return  # abort during the run: acceptable guard outcome
        try:
            report = verify_run(result, solver=solver)
        except ValueOutsideImage:
            return  # the verifier's own image guard fired: also loud
        assert not report.passed

    def test_anti_diffusive_flux_never_silently_succeeds(self):
        flux = presets.burgers_flux((-1.2, 1.2))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.3,
                             step_bd(0.4, 1.0, 0.0), nx=16,
                             kind="anti_diffusive", u_range=(0.0, 1.0))
        from spacetime_fvm.entropy import verify_run
        try:
            result = solver.run()
        except ValueOutsideImage:
            return  # abort path: acceptable guard outcome
        report = verify_run(result, solver=solver)
        assert not report.passed


def _moving_sonic_flux(speed):
    """A flux that reads t: G has a critical point at u = speed * t on every vertical face."""
    def wt(p, u):
        return -0.5 * (u - speed * p[..., 0]) ** 2 * (1.0 + 0.3 * np.sin(6.0 * p[..., 1]))

    def dwt(p, u):
        return (speed * p[..., 0] - u) * (1.0 + 0.3 * np.sin(6.0 * p[..., 1]))

    def wx(p, u):
        return u * (1.5 + np.cos(p[..., 0] + p[..., 1]))

    def dwx(p, u):
        return (1.5 + np.cos(p[..., 0] + p[..., 1])) + 0.0 * u

    return FluxField(omega=ParamForm(1, 2, {(0,): wt, (1,): wx}, {(0,): dwt, (1,): dwx},
                                     (0.3, 1.0)), domain=None, name="moving-sonic")


def _assert_same_table(view, alone):
    """Every attribute of a block's row view equals the table built alone, byte for byte."""
    assert vars(view).keys() == vars(alone).keys()
    for name, value in vars(alone).items():
        other = vars(view)[name]
        if isinstance(value, np.ndarray):
            assert (other.shape, other.dtype, other.tobytes()) \
                == (value.shape, value.dtype, value.tobytes()), name
        elif name == "face_ids":
            assert list(other) == list(value)
        elif name != "derived":
            assert other == value, name


class TestBlockTables:
    @given(runs=st.lists(st.integers(1, 5), min_size=3, max_size=3),
           nx=st.integers(1, 7), block=st.sampled_from([1, 3, "all"]),
           circle=st.booleans(), kind=st.sampled_from(["godunov_osher", "rusanov"]),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_block_views_equal_tables_built_alone(self, runs, nx, block, circle, kind, order):
        # slabs of three heights in runs, a critical point at u = t that
        # enters the state range mid-run, tables asked for in any order
        domain = CircleDomain(1.0) if circle else IntervalDomain(0.0, 1.0)
        h = 0.02
        heights = np.repeat([h, 0.5 * h, 0.75 * h], runs)
        times = np.concatenate([[0.0], np.cumsum(heights)])
        tri = build_triangulation(Foliation(times, domain), nx)
        flux = _moving_sonic_flux(0.65 / times[-1])
        solver = Solver(tri, flux, NumericalFluxSpec(kind), constant_bd(0.6),
                        RunConfig(u_range=(0.3, 1.0)))
        rule, x_nodes = solver.rule, tri.breakpoints[:tri.n_nodes]
        slabs = list(range(tri.n_slabs))
        order.shuffle(slabs)
        size = tri.n_slabs if block == "all" else block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheme_module, "BLOCK_ROWS", size * tri.n_columns)
            assert [solver.block(j).slabs for j in range(tri.n_slabs)] == \
                [b for b in block_ranges(tri) for _ in b]
            for j in slabs:
                slab = solver.slab(j)
                _assert_same_table(slab.table_plus, SpacelikeTable(tri, flux, j + 1, rule=rule,
                                                                   u_range=solver.u_range))
                alone = VerticalFluxes(x_nodes, float(tri.times[j]), tri.heights[j], flux,
                                       solver.spec, rule, solver.u_range)
                _assert_same_table(slab.vert, alone)
                report = scheme_module._lambda_report(alone, slab.table_plus, slab.left_idx,
                                                      slab.right_idx, j)
                for name in ("lam_hat", "lam_hat_cell", "lam", "cfl_limit", "passed"):
                    other, value = getattr(slab.lambdas(), name), getattr(report, name)
                    assert (other.tobytes() == value.tobytes() if isinstance(value, np.ndarray)
                            else other == value), name
        assert solver.vertical_fluxes(0).crit_w.shape[1] == 0 \
            and solver.vertical_fluxes(tri.n_slabs - 1).crit_w.shape[1] > 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("later", ["not_spacelike", "non_finite_ratio"])
    def test_an_earlier_slab_of_a_block_fails_first(self, later, tmp_path, capsys):
        # one block of ten slabs: slab 1 breaches the CFL bound, and on slice 4
        # the x density changes sign at x = 0.31 (or slab 6's G' is infinite)
        # between the config samples, so the block build raises first; the run
        # must end as it does slab by slab, with slab 1's CFLViolation, exit 3
        from spacetime_fvm.cli import EXIT_SCHEME_ABORT, main
        window = "(1 + sign({w} - abs(t - {t})))"
        wx, dwx = "u", "1"
        if later == "not_spacelike":
            flip = f"{window.format(w=0.0005, t=0.04)} * (1 + sign(x - 0.31)) / 2"
            wx, dwx = f"u * (1 - {flip})", f"1 - {flip}"
        spike = f"(1 + 20 * {window.format(w=0.004, t=0.015)})"
        nan = " + 0 * (abs(t - 0.065) - 0.0005) ** 0.5" if later == "non_finite_ratio" else ""
        config = tmp_path / "run.ini"
        config.write_text("\n".join([
            "[spacetime]", "domain = interval 0 1", "t_final = 0.1",
            "[flux]", "builtin = custom", f"wx = {wx}", f"dwx_du = {dwx}",
            f"wt = -0.5 * u * u * {spike}", f"dwt_du = -u * {spike}{nan}",
            "[mesh]", "nx = 8", "dt = 0.01",
            "[boundary]", "u_b = 0.5 + 0.2 * sin(6 * x)", "[run]", "u_min = 0.2", "u_max = 0.8",
            "[output]", f"directory = {tmp_path}", ""]))
        setup = parse_config(config.read_text())
        tri = setup.triangulation()
        assert tri.n_slabs == 10 and block_ranges(tri) == [range(10)]
        errors = []
        for rows in (scheme_module.BLOCK_ROWS, tri.n_columns):   # one block; slab by slab
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scheme_module, "BLOCK_ROWS", rows)
                with pytest.raises(CFLViolation) as raised:
                    Solver(tri, setup.flux, setup.spec, setup.bd, setup.cfg).run()
                assert main(["run", "--config", str(config)]) == EXIT_SCHEME_ABORT
                errors.append((str(raised.value), capsys.readouterr().err))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith("slab 1: max cell ratio ")
        solver = Solver(tri, setup.flux, setup.spec, setup.bd, setup.cfg)
        with pytest.raises(NotSpacelikeError if later == "not_spacelike" else DegenerateFluxError,
                           match="slice 4 contains" if later == "not_spacelike" else "slab 6: "):
            for j in range(tri.n_slabs):
                solver.slab(j).lambdas()
