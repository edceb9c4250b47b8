import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import constant_bd, make_solver

from spacetime_fvm import presets
from spacetime_fvm.harness import (
    BurgersRiemann,
    CharacteristicsLinear,
    advection_circle_case,
    appendix_examples,
    boundary_driven_burgers_case,
    bump_test_function,
    convergence_study,
    fit_order,
    first_slice_trace_distance,
    l1_error,
    trace_convergence_check,
)
from spacetime_fvm.mesh import CircleDomain, IntervalDomain


class TestCharacteristicsOracle:
    def test_constant_data(self):
        oracle = CharacteristicsLinear(u0=lambda x: 0.0 * x + 0.3,
                                       domain=IntervalDomain(0.0, 1.0))
        np.testing.assert_allclose(oracle(0.7, np.linspace(0, 1, 9)), 0.3)

    def test_full_revolution_is_identity(self):
        dom = CircleDomain(2 * np.pi)
        oracle = CharacteristicsLinear(u0=np.sin, domain=dom)
        x = np.linspace(0, 2 * np.pi, 33)
        np.testing.assert_allclose(oracle(2 * np.pi, x), np.sin(x), atol=1e-12)

    def test_step_transported_with_density(self):
        # oracle for the conserved density v = phi u: v satisfies plain
        # transport, so u itself is the initial data moved at unit speed
        phi = lambda s: 2.0 + np.sin(s)  # noqa: E731
        u0 = lambda x: np.where(x < 0.5, 1.0, 0.0)  # noqa: E731
        oracle = CharacteristicsLinear(u0=u0, domain=IntervalDomain(-2.0, 3.0))
        t = 0.8
        x = np.linspace(-1.0, 2.5, 101)
        v_transported = phi(x - t) * u0(x - t)
        np.testing.assert_allclose(phi(x - t) * oracle(t, x), v_transported, atol=0)

    def test_characteristics_residual_small(self):
        # finite-difference residual of (phi u)_t + (phi u)_x for the oracle
        phi = lambda s: 2.0 + np.sin(s)  # noqa: E731
        oracle = CharacteristicsLinear(u0=lambda x: 0.4 + 0.2 * np.sin(x),
                                       domain=CircleDomain(2 * np.pi))
        h = 1e-5
        t, x = 0.3, 1.2
        v = lambda tt, xx: phi(xx - tt) * oracle(tt, xx)  # noqa: E731
        resid = (v(t + h, x) - v(t - h, x)) / (2 * h) + (v(t, x + h) - v(t, x - h)) / (2 * h)
        assert abs(resid) < 1e-9


class TestBurgersRiemannOracle:
    def test_shock_speed_rankine_hugoniot(self):
        # oracle check: the jump moves at (f(ul) - f(ur)) / (ul - ur)
        ul, ur = 1.0, 0.0
        f = lambda u: u * u / 2  # noqa: E731
        speed = (f(ul) - f(ur)) / (ul - ur)
        assert speed == pytest.approx(0.5)
        oracle = BurgersRiemann(ul, ur, x_jump=0.5)
        t = 0.4
        eps = 1e-9
        assert oracle(t, 0.5 + speed * t - eps) == ul
        assert oracle(t, 0.5 + speed * t + eps) == ur

    def test_equal_states_constant(self):
        oracle = BurgersRiemann(0.3, 0.3)
        np.testing.assert_allclose(oracle(0.7, np.linspace(0, 1, 11)), 0.3)

    def test_fan_against_selfsimilar_ode(self):
        # independent oracle: the self-similar profile solves
        # du/dxi = 1 / f''(u) = 1 starting from the left state
        ul, ur = -1.0, 1.0
        sol = solve_ivp(lambda xi, u: np.ones_like(u), (ul, ur), [ul],
                        dense_output=True, rtol=1e-10, atol=1e-12)
        oracle = BurgersRiemann(ul, ur, x_jump=0.0)
        t = 0.5
        for xi in np.linspace(-0.9, 0.9, 7):
            assert oracle(t, xi * t) == pytest.approx(float(sol.sol(xi)[0]), abs=1e-8)

    def test_fan_edges_clipped(self):
        oracle = BurgersRiemann(-1.0, 1.0, x_jump=0.0)
        assert oracle(0.5, -2.0) == -1.0
        assert oracle(0.5, 2.0) == 1.0


class TestL1Error:
    def test_exact_lattice_match_integrates_to_zero(self):
        flux = presets.burgers_flux((-1.0, 1.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.05, constant_bd(0.4),
                             nx=8, u_range=(0.3, 0.5))
        result = solver.run()
        oracle = lambda t, x: 0.4 + 0.0 * np.asarray(x)  # noqa: E731
        assert l1_error(result, oracle) <= 1e-12

    def test_weight_uses_flux_measure(self):
        # the same mismatch integrated against a doubled density doubles
        flux = presets.capacity_flux(lambda x: 2.0 + 0.0 * x, lambda x: 0.0 * x,
                                     lambda u: 0.0 * np.asarray(u),
                                     lambda u: 0.0 * np.asarray(u), (-1.0, 1.0))
        solver = make_solver(flux, IntervalDomain(0.0, 1.0), 0.01, constant_bd(0.5),
                             nx=4, u_range=(0.4, 0.6))
        result = solver.run()
        oracle = lambda t, x: 0.0 * np.asarray(x)  # noqa: E731
        assert l1_error(result, oracle) == pytest.approx(2.0 * 0.5, rel=1e-12)

    def test_order_fit_helper(self):
        hs = [0.1, 0.05, 0.025]
        errs = [c * h for c, h in zip((1.0, 1.0, 1.0), hs)]
        assert fit_order(hs, errs) == pytest.approx(1.0)


class TestConvergenceStudies:
    def test_advection_small_meshes(self):
        study = convergence_study(advection_circle_case(t_final=0.3), [16, 32, 64])
        assert study.strictly_decreasing
        assert 0.6 <= study.order <= 1.2

    def test_oracle_self_error_far_below_scheme_error(self):
        # closed-form oracle evaluated on two sampling resolutions agrees with
        # itself far more tightly than the coarsest-mesh scheme error
        case = advection_circle_case(t_final=0.3)
        result = case.run(16)
        scheme_err = l1_error(result, case.oracle)
        fine = l1_error(result, case.oracle, n_nodes=40)
        assert abs(scheme_err - fine) < scheme_err / 100.0

    def test_requires_oracle(self):
        case = boundary_driven_burgers_case()
        with pytest.raises(ValueError):
            convergence_study(case, [8, 16])

    def test_requires_increasing_meshes(self):
        with pytest.raises(ValueError):
            convergence_study(advection_circle_case(), [16, 8])


class TestTraceConvergence:
    def test_constant_data_zero_distance(self):
        case = advection_circle_case(u0=lambda x: 0.5 + 0.0 * x, t_final=0.2)
        study = trace_convergence_check(case, [8, 16])
        assert all(d <= 1e-12 for d in study.distances)

    def test_smooth_data_first_order(self):
        case = advection_circle_case(t_final=0.2)
        study = trace_convergence_check(case, [16, 32, 64])
        assert study.decreasing
        assert study.order >= 0.5

    def test_mesh_aligned_jump_decreases(self):
        u0 = lambda x: np.where(x < np.pi, 1.0, 0.0)  # noqa: E731
        case = advection_circle_case(u0=u0, t_final=0.2)
        study = trace_convergence_check(case, [16, 32, 64])
        assert study.decreasing

    def test_distance_matches_direct_run(self):
        case = advection_circle_case(t_final=0.2)
        result = case.run(16)
        assert first_slice_trace_distance(result) >= 0.0

    @pytest.mark.parametrize("sizes", [[16, 8], [8, 8], [8, 16, 12]])
    def test_sizes_must_strictly_increase(self, sizes, monkeypatch):
        # rejected before any run, as in convergence_study
        case = advection_circle_case(t_final=0.2)
        monkeypatch.setattr(type(case), "run", lambda self, nx: pytest.fail("ran a mesh"))
        with pytest.raises(ValueError, match="^mesh sizes must be strictly increasing$"):
            trace_convergence_check(case, sizes)


class TestAppendixExamples:
    def test_full_report(self):
        rep = appendix_examples()
        assert rep.matches_expected
        assert rep.annulus_hyperbolic
        assert rep.annulus_spacelike_boundary_count == 0
        assert rep.annulus_min_coefficient == pytest.approx(1.0, rel=1e-12)
        assert set(rep.hole_inflow) == {"outer_bottom", "hole_top"}
        assert rep.hole_classes["outer_top"] == "spacelike_outflow"

    def test_report_serializes(self):
        import json
        payload = json.loads(json.dumps(appendix_examples().to_dict()))
        assert payload["matches_expected"] is True


class TestBumpFunction:
    def test_compact_support_and_gradient(self):
        psi = bump_test_function(0.1, 0.5, 0.08, 0.2)
        inside = np.array([[0.1, 0.5]])
        outside = np.array([[0.5, 0.5], [0.1, 0.9]])
        assert psi(inside)[0] == pytest.approx(1.0)
        np.testing.assert_allclose(psi(outside), 0.0)
        # analytic gradient agrees with finite differences
        p = np.array([[0.12, 0.55]])
        h = 1e-6
        for axis in range(2):
            shift = np.zeros((1, 2))
            shift[0, axis] = h
            fd = (psi(p + shift) - psi(p - shift)) / (2 * h)
            assert psi.gradient(p)[0, axis] == pytest.approx(fd[0], abs=1e-5)
