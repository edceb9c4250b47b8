import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spacetime_fvm.forms import (
    Coefficient,
    CoordinateForm,
    FaceChart,
    FormError,
    ParamForm,
    exterior_derivative,
    gauss_legendre,
    integrate,
    integrate_over_face,
    pullback,
    wedge,
)


def one_form(chart_dim, coeffs):
    return CoordinateForm(1, chart_dim, coeffs)


def pts_2d(*pairs):
    return np.array(pairs, dtype=float)


class TestWedge:
    def test_basis_orientation(self):
        dt = one_form(2, {(0,): 1.0})
        dx = one_form(2, {(1,): 1.0})
        p = pts_2d((0.3, 0.7))
        assert wedge(dt, dx).top_coefficient(p) == pytest.approx(1.0)

    def test_antisymmetry_of_basis(self):
        dt = one_form(2, {(0,): 1.0})
        dx = one_form(2, {(1,): 1.0})
        p = pts_2d((0.3, 0.7))
        assert wedge(dx, dt).top_coefficient(p) == pytest.approx(-1.0)

    def test_radial_pair_gives_radius_squared(self):
        # (y dx - x dy) ^ (x dx + y dy) = (x^2 + y^2) dx ^ dy
        a = one_form(2, {(0,): lambda p: p[..., 1], (1,): lambda p: -p[..., 0]})
        b = one_form(2, {(0,): lambda p: p[..., 0], (1,): lambda p: p[..., 1]})
        p = pts_2d((2.0, 3.0), (-1.0, 0.5))
        np.testing.assert_allclose(wedge(a, b).top_coefficient(p),
                                   p[:, 0] ** 2 + p[:, 1] ** 2)

    def test_degree_overflow_is_zero_form(self):
        dt = one_form(2, {(0,): 1.0})
        dx = one_form(2, {(1,): 1.0})
        top = wedge(dt, dx)
        overflow = wedge(top, dx)
        assert overflow.degree == 3
        assert overflow.is_empty

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FormError):
            wedge(one_form(2, {(0,): 1.0}), one_form(3, {(0,): 1.0}))

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2), st.floats(-2, 2),
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_graded_antisymmetry_on_one_forms(self, x, y, a0, a1, b0, b1):
        # wedge(a, b) = -wedge(b, a) for 1-forms, at arbitrary points
        a = one_form(2, {(0,): a0 + 0.1, (1,): lambda p, _c=a1: _c * p[..., 0]})
        b = one_form(2, {(0,): lambda p, _c=b0: _c + p[..., 1], (1,): b1})
        p = np.array([[x, y]])
        ab = wedge(a, b).top_coefficient(p)
        ba = wedge(b, a).top_coefficient(p)
        np.testing.assert_allclose(ab, -ba, atol=1e-12)


class TestExteriorDerivative:
    def test_constant_coefficient(self):
        # d(x dy) = dx ^ dy on an (x, y) chart
        form = one_form(2, {(1,): lambda p: p[..., 0]})
        d = exterior_derivative(form)
        np.testing.assert_allclose(d.top_coefficient(pts_2d((0.5, 0.25))), 1.0,
                                   rtol=1e-7)

    def test_radial_family_is_closed(self):
        # d(u x dx + u y dy) = 0 for every frozen state
        for ub in (-1.0, 0.3, 2.0):
            form = one_form(2, {(0,): lambda p, _u=ub: _u * p[..., 0],
                                (1,): lambda p, _u=ub: _u * p[..., 1]})
            d = exterior_derivative(form)
            vals = d.top_coefficient(pts_2d((1.1, 0.2), (0.4, -1.3)))
            np.testing.assert_allclose(vals, 0.0, atol=1e-8)

    def test_traveling_density_closed_against_sympy(self):
        # symbolic oracle: d(phi(x - t) u (dx - dt)) = 0 for frozen u
        t, x = sp.symbols("t x")
        phi = 2 + sp.sin(x - t)
        ub = 0.7
        wt_expr = -phi * ub
        wx_expr = phi * ub
        residual = sp.simplify(sp.diff(wx_expr, t) - sp.diff(wt_expr, x))
        assert residual == 0  # oracle: the form is closed

        form = one_form(2, {(0,): lambda p: -(2 + np.sin(p[..., 1] - p[..., 0])) * ub,
                            (1,): lambda p: (2 + np.sin(p[..., 1] - p[..., 0])) * ub})
        d = exterior_derivative(form)
        vals = d.top_coefficient(pts_2d((0.1, 0.9), (0.5, 2.0), (0.2, 4.0)))
        np.testing.assert_allclose(vals, 0.0, atol=1e-7)

    def test_dd_is_numerically_zero(self):
        zero_form = CoordinateForm(0, 2, {(): lambda p: np.sin(p[..., 0]) * p[..., 1] ** 2})
        dd = exterior_derivative(exterior_derivative(zero_form))
        vals = dd.top_coefficient(pts_2d((0.3, 0.4), (1.0, -0.5)))
        np.testing.assert_allclose(vals, 0.0, atol=1e-4)

    def test_analytic_partials_used_when_supplied(self):
        coeff = Coefficient(lambda p: p[..., 0] ** 2,
                            partials={0: lambda p: 2 * p[..., 0],
                                      1: lambda p: np.zeros(p.shape[:-1])})
        form = CoordinateForm(1, 2, {(1,): coeff})
        d = exterior_derivative(form)
        np.testing.assert_allclose(d.top_coefficient(pts_2d((3.0, 1.0))), 6.0, rtol=1e-14)

    def test_leibniz_rule_numerically(self):
        # d(psi * omega) = d(psi) ^ omega + psi * d(omega) for a 0-form psi
        psi = CoordinateForm(0, 2, {(): lambda p: np.cos(p[..., 0]) + p[..., 1]})
        omega = one_form(2, {(0,): lambda p: p[..., 0] * p[..., 1],
                             (1,): lambda p: np.sin(p[..., 1])})
        product = CoordinateForm(1, 2, {
            (0,): lambda p: (np.cos(p[..., 0]) + p[..., 1]) * (p[..., 0] * p[..., 1]),
            (1,): lambda p: (np.cos(p[..., 0]) + p[..., 1]) * np.sin(p[..., 1])})
        lhs = exterior_derivative(product)
        p = pts_2d((0.3, 0.8), (1.2, -0.4))
        psi_vals = psi.evaluate((), p)
        expected = (wedge(exterior_derivative(psi), omega).top_coefficient(p)
                    + psi_vals * exterior_derivative(omega).top_coefficient(p))
        np.testing.assert_allclose(lhs.top_coefficient(p), expected, atol=1e-5)


class TestPullbackAndIntegrate:
    def test_identity_segment(self):
        ub = 0.7
        form = one_form(2, {(1,): lambda p: ub + 0.0 * p[..., 0]})
        face = FaceChart.coordinate_segment(2, axis=1, fixed=[(0, 0.0)], lo=0.0, hi=1.0)
        pulled = pullback(form, face)
        s = np.array([[0.25], [0.75]])
        np.testing.assert_allclose(pulled.evaluate((0,), s), ub)
        assert integrate_over_face(form, face) == pytest.approx(ub)

    def test_radial_one_form_vanishes_on_circle(self):
        form = one_form(2, {(0,): lambda p: p[..., 0], (1,): lambda p: p[..., 1]})

        def param(s):
            th = s[..., 0]
            return np.stack([np.cos(th), np.sin(th)], axis=-1)

        face = FaceChart(param=param, ref_dim=1, chart_dim=2,
                         ref_lo=(0.0,), ref_hi=(2 * np.pi,))
        pulled = pullback(form, face)
        s = np.linspace(0, 2 * np.pi, 17)[:, None]
        np.testing.assert_allclose(pulled.evaluate((0,), s), 0.0, atol=1e-7)
        assert integrate_over_face(form, face) == pytest.approx(0.0, abs=1e-9)

    def test_vertical_segment_with_time_coefficient(self):
        # pull -Q dt with Q = t*u back to {x = x0, t in [t0, t1]}; the analytic
        # antiderivative gives the integral -u (t1^2 - t0^2) / 2
        ub, x0, t0, t1 = 2.0, 0.4, 1.0, 2.0
        form = one_form(2, {(0,): lambda p: -(p[..., 0] * ub)})
        face = FaceChart.coordinate_segment(2, axis=0, fixed=[(1, x0)], lo=t0, hi=t1)
        pulled = pullback(form, face)
        s = np.array([[1.5]])
        np.testing.assert_allclose(pulled.evaluate((0,), s), -(1.5 * ub))
        assert integrate_over_face(form, face) == pytest.approx(-ub * (t1**2 - t0**2) / 2)

    def test_orientation_sign_applied(self):
        form = one_form(2, {(1,): 1.0})
        face = FaceChart.coordinate_segment(2, axis=1, fixed=[(0, 0.0)],
                                            lo=0.0, hi=1.0, orientation=-1)
        assert integrate_over_face(form, face) == pytest.approx(-1.0)

    def test_rank_deficient_jacobian_rejected(self):
        form = one_form(2, {(1,): 1.0})

        def param(s):
            return np.stack([0.0 * s[..., 0], 0.0 * s[..., 0]], axis=-1)

        face = FaceChart(param=param, ref_dim=1, chart_dim=2)
        with pytest.raises(FormError):
            integrate_over_face(form, face)

    def test_integrate_constant_density(self):
        ub = 0.7
        form = one_form(2, {(1,): lambda p: ub + 0.0 * p[..., 0]})
        face = FaceChart.coordinate_segment(2, axis=1, fixed=[(0, 0.0)], lo=0.0, hi=1.0)
        assert integrate_over_face(form, face, gauss_legendre(5, 1)) == pytest.approx(ub)

    def test_integrate_against_analytic_antiderivative(self):
        # (2 + sin x) u over [0, pi] -> (2 pi + 2) u
        ub = 0.5
        form = one_form(2, {(1,): lambda p: (2 + np.sin(p[..., 1])) * ub})
        face = FaceChart.coordinate_segment(2, axis=1, fixed=[(0, 0.0)], lo=0.0, hi=np.pi)
        value = integrate_over_face(form, face, gauss_legendre(20, 1))
        assert value == pytest.approx((2 * np.pi + 2) * ub, rel=1e-12)

    def test_quadrature_exactness_on_monomials(self):
        rule = gauss_legendre(5, 1)
        assert rule.exactness_degree == 9
        for k in range(10):
            mono = CoordinateForm(1, 1, {(0,): lambda p, _k=k: p[..., 0] ** _k})
            assert integrate(mono, rule) == pytest.approx(1.0 / (k + 1), rel=1e-13)
        # degree 10 is no longer integrated exactly by design
        mono10 = CoordinateForm(1, 1, {(0,): lambda p: p[..., 0] ** 10})
        assert integrate(mono10, rule) != pytest.approx(1.0 / 11.0, rel=1e-13, abs=0)

    def test_weights_validated(self):
        with pytest.raises(FormError):
            # weights do not sum to the reference volume
            from spacetime_fvm.forms import QuadratureRule
            QuadratureRule(np.array([[0.5]]), np.array([0.7]), 1)


class TestStokesOnRectangle:
    def _boundary_sum(self, form, t0, t1, x0, x1, rule):
        top = FaceChart.coordinate_segment(2, 1, [(0, t1)], x0, x1)
        bottom = FaceChart.coordinate_segment(2, 1, [(0, t0)], x0, x1)
        right = FaceChart.coordinate_segment(2, 0, [(1, x1)], t0, t1, orientation=-1)
        left = FaceChart.coordinate_segment(2, 0, [(1, x0)], t0, t1)
        return (integrate_over_face(form, top, rule)
                - integrate_over_face(form, bottom, rule)
                + integrate_over_face(form, right, rule)
                + integrate_over_face(form, left, rule))

    def test_closed_form_has_zero_boundary_sum(self):
        ub = 0.7
        form = one_form(2, {(0,): lambda p: -0.5 * ub**2 + 0.0 * p[..., 0],
                            (1,): lambda p: ub + 0.0 * p[..., 0]})
        total = self._boundary_sum(form, 0.0, 0.4, 0.1, 0.9, gauss_legendre(5, 1))
        assert total == pytest.approx(0.0, abs=1e-13)

    def test_non_closed_form_matches_cell_integral(self):
        # omega = u t dx has d(omega) = u dt ^ dx; Stokes on a rectangle
        ub = 0.8
        t0, t1, x0, x1 = 0.2, 0.7, -0.3, 0.5
        form = one_form(2, {(0,): lambda p: 0.0 * p[..., 0],
                            (1,): lambda p: ub * p[..., 0]})
        boundary = self._boundary_sum(form, t0, t1, x0, x1, gauss_legendre(8, 1))
        cell = FaceChart.rectangle((t0, t1), (x0, x1))
        volume = integrate_over_face(exterior_derivative(form), cell, gauss_legendre(8, 2))
        assert boundary == pytest.approx(ub * (t1 - t0) * (x1 - x0), rel=1e-7)
        assert volume == pytest.approx(boundary, rel=1e-6)


class TestParamForm:
    def _family(self):
        coeffs = {(0,): lambda pts, u: -0.5 * np.asarray(u)**2 + 0.0 * pts[..., 0],
                  (1,): lambda pts, u: np.asarray(u) + 0.0 * pts[..., 0]}
        du = {(0,): lambda pts, u: -np.asarray(u) + 0.0 * pts[..., 0],
              (1,): lambda pts, u: np.ones(np.broadcast_shapes(np.shape(pts)[:-1],
                                                               np.shape(u)))}
        return ParamForm(1, 2, coeffs, du, (-1.0, 1.0))

    def test_du_consistency_passes(self):
        family = self._family()
        pts = pts_2d((0.0, 0.2), (0.5, 0.9))
        assert family.check_du_consistency(pts, [-0.5, 0.0, 0.7]) < 1e-5

    def test_inconsistent_du_rejected(self):
        coeffs = {(1,): lambda pts, u: np.asarray(u) + 0.0 * pts[..., 0]}
        du = {(1,): lambda pts, u: 3.0 + 0.0 * np.asarray(u) + 0.0 * pts[..., 0]}
        family = ParamForm(1, 2, coeffs, du, (-1.0, 1.0))
        with pytest.raises(FormError):
            family.check_du_consistency(pts_2d((0.0, 0.5)), [0.0])

    def test_non_finite_residual_rejected(self):
        # a NaN residual used to drop out of max() and pass as agreement
        coeffs = {(1,): lambda pts, u: np.asarray(u) + 0.0 * np.sqrt(pts[..., 1] - 0.25)}
        du = {(1,): lambda pts, u: np.ones(np.broadcast_shapes(np.shape(pts)[:-1],
                                                               np.shape(u)))}
        family = ParamForm(1, 2, coeffs, du, (-1.0, 1.0))
        with pytest.raises(FormError, match=r"coefficient \(1,\): not finite near u = 0\.5"):
            family.check_du_consistency(pts_2d((0.0, 0.5), (0.0, 0.1)), [0.5])

    def test_degenerate_u_range_rejected(self):
        with pytest.raises(FormError):
            ParamForm(1, 2, {(1,): lambda p, u: u}, {(1,): lambda p, u: 1.0}, (1.0, 1.0))

    def test_base_and_du_are_coordinate_forms(self):
        family = self._family()
        frozen = family.base(0.5)
        assert isinstance(frozen, CoordinateForm)
        np.testing.assert_allclose(frozen.evaluate((1,), pts_2d((0.0, 0.3))), 0.5)
        np.testing.assert_allclose(family.du(0.5).evaluate((0,), pts_2d((0.0, 0.3))), -0.5)
