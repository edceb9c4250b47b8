import numpy as np

from spacetime_fvm.expressions import compile_expression


class TestCompiledExpressions:
    def test_bare_variable_returns_a_copy(self):
        u = np.linspace(-1.0, 1.0, 7)
        out = compile_expression("u", variables=("u",))(u=u)
        assert out is not u and np.array_equal(out, u)
        out[:] = 0.0
        assert u[0] == -1.0

    def test_results_broadcast_against_every_variable(self):
        x = np.linspace(0.0, 1.0, 4)[:, None]
        u = np.broadcast_to(np.array([0.5, 2.0]), (4, 2))
        f = compile_expression("-0.5 * u * u", variables=("x", "u"))
        out = f(x=x, u=u)
        assert out.shape == (4, 2) and out.flags.writeable
        assert np.array_equal(out, -0.5 * u * u)
        const = compile_expression("1", variables=("x", "u"))(x=x, u=u)
        assert const.shape == (4, 2) and np.all(const == 1.0)
        partial = compile_expression("2 * x", variables=("x", "u"))(x=x, u=u)
        assert np.array_equal(partial, np.broadcast_to(2 * x, (4, 2)))
