import ast
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacetime_fvm.expressions import (
    _BINOPS,
    _CONSTANTS,
    _FUNCTIONS,
    _UNARYOPS,
    ExpressionError,
    compile_expression,
)


def _evaluate(node: ast.AST, env: dict):
    """The tree walk that compiled expressions replace: the oracle of their bits."""
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return _UNARYOPS[type(node.op)](_evaluate(node.operand, env))
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], env))
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else _CONSTANTS[node.id]
    return node.value


def _walked(source: str, env: dict) -> np.ndarray:
    """``compile_expression(source)(**env)`` by walking the tree on every call."""
    value = _evaluate(ast.parse(source, mode="eval"), env)
    shape = np.broadcast_shapes(*[np.shape(v) for v in env.values()])
    if isinstance(value, np.ndarray) and value.shape == shape and value.dtype == float \
            and not any(value is v for v in env.values()):
        return value
    return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()


def _outcome(fn):
    """(result bytes or the exception, the warnings raised) of ``fn()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
            result = (out.shape, out.dtype, out.tobytes())
        except Exception as exc:              # noqa: BLE001 - compared, not handled
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


_LEAVES = st.sampled_from(["t", "x", "u", "pi", "e", "0", "1", "2", "0.5", "3.25", "1e308"])


def _grow(children):
    return st.one_of(
        st.tuples(st.sampled_from(["-", "+"]), children).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(st.sampled_from(sorted(_FUNCTIONS)), children).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**", "%"]), children)
        .map(lambda p: f"({p[0]} {p[1]} {p[2]})"))


_EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=8)
_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0]))


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

    def test_names_are_the_variables_read(self):
        assert compile_expression("(2 + sin(x - t)) * u").names == {"t", "x", "u"}
        assert compile_expression("-0.5 * u * u + 0 * x").names == {"x", "u"}
        assert compile_expression("pi * e").names == frozenset()

    @given(source=_EXPRESSIONS, t=st.lists(_VALUES, min_size=3, max_size=3),
           x=st.lists(_VALUES, min_size=4, max_size=4),
           u=st.lists(_VALUES, min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_compiled_expression_equals_the_tree_walk(self, source, t, x, u):
        # same bits, same exception, same warnings in the same order; and
        # compiling evaluates nothing, so it warns of nothing (no folding)
        env = {"t": np.array(t)[:, None], "x": np.array(x)[None, :],
               "u": np.array(u).reshape(3, 4)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn = compile_expression(source)
        assert not caught
        assert _outcome(lambda: fn(**env)) == _outcome(lambda: _walked(source, env))

    def test_missing_variable_is_an_expression_error(self):
        fn = compile_expression("u + x")
        with pytest.raises(ExpressionError, match=r"missing variables \['t', 'x'\] for 'u \+ x'"):
            fn(u=1.0)
        assert fn(t=0.0, x=1.0, u=2.0) == 3.0

    def test_compiling_folds_no_constant(self):
        # under filterwarnings = error a folded 0/0 would raise here
        fn = compile_expression("0/0*x", variables=("x",))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert np.isnan(fn(x=np.ones(2))).all()
