"""Small arithmetic expression evaluator for config-defined coefficients.

Flux coefficients and boundary data are plain expressions in the chart
variables ``t``, ``x`` and the state ``u`` (for example
``"(2 + sin(x - t)) * u"``), compiled to vectorized numpy callables.
Parsing goes through the ast module with a strict whitelist, so config
files cannot execute arbitrary code.
"""

from __future__ import annotations

import ast
from typing import Callable, Sequence

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sign": np.sign,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
    ast.Mod: np.mod,
}

_UNARYOPS = {ast.USub: np.negative, ast.UAdd: lambda v: v}


class ExpressionError(ValueError):
    """Raised for syntax errors or names outside the whitelist."""


def _validate(node: ast.AST, variables: set[str], source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, variables, source)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator not allowed in {source!r}")
        _validate(node.left, variables, source)
        _validate(node.right, variables, source)
    elif isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARYOPS:
            raise ExpressionError(f"unary operator not allowed in {source!r}")
        _validate(node.operand, variables, source)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"unknown function in {source!r}")
        if node.keywords or len(node.args) != 1:
            raise ExpressionError(f"functions take one positional argument ({source!r})")
        _validate(node.args[0], variables, source)
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r} in {source!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"only numeric literals are allowed ({source!r})")
    else:
        raise ExpressionError(f"syntax element {type(node).__name__} not allowed in {source!r}")


def _compile(node: ast.AST, variables: set[str]) -> Callable[[dict], object]:
    """The closure ``env -> value`` of a validated node.

    It makes the same ufunc calls on the same operands in the same order as
    walking the tree would, so values and warnings are those of the walk.
    Nothing is folded: ``0/0*x`` warns when it is evaluated, not here.
    """
    if isinstance(node, ast.BinOp):
        op, left, right = (_BINOPS[type(node.op)], _compile(node.left, variables),
                           _compile(node.right, variables))
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        op, operand = _UNARYOPS[type(node.op)], _compile(node.operand, variables)
        return lambda env: op(operand(env))
    if isinstance(node, ast.Call):
        fn, arg = _FUNCTIONS[node.func.id], _compile(node.args[0], variables)
        return lambda env: fn(arg(env))
    if isinstance(node, ast.Name) and node.id in variables:
        name = node.id
        return lambda env: env[name]
    value = _CONSTANTS[node.id] if isinstance(node, ast.Name) else node.value
    return lambda env: value


def compile_expression(source: str, variables: Sequence[str] = ("t", "x", "u")) -> Callable:
    """Compile an expression into ``f(**variables) -> array``.

    Variables not appearing in the expression are still accepted as
    keyword arguments; the result is broadcast against all of them so
    constants keep the callers' shapes.  ``fn.names`` is the set of
    variables the expression reads.
    """
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {source!r}: {exc.msg}") from exc
    allowed = set(variables)
    _validate(tree, allowed, source)
    evaluate = _compile(tree.body, allowed)

    def fn(**env):
        if not allowed <= env.keys():
            missing = allowed - set(env)
            raise ExpressionError(f"missing variables {sorted(missing)} for {source!r}")
        value = evaluate(env)
        shape = np.broadcast(*env.values()).shape if env else ()
        if isinstance(value, np.ndarray) and value.shape == shape and value.dtype == float \
                and not any(value is v for v in env.values()):
            return value                 # already a new array of the full shape
        if not shape:
            return np.asarray(value, dtype=float)
        out = np.empty(shape)
        out[...] = value
        return out

    fn.source = source
    fn.names = frozenset(node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and node.id in allowed)
    return fn
