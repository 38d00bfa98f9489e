"""Safe evaluation of symbolic parameter expressions like "arcsin(cos(pi/6)/alpha)".

Coin angles defined through derived quantities (alpha, gamma, beta resolve
from the loss probability of the run) are stored symbolically and evaluated
at run time, so no decimal rounding is baked into configurations.
"""

from __future__ import annotations

import ast
import math

from .errors import ConfigError
from .floquet import CoinParams

__all__ = ["evaluate", "evaluate_angle"]

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arcsin": math.asin,
    "arccos": math.acos,
    "arctan": math.atan,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "abs": abs,
}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def _constants(p: float | None) -> dict[str, complex]:
    """Named constants; gamma, alpha and beta need p (a ValueError outside [0, 1))."""
    names: dict[str, complex] = {"pi": math.pi, "e": math.e, "i": 1j, "j": 1j}
    if p is not None:
        params = CoinParams(0.0, 0.0, p)
        names.update(gamma=params.gamma, alpha=params.alpha, beta=params.beta)
    return names


def _eval_node(node: ast.AST, names: dict[str, complex]) -> complex:
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, names)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return complex(node.value)
        raise ConfigError(f"literal {node.value!r} is not a number")
    if isinstance(node, ast.Name):
        try:
            return names[node.id]
        except KeyError:
            raise ConfigError(f"unknown name {node.id!r} (is p missing?)") from None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_node(node.operand, names)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left = _eval_node(node.left, names)
        right = _eval_node(node.right, names)
        try:
            return _BINOPS[type(node.op)](left, right)
        except ZeroDivisionError:
            raise ConfigError("division by zero in expression") from None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        func = _FUNCTIONS.get(node.func.id)
        if func is None or node.keywords or len(node.args) != 1:
            raise ConfigError(f"unsupported function call {ast.unparse(node)}")
        arg = _eval_node(node.args[0], names)
        if arg.imag == 0:
            try:
                return complex(func(arg.real))
            except ValueError as exc:
                raise ConfigError(f"domain error in {node.func.id}: {exc}") from None
        raise ConfigError(f"{node.func.id} expects a real argument")
    raise ConfigError(f"unsupported syntax: {ast.unparse(node)}")


def evaluate(expression: str, p: float | None = None) -> complex:
    """Evaluate a whitelisted arithmetic expression to a complex number."""
    try:
        value = _eval_node(ast.parse(expression, mode="eval"), _constants(p))
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse {expression!r}: {exc}") from None
    except (OverflowError, RecursionError) as exc:  # exp(1000), 10**400, deep nesting
        raise ConfigError(f"cannot evaluate {expression!r}: {exc}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"{expression!r} does not evaluate to a finite number")
    return value


def evaluate_angle(expression: str, p: float | None = None) -> float:
    """Evaluate an expression that must come out real (an angle in radians)."""
    value = evaluate(expression, p)
    if abs(value.imag) > 1e-12:
        raise ConfigError(f"{expression!r} is not real-valued")
    return float(value.real)
