"""Tiny exact evaluator for the arithmetic expressions used in the registry.

Registry fields such as bounds ("(n-1)/2"), Pochhammer exponents ("d-1"),
shifts ("-(n-1)*(d-1)/(2*d)") and applicability conditions
("n % (2*d) == 1") are strings.  They are evaluated here exactly, in
ints and Fractions, over an explicit allowlist of AST nodes, so the
registry can never execute anything beyond integer arithmetic and
comparisons.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import lru_cache


class SpecError(ValueError):
    """A statement spec is malformed or instantiated outside its domain."""


class ExpressionError(SpecError):
    """Malformed, disallowed, or non-integral registry expression: a spec
    value out of its domain, so every lane reports it as an obstruction."""


# A power is refused before it is computed when its result would need more
# bits than this: registry values are exponents and lengths, and an
# unchecked tower such as n**n**n would never finish.
MAX_POWER_BITS = 4096


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: Fraction(a) / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_CMPOPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def _eval_node(node: ast.AST, names: dict) -> int | Fraction | bool:
    """The exact value of ``node``: an int while no division has made a
    fraction, since int arithmetic is much cheaper than Fraction's."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise ExpressionError(f"only integer literals allowed, got {node.value!r}")
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ExpressionError(f"unbound name {node.id!r}")
        value = names[node.id]
        if value is None:
            raise ExpressionError(f"name {node.id!r} required but not supplied")
        return value if type(value) is int else Fraction(value)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left = _eval_node(node.left, names)
        right = _eval_node(node.right, names)
        if isinstance(left, bool) or isinstance(right, bool):
            raise ExpressionError("boolean operand in arithmetic expression")
        op = type(node.op)
        if op in (ast.FloorDiv, ast.Mod):
            left, right = _as_int(left), _as_int(right)
        if op is ast.Pow:
            right = _as_int(right)
            if right < 0:
                raise ExpressionError("negative exponent in registry expression")
            size = max(abs(left.numerator), left.denominator).bit_length()
            if size > 1 and size * right > MAX_POWER_BITS:
                raise ExpressionError(
                    f"power of about {size * right} bits exceeds {MAX_POWER_BITS}"
                )
        try:
            return _BINOPS[op](left, right)
        except ZeroDivisionError as exc:
            raise ExpressionError("division by zero in registry expression") from exc
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return -_eval_node(node.operand, names)
        if isinstance(node.op, ast.UAdd):
            return +_eval_node(node.operand, names)
        if isinstance(node.op, ast.Not):
            return not _eval_node(node.operand, names)
    if isinstance(node, ast.BoolOp):
        values = [_eval_node(v, names) for v in node.values]
        return all(values) if isinstance(node.op, ast.And) else any(values)
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, names)
        for op, comparator in zip(node.ops, node.comparators):
            if type(op) not in _CMPOPS:
                raise ExpressionError(f"comparison {type(op).__name__} not allowed")
            right = _eval_node(comparator, names)
            if not _CMPOPS[type(op)](left, right):
                return False
            left = right
        return True
    raise ExpressionError(f"disallowed syntax: {type(node).__name__}")


def _as_int(value: int | Fraction) -> int:
    if isinstance(value, bool):
        raise ExpressionError("boolean where integer expected")
    if value.denominator != 1:
        raise ExpressionError(f"non-integral value {value}")
    return value.numerator


@lru_cache(maxsize=1024)
def _parse(text: str) -> ast.expr:
    """The expression tree of ``text``, parsed once per process: a registry
    holds few texts (the catalog 65) and each is evaluated at many
    bindings.  A text that fails to parse raises on every call, since an
    exception is never cached."""
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc


def _eval_number(text: str, names: dict) -> int | Fraction:
    """Evaluate ``text`` with the given name bindings, exactly, as a number."""
    value = _eval_node(_parse(text), names)
    if isinstance(value, bool):
        raise ExpressionError(f"{text!r} is boolean, expected a number")
    return value


def eval_fraction(text: str, **names) -> Fraction:
    value = _eval_number(text, names)
    return Fraction(value) if type(value) is int else value


def eval_int(text: str, **names) -> int:
    """Evaluate ``text`` and require an integer result.

    Non-integrality signals a mis-registered case (for instance a closed-form
    length used outside its congruence class), so it is an error, never a
    silent rounding.
    """
    return _as_int(_eval_number(text, names))


def eval_bool(text: str, **names) -> bool:
    value = _eval_node(_parse(text), names)
    if not isinstance(value, bool):
        raise ExpressionError(f"{text!r} is numeric, expected a condition")
    return value
