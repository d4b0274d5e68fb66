"""Numeric primitives.

Scheme numbers map onto Python ``int`` (exact integers),
``fractions.Fraction`` (exact rationals) and ``float`` (inexact reals).
``bool`` must be rejected everywhere despite being an ``int`` subclass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable

from repro.errors import SchemeError, WrongTypeError

__all__ = ["NUMERIC_PRIMITIVES", "check_number", "normalize"]

Number = (int, float, Fraction)


def check_number(name: str, value: Any) -> Any:
    if isinstance(value, bool) or not isinstance(value, Number):
        raise WrongTypeError(f"{name}: not a number: {value!r}")
    return value


def normalize(value: Any) -> Any:
    """Collapse integral Fractions to ints (exactness preserved)."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def prim_add(*args: Any) -> Any:
    # Fixnum fast path: ``type(x) is int`` is False for bool, so the
    # bool-rejection contract of check_number is preserved, and an
    # int result never needs normalizing.
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a + b
    total: Any = 0
    for arg in args:
        check_number("+", arg)
        total = total + arg
    return normalize(total)


def prim_sub(first: Any, *rest: Any) -> Any:
    if len(rest) == 1:
        b = rest[0]
        if type(first) is int and type(b) is int:
            return first - b
    check_number("-", first)
    if not rest:
        return normalize(-first)
    total = first
    for arg in rest:
        check_number("-", arg)
        total = total - arg
    return normalize(total)


def prim_mul(*args: Any) -> Any:
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a * b
    total: Any = 1
    for arg in args:
        check_number("*", arg)
        total = total * arg
    return normalize(total)


def prim_div(first: Any, *rest: Any) -> Any:
    check_number("/", first)
    values = (first,) + rest if rest else (1, first)
    total: Any = values[0]
    for arg in values[1:]:
        check_number("/", arg)
        if arg == 0 and not isinstance(arg, float):
            raise SchemeError("/: division by zero")
        if isinstance(total, float) or isinstance(arg, float):
            total = total / arg
        else:
            total = Fraction(total) / Fraction(arg)
    return normalize(total)


def _comparison(name: str, op: Callable[[Any, Any], bool]) -> Callable[..., bool]:
    def compare(first: Any, *rest: Any) -> bool:
        if len(rest) == 1:
            b = rest[0]
            if type(first) is int and type(b) is int:
                return op(first, b)
        check_number(name, first)
        previous = first
        for arg in rest:
            check_number(name, arg)
            if not op(previous, arg):
                return False
            previous = arg
        return True

    compare.__name__ = f"prim_{name}"
    return compare


def prim_quotient(a: Any, b: Any) -> int:
    _check_integer("quotient", a)
    _check_integer("quotient", b)
    if b == 0:
        raise SchemeError("quotient: division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def prim_remainder(a: Any, b: Any) -> int:
    _check_integer("remainder", a)
    _check_integer("remainder", b)
    if b == 0:
        raise SchemeError("remainder: division by zero")
    return a - b * prim_quotient(a, b)


def prim_modulo(a: Any, b: Any) -> int:
    _check_integer("modulo", a)
    _check_integer("modulo", b)
    if b == 0:
        raise SchemeError("modulo: division by zero")
    return a % b


def _check_integer(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WrongTypeError(f"{name}: not an integer: {value!r}")


def prim_abs(x: Any) -> Any:
    check_number("abs", x)
    return normalize(abs(x))


def prim_min(first: Any, *rest: Any) -> Any:
    check_number("min", first)
    result = first
    inexact = isinstance(first, float)
    for arg in rest:
        check_number("min", arg)
        inexact = inexact or isinstance(arg, float)
        if arg < result:
            result = arg
    return float(result) if inexact else result


def prim_max(first: Any, *rest: Any) -> Any:
    check_number("max", first)
    result = first
    inexact = isinstance(first, float)
    for arg in rest:
        check_number("max", arg)
        inexact = inexact or isinstance(arg, float)
        if arg > result:
            result = arg
    return float(result) if inexact else result


def prim_gcd(*args: Any) -> int:
    result = 0
    for arg in args:
        _check_integer("gcd", arg)
        result = math.gcd(result, arg)
    return result


def prim_lcm(*args: Any) -> int:
    result = 1
    for arg in args:
        _check_integer("lcm", arg)
        if arg == 0:
            return 0
        result = abs(result * arg) // math.gcd(result, arg)
    return result


def prim_expt(base: Any, power: Any) -> Any:
    check_number("expt", base)
    check_number("expt", power)
    if isinstance(power, int) and not isinstance(base, float):
        if power >= 0:
            return normalize(base**power)
        if base == 0:
            raise SchemeError("expt: 0 raised to a negative power")
        return normalize(Fraction(base) ** power)
    return float(base) ** float(power)


def prim_sqrt(x: Any) -> Any:
    check_number("sqrt", x)
    if isinstance(x, int) and x >= 0:
        root = math.isqrt(x)
        if root * root == x:
            return root
    if x < 0:
        raise SchemeError(f"sqrt: negative argument {x}")
    return math.sqrt(x)


def prim_floor(x: Any) -> Any:
    check_number("floor", x)
    return float(math.floor(x)) if isinstance(x, float) else math.floor(x)


def prim_ceiling(x: Any) -> Any:
    check_number("ceiling", x)
    return float(math.ceil(x)) if isinstance(x, float) else math.ceil(x)


def prim_truncate(x: Any) -> Any:
    check_number("truncate", x)
    return float(math.trunc(x)) if isinstance(x, float) else math.trunc(x)


def prim_round(x: Any) -> Any:
    check_number("round", x)
    if isinstance(x, float):
        return float(round(x))
    if isinstance(x, Fraction):
        # Banker's rounding, exact.
        floor = x.numerator // x.denominator
        diff = x - floor
        if diff > Fraction(1, 2) or (diff == Fraction(1, 2) and floor % 2 != 0):
            return floor + 1
        return floor
    return x


def prim_exact_to_inexact(x: Any) -> float:
    check_number("exact->inexact", x)
    return float(x)


def prim_inexact_to_exact(x: Any) -> Any:
    check_number("inexact->exact", x)
    if isinstance(x, float):
        return normalize(Fraction(x).limit_denominator(10**12))
    return x


def prim_number_to_string(x: Any) -> str:
    check_number("number->string", x)
    from repro.datum import scheme_repr

    return scheme_repr(x)


def prim_string_to_number(s: Any) -> Any:
    if not isinstance(s, str):
        raise WrongTypeError(f"string->number: not a string: {s!r}")
    from repro.reader import parse_number

    value = parse_number(s)
    return value if value is not None else False


def prim_is_zero(x: Any) -> bool:
    check_number("zero?", x)
    return x == 0


def prim_is_positive(x: Any) -> bool:
    check_number("positive?", x)
    return x > 0


def prim_is_negative(x: Any) -> bool:
    check_number("negative?", x)
    return x < 0


def prim_is_odd(x: Any) -> bool:
    _check_integer("odd?", x)
    return x % 2 == 1


def prim_is_even(x: Any) -> bool:
    _check_integer("even?", x)
    return x % 2 == 0


def prim_add1(x: Any) -> Any:
    check_number("add1", x)
    return normalize(x + 1)


def prim_sub1(x: Any) -> Any:
    check_number("sub1", x)
    return normalize(x - 1)


#: name -> (fn, min-arity, max-arity or None)
NUMERIC_PRIMITIVES: dict[str, tuple[Callable[..., Any], int, int | None]] = {
    "+": (prim_add, 0, None),
    "-": (prim_sub, 1, None),
    "*": (prim_mul, 0, None),
    "/": (prim_div, 1, None),
    "=": (_comparison("=", lambda a, b: a == b), 1, None),
    "<": (_comparison("<", lambda a, b: a < b), 1, None),
    ">": (_comparison(">", lambda a, b: a > b), 1, None),
    "<=": (_comparison("<=", lambda a, b: a <= b), 1, None),
    ">=": (_comparison(">=", lambda a, b: a >= b), 1, None),
    "quotient": (prim_quotient, 2, 2),
    "remainder": (prim_remainder, 2, 2),
    "modulo": (prim_modulo, 2, 2),
    "abs": (prim_abs, 1, 1),
    "min": (prim_min, 1, None),
    "max": (prim_max, 1, None),
    "gcd": (prim_gcd, 0, None),
    "lcm": (prim_lcm, 0, None),
    "expt": (prim_expt, 2, 2),
    "sqrt": (prim_sqrt, 1, 1),
    "floor": (prim_floor, 1, 1),
    "ceiling": (prim_ceiling, 1, 1),
    "truncate": (prim_truncate, 1, 1),
    "round": (prim_round, 1, 1),
    "exact->inexact": (prim_exact_to_inexact, 1, 1),
    "inexact->exact": (prim_inexact_to_exact, 1, 1),
    "number->string": (prim_number_to_string, 1, 1),
    "string->number": (prim_string_to_number, 1, 1),
    "zero?": (prim_is_zero, 1, 1),
    "positive?": (prim_is_positive, 1, 1),
    "negative?": (prim_is_negative, 1, 1),
    "odd?": (prim_is_odd, 1, 1),
    "even?": (prim_is_even, 1, 1),
    "add1": (prim_add1, 1, 1),
    "sub1": (prim_sub1, 1, 1),
    "1+": (prim_add1, 1, 1),
    "1-": (prim_sub1, 1, 1),
}
