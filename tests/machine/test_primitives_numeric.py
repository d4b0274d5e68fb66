"""Numeric primitives through the interpreter."""

from fractions import Fraction

import pytest

from repro.errors import SchemeError, WrongTypeError


def test_arithmetic(interp):
    assert interp.eval("(+ 1 2 3)") == 6
    assert interp.eval("(+)") == 0
    assert interp.eval("(- 10 1 2)") == 7
    assert interp.eval("(- 5)") == -5
    assert interp.eval("(* 2 3 4)") == 24
    assert interp.eval("(*)") == 1


def test_division_exact(interp):
    assert interp.eval("(/ 1 2)") == Fraction(1, 2)
    assert interp.eval("(/ 6 3)") == 2
    assert interp.eval("(/ 2)") == Fraction(1, 2)


def test_division_inexact(interp):
    assert interp.eval("(/ 1.0 2)") == 0.5


def test_division_by_zero(interp):
    with pytest.raises(SchemeError):
        interp.eval("(/ 1 0)")


def test_comparisons_chain(interp):
    assert interp.eval("(< 1 2 3)") is True
    assert interp.eval("(< 1 3 2)") is False
    assert interp.eval("(<= 1 1 2)") is True
    assert interp.eval("(= 2 2 2)") is True
    assert interp.eval("(> 3 2 1)") is True
    assert interp.eval("(>= 3 3 1)") is True


def test_type_errors(interp):
    with pytest.raises(WrongTypeError):
        interp.eval("(+ 1 'a)")
    with pytest.raises(WrongTypeError):
        interp.eval("(+ 1 #t)")  # booleans are not numbers


def test_quotient_remainder_modulo(interp):
    assert interp.eval("(quotient 7 2)") == 3
    assert interp.eval("(quotient -7 2)") == -3
    assert interp.eval("(remainder 7 2)") == 1
    assert interp.eval("(remainder -7 2)") == -1
    assert interp.eval("(modulo -7 2)") == 1
    assert interp.eval("(modulo 7 -2)") == -1


def test_quotient_by_zero(interp):
    with pytest.raises(SchemeError):
        interp.eval("(quotient 1 0)")


def test_abs_min_max(interp):
    assert interp.eval("(abs -5)") == 5
    assert interp.eval("(min 3 1 2)") == 1
    assert interp.eval("(max 3 1 2)") == 3
    assert interp.eval("(min 1 2.0)") == 1.0  # inexactness is contagious


def test_gcd_lcm(interp):
    assert interp.eval("(gcd 12 18)") == 6
    assert interp.eval("(gcd)") == 0
    assert interp.eval("(lcm 4 6)") == 12
    assert interp.eval("(lcm 4 0)") == 0


def test_expt(interp):
    assert interp.eval("(expt 2 10)") == 1024
    assert interp.eval("(expt 2 -2)") == Fraction(1, 4)
    assert interp.eval("(expt 2.0 2)") == 4.0


def test_sqrt(interp):
    assert interp.eval("(sqrt 16)") == 4
    assert isinstance(interp.eval("(sqrt 16)"), int)
    assert interp.eval("(sqrt 2)") == pytest.approx(1.41421356)
    with pytest.raises(SchemeError):
        interp.eval("(sqrt -1)")


def test_rounding(interp):
    assert interp.eval("(floor 3/2)") == 1
    assert interp.eval("(ceiling 3/2)") == 2
    assert interp.eval("(truncate -3/2)") == -1
    assert interp.eval("(round 3/2)") == 2  # banker's: to even
    assert interp.eval("(round 5/2)") == 2
    assert interp.eval("(round 1.5)") == 2.0


def test_exactness_conversion(interp):
    assert interp.eval("(exact->inexact 1/2)") == 0.5
    assert interp.eval("(inexact->exact 0.5)") == Fraction(1, 2)


def test_number_string_conversion(interp):
    assert interp.eval('(number->string 42)') == "42"
    assert interp.eval('(string->number "42")') == 42
    assert interp.eval('(string->number "1/2")') == Fraction(1, 2)
    assert interp.eval('(string->number "nope")') is False


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/0", False),
        ("+", False),
        ("-.", False),
        (".5", 0.5),
        ("1e400", float("inf")),
        ("+inf.0", float("inf")),
        ("²", False),  # a superscript two: a Unicode digit, not ASCII
    ],
)
def test_string_to_number_edges(interp, text, expected):
    # string->number shares the reader's number grammar.
    value = interp.eval(f'(string->number "{text}")')
    assert value == expected and type(value) is type(expected)


def test_sign_predicates(interp):
    assert interp.eval("(zero? 0)") is True
    assert interp.eval("(positive? 1)") is True
    assert interp.eval("(negative? -1)") is True
    assert interp.eval("(odd? 3)") is True
    assert interp.eval("(even? 4)") is True


def test_add1_sub1(interp):
    assert interp.eval("(add1 1)") == 2
    assert interp.eval("(sub1 1)") == 0
    assert interp.eval("(1+ 5)") == 6
    assert interp.eval("(1- 5)") == 4


def test_exact_rational_arithmetic_normalizes(interp):
    assert interp.eval("(+ 1/2 1/2)") == 1
    assert isinstance(interp.eval("(+ 1/2 1/2)"), int)
