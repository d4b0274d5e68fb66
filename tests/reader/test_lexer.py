"""Lexical syntax: each token class, checked through the data it reads to."""

from fractions import Fraction

import pytest

from repro.datum import NIL, Char, MVector, intern, scheme_repr
from repro.errors import ReaderError
from repro.reader import read_all, read_one


def test_parens_and_brackets():
    assert read_all("()[]") == [NIL, NIL]
    assert scheme_repr(read_one("(a [b] c)")) == "(a (b) c)"


def test_integers():
    assert read_all("1 -2 +3 007") == [1, -2, 3, 7]


def test_rationals():
    assert read_all("1/2 -3/4 4/2") == [Fraction(1, 2), Fraction(-3, 4), 2]
    assert type(read_one("4/2")) is int


def test_floats():
    assert read_all("1.5 -0.25 1e3 2.5e-1") == [1.5, -0.25, 1000.0, 0.25]


def test_symbols_that_look_numeric():
    data = read_all("+ - ... 1+ a/b")
    assert data == [intern(name) for name in ("+", "-", "...", "1+", "a/b")]


def test_booleans():
    assert read_all("#t #f") == [True, False]
    assert read_all("(#t)")[0].car is True


def test_chars():
    assert read_all(r"#\a #\space #\newline #\( ") == [
        Char("a"),
        Char(" "),
        Char("\n"),
        Char("("),
    ]


def test_char_hex():
    assert read_one(r"#\x41") == Char("A")


def test_unknown_char_name():
    with pytest.raises(ReaderError):
        read_all(r"#\bogusname")


def test_strings():
    assert read_one('"hi"') == "hi"
    assert read_one(r'"a\nb\t\"q\""') == 'a\nb\t"q"'


def test_string_hex_escape():
    assert read_one(r'"\x41;"') == "A"


def test_unterminated_string():
    with pytest.raises(ReaderError):
        read_all('"oops')


def test_quote_prefixes():
    data = read_all("'x `y ,z ,@w")
    assert [scheme_repr(datum) for datum in data] == ["'x", "`y", ",z", ",@w"]
    heads = [datum.car for datum in data]
    assert heads == [
        intern(name)
        for name in ("quote", "quasiquote", "unquote", "unquote-splicing")
    ]


def test_line_comment():
    assert read_all("1 ; two three\n4") == [1, 4]


def test_block_comment_nested():
    assert read_all("1 #| a #| b |# c |# 2") == [1, 2]


def test_unterminated_block_comment():
    with pytest.raises(ReaderError):
        read_all("#| nope")


def test_datum_comment_token():
    assert read_all("#;(x) 1") == [1]


def test_vector_open():
    assert isinstance(read_one("#(1)"), MVector)
    assert read_one("#[1 2]").items == [1, 2]


def test_dot_token():
    value = read_one("(a . b)")
    assert value.car is intern("a") and value.cdr is intern("b")


def test_unknown_hash_syntax():
    with pytest.raises(ReaderError):
        read_all("#q")


def test_line_column_tracking():
    with pytest.raises(ReaderError) as info:
        read_all("a\n  )")
    assert (info.value.line, info.value.column) == (2, 3)


def test_boolean_requires_delimiter():
    # #true is not a boolean in this dialect; it errors as unknown #
    # syntax rather than silently reading #t followed by rue.
    with pytest.raises(ReaderError):
        read_all("#true")


def test_infinities_and_nan_read_as_numbers():
    inf, ninf, nan = read_all("+inf.0 -inf.0 +nan.0")
    assert inf == float("inf")
    assert ninf == float("-inf")
    assert nan != nan  # NaN


def test_special_float_print_read_roundtrip():
    for value in (float("inf"), float("-inf")):
        assert read_one(scheme_repr(value)) == value
    nan_back = read_one(scheme_repr(float("nan")))
    assert nan_back != nan_back
