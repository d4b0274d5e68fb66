"""Reading data: construction from nested syntax and error reporting."""

import pytest

from repro.datum import (
    NIL,
    MVector,
    Pair,
    from_pylist,
    intern,
    is_equal,
    scheme_repr,
    to_pylist,
)
from repro.errors import ReaderError
from repro.reader import read_all, read_one


def test_read_atom():
    assert read_one("42") == 42
    assert read_one("abc") is intern("abc")


def test_read_list():
    assert is_equal(read_one("(1 2 3)"), from_pylist([1, 2, 3]))


def test_read_empty_list():
    assert read_one("()") is NIL


def test_read_nested():
    value = read_one("(a (b c) d)")
    assert scheme_repr(value) == "(a (b c) d)"


def test_read_dotted():
    value = read_one("(1 . 2)")
    assert value.car == 1 and value.cdr == 2


def test_read_dotted_multi():
    value = read_one("(1 2 . 3)")
    assert scheme_repr(value) == "(1 2 . 3)"


def test_brackets_interchangeable():
    assert scheme_repr(read_one("[let ([x 1]) x]")) == "(let ((x 1)) x)"


def test_quote_expansion():
    assert scheme_repr(read_one("'x")) == "'x"
    assert to_pylist(read_one("'x"))[0] is intern("quote")


def test_quasiquote_expansion():
    value = read_one("`(a ,b ,@c)")
    assert scheme_repr(value) == "`(a ,b ,@c)"


def test_vector():
    value = read_one("#(1 2 3)")
    assert isinstance(value, MVector)
    assert value.items == [1, 2, 3]


def test_nested_vector():
    value = read_one("#(1 #(2))")
    assert isinstance(value.items[1], MVector)


def test_datum_comment():
    assert read_all("1 #;2 3") == [1, 3]


def test_datum_comment_inside_list():
    assert scheme_repr(read_one("(1 #;(skip this) 2)")) == "(1 2)"


def test_datum_comment_inside_vector():
    assert read_one("#(1 #;2 3)").items == [1, 3]


def test_read_all_multiple():
    assert read_all("1 2 3") == [1, 2, 3]


def test_read_all_empty():
    assert read_all("  ; just a comment\n") == []


def test_read_one_rejects_multiple():
    with pytest.raises(ReaderError):
        read_one("1 2")


def test_read_one_rejects_empty():
    with pytest.raises(ReaderError):
        read_one("")


def test_unterminated_list():
    with pytest.raises(ReaderError):
        read_all("(1 2")


def test_unterminated_vector():
    with pytest.raises(ReaderError):
        read_all("#(1 2")


def test_stray_close():
    with pytest.raises(ReaderError):
        read_all(")")


def test_dot_misuse():
    with pytest.raises(ReaderError):
        read_all("(. 1)")
    with pytest.raises(ReaderError):
        read_all("(1 . 2 3)")
    with pytest.raises(ReaderError):
        read_all("#(1 . 2)")


def test_quote_with_no_datum():
    with pytest.raises(ReaderError):
        read_all("'")


def test_deeply_nested_lists():
    depth = 2000
    text = "(" * depth + "x" + ")" * depth
    value = read_one(text)
    for _ in range(depth):
        assert isinstance(value, Pair)
        value = value.car
    assert value is intern("x")
