"""Reader errors: every message and its source position, pinned.

Columns count characters, so a tab or the ``\\r`` of ``\\r\\n`` is one
column; only ``\\n`` starts a new line.
"""

import pytest

from repro.errors import ReaderError
from repro.reader import read_all

ERRORS = [
    # unterminated constructs, reported where they open
    ('(display "oops', "unterminated string literal", 1, 10),
    ('(f\r\n\t"abc\r\n', "unterminated string literal", 2, 2),
    ('"abc\\', "unterminated escape in string", 1, 1),
    ("(1 2", "unterminated list", 1, 1),
    ("(define (f x)\n\t(+ x 1)", "unterminated list", 1, 1),
    ("(list 1\r\n\t2\r\n\t3", "unterminated list", 1, 1),
    ("#(1 2", "unterminated vector", 1, 1),
    ("1 #| a #| b |# c", "unterminated block comment", 1, 3),
    ("#\\", "unterminated character literal", 1, 1),
    # escapes, reported where the escape ends
    ('"\\xZZ;"', "bad hex escape \\xZZ", 1, 7),
    ('"\\x41"', 'bad hex escape \\x41"', 1, 7),
    ('"\\x110000;"', "bad hex escape \\x110000", 1, 11),
    ('"\\xFFFFFFFFFFFFFFFFFFFF;"', "bad hex escape \\xFFFFFFFFFFFFFFFFFFFF", 1, 25),
    ('"a\\qb"', "unknown string escape \\q", 1, 5),
    ('(a\r\n\t(b\r\n\t\t"x\\q")', "unknown string escape \\q", 3, 7),
    # characters and # syntax
    ("#\\bogus", "unknown character name #\\bogus", 1, 1),
    ("\t(a\n\t\t#| (\r\n |#\n\t#\\nope)", "unknown character name #\\nope", 4, 2),
    ("#q", "unknown # syntax: #q", 1, 1),
    ("#true", "unknown # syntax: #t", 1, 1),
    ("#", "unknown # syntax: #<eof>", 1, 1),
    # dots
    ("(. 1)", "misplaced dot in list", 1, 2),
    ("(1 . . 2)", "misplaced dot in list", 1, 6),
    ("(1 . 2 3)", "expected ) after dotted tail", 1, 8),
    ("(1 . 2\n\t(a b))", "expected ) after dotted tail", 2, 6),
    ("(1 . )", "dot with no following datum", 1, 6),
    ("#(1 . 2)", "dot inside vector", 1, 5),
    (". 1", "unexpected .", 1, 1),
    ("'.", "unexpected .", 1, 2),
    # closers and prefixes
    (")", "unexpected )", 1, 1),
    ("(a))", "unexpected )", 1, 4),
    ("'", "quote with no following datum", 1, 1),
    (",@", "unquote-splicing with no following datum", 1, 1),
    ("(1\r\n\t'", "quote with no following datum", 2, 2),
    ("#;", "#; with no following datum", 1, 1),
]


@pytest.mark.parametrize("text, message, line, column", ERRORS)
def test_error_message_and_position(text, message, line, column):
    with pytest.raises(ReaderError) as info:
        read_all(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"{message} (line {line}, column {column})"
