"""S-expression reader.

:func:`read_all` turns program text into a list of Scheme data;
:func:`read_one` reads a single datum.  The reader supports the full
surface syntax used in the paper: lists and dotted pairs (``[`` and
``]`` are interchangeable with parens, as in the paper's examples),
vectors ``#(...)``, booleans ``#t``/``#f``, characters ``#\\a``,
``#\\space`` and ``#\\x41``, strings with escapes, exact integers and
rationals ``a/b``, decimal and exponent floats, the quotation prefixes
``'``, `````, ``,`` and ``,@``, and line ``;``, nested block
``#| ... |#`` and datum ``#;`` comments.  Anything else that looks like
an identifier is a symbol.

One compiled regex, :data:`_TOKEN`, skips whitespace and comments and
matches the next token; :func:`read_all` builds data from the tokens on
an explicit stack rather than by recursive descent, so arbitrarily deep
nesting never touches Python's recursion limit.  Positions are string
offsets; a line and column are computed only for an error.
:func:`parse_number` is the number grammar, shared with
``string->number``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from repro.datum import NIL, Char, MVector, Pair, from_pylist, intern
from repro.datum.chars import NAMED_CHARS
from repro.errors import IncompleteInput, ReaderError

__all__ = ["read_all", "read_one", "parse_number"]

# Delimiters end an atom: ()[]"; and whitespace other than form feed,
# which separates tokens but may also appear inside an atom.
_TOKEN = re.compile(
    r"""(?:[ \t\n\r\f]|;[^\n]*)*
    (?:
        (?P<atom>[^()\[\]"; \t\n\r\f'`,\#][^()\[\]"; \t\n\r]*)
      | (?P<open>[(\[])
      | (?P<close>[)\]])
      | (?P<string>")                            # see _string
      | (?P<prefix>['`]|,@?)
      | (?P<vector>\#[(\[])
      | (?P<boolean>\#[tf])(?![^()\[\]"; \t\n\r])
      | (?P<char>\#\\(?:[^()\[\]"; \t\n\r]+|.)?)  # a name or one character
      | (?P<discard>\#;)
      | (?P<comment>\#\|)                         # nests: see _comment_end
      | (?P<hash>\#)                             # any other # is an error
      | (?P<eof>\Z)
    )""",
    re.VERBOSE | re.DOTALL,
)

_COMMENT_MARK = re.compile(r"\#\||\|\#")

_PREFIXES = {
    "'": intern("quote"),
    "`": intern("quasiquote"),
    ",": intern("unquote"),
    ",@": intern("unquote-splicing"),
}

_STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "\\": "\\",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "0": "\0",
}

_SPECIAL_FLOATS = {"+inf.0": "inf", "-inf.0": "-inf", "+nan.0": "nan", "-nan.0": "nan"}


def _where(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _ascii_digits(text: str) -> bool:
    # str.isdigit() accepts Unicode digits that int() rejects (e.g.
    # superscripts); require ASCII.
    return text.isascii() and text.isdigit()


def parse_number(text: str) -> Any | None:
    """Parse ``text`` as a Scheme number, or None if it is not one."""
    if not text:
        return None
    if text in _SPECIAL_FLOATS:
        return float(_SPECIAL_FLOATS[text])
    body = text
    sign = 1
    if body[0] in "+-":
        if len(body) == 1:
            return None
        if body[0] == "-":
            sign = -1
        body = body[1:]
    if "/" in body:
        num, _, den = body.partition("/")
        if _ascii_digits(num) and _ascii_digits(den) and int(den) != 0:
            frac = Fraction(sign * int(num), int(den))
            if frac.denominator == 1:
                return frac.numerator
            return frac
        return None
    if _ascii_digits(body):
        return sign * int(body)
    # Float forms: need a digit somewhere, plus '.' or exponent.
    if (
        body.isascii()
        and any(c.isdigit() for c in body)
        and ("." in body or "e" in body or "E" in body)
    ):
        try:
            value = sign * float(body)
        except ValueError:
            return None
        return value
    return None


def _char(name: str, text: str, start: int) -> Char:
    """The character ``#\\name`` whose ``#`` is at ``start``."""
    if len(name) == 1:
        return Char(name)
    lowered = name.lower()
    if lowered in NAMED_CHARS:
        return Char(NAMED_CHARS[lowered])
    if lowered.startswith("x"):
        try:
            return Char(chr(int(lowered[1:], 16)))
        except (ValueError, OverflowError):
            pass
    raise ReaderError(f"unknown character name #\\{name}", *_where(text, start))


def _string(text: str, start: int) -> tuple[str, int]:
    """The string literal whose ``"`` is at ``start``, decoding escapes,
    and the offset just past it."""
    chars: list[str] = []
    pos = start + 1
    while pos < len(text):
        ch = text[pos]
        pos += 1
        if ch == '"':
            return "".join(chars), pos
        if ch != "\\":
            chars.append(ch)
            continue
        if pos == len(text):
            raise IncompleteInput("unterminated escape in string", *_where(text, start))
        esc = text[pos]
        pos += 1
        if esc in _STRING_ESCAPES:
            chars.append(_STRING_ESCAPES[esc])
        elif esc == "x":
            # The code point runs to the next ';' or the end of input.
            end = text.find(";", pos)
            if end < 0:
                digits, pos = text[pos:], len(text)
            else:
                digits, pos = text[pos:end], end + 1
            try:
                chars.append(chr(int(digits, 16)))
            except (ValueError, OverflowError):
                raise ReaderError(f"bad hex escape \\x{digits}", *_where(text, pos))
        else:
            raise ReaderError(f"unknown string escape \\{esc}", *_where(text, pos))
    raise IncompleteInput("unterminated string literal", *_where(text, start))


def _comment_end(text: str, pos: int, start: int) -> int:
    """The offset past the ``|#`` closing the block comment opened at
    ``start``; ``pos`` is just past its ``#|``.  Comments nest."""
    depth = 1
    for mark in _COMMENT_MARK.finditer(text, pos):
        depth += 1 if mark.group() == "#|" else -1
        if not depth:
            return mark.end()
    raise IncompleteInput("unterminated block comment", *_where(text, start))


def read_all(text: str) -> list[Any]:
    """Read every datum in ``text``.

    Raises :class:`IncompleteInput` when the text ends inside a datum
    and :class:`ReaderError` for any other malformed text.
    """
    data: list[Any] = []
    # Open constructs, innermost last: [opened, start, items, dot].
    # opened is "list" or "vector" (items collects the elements; dot is
    # the number of items before a list's dot, or -1), or a quotation
    # prefix's symbol or "#;" (items is None: each takes one datum).
    stack: list[list[Any]] = []
    # Each token is matched at pos rather than found by finditer: block
    # comments, strings and one-character #\ names move pos.
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        kind = match.lastgroup
        start = match.start(kind)
        pos = match.end()
        if kind == "atom":
            token = match.group(kind)
            if token == ".":
                if not stack or stack[-1][2] is None:
                    raise ReaderError("unexpected .", *_where(text, start))
                opened, _, items, dot = frame = stack[-1]
                if opened == "vector":
                    raise ReaderError("dot inside vector", *_where(text, start))
                if not items or dot >= 0:
                    raise ReaderError("misplaced dot in list", *_where(text, start))
                frame[3] = len(items)
                continue
            datum = parse_number(token)
            if datum is None:
                datum = intern(token)
        elif kind == "open":
            stack.append(["list", start, [], -1])
            continue
        elif kind == "close":
            if not stack or stack[-1][2] is None:
                raise ReaderError("unexpected )", *_where(text, start))
            opened, _, items, dot = stack.pop()
            if opened == "vector":
                datum = MVector(items)
            elif dot < 0:
                datum = from_pylist(items)
            elif dot == len(items):
                raise ReaderError("dot with no following datum", *_where(text, start))
            else:
                datum = from_pylist(items[:dot], items[dot])
        elif kind == "string":
            datum, pos = _string(text, start)
        elif kind == "prefix":
            stack.append([_PREFIXES[match.group(kind)], start, None, -1])
            continue
        elif kind == "vector":
            stack.append(["vector", start, [], -1])
            continue
        elif kind == "boolean":
            datum = match.group(kind) == "#t"
        elif kind == "char":
            name = match.group(kind)[2:]
            if not name:
                message = "unterminated character literal"
                raise ReaderError(message, *_where(text, start))
            if not name[0].isalpha():
                # Only a name continues past the first character.
                name = name[0]
                pos = start + 3
            datum = _char(name, text, start)
        elif kind == "discard":
            stack.append(["#;", start, None, -1])
            continue
        elif kind == "comment":
            pos = _comment_end(text, pos, start)
            continue
        elif kind == "hash":
            following = text[start + 1 : start + 2] or "<eof>"
            raise ReaderError(f"unknown # syntax: #{following}", *_where(text, start))
        else:  # eof
            if stack:
                opened, opened_at = stack[-1][0], stack[-1][1]
                if opened in ("list", "vector"):
                    message = f"unterminated {opened}"
                else:
                    message = f"{opened} with no following datum"
                raise IncompleteInput(message, *_where(text, opened_at))
            return data

        # Feed the datum outward through prefixes and datum comments
        # until it lands in a list or vector, or is a top-level datum.
        while stack:
            opened, _, items, dot = stack[-1]
            if items is None:
                stack.pop()
                if opened == "#;":
                    break
                datum = Pair(opened, Pair(datum, NIL))
                continue
            if 0 <= dot < len(items):
                raise ReaderError("expected ) after dotted tail", *_where(text, start))
            items.append(datum)
            break
        else:
            data.append(datum)


def read_one(text: str) -> Any:
    """Read exactly one datum; error if there are zero or several."""
    data = read_all(text)
    if len(data) != 1:
        raise ReaderError(f"expected exactly one datum, found {len(data)}")
    return data[0]
