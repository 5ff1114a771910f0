"""Tokeniser for the SQL subset, and the literal-slot scan.

The scanner is one ``findall`` pass of a precompiled master regex,
consumed by a list-building loop.  Every alternative of the regex
swallows the whitespace in front of its token, so one match yields one
token and whitespace costs no match and no loop iteration; ``findall``
hands back each token as a tuple of group texts, with no match object
to query.  A :class:`Token` is a ``NamedTuple`` built with
``tuple.__new__``, which skips the Python-level constructor a statement
of ~25 tokens would otherwise pay per token.

The lexical rules are ASCII: outside a string literal a non-ASCII
character (whitespace included) is an error at its position.

:func:`scan_slots` reads the same patterns without building tokens: a
statement's *shape* (everything but its literals) and its literal texts,
all a compile needs once a statement of that shape has parsed.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.exceptions import SQLError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "BETWEEN", "IN",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "AS",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    STAR = "star"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        if self.type is not token_type:
            return False
        return value is None or self.value == value


#: The token patterns.  Whitespace is the ASCII characters ``str.isspace``
#: admits.  A string closes on a quote *not* followed by another quote
#: (``''`` is the standard SQL escape).  A number is any run of digits
#: and dots (the parser judges ``1.5.2``).  Operators are ordered
#: longest-first.  Possessive repeats match what greedy ones would here,
#: without the backtracking bookkeeping.
_SPACE = r"[\t-\r\x1c-\x1f ]"
_WORD = r"[A-Za-z_][A-Za-z0-9_]*+"
_STRING = r"'(?:[^']++|'')*+'(?!')"
_NUMBER = r"-?[0-9][0-9.]*+"
_OPERATOR = r"<=|>=|!=|<>|=|<|>"

#: One match per token: the whitespace in front of it (group 1), then one
#: group per token class, mutually exclusive on the first character.
#: Every position matches something, so ``findall`` never skips input:
#: where no token starts (an unterminated literal or a stray character)
#: the ``bad`` group swallows the rest of the text, and the last
#: alternative matches the end of the text after any trailing
#: whitespace.  One pass is therefore linear in the text and stops at
#: the first error.
_MASTER = re.compile(
    rf"({_SPACE}*)(?:({_WORD})|([*,()])|({_STRING})|({_NUMBER})"
    rf"|({_OPERATOR})|([\s\S]+)|\Z)")

_PUNCT = {
    "*": TokenType.STAR,
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
}


def tokenize(text: str) -> list[Token]:
    """Tokenise SQL ``text``; raises :class:`SQLError` on bad characters.

    ``findall`` returns one tuple of group texts per token with no match
    object in between; positions are the running sum of their lengths.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    pos = 0
    for space, word, punct, string, number, op, bad in _MASTER.findall(text):
        pos += len(space)
        if word:
            upper = word.upper()
            if upper in KEYWORDS:
                append(new(Token, (TokenType.KEYWORD, upper, pos)))
            else:
                append(new(Token, (TokenType.IDENT, word, pos)))
            pos += len(word)
        elif punct:
            append(new(Token, (_PUNCT[punct], punct, pos)))
            pos += 1
        elif string:  # strip the quotes, collapse the '' escapes
            value = string[1:-1]
            if "''" in value:
                value = value.replace("''", "'")
            append(new(Token, (TokenType.STRING, value, pos)))
            pos += len(string)
        elif number:
            append(new(Token, (TokenType.NUMBER, number, pos)))
            pos += len(number)
        elif op:
            append(new(Token, (TokenType.OPERATOR, op, pos)))
            pos += len(op)
        elif bad:
            if bad[0] == "'":
                raise SQLError(f"unterminated string literal at position {pos}")
            raise SQLError(
                f"unexpected character {bad[0]!r} at position {pos}")
        else:  # end of text (findall may repeat it as an empty match)
            break
    append(new(Token, (TokenType.EOF, "", pos)))
    return tokens


LITERAL = re.compile(f"{_STRING}|{_NUMBER}")

#: One match per literal slot: the *run* of words, punctuation,
#: operators and whitespace before it (group 1), then a literal (group 2)
#: with the rest of its list if literals and ``)`` follow (group 3), or
#: the rest of the text where no token can start (group 4).
_SLOTS = re.compile(
    rf"((?:{_WORD}|[\t-\r\x1c-\x1f *,()<>=!]++)*+)"
    rf"(?:({LITERAL.pattern})"
    rf"((?:{_SPACE}*+,{_SPACE}*+(?:{LITERAL.pattern}))*+{_SPACE}*+\))?"
    rf"|([\s\S]+))?")


def scan_slots(text: str) -> tuple[tuple[str, ...] | None, list[str]]:
    """``(shape, slots)`` of ``text``; the shape is ``None`` where a
    character starts no token (:func:`tokenize` raises there).

    The shape is the runs between literals, verbatim (so whitespace and
    keyword case are shape), each followed by a slot marker no run can
    contain (``?``, or ``?)`` for a list); the slots are the literal
    texts in source order, an ``IN`` list's being one slot (``5, 'x')``).  Two texts of one shape lex alike outside their
    slots, and the grammar takes a NUMBER or a STRING wherever it takes
    a literal and a list of any length wherever it takes ``lit )``: if
    one statement of a shape parses, all do, to the same structure, up
    to the value of a number (``1.5.2``).
    """
    shape: list[str] = []
    slots: list[str] = []
    for run, one, rest, bad in _SLOTS.findall(text):
        if bad:
            return None, []
        shape.append(run)
        if rest:
            shape.append("?)")
            slots.append(one + rest)
        elif one:
            shape.append("?")
            slots.append(one)
    return tuple(shape), slots


__all__ = ["KEYWORDS", "LITERAL", "Token", "TokenType", "scan_slots",
           "tokenize"]
