"""Tokeniser for the SQL subset.

The scanner is one ``findall`` pass of a precompiled master regex,
consumed by a list-building loop.  Every alternative of the regex
swallows the whitespace in front of its token, so one match yields one
token and whitespace costs no match and no loop iteration; ``findall``
hands back each token as a tuple of group texts, with no match object
to query.  A :class:`Token` is a ``NamedTuple`` built with
``tuple.__new__``, which skips the Python-level constructor a statement
of ~25 tokens would otherwise pay per token.  Every compile-cache miss
tokenises, so this loop is on the ad-hoc query path.

The regex encodes ASCII lexical rules exactly; input containing
non-ASCII characters (where ``str.isdigit``/``str.isalnum`` admit
category-No/Nl codepoints that ``\\d``/``\\w`` spell differently) is
routed through :func:`_scan_reference` — the original per-character
scanner, kept both as the exotic-unicode path and as the golden oracle
for ``tests/test_fuzz_invariants.py``'s token-stream equality suite.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple

from repro.exceptions import SQLError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "BETWEEN", "IN",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "AS",
}

OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">")


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


#: One match per token: the whitespace in front of it (group 1), then one
#: group per token class, mutually exclusive on the first character.  The
#: string rule closes on a quote *not* followed by another quote (``''``
#: is the standard SQL escape), so a literal whose final quote is really
#: the first half of an escape stays unterminated — exactly as the
#: reference scanner's find-loop behaves.  Operators are ordered
#: longest-first, mirroring :data:`OPERATORS`.  Every position matches
#: something, so ``findall`` never skips input: where no token starts
#: (an unterminated literal or a stray character) the ``bad`` group
#: swallows the rest of the text, and the last alternative matches the
#: end of the text after any trailing whitespace.  One pass is therefore
#: linear in the text and stops at the first error.
_MASTER = re.compile(r"""(\s*)(?:
    ([A-Za-z_][A-Za-z0-9_]*)          # word
  | ([*,()])                          # punctuation
  | ('(?:[^']|'')*'(?!'))             # string
  | (-?[0-9][0-9.]*)                  # number
  | (<=|>=|!=|<>|=|<|>)               # operator
  | ([\s\S]+)                         # bad: the rest of the text
  | \Z                                # end of text
)""", re.VERBOSE)

_PUNCT = {
    "*": TokenType.STAR,
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
}


def tokenize(text: str) -> list[Token]:
    """Tokenise SQL ``text``; raises :class:`SQLError` on bad characters."""
    if text.isascii():
        return _scan(text)
    return list(_scan_reference(text))


def _scan(text: str) -> list[Token]:
    """Regex scanner for ASCII input (token-stream-identical to
    :func:`_scan_reference`, including error messages and positions).

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


def _scan_reference(text: str) -> Iterator[Token]:
    """The original per-character scanner: serves non-ASCII input and
    anchors the golden-equality fuzz suite for :func:`_scan`."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "*":
            yield Token(TokenType.STAR, "*", i)
            i += 1
            continue
        if ch == ",":
            yield Token(TokenType.COMMA, ",", i)
            i += 1
            continue
        if ch == "(":
            yield Token(TokenType.LPAREN, "(", i)
            i += 1
            continue
        if ch == ")":
            yield Token(TokenType.RPAREN, ")", i)
            i += 1
            continue
        if ch == "'":
            # Standard SQL escaping: '' inside a literal is a single quote.
            parts: list[str] = []
            j = i + 1
            while True:
                end = text.find("'", j)
                if end == -1:
                    raise SQLError(
                        f"unterminated string literal at position {i}"
                    )
                if end + 1 < n and text[end + 1] == "'":
                    parts.append(text[j:end + 1])
                    j = end + 2
                else:
                    parts.append(text[j:end])
                    break
            yield Token(TokenType.STRING, "".join(parts), i)
            i = end + 1
            continue
        matched_op = next((op for op in OPERATORS if text.startswith(op, i)), None)
        if matched_op:
            yield Token(TokenType.OPERATOR, matched_op, i)
            i += len(matched_op)
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            yield Token(TokenType.NUMBER, text[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, upper, i)
            else:
                yield Token(TokenType.IDENT, word, i)
            i = j
            continue
        raise SQLError(f"unexpected character {ch!r} at position {i}")
    yield Token(TokenType.EOF, "", n)


__all__ = ["KEYWORDS", "OPERATORS", "Token", "TokenType", "tokenize"]
