"""Recursive-descent parser for the SQL subset.

The grammar is the only judge of well-formedness and the only source of
:class:`SQLError` text.  :func:`slot_value` reads a literal slot the way
the parser reads the same literal, for callers that compile a statement
of an already-parsed shape without parsing it (see
:mod:`repro.core.compile_cache`).
"""

from __future__ import annotations

from repro.db.sql.ast import (
    Aggregate,
    Between,
    Comparison,
    Condition,
    InList,
    Literal,
    Predicate,
    SelectStatement,
)
from repro.db.sql.lexer import LITERAL, Token, TokenType, tokenize
from repro.exceptions import SQLError


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, token_type: TokenType, value: str | None = None) -> Token:
        token = self._peek()
        if not token.matches(token_type, value):
            want = value or token_type.value
            raise SQLError(
                f"expected {want} at position {token.position}, got {token.value!r}"
            )
        return self._advance()

    def _accept(self, token_type: TokenType, value: str | None = None) -> bool:
        if self._peek().matches(token_type, value):
            self._advance()
            return True
        return False

    # -- grammar -----------------------------------------------------------
    def parse_select(self) -> SelectStatement:
        self._expect(TokenType.KEYWORD, "SELECT")
        aggregates, keys_in_select = self._parse_items()
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._expect(TokenType.IDENT).value

        predicate = Predicate()
        if self._accept(TokenType.KEYWORD, "WHERE"):
            predicate = self._parse_predicate()

        group_by: tuple[str, ...] = ()
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            keys = [self._expect(TokenType.IDENT).value]
            while self._accept(TokenType.COMMA):
                keys.append(self._expect(TokenType.IDENT).value)
            group_by = tuple(keys)

        self._expect(TokenType.EOF)

        unknown = [k for k in keys_in_select if k not in group_by]
        if unknown:
            raise SQLError(
                f"bare columns {unknown} in SELECT must appear in GROUP BY"
            )
        if not aggregates:
            raise SQLError("SELECT list must contain at least one aggregate")
        return SelectStatement(tuple(aggregates), table, predicate, group_by)

    def _parse_items(self) -> tuple[list[Aggregate], list[str]]:
        aggregates: list[Aggregate] = []
        bare_columns: list[str] = []
        while True:
            token = self._peek()
            if token.matches(TokenType.KEYWORD) and token.value in (
                "COUNT", "SUM", "AVG", "MIN", "MAX"
            ):
                aggregates.append(self._parse_aggregate())
            elif token.matches(TokenType.IDENT):
                bare_columns.append(self._advance().value)
            else:
                raise SQLError(
                    f"expected aggregate or column at position {token.position}"
                )
            if not self._accept(TokenType.COMMA):
                break
        return aggregates, bare_columns

    def _parse_aggregate(self) -> Aggregate:
        func = self._advance().value
        self._expect(TokenType.LPAREN)
        if func == "COUNT" and self._accept(TokenType.STAR):
            column = None
        else:
            column = self._expect(TokenType.IDENT).value
        self._expect(TokenType.RPAREN)
        # Optional "AS alias" — accepted and discarded (labels are canonical).
        if self._accept(TokenType.KEYWORD, "AS"):
            self._expect(TokenType.IDENT)
        return Aggregate(func, column)

    def _parse_predicate(self) -> Predicate:
        conditions = [self._parse_condition()]
        while self._accept(TokenType.KEYWORD, "AND"):
            conditions.append(self._parse_condition())
        return Predicate(tuple(conditions))

    def _parse_condition(self) -> Condition:
        column = self._expect(TokenType.IDENT).value
        token = self._peek()
        if token.matches(TokenType.KEYWORD, "BETWEEN"):
            self._advance()
            low = self._parse_literal()
            self._expect(TokenType.KEYWORD, "AND")
            high = self._parse_literal()
            return Between(column, low, high)
        if token.matches(TokenType.KEYWORD, "IN"):
            self._advance()
            self._expect(TokenType.LPAREN)
            values = [self._parse_literal()]
            while self._accept(TokenType.COMMA):
                values.append(self._parse_literal())
            self._expect(TokenType.RPAREN)
            return InList(column, tuple(values))
        op_token = self._expect(TokenType.OPERATOR)
        op = "!=" if op_token.value == "<>" else op_token.value
        return Comparison(column, op, self._parse_literal())

    def _parse_literal(self) -> Literal:
        """The value of a NUMBER or STRING token.

        The lexer takes any run of digits and dots for a NUMBER, so
        ``1.5.2`` and ``1..2`` reach here; they are a :class:`SQLError`,
        as is a digit string longer than ``int`` accepts."""
        token = self._advance()
        if token.type is TokenType.NUMBER:
            try:
                return slot_value(token.value)
            except ValueError:
                raise SQLError(f"malformed number {token.value!r} at "
                               f"position {token.position}") from None
        if token.type is TokenType.STRING:
            return token.value
        raise SQLError(f"expected literal at position {token.position}")


def slot_value(slot: str):
    """The value of a literal slot of :func:`~repro.db.sql.lexer.scan_slots`
    — a number, a quoted string, or the tuple of an ``IN`` list's (whose
    slot ends with its ``)``) — as the parser reads it.  A number the
    parser would refuse raises ``ValueError``."""
    if slot[-1] == ")":
        return tuple(map(slot_value, LITERAL.findall(slot)))
    if slot[0] == "'":
        value = slot[1:-1]
        return value.replace("''", "'") if "''" in value else value
    return float(slot) if "." in slot else int(slot)


def parse_tokens(tokens: list[Token]) -> SelectStatement:
    """Parse an already tokenised statement."""
    return _Parser(tokens).parse_select()


def parse(sql: str) -> SelectStatement:
    """Parse ``sql`` into a :class:`SelectStatement`."""
    return parse_tokens(tokenize(sql))


__all__ = ["parse", "parse_tokens", "slot_value"]
