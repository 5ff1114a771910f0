"""Recursive-descent parser for the SQL subset.

Besides :func:`parse`, the module splits a token stream into *(shape,
literals)* and binds literals back into a parsed skeleton, so a caller
that has parsed one statement of a shape can build every other statement
of that shape without running the grammar again (see
:mod:`repro.core.compile_cache`).  The grammar stays the only judge of
well-formedness: a shape is only ever bound after a statement of that
exact shape has parsed.
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
from repro.db.sql.lexer import Token, TokenType, tokenize
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
        value = _parse_literal(self._peek())
        self._advance()
        return value


def _parse_literal(token: Token) -> Literal:
    """The value of a NUMBER or STRING token.

    The lexer takes any run of digits and dots for a NUMBER, so ``1.5.2``
    and ``1..2`` reach here; they are a :class:`SQLError`, as is a digit
    string longer than ``int`` accepts.  The parser and
    :func:`bind_literals` both land here, so both raise the same text."""
    if token.type is TokenType.NUMBER:
        text = token.value
        try:
            return float(text) if "." in text else int(text)
        except ValueError:
            raise SQLError(f"malformed number {text!r} at position "
                           f"{token.position}") from None
    if token.type is TokenType.STRING:
        return token.value
    raise SQLError(f"expected literal at position {token.position}")


def parse_tokens(tokens: list[Token]) -> SelectStatement:
    """Parse an already tokenised statement."""
    return _Parser(tokens).parse_select()


def parse(sql: str) -> SelectStatement:
    """Parse ``sql`` into a :class:`SelectStatement`."""
    return parse_tokens(tokenize(sql))


#: Shape placeholders.  Neither can be a token value: ``?`` does not lex.
_ONE, _MANY = "?", "?*"
_LITERALS = (TokenType.NUMBER, TokenType.STRING)


def split_literals(tokens: list[Token]) -> tuple[tuple[str, ...], list]:
    """Split a token stream into its *shape* and its literals.

    The shape is the stream's token values with every NUMBER/STRING
    replaced by a placeholder and each well-formed ``IN ( lit, ... )``
    list collapsed to one variadic placeholder, so neither literal values
    nor list lengths mint shapes.  Keywords arrive upper-cased from the
    lexer and identifiers verbatim, so case variants of a keyword share a
    shape and case variants of a column do not.  The literals come back
    in source order: a token per placeholder, a tuple of tokens per
    collapsed list.

    The grammar accepts a NUMBER wherever it accepts a STRING, and a list
    is collapsed only when it is exactly ``( lit {, lit} )``, so whether a
    statement parses is a function of its shape alone.
    """
    shape: list[str] = []
    literals: list = []
    n = len(tokens)
    i = 0
    while i < n:
        token = tokens[i]
        if token.type in _LITERALS:
            shape.append(_ONE)
            literals.append(token)
        elif token.value == "IN" and token.type is TokenType.KEYWORD \
                and tokens[i + 1].type is TokenType.LPAREN:
            # tokens always end with EOF, so i + 1 exists after a keyword.
            j = i + 2
            members = []
            while tokens[j].type in _LITERALS:
                members.append(tokens[j])
                if tokens[j + 1].type is not TokenType.COMMA:
                    break
                j += 2
            if members and tokens[j].type in _LITERALS \
                    and tokens[j + 1].type is TokenType.RPAREN:
                shape += ("IN", "(", _MANY, ")")
                literals.append(tuple(members))
                i = j + 2
                continue
            shape.append(token.value)
        else:
            shape.append(token.value)
        i += 1
    return tuple(shape), literals


def bind_literals(skeleton: SelectStatement, literals: list
                  ) -> SelectStatement:
    """``skeleton`` with its predicate's literals replaced, in source
    order, by ``literals`` — the pair :func:`split_literals` returned for
    another statement of the skeleton's shape.  Equals what :func:`parse`
    returns for that statement."""
    values = iter(literals)
    conditions = []
    for cond in skeleton.predicate.conditions:
        if isinstance(cond, Comparison):
            cond = Comparison(cond.column, cond.op,
                              _parse_literal(next(values)))
        elif isinstance(cond, Between):
            cond = Between(cond.column, _parse_literal(next(values)),
                           _parse_literal(next(values)))
        else:
            cond = InList(cond.column,
                          tuple(_parse_literal(t) for t in next(values)))
        conditions.append(cond)
    return SelectStatement(skeleton.aggregates, skeleton.table,
                           Predicate(tuple(conditions)), skeleton.group_by)


__all__ = ["bind_literals", "parse", "parse_tokens", "split_literals"]
