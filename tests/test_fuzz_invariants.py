"""Seeded fuzz tests: system invariants under random adaptive workloads,
plus property-based round-trips for the SQL layer (hypothesis)."""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Analyst, DProvDB
from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.sql.ast import (
    AGGREGATE_FUNCS,
    Aggregate,
    Between,
    Comparison,
    InList,
    Predicate,
    SelectStatement,
)
from repro.db.sql.executor import predicate_mask
from repro.db.sql.lexer import KEYWORDS, Token, TokenType, tokenize
from repro.db.sql.parser import parse, parse_tokens
from repro.exceptions import SQLError
from repro.db.sql.unparse import to_sql
from repro.db.table import Table
from repro.views.transform import _axis_bins, terms_of
from repro.workloads.rrq import ordered_attributes


# ---------------------------------------------------------------------------
# Oracles for the SQL layer: the per-character scanner the regex lexer
# replaced, and the token-stream shape split / literal bind the compile
# plans replaced.  Moved out of repro.db.sql unchanged except where marked
# ORACLE CHANGE.
# ---------------------------------------------------------------------------

_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">")
#: ORACLE CHANGE: the ASCII characters ``str.isspace`` admits.
_SPACES = frozenset(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")


def _digit(ch: str) -> bool:
    return ch.isascii() and ch.isdigit()   # ORACLE CHANGE: ASCII only


def _letter(ch: str) -> bool:
    return ch.isascii() and ch.isalpha()   # ORACLE CHANGE: ASCII only


def _scan_reference(text: str) -> Iterator[Token]:
    """The original per-character scanner.  ORACLE CHANGE: its character
    classes are ASCII, so outside a string literal a non-ASCII character
    (an exotic space, digit or letter included) is unexpected."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _SPACES:
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
        matched_op = next((op for op in _OPERATORS
                           if text.startswith(op, i)), None)
        if matched_op:
            yield Token(TokenType.OPERATOR, matched_op, i)
            i += len(matched_op)
            continue
        if _digit(ch) or (ch == "-" and i + 1 < n and _digit(text[i + 1])):
            j = i + 1
            while j < n and (_digit(text[j]) or text[j] == "."):
                j += 1
            yield Token(TokenType.NUMBER, text[i:j], i)
            i = j
            continue
        if _letter(ch) or ch == "_":
            j = i + 1
            while j < n and (_letter(text[j]) or _digit(text[j])
                             or text[j] == "_"):
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


def _literal_value(token: Token):
    """The value the parser reads from a NUMBER or STRING token."""
    if token.type is TokenType.NUMBER:
        text = token.value
        try:
            return float(text) if "." in text else int(text)
        except ValueError:
            raise SQLError(f"malformed number {text!r} at position "
                           f"{token.position}") from None
    return token.value


#: Shape placeholders.  Neither can be a token value: ``?`` does not lex.
_ONE, _MANY = "?", "?*"
_LITERALS = (TokenType.NUMBER, TokenType.STRING)


def split_literals(tokens: list[Token]) -> tuple[tuple[str, ...], list]:
    """Split a token stream into its *shape* (token values with every
    literal blanked and each ``IN ( lit, ... )`` list collapsed to one
    placeholder) and its literals in source order: a token per
    placeholder, a tuple of tokens per collapsed list."""
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
    another statement of the skeleton's shape."""
    values = iter(literals)
    conditions = []
    for cond in skeleton.predicate.conditions:
        if isinstance(cond, Comparison):
            cond = Comparison(cond.column, cond.op,
                              _literal_value(next(values)))
        elif isinstance(cond, Between):
            cond = Between(cond.column, _literal_value(next(values)),
                           _literal_value(next(values)))
        else:
            cond = InList(cond.column,
                          tuple(_literal_value(t) for t in next(values)))
        conditions.append(cond)
    return SelectStatement(skeleton.aggregates, skeleton.table,
                           Predicate(tuple(conditions)), skeleton.group_by)


def random_query(bundle, rng):
    """A random counting range query over a random ordered attribute."""
    schema = bundle.database.table(bundle.fact_table).schema
    attributes = ordered_attributes(bundle)
    attr = attributes[int(rng.integers(0, len(attributes)))]
    domain = schema.domain(attr)
    low = int(rng.integers(domain.low, domain.high + 1))
    high = int(rng.integers(low, domain.high + 1))
    return (f"SELECT COUNT(*) FROM {bundle.fact_table} "
            f"WHERE {attr} BETWEEN {low} AND {high}")


@pytest.mark.parametrize("mechanism", ["vanilla", "additive", "vanilla_zcdp"])
@pytest.mark.parametrize("fuzz_seed", [11, 37])
def test_invariants_under_random_workload(adult_bundle, mechanism, fuzz_seed):
    """Whatever the workload does, no constraint is ever exceeded and every
    answered query meets its accuracy requirement."""
    rng = np.random.default_rng(fuzz_seed)
    analysts = [Analyst("a1", 1), Analyst("a2", 3), Analyst("a3", 7)]
    epsilon = 1.2
    engine = DProvDB(adult_bundle, analysts, epsilon, mechanism=mechanism,
                     seed=fuzz_seed)

    for _ in range(150):
        sql = random_query(adult_bundle, rng)
        analyst = analysts[int(rng.integers(0, 3))].name
        accuracy = float(10 ** rng.uniform(3.0, 6.0))
        answer = engine.try_submit(analyst, sql, accuracy=accuracy)
        if answer is not None:
            assert answer.answer_variance <= accuracy * (1 + 1e-6)
            assert answer.epsilon_charged >= 0.0

    # Row constraints: the epsilon-sum ledger for basic composition, the
    # converted zCDP loss for the zCDP-checked mechanism (whose eps-sum
    # ledger may legitimately exceed the limit).
    for analyst in analysts:
        if mechanism == "vanilla_zcdp":
            consumed = engine.mechanism.analyst_consumed(analyst.name)
        else:
            consumed = engine.provenance.row_total(analyst.name)
        assert consumed <= \
            engine.constraints.analyst_limit(analyst.name) + 1e-9
    # Collusion never exceeds the table constraint.
    assert engine.collusion_bound() <= epsilon + 1e-9
    # Provenance entries are non-negative and monotone by construction.
    assert (engine.provenance_matrix() >= 0).all()


@pytest.mark.parametrize("fuzz_seed", [5, 23])
def test_view_answers_match_sql_exactly(adult_bundle, fuzz_seed):
    """Exact view transformation == SQL executor, for random predicates."""
    rng = np.random.default_rng(fuzz_seed)
    from repro.views.registry import ViewRegistry

    registry = ViewRegistry(adult_bundle.database)
    registry.add_attribute_views(adult_bundle.fact_table,
                                 adult_bundle.view_attributes)
    for _ in range(60):
        sql = random_query(adult_bundle, rng)
        statement = parse(sql)
        view, query = registry.compile(statement)
        via_view = query.answer(registry.exact_values(view.name))
        via_sql = adult_bundle.database.execute(statement).scalar()
        assert via_view == pytest.approx(via_sql)


def test_additive_cache_state_is_consistent(adult_bundle):
    """After any mix of operations, every local synopsis's variance is at
    least its view's global variance, and tracked epsilons are consistent."""
    rng = np.random.default_rng(3)
    analysts = [Analyst("x", 2), Analyst("y", 5)]
    engine = DProvDB(adult_bundle, analysts, 2.0, seed=3)
    for _ in range(80):
        sql = random_query(adult_bundle, rng)
        analyst = analysts[int(rng.integers(0, 2))].name
        engine.try_submit(analyst, sql,
                          accuracy=float(10 ** rng.uniform(3.5, 5.5)))
    store = engine.mechanism.store
    for analyst_name, view_name in store.local_keys:
        local = store.local_synopsis(analyst_name, view_name)
        global_syn = store.global_synopsis(view_name)
        assert global_syn is not None
        assert local.variance >= global_syn.variance - 1e-9
        assert local.epsilon <= global_syn.epsilon + 1e-9
        # Provenance entry capped by the global budget (Alg. 4 accounting).
        assert engine.provenance.get(analyst_name, view_name) <= \
            global_syn.epsilon + 1e-9


# ---------------------------------------------------------------------------
# Property-based round-trips for the SQL layer (parse . to_sql == identity).
# ---------------------------------------------------------------------------

def _identifiers():
    """Valid non-keyword identifiers (keywords are case-insensitive)."""
    return st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True) \
        .filter(lambda s: s.upper() not in KEYWORDS)


def _literals():
    """Literals whose text form round-trips through the lexer.

    Floats are 64ths so ``repr`` is exact, always contains a ``.``, and
    never switches to exponent notation; strings may contain quotes (the
    unparser escapes them the standard SQL way).
    """
    ints = st.integers(min_value=-10**9, max_value=10**9)
    floats = st.integers(min_value=-10**6, max_value=10**6) \
        .map(lambda n: n / 64.0)
    strings = st.text(
        alphabet=st.sampled_from("abcXYZ019 _-.'%()"), max_size=12)
    return st.one_of(ints, floats, strings)


def _conditions(columns):
    comparisons = st.builds(
        Comparison, column=columns,
        op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
        value=_literals())
    betweens = st.builds(Between, column=columns, low=_literals(),
                         high=_literals())
    in_lists = st.builds(
        InList, column=columns,
        values=st.lists(_literals(), min_size=1, max_size=4).map(tuple))
    return st.one_of(comparisons, betweens, in_lists)


def _aggregates(columns):
    with_column = st.builds(Aggregate, func=st.sampled_from(AGGREGATE_FUNCS),
                            column=columns)
    count_star = st.just(Aggregate("COUNT", None))
    return st.one_of(with_column, count_star)


@st.composite
def select_statements(draw):
    columns = _identifiers()
    group_by = tuple(draw(st.lists(columns, max_size=2, unique=True)))
    aggregates = tuple(draw(st.lists(_aggregates(columns), min_size=1,
                                     max_size=3)))
    predicate = Predicate(tuple(draw(st.lists(_conditions(columns),
                                              max_size=3))))
    return SelectStatement(aggregates, draw(columns), predicate, group_by)


class TestSqlRoundTrip:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(select_statements())
    def test_parse_inverts_unparse(self, statement):
        """``parse(to_sql(ast)) == ast`` for every generated statement."""
        assert parse(to_sql(statement)) == statement

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(select_statements())
    def test_unparse_is_stable(self, statement):
        """Canonical text is a fixed point: unparse . parse . unparse = id."""
        text = to_sql(statement)
        assert to_sql(parse(text)) == text


# ---------------------------------------------------------------------------
# Shape-keyed binding vs the parser (statement equality, error identity).
# ---------------------------------------------------------------------------

class ShapeTable:
    """The engine's text-miss path without the engine: lex once, look the
    shape up, bind on a hit, run the grammar (and remember) on a miss."""

    def __init__(self) -> None:
        self.skeletons: dict[tuple, SelectStatement] = {}
        self.bound = 0

    def resolve(self, text: str) -> SelectStatement:
        tokens = tokenize(text)
        shape, literals = split_literals(tokens)
        skeleton = self.skeletons.get(shape)
        if skeleton is None:
            statement = parse_tokens(tokens)
            self.skeletons[shape] = statement
            return statement
        self.bound += 1
        return bind_literals(skeleton, literals)


def _outcome(function, text: str):
    try:
        return function(text)
    except (SQLError, ValueError) as exc:   # ValueError: float('1.2.3')
        return (type(exc).__name__, str(exc))


def _reliteral(draw, statement: SelectStatement) -> SelectStatement:
    """Same structure, fresh literals (IN lists may change length)."""
    conditions = []
    for cond in statement.predicate.conditions:
        if isinstance(cond, Comparison):
            cond = Comparison(cond.column, cond.op, draw(_literals()))
        elif isinstance(cond, Between):
            cond = Between(cond.column, draw(_literals()), draw(_literals()))
        else:
            cond = InList(cond.column, tuple(draw(
                st.lists(_literals(), min_size=1, max_size=5))))
        conditions.append(cond)
    return SelectStatement(statement.aggregates, statement.table,
                           Predicate(tuple(conditions)), statement.group_by)


@st.composite
def same_shape_texts(draw):
    first = draw(select_statements())
    return [to_sql(first)] + [to_sql(_reliteral(draw, first))
                              for _ in range(draw(st.integers(1, 3)))]


@st.composite
def text_and_damaged_copies(draw):
    """A statement's text, then copies of it with a slice cut out or a
    character dropped in — the texts likeliest to share its shape."""
    text = to_sql(draw(select_statements()))
    texts = [text]
    for _ in range(3):
        cut = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            texts.append(text[:cut] + text[cut + draw(st.integers(1, 6)):])
        else:
            texts.append(text[:cut]
                         + draw(st.sampled_from("(),'*=<-.5xIN "))
                         + text[cut:])
    return texts


class TestShapeBinding:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(same_shape_texts())
    def test_bound_statement_equals_parsed_statement(self, texts):
        table = ShapeTable()
        for text in texts:
            assert table.resolve(text) == parse(text)
        assert len(table.skeletons) == 1
        assert table.bound == len(texts) - 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text_and_damaged_copies())
    def test_malformed_text_raises_what_the_parser_raises(self, texts):
        # One table across the list: a damaged text must never bind
        # into the skeleton its well-formed original left behind.
        table = ShapeTable()
        for text in texts + texts:
            assert _outcome(table.resolve, text) == _outcome(parse, text)

    @pytest.mark.parametrize("texts, shapes", [
        # '' escapes live inside the STRING token, not the shape.
        (["SELECT COUNT(*) FROM t WHERE c = 'x'",
          "SELECT COUNT(*) FROM t WHERE c = 'it''s'",
          "SELECT COUNT(*) FROM t WHERE c = ''''",
          "SELECT COUNT(*) FROM t WHERE c = 'IN (1, 2)'"], 1),
        # A leading minus is part of the NUMBER; int-ness survives.
        (["SELECT SUM(a) FROM t WHERE a > 5",
          "SELECT SUM(a) FROM t WHERE a > -5",
          "SELECT SUM(a) FROM t WHERE a >-5.5",
          "SELECT SUM(a) FROM t WHERE a > 'five'"], 1),
        # Keywords fold case; identifiers do not.
        (["SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY a",
          "select count(*) from t where a = 2 group by a",
          "SELECT COUNT(*) FROM t WHERE A = 1 GROUP BY A",
          "SELECT COUNT(*) FROM T WHERE a = 1 GROUP BY a"], 3),
        # List length does not mint shapes; <> and != are two spellings.
        (["SELECT AVG(a) FROM t WHERE a IN (1) AND b <> 2",
          "SELECT AVG(a) FROM t WHERE a IN (1, 2.5, 'x') AND b <> 'y'",
          "SELECT AVG(a) FROM t WHERE a IN (1, 2) AND b != 2"], 2),
        # Operand count and kind are shape: none of these may collide.
        (["SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 2",
          "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2",
          "SELECT COUNT(*) FROM t WHERE a IN (1, 2)",
          "SELECT COUNT(*) FROM t WHERE a >= 1 AND a <= 2"], 4),
    ])
    def test_pinned_variants_do_not_collide(self, texts, shapes):
        table = ShapeTable()
        for text in texts + texts:
            assert table.resolve(text) == parse(text)
        assert len(table.skeletons) == shapes

    @pytest.mark.parametrize("text", [
        "SELECT COUNT(*) FROM t WHERE a IN (1, 2",      # unclosed list
        "SELECT COUNT(*) FROM t WHERE a IN (1, , 2)",
        "SELECT COUNT(*) FROM t WHERE a IN ()",
        "SELECT COUNT(*) FROM t WHERE a IN (1 2)",
        "SELECT COUNT(*) FROM t WHERE a IN (1, b)",
        "SELECT COUNT(*) FROM t WHERE a IN 1",
        "SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND",
        "SELECT COUNT(*) FROM t WHERE a = 1.2.3",       # ValueError
        "SELECT COUNT(*) FROM t WHERE a = ",
        "SELECT b, COUNT(*) FROM t WHERE a = 1",        # bare column
        "SELECT COUNT(*) FROM t WHERE a = 'open",       # lexer error
    ])
    def test_pinned_malformed_texts(self, text):
        table = ShapeTable()
        for warm in ("SELECT COUNT(*) FROM t WHERE a IN (1, 2)",
                     "SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 2",
                     "SELECT COUNT(*) FROM t WHERE a = 1",
                     "SELECT b, COUNT(*) FROM t WHERE a = 1 GROUP BY b"):
            table.resolve(warm)
        outcome = _outcome(table.resolve, text)
        assert outcome == _outcome(parse, text)
        assert isinstance(outcome, tuple)


# ---------------------------------------------------------------------------
# Regex lexer vs the reference per-character scanner (golden equality).
# ---------------------------------------------------------------------------

def _lex_outcome(scanner, text: str):
    """Token stream, or the (type, message) of the raised error."""
    try:
        return list(scanner(text))
    except SQLError as exc:
        return ("SQLError", str(exc))


class TestLexerGoldenEquality:
    """The regex scanner must be observably identical to the reference
    scanner it replaced: same tokens (type, value, position) on valid
    input, same error class/message/position on malformed input."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(select_statements())
    def test_token_streams_match_on_unparsed_statements(self, statement):
        text = to_sql(statement)
        assert tokenize(text) == list(_scan_reference(text))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet=st.sampled_from(
        "abcXYZ019 _-.'%()<>=!,*\t\n;&\\\""), max_size=40))
    def test_arbitrary_ascii_matches_including_errors(self, text):
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)

    @pytest.mark.parametrize("text", [
        "'abc",                    # unterminated literal
        "'a''",                    # trailing escape pair stays open
        "''''",                    # one escaped quote, terminated
        "'a'''",                   # literal then escape-terminated
        "'ab''cd'ef",              # escape inside, trailing ident
        "SELECT COUNT(*) FROM t WHERE c = 'it''s'",
        "a;b",                     # bad character mid-stream
        "-5 -x 1.2.3 -",           # numbers, negatives, stray minus
        "<=>=!=<>=<>",             # operator maximal munch
    ])
    def test_pinned_edge_cases(self, text):
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)

    def test_error_positions_are_exact(self):
        for scanner in (tokenize, _scan_reference):
            with pytest.raises(SQLError,
                               match="unterminated string literal "
                                     "at position 7"):
                list(scanner("SELECT 'oops"))
            with pytest.raises(SQLError,
                               match=r"unexpected character ';' "
                                     r"at position 5"):
                list(scanner("SELEC;T"))

    def test_non_ascii_is_an_error_outside_strings(self):
        for text, position in [
            ("SELECT COUNT(*) FROM tablé", 25),     # a letter isalpha admits
            ("SELECT COUNT(*) FROM t WHERE a = ٣", 33),   # Arabic-Indic 3
            ("SELECT COUNT(*) FROM t WHERE a = ²", 33),   # a category-No digit
            ("SELECT COUNT(*) FROM t WHERE a = Ⅻ", 33),   # a category-Nl
            ("SELECT\u00a0COUNT(*) FROM t", 6),       # a no-break space
            ("SELECT COUNT(*)\u2003FROM t", 15),      # an em space
        ]:
            message = f"unexpected character {text[position]!r} at " \
                f"position {position}"
            for scanner in (tokenize, _scan_reference):
                with pytest.raises(SQLError) as raised:
                    list(scanner(text))
                assert str(raised.value) == message

    def test_non_ascii_is_text_inside_strings(self):
        text = "SELECT COUNT(*) FROM t WHERE c IN ('tablé', '٣²Ⅻ\u00a0')"
        tokens = tokenize(text)
        assert tokens == list(_scan_reference(text))
        assert [t.value for t in tokens if t.type is TokenType.STRING] \
            == ["tablé", "٣²Ⅻ\u00a0"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet=st.sampled_from(
        "a1 '(),=<-.é٣²Ⅻ\u00a0\u2003\u3000ß"), max_size=30))
    def test_arbitrary_unicode_matches_including_errors(self, text):
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)


class TestLexerWhitespace:
    """Every token pattern swallows the whitespace in front of it and
    the end-of-text pattern swallows the trailing run, so whitespace is
    where the regex scanner could drift from the reference."""

    @pytest.mark.parametrize("text", [
        "",
        " ",
        "\t\n \r\x0b\x0c",
        "\x1c\x1d\x1e\x1f",             # isspace() and \s both admit these
        "  SELECT",                      # leading
        "SELECT  \n",                    # trailing
        "\tSELECT\tCOUNT(\n*\n)\r\nFROM t WHERE a\t=\t'x y'  ",
        "a IN ( 1 ,\t2 )",
        "   ;",                          # error right after whitespace
        "SELECT \t 'open",               # unterminated after whitespace
        "a =\n-",                        # stray minus after a newline
    ])
    def test_pinned_whitespace(self, text):
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)

    @pytest.mark.parametrize("text", [
        " " * 50_000 + ";",               # a long run, then a stray char
        "a" + " " * 50_000,               # a long trailing run
        "'" * 50_001,                     # escape pairs, never closed
        "x" + ";" * 50_000,               # stray characters to the end
    ], ids=["space-run", "trailing-run", "quote-run", "stray-run"])
    def test_long_malformed_runs_match(self, text):
        # One findall pass that never skips input: a scan restarting at
        # every position of these runs would take minutes, not ms.
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)

    def test_eof_sits_at_the_end_of_the_text(self):
        for text in ("", "   ", "SELECT \n\t"):
            assert tokenize(text)[-1] == (TokenType.EOF, "", len(text))

    def test_error_position_skips_the_whitespace_before_it(self):
        with pytest.raises(SQLError, match="unexpected character ';' at "
                                           "position 10"):
            tokenize("SELECT \n\t ;")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(
        [" ", "\t", "\n", "\r\n", "a", "AND", "1.5", "-2", "'s '", "''",
         "(", ")", ",", "*", "<=", "<>", "!", ";", "'"]), max_size=25))
    def test_whitespace_heavy_streams_match(self, pieces):
        text = "".join(pieces)
        assert _lex_outcome(tokenize, text) == \
            _lex_outcome(_scan_reference, text)


# ---------------------------------------------------------------------------
# predicate_mask vs a naive row-by-row evaluator on small random tables.
# ---------------------------------------------------------------------------

_COLORS = ("r", "g", "b")
_MASK_SCHEMA = Schema([
    Attribute("x", IntegerDomain(0, 9)),
    Attribute("y", IntegerDomain(-3, 3)),
    Attribute("c", CategoricalDomain(_COLORS)),
])


def _naive_condition(cond, row: dict) -> bool:
    value = row[cond.column]
    if isinstance(cond, Comparison):
        ops = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b,
               "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
        return bool(ops[cond.op](value, cond.value))
    if isinstance(cond, Between):
        return bool(cond.low <= value <= cond.high)
    assert isinstance(cond, InList)
    return value in cond.values


def _mask_conditions():
    int_col = st.sampled_from(("x", "y"))
    int_value = st.integers(min_value=-6, max_value=12)
    # Categorical columns support equality ops only; include an out-of-table
    # value ("z") so empty matches are exercised.
    cat_value = st.sampled_from(_COLORS + ("z",))
    return st.one_of(
        st.builds(Comparison, column=int_col,
                  op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
                  value=int_value),
        st.builds(Comparison, column=st.just("c"),
                  op=st.sampled_from(("=", "!=")), value=cat_value),
        st.builds(Between, column=int_col, low=int_value, high=int_value),
        st.builds(InList, column=int_col,
                  values=st.lists(int_value, min_size=1, max_size=3)
                  .map(tuple)),
        st.builds(InList, column=st.just("c"),
                  values=st.lists(cat_value, min_size=1, max_size=3)
                  .map(tuple)),
    )


class TestPredicateMaskAgainstNaive:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(),
           num_rows=st.integers(min_value=0, max_value=25))
    def test_mask_matches_row_by_row(self, data, num_rows):
        xs = data.draw(st.lists(st.integers(0, 9), min_size=num_rows,
                                max_size=num_rows))
        ys = data.draw(st.lists(st.integers(-3, 3), min_size=num_rows,
                                max_size=num_rows))
        cs = data.draw(st.lists(st.sampled_from(_COLORS), min_size=num_rows,
                                max_size=num_rows))
        table = Table.from_values(_MASK_SCHEMA,
                                  {"x": xs, "y": ys, "c": cs})
        conditions = data.draw(st.lists(_mask_conditions(),
                                        min_size=0, max_size=3))
        predicate = Predicate(tuple(conditions))

        mask = predicate_mask(table, predicate)
        rows = [{"x": xs[i], "y": ys[i], "c": cs[i]}
                for i in range(num_rows)]
        expected = np.array(
            [all(_naive_condition(c, row) for c in conditions)
             for row in rows], dtype=bool).reshape(num_rows)
        assert mask.shape == (num_rows,)
        assert np.array_equal(mask, expected)


# ---------------------------------------------------------------------------
# Categorical bin masks: value -> bin lookup vs the per-bin loop it replaced.
# ---------------------------------------------------------------------------

_BIN_VALUES = ("r", "g", "b", "1", "", 0, 1, 2, 2.5, 3.0, True, False)
_OPERANDS = _BIN_VALUES + ("z", 7, 1.0, 0.0, -1, "2")


def _bin_mask_for_condition(domain, cond) -> np.ndarray:
    """Boolean inclusion vector of one condition, from the mask path."""
    mask = np.zeros(domain.size, dtype=bool)
    mask[_axis_bins(domain, cond.column,
                    terms_of((cond,))[cond.column])] = True
    return mask


def _loop_bin_mask(domain: CategoricalDomain, cond) -> np.ndarray:
    """The oracle: evaluate the condition on every bin's value."""
    def evaluate(value) -> bool:
        if isinstance(cond, InList):
            return value in set(cond.values)
        return bool(value == cond.value if cond.op == "="
                    else value != cond.value)
    return np.array([evaluate(domain.value_of(i))
                     for i in range(domain.size)], dtype=bool)


class TestCategoricalBinMaskAgainstLoop:
    # unique=True dedupes by python equality, as CategoricalDomain
    # demands: 1, 1.0 and True can never share a domain.
    domains = st.lists(st.sampled_from(_BIN_VALUES), min_size=1,
                       unique=True).map(CategoricalDomain)
    operands = st.sampled_from(_OPERANDS)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(domain=domains, cond=st.one_of(
        st.builds(Comparison, column=st.just("c"),
                  op=st.sampled_from(("=", "!=")), value=operands),
        st.builds(InList, column=st.just("c"),
                  values=st.lists(operands, min_size=1, max_size=5)
                  .map(tuple))))
    def test_lookup_mask_equals_per_bin_loop(self, domain, cond):
        mask = _bin_mask_for_condition(domain, cond)
        assert mask.dtype == bool and mask.shape == (domain.size,)
        assert np.array_equal(mask, _loop_bin_mask(domain, cond))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(domain=domains, cond=st.one_of(
        st.builds(Comparison, column=st.just("c"),
                  op=st.sampled_from(("<", "<=", ">", ">=")),
                  value=operands),
        st.builds(Between, column=st.just("c"), low=operands,
                  high=operands)))
    def test_ordering_comparisons_stay_rejected(self, domain, cond):
        from repro.exceptions import UnanswerableQuery

        with pytest.raises(UnanswerableQuery, match="ordering comparison"):
            _bin_mask_for_condition(domain, cond)
