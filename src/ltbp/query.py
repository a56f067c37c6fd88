"""Declarative graph-pattern query language: syntax tree and parser.

A strict SPARQL subset, whitespace-insensitive with case-insensitive keywords:

    query   := "SELECT" proj+ from? "WHERE" "{" pattern ("." pattern)* "."?
               filter* "}" groupby? orderby? limit?
    proj    := var | "(" AGG "(" var ")" "AS" var ")"
    AGG     := "SUM" | "AVG" | "MIN" | "MAX" | "COUNT"
    from    := "FROM" iriref                # parsed and ignored
    pattern := term term term
    term    := var | iri | literal
    filter  := "FILTER" "(" expr ")"
    expr    := expr binop expr | ("!" | "-") expr | "(" expr ")" | var | constant
    groupby := "GROUP" "BY" var+
    orderby := "ORDER" "BY" ("ASC" | "DESC")? var
    limit   := "LIMIT" integer

IRIs are written either in angle brackets or as prefixed names using the
built-in prefixes (``:name`` for predicates, plus ``cust:``, ``ord:``,
``prod:`` and ``class:`` for entities). A prefixed name's local part may
hold a "." but not end in one, as in SPARQL 1.1 (``PN_LOCAL``), so the "."
after ``class:Order.`` ends the triple; an IRI whose local part ends in "."
is written in angle brackets. An IRI in angle brackets, ``FROM``'s
too, holds no character that N-Triples forbids in one, by the rule the
loader applies (``terms.read_iri``): a bad one is a syntax error at the IRI.
A parsed query is a ``QuerySpec``, which checks itself. A filter's
operators bind in these levels, loosest first: ``||``, ``&&``, ``!``, the
comparisons ``= != < <= > >=``, which do not chain, ``+ -``, ``* /``, and
unary ``-``. Binary operators associate left. A filter nests at most
``MAX_EXPR_DEPTH`` deep. ``#`` starts a line comment. A number is ASCII
digits with an optional fraction, an ``xsd:integer`` without a point and an
``xsd:decimal`` with one, read by ``terms.read``. An error message shows a
constant as the query would write it: a string quoted and escaped, and a
number in plain notation (``terms.lexical``).

A string is written in double quotes on one line and takes the escapes
N-Triples and SPARQL share: ``\\t``, ``\\b``, ``\\n``, ``\\r``, ``\\f``,
``\\"``, ``\\'`` and ``\\\\``, and ``\\uXXXX`` / ``\\UXXXXXXXX`` for a code
point. Any other escape, and a surrogate or a code point past U+10FFFF, is
a syntax error at the string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Union

from . import terms as T
from .terms import Iri, PREFIXES, Term, TriplePattern, Variable, unescape


class QueryError(Exception):
    pass


class QuerySyntaxError(QueryError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownAggregateError(QuerySyntaxError):
    pass


class QueryValidationError(QueryError):
    pass


class UnboundProjectionError(QueryValidationError):
    pass


# --- filter expression AST -------------------------------------------------
# A leaf is a term as a pattern holds it: a Variable, or a constant that is
# its own value (the parser writes a str, int or Decimal). Every other node
# is an ``Op``.

COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")

# The binary operators' levels, loosest first (SPARQL 1.1, W3C 2013, §19.8).
# "!" prefixes an operand of "&&", unary "-" an operand of "*" and "/", and
# a comparison does not chain.
_LEVELS = (("||",), ("&&",), COMPARISONS, ("+", "-"), ("*", "/"))
_COMPARISON_LEVEL = _LEVELS.index(COMPARISONS)


@dataclass(frozen=True, slots=True)
class Op:
    op: str  # "!" and unary "-" take one operand; every _LEVELS operator two
    args: tuple


Expr = Union[Variable, str, int, Decimal, Op]


def render_expr(expr: Expr) -> str:
    """Source-like rendering of a filter expression, for error messages."""
    if isinstance(expr, Variable):
        return f"?{expr.name}"
    if isinstance(expr, Op):
        if len(expr.args) == 1:
            return expr.op + render_expr(expr.args[0])
        left, right = map(render_expr, expr.args)
        text = f"{left} {expr.op} {right}"
        return text if expr.op in COMPARISONS else f"({text})"
    return T.text(expr)


def expr_depth(expr: Expr) -> int:
    """Nodes on the longest root-to-leaf path of an expression."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Op):
            stack += [(arg, depth + 1) for arg in node.args]
    return deepest


# The kinds of term a pattern may hold: a variable, or a value the store
# can hold, which is an IRI or a literal of one of ``terms.DATATYPES`` or a
# string. Each is matched by its exact type: a ``bool`` is no ``int`` here,
# nor a ``datetime`` a ``date``, and a ``float`` is none of them.
_PATTERN_KINDS = frozenset({Variable, Iri, str, *T.DATATYPES})


def expr_variables(expr: Expr) -> set[str]:
    """The names of the variables in a filter expression. A leaf that is
    neither a variable nor a constant of ``_PATTERN_KINDS`` raises
    QueryValidationError."""
    names, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Op):
            stack += node.args
        elif type(node) is Variable:
            names.add(node.name)
        elif type(node) not in _PATTERN_KINDS:
            raise QueryValidationError(f"malformed filter constant: {node!r}")
    return names


# --- query spec ------------------------------------------------------------

AGGREGATE_FUNCS = ("SUM", "AVG", "MIN", "MAX", "COUNT")


@dataclass(frozen=True, slots=True)
class Aggregate:
    func: str  # one of AGGREGATE_FUNCS
    var: str
    alias: str


Projection = Union[str, Aggregate]  # bare variable name or aggregate


@dataclass(frozen=True, slots=True)
class OrderBy:
    key: str  # variable or aggregate alias
    descending: bool = False


@dataclass(frozen=True)
class QuerySpec:
    """A parsed query, valid by construction: ``__post_init__`` checks it,
    so ``evaluate`` runs any spec that exists.

    Each pattern is three terms of ``_PATTERN_KINDS``, and so is each leaf
    of a filter. The query projects something and has a pattern, and every
    variable it projects, aggregates, filters on or groups by occurs in a
    pattern. The result columns (``columns``: each projected variable and
    aggregate alias) are distinct, and no alias names a pattern variable
    (SPARQL 1.1, W3C 2013, §18.2.1).
    An aggregated or grouped query groups each projected variable, the order
    key is a result column, and the limit is not negative. A spec that fails
    a check raises QueryValidationError.
    """

    projections: tuple[Projection, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Expr, ...] = ()
    group_by: tuple[str, ...] = ()
    order_by: OrderBy | None = None
    limit: int | None = None

    @property
    def aggregates(self) -> tuple[Aggregate, ...]:
        return tuple(p for p in self.projections if isinstance(p, Aggregate))

    @property
    def columns(self) -> tuple[str, ...]:
        """The result columns' names: each projection's variable or alias."""
        return tuple(p if isinstance(p, str) else p.alias for p in self.projections)

    def __post_init__(self) -> None:
        if not self.projections:
            raise QueryValidationError("query projects nothing")
        if not self.patterns:
            raise QueryValidationError("query has no patterns")
        for pattern in self.patterns:
            if len(pattern) != 3 or any(
                    type(term) not in _PATTERN_KINDS for term in pattern):
                raise QueryValidationError(f"malformed pattern: {pattern!r}")
        bound = {term.name for pattern in self.patterns for term in pattern
                 if isinstance(term, Variable)}
        bare = [p for p in self.projections if isinstance(p, str)]
        uses = (
            (UnboundProjectionError, "projected", bare),
            (UnboundProjectionError, "aggregated", [a.var for a in self.aggregates]),
            (QueryValidationError, "filter",
             [name for expr in self.filters for name in sorted(expr_variables(expr))]),
            (QueryValidationError, "grouping", self.group_by),
        )
        for error, noun, names in uses:
            for name in names:
                if name not in bound:
                    raise error(
                        f"{noun} variable ?{name} does not occur in any pattern"
                    )
        if self.aggregates or self.group_by:
            uncovered = [name for name in bare if name not in self.group_by]
            if uncovered:
                raise QueryValidationError(
                    "bare projections in an aggregated query must be grouped: "
                    + ", ".join(f"?{n}" for n in uncovered)
                )
        columns = self.columns
        for n, name in enumerate(columns):
            if name in columns[:n]:
                raise QueryValidationError(f"result column ?{name} is projected twice")
        for aggregate in self.aggregates:
            if aggregate.alias in bound:
                raise QueryValidationError(
                    f"alias ?{aggregate.alias} names a pattern variable")
        if self.order_by is not None and self.order_by.key not in columns:
            raise QueryValidationError(
                f"order key ?{self.order_by.key} is not a result column")
        if self.limit is not None and self.limit < 0:
            raise QueryValidationError("limit must be >= 0")


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>\#[^\n]*)
    | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<IRIREF><[^<>\s]*>)
    | (?P<QNAME>(?:[A-Za-z_][A-Za-z0-9_]*)?:
                [A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)  # no final "."
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    | (?P<STRING>"(?:[^"\\\n]|\\.)*")
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP>&&|\|\||<=|>=|!=|[{}().=<>!+\-*/])
    """,
    re.VERBOSE,
)

@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            ch = text[pos]
            if ch == '"':
                raise QuerySyntaxError("unterminated string literal", line, col)
            raise QuerySyntaxError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# --- recursive-descent parser ----------------------------------------------

# Filter expressions are parsed, evaluated and rendered by recursion, so a
# filter may nest parentheses, "!" and unary "-" at most this deep, and its
# syntax tree may be at most this deep: deeper input is a syntax error.
MAX_EXPR_DEPTH = 64
_TOO_DEEP = f"filter expression nests deeper than {MAX_EXPR_DEPTH} levels"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses, "!" and unary "-" around the cursor

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> QuerySyntaxError:
        tok = tok or self.peek()
        return QuerySyntaxError(message, tok.line, tok.column)

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value.upper() in names

    def expect_keyword(self, name: str) -> _Token:
        if not self.at_keyword(name):
            found = self.peek().value or "end of input"
            raise self.error(f"expected {name}, found {found!r}")
        return self.next()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def expect_op(self, op: str) -> _Token:
        if not self.at_op(op):
            found = self.peek().value or "end of input"
            raise self.error(f"expected {op!r}, found {found!r}")
        return self.next()

    def nested(self, parse, *args):
        """Consume the token opening one nesting level, then ``parse(*args)``."""
        tok = self.next()
        if self.depth == MAX_EXPR_DEPTH:
            raise self.error(_TOO_DEEP, tok)
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    # query := SELECT proj+ from? WHERE { patterns filters } tail
    def parse(self) -> QuerySpec:
        self.expect_keyword("SELECT")
        projections = [self.projection()]
        while self.peek().kind == "VAR" or self.at_op("("):
            projections.append(self.projection())
        if self.at_keyword("FROM"):
            self.next()
            if self.peek().kind != "IRIREF":
                raise self.error("expected an IRI after FROM")
            self.iri()  # named graphs are not supported; single default graph
        self.expect_keyword("WHERE")
        self.expect_op("{")
        patterns = [self.pattern()]
        if self.at_op("."):
            self.next()
        while not (self.at_op("}") or self.at_keyword("FILTER")):
            if self.peek().kind == "EOF":
                raise self.error("unterminated WHERE block, expected '}'")
            patterns.append(self.pattern())
            if self.at_op("."):
                self.next()
        filters = []
        while self.at_keyword("FILTER"):
            self.next()
            opening = self.expect_op("(")
            expr = self.bool_expr()
            if expr_depth(expr) > MAX_EXPR_DEPTH:
                raise self.error(_TOO_DEEP, opening)
            filters.append(expr)
            self.expect_op(")")
        self.expect_op("}")
        group_by: tuple[str, ...] = ()
        if self.at_keyword("GROUP"):
            self.next()
            self.expect_keyword("BY")
            names = [self.variable()]
            while self.peek().kind == "VAR":
                names.append(self.variable())
            group_by = tuple(names)
        order_by = None
        if self.at_keyword("ORDER"):
            self.next()
            self.expect_keyword("BY")
            descending = False
            if self.at_keyword("ASC", "DESC"):
                descending = self.next().value.upper() == "DESC"
            order_by = OrderBy(self.variable(), descending)
        limit = None
        if self.at_keyword("LIMIT"):
            self.next()
            tok = self.peek()
            if tok.kind != "NUMBER" or "." in tok.value:
                raise self.error("expected an integer after LIMIT")
            limit = self.constant()
        tok = self.peek()
        if tok.kind != "EOF":
            raise self.error(f"unexpected trailing input {tok.value!r}", tok)
        return QuerySpec(
            projections=tuple(projections),
            patterns=tuple(patterns),
            filters=tuple(filters),
            group_by=group_by,
            order_by=order_by,
            limit=limit,
        )

    def variable(self) -> str:
        tok = self.peek()
        if tok.kind != "VAR":
            found = tok.value or "end of input"
            raise self.error(f"expected a variable, found {found!r}")
        self.next()
        return tok.value[1:]

    def projection(self) -> Projection:
        if self.peek().kind == "VAR":
            return self.variable()
        self.expect_op("(")
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error("expected an aggregate function name")
        func = tok.value.upper()
        if func not in AGGREGATE_FUNCS:
            raise UnknownAggregateError(
                f"unknown aggregate function {tok.value!r}", tok.line, tok.column
            )
        self.next()
        self.expect_op("(")
        var = self.variable()
        self.expect_op(")")
        self.expect_keyword("AS")
        alias = self.variable()
        self.expect_op(")")
        return Aggregate(func, var, alias)

    def pattern(self) -> TriplePattern:
        return (self.term(), self.term(), self.term())

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Variable(tok.value[1:])
        if tok.kind == "IRIREF":
            return self.iri()
        if tok.kind == "QNAME":
            self.next()
            prefix, _, local = tok.value.partition(":")
            base = PREFIXES.get(prefix)
            if base is None:
                raise self.error(f"unknown prefix {prefix!r}", tok)
            return Iri(base + local)
        if tok.kind in ("NUMBER", "STRING"):
            return self.constant()
        found = tok.value or "end of input"
        raise self.error(f"expected a term, found {found!r}")

    def iri(self) -> Iri:
        """The IRI of the IRIREF token at the cursor, by ``terms.read_iri``."""
        tok = self.next()
        try:
            return T.read_iri(tok.value[1:-1])
        except ValueError as exc:
            raise QuerySyntaxError(str(exc), tok.line, tok.column) from None

    def constant(self) -> Union[str, int, Decimal]:
        """The value of the NUMBER or STRING token at the cursor."""
        tok = self.next()
        if tok.kind == "STRING":
            try:
                return unescape(tok.value[1:-1])
            except ValueError as exc:
                raise QuerySyntaxError(str(exc), tok.line, tok.column) from None
        kind = Decimal if "." in tok.value else int
        try:
            return T.read(kind, tok.value)
        except ValueError:  # more digits than Python's int-from-text limit
            raise QuerySyntaxError(
                f"too many digits in integer: {len(tok.value)}", tok.line, tok.column
            ) from None

    def bool_expr(self, level: int = 0) -> Expr:
        """An expression whose loosest binary operator is of ``_LEVELS[level]``
        or tighter."""
        if level == len(_LEVELS):
            return self.unary()
        if level == _COMPARISON_LEVEL and self.at_op("!"):  # an operand of "&&"
            return Op("!", (self.nested(self.bool_expr, level),))
        expr = self.bool_expr(level + 1)
        while self.at_op(*_LEVELS[level]):
            expr = Op(self.next().value, (expr, self.bool_expr(level + 1)))
            if level == _COMPARISON_LEVEL:  # a comparison does not chain
                break
        return expr

    def unary(self) -> Expr:
        if self.at_op("-"):
            return Op("-", (self.nested(self.unary),))
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return Variable(tok.value[1:])
        if tok.kind in ("NUMBER", "STRING"):
            return self.constant()
        if self.at_op("("):
            expr = self.nested(self.bool_expr)
            self.expect_op(")")
            return expr
        found = tok.value or "end of input"
        raise self.error(f"expected an expression, found {found!r}")


def parse_query(text: str) -> QuerySpec:
    """Parse a query into a ``QuerySpec``; raises QuerySyntaxError /
    QueryValidationError."""
    return _Parser(text).parse()
