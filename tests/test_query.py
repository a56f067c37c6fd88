import contextlib
import io
from datetime import date, datetime
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from ltbp.cli import main
from ltbp.graph import (
    FilterTypeError, GraphParseError, build_graph, evaluate, export_ntriples,
    load_ntriples,
)
from ltbp.ingest import GeneratorConfig, generate_synthetic
from ltbp.model import PricingConfig
from ltbp.pricing import price_dataset
from ltbp.query import (
    MAX_EXPR_DEPTH,
    Aggregate,
    Op,
    OrderBy,
    QuerySpec,
    QuerySyntaxError,
    QueryValidationError,
    UnboundProjectionError,
    UnknownAggregateError,
    expr_depth,
    parse_query,
)
from ltbp.report import TOTALS_QUERY
from ltbp.terms import ECHAR, Iri, Variable

A, B, C = Variable("a"), Variable("b"), Variable("c")


class TestTotalsQuery:
    def test_parses_to_three_sums_and_three_patterns(self):
        spec = parse_query(TOTALS_QUERY)
        assert [a.func for a in spec.aggregates] == ["SUM", "SUM", "SUM"]
        assert [a.alias for a in spec.aggregates] == [
            "TotalRMPrice",
            "TotalOrginalPrice",
            "TotalConvexPrice",
        ]
        assert len(spec.patterns) == 3
        assert spec.filters == ()
        assert spec.group_by == ()

    def test_from_clause_is_ignored(self):
        spec = parse_query(TOTALS_QUERY)
        first = spec.patterns[0]
        assert first[0] == Variable("order")
        assert first[1] == Iri("urn:ltbp:p:hasRMPrice")


class TestBasics:
    def test_single_variable_single_pattern(self):
        spec = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert spec.projections == ("s",)
        assert len(spec.patterns) == 1

    def test_keywords_case_insensitive(self):
        spec = parse_query("select (sum(?x) As ?t) where { ?s ?p ?x . } limit 5")
        assert spec.aggregates[0] == Aggregate("SUM", "x", "t")
        assert spec.limit == 5

    def test_prefixed_names_expand(self):
        spec = parse_query("SELECT ?o WHERE { ?o :wasPlacedBy cust:C001 . }")
        _, pred, obj = spec.patterns[0]
        assert pred == Iri("urn:ltbp:p:wasPlacedBy")
        assert obj == Iri("urn:ltbp:customer:C001")

    def test_angle_bracket_iri(self):
        spec = parse_query("SELECT ?o WHERE { ?o <urn:x:p> ?v }")
        assert spec.patterns[0][1] == Iri("urn:x:p")

    def test_literal_terms(self):
        spec = parse_query('SELECT ?o WHERE { ?o :hasQuantity 5 . ?o :hasRegion "EMEA" }')
        assert [type(p[2]) for p in spec.patterns] == [int, str]
        assert [p[2] for p in spec.patterns] == [5, "EMEA"]

    def test_decimal_literal(self):
        spec = parse_query("SELECT ?o WHERE { ?o :hasRMPrice 125.00 }")
        assert repr(spec.patterns[0][2]) == repr(Decimal("125.00"))

    def test_group_order_limit(self):
        spec = parse_query(
            "SELECT ?c (SUM(?x) AS ?t) WHERE { ?o :p ?c . ?o :q ?x }"
            " GROUP BY ?c ORDER BY DESC ?t LIMIT 20"
        )
        assert spec.group_by == ("c",)
        assert spec.order_by == OrderBy("t", descending=True)
        assert spec.limit == 20

    def test_ascending_order_default(self):
        spec = parse_query("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")
        assert spec.order_by == OrderBy("s", descending=False)

    # Each case is a filter and its tree, or the column of the syntax error
    # that a chained comparison is.
    @pytest.mark.parametrize("text, tree", [
        ("?a > 1 && ?b * 2 <= 10",
         Op("&&", (Op(">", (A, 1)), Op("<=", (Op("*", (B, 2)), 10))))),
        ("!?a < 1 && ?b", Op("&&", (Op("!", (Op("<", (A, 1)),)), B))),
        ("-?a * 2 > 0", Op(">", (Op("*", (Op("-", (A,)), 2)), 0))),
        ("?a - 1 - 2", Op("-", (Op("-", (A, 1)), 2))),
        ("?a / 2 / 3", Op("/", (Op("/", (A, 2)), 3))),
        ("?a || ?b && ?c", Op("||", (A, Op("&&", (B, C))))),
        ("?a < ?b < ?c", len("?a < ?b ") + 1),
    ], ids=["and-of-comparisons", "not-binds-tighter-than-and",
            "unary-minus-binds-tightest", "minus-associates-left",
            "divide-associates-left", "or-is-loosest", "comparisons-do-not-chain"])
    def test_filter_expression_tree(self, text, tree):
        head = "SELECT ?a WHERE { ?s :p ?a . ?s :q ?b . ?s :r ?c FILTER("
        query = f"{head}{text}) }}"
        if isinstance(tree, int):
            with pytest.raises(QuerySyntaxError) as excinfo:
                parse_query(query)
            column = len(head) + tree
            assert str(excinfo.value) == f"line 1, column {column}: expected ')', found '<'"
            return
        (expr,) = parse_query(query).filters
        assert expr == tree

    def test_comments_ignored(self):
        spec = parse_query("SELECT ?s # projection\nWHERE { ?s ?p ?o }")
        assert spec.projections == ("s",)


class TestErrors:
    def test_unbound_projection(self):
        with pytest.raises(UnboundProjectionError):
            parse_query("SELECT ?x WHERE { ?s ?p ?o }")

    def test_unbound_aggregate_source(self):
        with pytest.raises(UnboundProjectionError):
            parse_query("SELECT (SUM(?x) AS ?t) WHERE { ?s ?p ?o }")

    def test_unknown_aggregate(self):
        with pytest.raises(UnknownAggregateError) as excinfo:
            parse_query("SELECT (MEDIAN(?x) AS ?t) WHERE { ?s ?p ?x }")
        assert excinfo.value.line == 1

    def test_bare_projection_needs_grouping(self):
        with pytest.raises(QueryValidationError):
            parse_query("SELECT ?s (SUM(?x) AS ?t) WHERE { ?s ?p ?x }")

    def test_filter_variable_must_be_bound(self):
        with pytest.raises(QueryValidationError):
            parse_query("SELECT ?s WHERE { ?s ?p ?o FILTER(?nope > 1) }")

    @pytest.mark.parametrize("projection, key", [
        ("?s", "d"), ("?s", "x"), ("(COUNT(?s) AS ?n)", "s"),
    ], ids=["pattern-variable", "unknown", "aggregated-variable"])
    def test_order_key_must_be_a_result_column(self, projection, key):
        with pytest.raises(QueryValidationError) as excinfo:
            parse_query(f"SELECT {projection} WHERE {{ ?s :v ?d . }} ORDER BY ?{key}")
        assert str(excinfo.value) == f"order key ?{key} is not a result column"

    def test_syntax_error_carries_position(self):
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query("SELECT ?s\nWHERE ?s ?p ?o }")
        assert excinfo.value.line == 2
        assert excinfo.value.column >= 1

    def test_unterminated_block(self):
        with pytest.raises(QuerySyntaxError, match="unterminated"):
            parse_query("SELECT ?s WHERE { ?s ?p ?o")

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } @")

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError, match="unterminated string"):
            parse_query('SELECT ?s WHERE { ?s ?p "oops }')

    def test_unknown_prefix(self):
        with pytest.raises(QuerySyntaxError, match="unknown prefix"):
            parse_query("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_trailing_garbage(self):
        with pytest.raises(QuerySyntaxError, match="trailing"):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 ?x")

    def test_empty_where_block(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT ?s WHERE { }")

    def test_limit_requires_integer(self):
        with pytest.raises(QuerySyntaxError, match="integer"):
            parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1.5")

    @pytest.mark.parametrize("text", [
        "SELECT ?s WHERE { ?s ?p ?o } LIMIT \u0661",  # Arabic-Indic 1
        "SELECT ?s WHERE { ?s ?p \u0661\u0662 }",
        "SELECT ?s WHERE { ?s ?p ?o FILTER(?o > \uff11) }",  # fullwidth 1
    ], ids=["limit", "pattern", "filter"])
    def test_numbers_are_ascii_digits(self, text):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse_query(text)

    @pytest.mark.parametrize("text, column", [
        ("SELECT ?o WHERE {\n  ?o :hasQuantity BIG }", 19),
        ("SELECT ?o WHERE {\n  ?o :hasQuantity ?q FILTER(?q > BIG) }", 34),
        ("SELECT ?o WHERE { ?o :hasQuantity ?q }\nLIMIT BIG", 7),
    ], ids=["pattern", "filter", "limit"])
    def test_integer_over_the_digit_limit_is_positioned(self, text, column):
        # int() refuses text of more than 4,300 digits with a ValueError.
        with pytest.raises(QuerySyntaxError, match="too many digits") as raised:
            parse_query(text.replace("BIG", "9" * 5000))
        assert (raised.value.line, raised.value.column) == (2, column)


class TestSpecChecks:
    """A QuerySpec checks itself when it is made, by the parser or not."""

    @pytest.mark.parametrize("constant", [
        "a", 1, Decimal("1.5"), date(2020, 1, 1), Iri("urn:o"),
    ], ids=["str", "int", "decimal", "date", "iri"])
    def test_a_pattern_holds_terms_the_store_can_hold(self, constant):
        spec = QuerySpec(("a",), ((A, Iri("urn:p"), constant),))
        assert spec.columns == ("a",)

    def test_a_two_term_pattern_is_refused(self):
        with pytest.raises(QueryValidationError, match="malformed pattern"):
            QuerySpec(("a",), ((A, Iri("urn:p")),))

    @pytest.mark.parametrize("constant", [
        1.5, True, datetime(2020, 1, 1, 12, 30),
    ], ids=["float", "bool", "datetime"])
    def test_a_constant_no_store_holds_is_refused(self, constant):
        with pytest.raises(QueryValidationError, match="malformed pattern"):
            QuerySpec(("a",), ((A, Iri("urn:p"), constant),))
        nested = Op("!", (Op("&&", (Op("<", (B, 2)), Op("=", (constant, B)))),))
        with pytest.raises(QueryValidationError) as raised:
            QuerySpec(("a",), ((A, Iri("urn:p"), B),), filters=(nested,))
        assert str(raised.value) == f"malformed filter constant: {constant!r}"

    @pytest.mark.parametrize("constant", [
        "a", 1, Decimal("1.5"), date(2020, 1, 1), Iri("urn:o"),
    ], ids=["str", "int", "decimal", "date", "iri"])
    def test_a_filter_holds_constants_the_store_can_hold(self, constant):
        spec = QuerySpec(("a",), ((A, Iri("urn:p"), B),),
                         filters=(Op("=", (B, constant)),))
        assert spec.filters[0].args[1] == constant


# Characters that N-Triples and SPARQL forbid in an IRI, between angle brackets.
_FORBIDDEN_IRIS = ['<urn:a"b>', "<urn:a{b}>", "<urn:a|b>", "<urn:a`b>"]


class TestIriRule:
    @pytest.mark.parametrize("iri", _FORBIDDEN_IRIS)
    def test_a_forbidden_character_is_a_positioned_syntax_error(self, iri):
        with pytest.raises(QuerySyntaxError) as raised:
            parse_query(f"SELECT ?s WHERE {{\n  ?s {iri} ?o }}")
        bad = next(char for char in iri[1:-1] if char in '"{}|`')
        assert str(raised.value) == (
            f"line 2, column 6: character {bad!r} not allowed in IRI {iri}")

    def test_the_from_iri_is_checked_too(self):
        with pytest.raises(QuerySyntaxError) as raised:
            parse_query("SELECT ?s FROM <urn:g^x> WHERE { ?s ?p ?o }")
        assert str(raised.value) == (
            "line 1, column 16: character '^' not allowed in IRI <urn:g^x>")

    @pytest.fixture(scope="class")
    def graph_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("iri") / "graph.nt"

    @settings(max_examples=300, deadline=None)
    @given(body=st.text(st.one_of(st.sampled_from('"{}|^`\\<> \t\n#:/.%?'),
                                  st.characters(blacklist_categories=("Cs",))),
                        max_size=12))
    @example(body="urn:a")
    @example(body='urn:a"b')
    @example(body="urn:a\\u0062")
    def test_a_graph_holds_an_iri_iff_a_query_can_name_it(self, graph_path, body):
        """One line of graph.nt holding ``<body>`` loads as that IRI exactly
        when a query naming ``<body>`` parses to a pattern holding it."""
        graph_path.write_text(f'<{body}> <urn:p> "x" .\n', encoding="utf-8")
        try:
            graph = load_ntriples(graph_path)
        except GraphParseError:
            loads = False
        else:
            found = evaluate(graph, parse_query('SELECT ?s WHERE { ?s <urn:p> "x" }'))
            loads = found.rows == [(Iri(body),)]
        try:
            spec = parse_query(f"SELECT ?o WHERE {{ <{body}> <urn:p> ?o }}")
        except QuerySyntaxError:
            parses = False
        else:
            parses = spec.patterns == ((Iri(body), Iri("urn:p"), Variable("o")),)
        assert loads == parses


def _quantity_filter(expr):
    return f"SELECT ?o WHERE {{ ?o :hasQuantity ?q FILTER({expr}) }}"


class TestNestingDepth:
    @pytest.mark.parametrize("expr", [
        "(" * MAX_EXPR_DEPTH + "?q > 0" + ")" * MAX_EXPR_DEPTH,
        "!" * (MAX_EXPR_DEPTH - 2) + "(?q > 0)",
        "?q" + " + ?q" * (MAX_EXPR_DEPTH - 2) + " > 0",
        " || ".join(["?q < 0"] * (MAX_EXPR_DEPTH - 2)) + " || ?q > 0",
    ], ids=["parentheses", "not", "sum", "or"])
    def test_deepest_accepted_filter_evaluates(self, small_graph, expr):
        spec = parse_query(_quantity_filter(expr))
        assert expr_depth(spec.filters[0]) <= MAX_EXPR_DEPTH
        table = evaluate(small_graph, spec)
        expected = evaluate(small_graph, parse_query(_quantity_filter("?q > 0")))
        assert set(table.rows) == set(expected.rows)
        assert len(table.rows) == 6

    def test_deepest_accepted_filter_renders_in_errors(self, small_graph):
        chain = "?q" + " + ?q" * (MAX_EXPR_DEPTH - 3) + ' + "x"'
        spec = parse_query(_quantity_filter(f"{chain} > 0"))
        assert expr_depth(spec.filters[0]) == MAX_EXPR_DEPTH
        with pytest.raises(FilterTypeError, match="arithmetic needs numbers"):
            evaluate(small_graph, spec)

    @pytest.mark.parametrize("expr, column", [
        ("(" * 200 + "?q > 1" + ")" * 200, 45 + MAX_EXPR_DEPTH),
        ("-" * 1000 + "?q > 1", 45 + MAX_EXPR_DEPTH),
        ("!" * 1000 + "(?q > 1)", 45 + MAX_EXPR_DEPTH),
        ("?q" + " + ?q" * 2000 + " > 1", 44),
        (" && ".join(["?q > 1"] * 2000), 44),
        ("-" * (MAX_EXPR_DEPTH - 1) + "?q > 1", 44),
    ], ids=["parentheses", "negations", "nots", "sum", "and", "negated-operand"])
    def test_too_deep_is_a_positioned_syntax_error(self, expr, column):
        with pytest.raises(QuerySyntaxError, match="nests deeper than") as excinfo:
            parse_query(_quantity_filter(expr))
        assert (excinfo.value.line, excinfo.value.column) == (1, column)


class TestStringEscapes:
    @pytest.mark.parametrize("escape, char", [
        *((f"\\{name}", char) for name, char in ECHAR.items()),
        ("\\u00e9", "é"), ("\\U0001F600", "\U0001F600"), ("\\u005C", "\\"),
    ])
    def test_escape_reads_as_its_character(self, escape, char):
        spec = parse_query(f'SELECT ?s WHERE {{ ?s ?p "<{escape}>" }}')
        assert spec.patterns[0][2] == f"<{char}>"

    @pytest.mark.parametrize("literal", ['"\\u00e9"', '"\\U000000E9"', '"é"'])
    def test_code_point_escape_matches_the_graph_literal(self, tmp_path, literal):
        path = tmp_path / "g.nt"
        path.write_text('<urn:a> <urn:p> "é" .\n<urn:b> <urn:p> "e" .\n',
                        encoding="utf-8")
        g = load_ntriples(path)
        for query in (f"SELECT ?s WHERE {{ ?s <urn:p> {literal} }}",
                      f"SELECT ?s WHERE {{ ?s <urn:p> ?v FILTER(?v = {literal}) }}"):
            assert evaluate(g, parse_query(query)).rows == [(Iri("urn:a"),)]

    @pytest.mark.parametrize("body, message", [
        ("\\q", "invalid string escape \\q"),
        ("\\u12", "invalid string escape \\u"),
        ("\\uD800", "invalid string escape \\uD800"),
        ("\\U00110000", "invalid string escape \\U00110000"),
    ])
    @pytest.mark.parametrize("where, column", [
        ("pattern", 15), ("filter", 30),
    ])
    def test_bad_escape_is_a_syntax_error_at_the_string(self, body, message, where,
                                                       column):
        tail = {"pattern": f'"{body}" }}', "filter": f'?o FILTER(?o = "{body}") }}'}
        text = "SELECT ?s\nWHERE { ?s ?p " + tail[where]
        with pytest.raises(QuerySyntaxError) as raised:
            parse_query(text)
        assert (raised.value.line, raised.value.column) == (2, column)
        assert str(raised.value) == f"line 2, column {column}: {message}"


# --- query-file property ---------------------------------------------------

_VARS = ["?o", "?c", "?q", "?p", "?rm", "?code", "?d"]
_IRIS = [":wasPlacedBy", ":hasQuantity", ":hasRMPrice", ":hasCustomerCode",
         ":hasPremium", ":hasAccountType", ":hasOrderDate", "<urn:ltbp:p:hasRegion>",
         "class:Customer", "<urn:ltbp:p:type>"]
# Strings with escapes good and bad; numbers within and past the digit limits.
_STRINGS = ['"Key"', '"C0001"', '"\\u00e9"', '"\\U0001F600"', '"a\\tb\\"c\\\\d\\\'"']
_NUMBERS = ["0", "1", "2.5", "9" * 30]
_BAD = ['"\\q"', '"\\uD800"', '"\\u12"', '"\\U00110000"', '"\\"', '"open', "nope:x",
        "<>", "9" * 5000, "1" * 60_000 + ".5", "@"]
_KEYWORDS = ["SELECT", "WHERE", "FILTER", "GROUP", "ORDER", "BY", "ASC", "DESC",
             "LIMIT", "AS", "FROM", "SUM", "AVG", "MIN", "MAX", "COUNT", "MEDIAN"]
_COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]
_ARITHMETIC = ["+", "-", "*", "/"]
_VOCABULARY = (_VARS + _IRIS + _STRINGS + _NUMBERS + _BAD + _KEYWORDS + _COMPARISONS
               + _ARITHMETIC + ["&&", "||", "{", "}", "(", ")", ".", "!", "#"])


@st.composite
def _filter_tokens(draw, names, depth=0):
    """A boolean filter expression over ``names``, as tokens."""
    def operand():
        atom = draw(st.sampled_from(names * 3 + _STRINGS + _NUMBERS))
        kind = draw(st.sampled_from(["atom", "atom", "arith", "negated"]))
        if kind == "arith":
            return [atom, draw(st.sampled_from(_ARITHMETIC)),
                    draw(st.sampled_from(names + _NUMBERS))]
        return ["-", atom] if kind == "negated" else [atom]

    kind = draw(st.sampled_from(["compare", "compare", "and", "not", "parens"]))
    if depth == 2 or kind == "compare":
        return [*operand(), draw(st.sampled_from(_COMPARISONS)), *operand()]
    if kind == "and":
        left, right = draw(_filter_tokens(names, depth + 1)), draw(
            _filter_tokens(names, depth + 1))
        return [*left, draw(st.sampled_from(["&&", "||"])), *right]
    inner = ["(", *draw(_filter_tokens(names, depth + 1)), ")"]
    return ["!", *inner] if kind == "not" else inner


@st.composite
def _query_tokens(draw):
    """The tokens of a query drawn from the grammar in ``ltbp.query``."""
    subjects = st.sampled_from(_VARS + ["cust:C0001", '"Key"'])
    predicates = st.sampled_from(_VARS[:2] + _IRIS * 2)
    objects = st.sampled_from(_VARS * 3 + _IRIS + _STRINGS + _NUMBERS)
    patterns = [[draw(subjects), draw(predicates), draw(objects)]
                for _ in range(draw(st.integers(1, 3)))]
    names = sorted({t for p in patterns for t in p if t.startswith("?")}) or ["?o"]
    name = st.sampled_from(names)
    bare = draw(st.lists(name, max_size=2, unique=True))
    aggregates = draw(st.lists(st.tuples(
        st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]), name), max_size=2))
    if not bare and not aggregates:
        bare = [draw(name)]
    tokens = ["SELECT", *bare]
    for n, (func, var) in enumerate(aggregates):
        tokens += ["(", func, "(", var, ")", "AS", f"?agg{n}", ")"]
    if draw(st.integers(0, 9)) == 0:
        tokens += ["FROM", "<urn:g>"]
    tokens += ["WHERE", "{"]
    for pattern in patterns:
        tokens += [*pattern, "."]
    for _ in range(draw(st.integers(0, 2))):
        tokens += ["FILTER", "(", *draw(_filter_tokens(names)), ")"]
    tokens.append("}")
    if aggregates and bare or draw(st.integers(0, 3)) == 0:
        tokens += ["GROUP", "BY", *(bare or [draw(name)])]
    if draw(st.booleans()):
        keys = bare + [f"?agg{n}" for n in range(len(aggregates))]
        tokens += ["ORDER", "BY", *draw(st.sampled_from([[], ["ASC"], ["DESC"]])),
                   draw(st.sampled_from(keys))]
    if draw(st.booleans()):
        tokens += ["LIMIT", draw(st.sampled_from(["0", "3", "9" * 40, "1.5", "-1"]))]
    return tokens


@st.composite
def _query_texts(draw):
    """A grammar-built query with a few mutations: tokens dropped, swapped,
    repeated, inserted or made bad, keywords exchanged, and nesting added."""
    tokens = draw(_query_tokens())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(["drop", "swap", "repeat", "insert", "bad",
                                     "keyword", "nest"]))
        if kind == "drop" and len(tokens) > 1:
            del tokens[i]
        elif kind == "swap" and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        elif kind == "repeat":
            tokens.insert(i, tokens[i])
        elif kind == "insert":
            tokens.insert(i, draw(st.sampled_from(_VOCABULARY)))
        elif kind == "bad":
            tokens[i] = draw(st.sampled_from(_BAD))
        elif kind == "keyword" and tokens[i] in _KEYWORDS:
            tokens[i] = draw(st.sampled_from(_KEYWORDS))
        elif kind == "nest":
            opener = draw(st.sampled_from(["(", "!", "-"]))
            depth = draw(st.sampled_from([1, 63, 64, 65, 300]))
            j = draw(st.integers(i, len(tokens)))
            closers = [")"] * depth if opener == "(" else []
            tokens[i:j] = [opener] * depth + tokens[i:j] + closers
    gaps = st.sampled_from([" ", " ", "\n", "\t", "  # note\n"])
    return "".join(token + draw(gaps) for token in tokens)


def _assert_positioned(exc: QuerySyntaxError, text: str) -> None:
    lines = text.split("\n")
    assert 1 <= exc.line <= len(lines), str(exc)[:200]
    assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, str(exc)[:200]
    assert str(exc).startswith(f"line {exc.line}, column {exc.column}: ")


class TestQueryFileProperty:
    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        dataset = generate_synthetic(
            GeneratorConfig(seed=5, n_customers=2, n_orders=2, n_products=1))
        path = tmp_path_factory.mktemp("graph") / "graph.nt"
        export_ntriples(build_graph(dataset, price_dataset(dataset, PricingConfig())),
                        path)
        return path

    @settings(max_examples=300, deadline=None)
    @given(text=_query_texts())
    @example(text='SELECT ?s WHERE { ?s ?p "\\u00e9" }')
    @example(text='SELECT ?s WHERE { ?s ?p "\\q" }')
    def test_text_parses_or_is_a_positioned_syntax_error(self, text):
        try:
            parse_query(text)
        except QuerySyntaxError as exc:
            _assert_positioned(exc, text)
        except QueryValidationError:
            pass  # parsed: validation runs on the parsed query

    @settings(max_examples=150, deadline=None)
    @given(text=_query_texts())
    def test_query_command_exits_0_or_2(self, graph_file, tmp_path_factory, text):
        query = tmp_path_factory.mktemp("query") / "q.rq"
        query.write_bytes(text.encode("utf-8"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["query", "--graph", str(graph_file), "--query", str(query)])
        assert code in (0, 2), err.getvalue()[-2000:]
