from decimal import Decimal

import pytest

from ltbp.graph import FilterTypeError, evaluate
from ltbp.query import (
    MAX_EXPR_DEPTH,
    Aggregate,
    BoolOp,
    Compare,
    Const,
    OrderBy,
    QuerySyntaxError,
    QueryValidationError,
    UnboundProjectionError,
    UnknownAggregateError,
    VarRef,
    expr_depth,
    parse_query,
)
from ltbp.report import TOTALS_QUERY
from ltbp.terms import Iri, Literal, Variable


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
        assert spec.patterns[0][2] == Literal(5)
        assert spec.patterns[1][2] == Literal("EMEA")

    def test_decimal_literal(self):
        spec = parse_query("SELECT ?o WHERE { ?o :hasRMPrice 125.00 }")
        assert spec.patterns[0][2] == Literal(Decimal("125.00"))

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

    def test_filter_expression_tree(self):
        spec = parse_query(
            "SELECT ?x WHERE { ?s :p ?x . ?s :q ?y FILTER(?x > 1 && ?y * 2 <= 10) }"
        )
        (expr,) = spec.filters
        assert isinstance(expr, BoolOp) and expr.op == "&&"
        assert expr.left == Compare(">", VarRef("x"), Const(1))

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
