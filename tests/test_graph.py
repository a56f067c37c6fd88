import itertools
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from ltbp.graph import (
    DanglingReferenceError,
    DuplicateSubjectError,
    FilterTypeError,
    Graph,
    UnknownOrderError,
    assert_customer,
    assert_order,
    assert_premium,
    assert_priced,
    assert_product,
    build_graph,
    evaluate,
    export_ntriples,
    load_ntriples,
    match_patterns,
)
from ltbp.ingest import GeneratorConfig, generate_synthetic
from ltbp.model import AccountClass, Customer
from ltbp.pricing import CustomerPremium, PricedOrder
from ltbp.query import parse_query
from ltbp.terms import (
    HAS_ADJUSTMENT_FACTOR,
    HAS_QUANTITY,
    HAS_RM_PRICE,
    Iri,
    Literal,
    Triple,
    Variable,
    WAS_PLACED_BY,
    CONTAINS_PRODUCT,
    XSD,
    customer_iri,
    order_iri,
)
from tests.oracles import brute_force_match


@pytest.fixture
def key_customer():
    return Customer("C001", AccountClass.KEY, Decimal("50000000.00"), "EMEA")


class TestStore:
    def test_set_semantics(self):
        g = Graph()
        t = Triple(Iri("urn:a"), Iri("urn:b"), Literal(1))
        assert g.add(t) is True
        assert g.add(t) is False
        assert len(g) == 1
        assert t in g

    def test_match_by_each_position(self):
        g = Graph()
        t1 = Triple(Iri("urn:s1"), Iri("urn:p"), Literal(1))
        t2 = Triple(Iri("urn:s2"), Iri("urn:p"), Literal(2))
        g.add(t1)
        g.add(t2)
        assert list(g.match(Iri("urn:s1"), None, None)) == [t1]
        assert list(g.match(None, Iri("urn:p"), None)) == [t1, t2]
        assert list(g.match(None, None, Literal(2))) == [t2]
        assert list(g.match(None, None, None)) == [t1, t2]


class TestAssertions:
    def test_customer_with_region_emits_six(self, key_customer, config):
        g = Graph()
        triples = assert_customer(g, key_customer, config)
        assert len(triples) == 6
        assert (
            Triple(customer_iri("C001"), HAS_ADJUSTMENT_FACTOR,
                   Literal(Decimal("0.100000")))
            in g
        )

    def test_customer_without_region_emits_five(self, config):
        g = Graph()
        customer = Customer("C009", AccountClass.OTHERS, Decimal("100.00"))
        assert len(assert_customer(g, customer, config)) == 5

    def test_distinct_customers_distinct_subjects(self, config):
        g = Graph()
        a = assert_customer(
            g, Customer("C1", AccountClass.KEY, Decimal("1.00")), config
        )
        b = assert_customer(
            g, Customer("C2", AccountClass.KEY, Decimal("1.00")), config
        )
        assert {t.subject for t in a}.isdisjoint({t.subject for t in b})

    def test_duplicate_customer_rejected(self, key_customer, config):
        g = Graph()
        assert_customer(g, key_customer, config)
        with pytest.raises(DuplicateSubjectError):
            assert_customer(g, key_customer, config)

    def test_order_emits_exactly_ten(self, small_dataset, config):
        g = Graph()
        for p in small_dataset.products:
            assert_product(g, p)
        for c in small_dataset.customers:
            assert_customer(g, c, config)
        order = small_dataset.orders[0]
        triples = assert_order(g, order)
        assert len(triples) == 10
        assert Triple(order_iri("O1"), WAS_PLACED_BY, customer_iri("C001")) in g
        assert any(t.predicate == CONTAINS_PRODUCT for t in triples)

    def test_order_count_scales_by_ten(self, small_dataset, config):
        g = build_graph(small_dataset)
        order_subjects = {
            t.subject for t in g if t.subject.value.startswith("urn:ltbp:order:")
        }
        order_triples = [
            t for t in g if t.subject.value.startswith("urn:ltbp:order:")
        ]
        assert len(order_triples) == 10 * len(order_subjects)

    def test_order_with_unknown_customer_rejected(self, small_dataset):
        g = Graph()
        for p in small_dataset.products:
            assert_product(g, p)
        with pytest.raises(DanglingReferenceError):
            assert_order(g, small_dataset.orders[0])

    def test_priced_emits_two_and_is_idempotent(self, small_dataset, config):
        g = build_graph(small_dataset)
        priced = PricedOrder(
            "O1", Decimal("100.00"), Decimal("125.00"), Decimal("134.66")
        )
        first = assert_priced(g, priced)
        assert len(first) == 2
        assert Triple(order_iri("O1"), HAS_RM_PRICE, Literal(Decimal("125.00"))) in g
        assert assert_priced(g, priced) == []

    def test_priced_unknown_order_rejected(self):
        g = Graph()
        priced = PricedOrder("O9", Decimal("1.00"), Decimal("1.00"), Decimal("1.00"))
        with pytest.raises(UnknownOrderError):
            assert_priced(g, priced)

    def test_unpriced_order_has_no_rm_binding(self, small_dataset):
        g = build_graph(small_dataset)
        rows = match_patterns(
            g, [(Variable("o"), HAS_RM_PRICE, Variable("p"))]
        )
        assert rows == []

    def test_premium_requires_known_customer(self):
        g = Graph()
        with pytest.raises(DanglingReferenceError):
            assert_premium(g, CustomerPremium("C404", Decimal("1.5")))

    def test_total_triple_count_matches_per_entity_expectation(
        self, small_dataset, small_pricing, config
    ):
        g = build_graph(small_dataset, small_pricing, config)
        expected = (
            4 * len(small_dataset.products)
            + sum(6 if c.region else 5 for c in small_dataset.customers)
            + len(small_dataset.customers)  # hasPremium
            + 10 * len(small_dataset.orders)
            + 2 * len(small_pricing.priced_orders)
        )
        assert len(g) == expected


class TestMatchPatterns:
    def test_single_pattern_counts_orders_of_customer(self, small_graph):
        rows = match_patterns(
            small_graph, [(Variable("o"), WAS_PLACED_BY, customer_iri("C001"))]
        )
        assert len(rows) == 2

    def test_unsatisfiable_pattern(self, small_graph):
        rows = match_patterns(
            small_graph, [(Variable("o"), WAS_PLACED_BY, customer_iri("C404"))]
        )
        assert rows == []

    def test_join_matches_brute_force(self, small_graph):
        patterns = [
            (Variable("o"), WAS_PLACED_BY, Variable("c")),
            (Variable("o"), CONTAINS_PRODUCT, Variable("p")),
        ]
        rows = match_patterns(small_graph, patterns)
        expected = brute_force_match(list(small_graph), patterns)
        key = lambda row: sorted((k, str(v)) for k, v in row.items())
        assert sorted(rows, key=key) == sorted(expected, key=key)

    def test_join_commutativity(self, small_graph):
        patterns = [
            (Variable("o"), WAS_PLACED_BY, Variable("c")),
            (Variable("o"), CONTAINS_PRODUCT, Variable("p")),
            (Variable("o"), HAS_RM_PRICE, Variable("rm")),
        ]
        key = lambda row: sorted((k, str(v)) for k, v in row.items())
        baseline = sorted(match_patterns(small_graph, patterns), key=key)
        for permutation in itertools.permutations(patterns):
            rows = sorted(match_patterns(small_graph, list(permutation)), key=key)
            assert rows == baseline

    @given(data=st.data())
    def test_random_joins_match_brute_force(self, data):
        subjects = [Iri(f"urn:s{i}") for i in range(4)]
        predicates = [Iri(f"urn:p{i}") for i in range(3)]
        objects = subjects + [Literal(v) for v in (1, 2, "a")]
        triples = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(subjects),
                    st.sampled_from(predicates),
                    st.sampled_from(objects),
                ),
                min_size=1,
                max_size=25,
            )
        )
        g = Graph()
        for s, p, o in triples:
            g.add(Triple(s, p, o))

        term = st.one_of(
            st.sampled_from([Variable("x"), Variable("y"), Variable("z")]),
            st.sampled_from(subjects),
            st.sampled_from(predicates),
            st.sampled_from(objects),
        )
        patterns = data.draw(
            st.lists(st.tuples(term, term, term), min_size=1, max_size=3)
        )
        key = lambda row: sorted((k, str(v)) for k, v in row.items())
        got = sorted(match_patterns(g, patterns), key=key)
        want = sorted(brute_force_match(list(g), patterns), key=key)
        assert got == want

    def test_repeated_variable_within_pattern(self):
        g = Graph()
        g.add(Triple(Iri("urn:a"), Iri("urn:p"), Iri("urn:a")))
        g.add(Triple(Iri("urn:a"), Iri("urn:p"), Iri("urn:b")))
        rows = match_patterns(g, [(Variable("x"), Iri("urn:p"), Variable("x"))])
        assert rows == [{"x": Iri("urn:a")}]

    def test_filter_type_mismatch_reported(self, small_graph):
        spec = parse_query(
            "SELECT ?o WHERE { ?o :hasOrderDate ?d FILTER(?d > 5) }"
        )
        with pytest.raises(FilterTypeError, match="date"):
            evaluate(small_graph, spec)


    def test_filter_sees_only_rows_every_pattern_keeps(self):
        # O1 has no RM price, so the second pattern drops it before the
        # filter could divide by its zero quantity.
        g = Graph()
        for order, qty in (("O1", 0), ("O2", 2)):
            g.add(Triple(order_iri(order), HAS_QUANTITY, Literal(qty)))
        g.add(Triple(order_iri("O2"), HAS_RM_PRICE, Literal(Decimal("10.00"))))
        spec = parse_query(
            "SELECT ?o WHERE { ?o :hasQuantity ?q . ?o :hasRMPrice ?rm "
            "FILTER(10 / ?q > 1) }"
        )
        assert evaluate(g, spec).rows == [(order_iri("O2"),)]


class TestEvaluate:
    def test_totals_match_direct_summation(self, small_graph, small_pricing):
        from ltbp.report import TOTALS_QUERY

        table = evaluate(small_graph, parse_query(TOTALS_QUERY))
        row = table.mappings()[0]
        direct_rm = sum(p.rm for p in small_pricing.priced_orders)
        direct_orig = sum(p.original for p in small_pricing.priced_orders)
        direct_convex = sum(p.convex for p in small_pricing.priced_orders)
        assert row["TotalRMPrice"] == direct_rm
        assert row["TotalOrginalPrice"] == direct_orig
        assert row["TotalConvexPrice"] == direct_convex

    def test_count_all_orders(self, small_graph, small_dataset):
        table = evaluate(
            small_graph,
            parse_query("SELECT (COUNT(?o) AS ?n) WHERE { ?o :hasOrderNumber ?x }"),
        )
        assert table.rows[0][0] == len(small_dataset.orders)

    def test_order_by_desc_with_limit_is_top_k(self, small_graph):
        spec = parse_query(
            "SELECT ?num ?price WHERE { ?o :hasOrderNumber ?num . "
            "?o :hasOriginalPrice ?price } ORDER BY DESC ?price LIMIT 2"
        )
        table = evaluate(small_graph, spec)
        all_prices = evaluate(
            small_graph,
            parse_query(
                "SELECT ?price WHERE { ?o :hasOriginalPrice ?price }"
            ),
        ).column("price")
        expected = sorted(all_prices, reverse=True)[:2]
        assert table.column("price") == expected

    def test_aggregates_over_empty_match(self, small_graph):
        spec = parse_query(
            "SELECT (SUM(?q) AS ?s) (COUNT(?q) AS ?n) (AVG(?q) AS ?a) "
            "(MIN(?q) AS ?lo) (MAX(?q) AS ?hi) "
            'WHERE { ?o :hasRegion "Atlantis" . ?o :hasQuantity ?q }'
        )
        table = evaluate(small_graph, spec)
        assert table.rows == [(0, 0, None, None, None)]

    def test_group_by_without_aggregate_dedups_per_group(self, small_graph):
        spec = parse_query(
            "SELECT ?cls WHERE { ?c :hasAccountType ?cls } GROUP BY ?cls"
        )
        table = evaluate(small_graph, spec)
        assert table.column("cls") == ["Key", "Others", "Regular"]

    def test_arithmetic_filter(self, small_graph):
        spec = parse_query(
            "SELECT ?num WHERE { ?o :hasOrderNumber ?num . "
            "?o :hasOriginalPrice ?p FILTER(?p * 2 >= 600) }"
        )
        table = evaluate(small_graph, spec)
        assert sorted(table.column("num")) == ["O3", "O4"]

    def test_date_comparison_filter(self, small_graph):
        spec = parse_query(
            "SELECT (COUNT(?o) AS ?n) WHERE { ?o :hasRequestedDate ?rd . "
            "?o :hasStandardDate ?sd FILTER(?sd > ?rd) }"
        )
        table = evaluate(small_graph, spec)
        assert table.rows[0][0] == 5  # O6 requested after its standard date


class TestNtriples:
    def test_empty_graph_empty_file(self, tmp_path):
        path = tmp_path / "empty.nt"
        export_ntriples(Graph(), path)
        assert path.read_text() == ""

    def test_round_trip_preserves_graph(self, small_graph, tmp_path):
        path = tmp_path / "graph.nt"
        export_ntriples(small_graph, path)
        reloaded = load_ntriples(path)
        assert set(reloaded) == set(small_graph)
        assert len(reloaded) == len(small_graph)

    def test_export_is_sorted_and_deterministic(self, small_graph, tmp_path):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        export_ntriples(small_graph, a)
        export_ntriples(small_graph, b)
        lines = a.read_text().splitlines()
        assert lines == sorted(lines)
        assert a.read_bytes() == b.read_bytes()

    def test_export_orders_prefix_terms_as_sorted_lines(self, tmp_path):
        g = Graph()
        objects = [Iri("urn:ab"), Literal(5), Literal("5"), Iri("urn:a"),
                   Literal("5 "), Literal("")]
        for subject in ("urn:s", "urn:r"):
            for predicate in ("urn:q", "urn:p"):
                for obj in objects:
                    g.add(Triple(Iri(subject), Iri(predicate), obj))
        path = tmp_path / "g.nt"
        export_ntriples(g, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 24
        assert lines == sorted(lines)
        assert lines[:4] == [
            '<urn:r> <urn:p> "" .',
            '<urn:r> <urn:p> "5 " .',
            '<urn:r> <urn:p> "5" .',
            '<urn:r> <urn:p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        ]

    def test_ten_order_fixture_has_hundred_order_triples(self, config):
        dataset = generate_synthetic(
            GeneratorConfig(seed=5, n_customers=4, n_orders=10, n_products=2)
        )
        g = build_graph(dataset)
        order_triples = [
            t for t in g if t.subject.value.startswith("urn:ltbp:order:")
        ]
        assert len(order_triples) == 100

    def test_string_escapes_round_trip(self, tmp_path):
        g = Graph()
        tricky = 'line\nbreak\tand "quote" \\ backslash'
        g.add(Triple(Iri("urn:s"), Iri("urn:p"), Literal(tricky)))
        g.add(Triple(Iri("urn:s"), Iri("urn:q"), Literal(date(2020, 2, 29))))
        path = tmp_path / "esc.nt"
        export_ntriples(g, path)
        assert set(load_ntriples(path)) == set(g)

    def test_embedded_dots_in_literals_round_trip(self, tmp_path):
        g = Graph()
        g.add(Triple(Iri("urn:s"), Iri("urn:p"), Literal("ends with dot .")))
        g.add(Triple(Iri("urn:s"), Iri("urn:q"), Literal("v1.2.3")))
        path = tmp_path / "dots.nt"
        export_ntriples(g, path)
        assert set(load_ntriples(path)) == set(g)

    def test_malformed_line_reports_line_number(self, tmp_path):
        from ltbp.graph import GraphParseError

        path = tmp_path / "bad.nt"
        path.write_text('<urn:s> <urn:p> "ok" .\nnot a triple\n')
        with pytest.raises(GraphParseError, match="line 2"):
            load_ntriples(path)

    def test_unknown_datatype_rejected(self, tmp_path):
        from ltbp.graph import GraphParseError

        path = tmp_path / "bad.nt"
        path.write_text('<urn:s> <urn:p> "1"^^<urn:unknown> .\n')
        with pytest.raises(GraphParseError, match="unsupported datatype"):
            load_ntriples(path)

    def test_value_equal_literals_keep_their_term_identity(self, tmp_path):
        objects = [
            Literal(100),
            Literal(Decimal("100.00")),
            Literal(Decimal("1.00")),
            Literal(Decimal("1.000000")),
        ]
        g = Graph()
        for i, obj in enumerate(objects):
            g.add(Triple(Iri(f"urn:s{i}"), Iri("urn:p"), obj))
        first, second = tmp_path / "first.nt", tmp_path / "second.nt"
        export_ntriples(g, first)
        export_ntriples(load_ntriples(first), second)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        for lexical, dtype in (("100", "integer"), ("100.00", "decimal"),
                               ("1.00", "decimal"), ("1.000000", "decimal")):
            assert f'"{lexical}"^^<{XSD}{dtype}>' in text
        hits = list(g.match(None, None, Literal(Decimal("1.00"))))
        assert [t.subject for t in hits] == [Iri("urn:s2")]

    def test_typed_literals_load_as_their_value_text(self, tmp_path):
        path = tmp_path / "forms.nt"
        path.write_text(
            f'<urn:s> <urn:p> "007"^^<{XSD}integer> .\n'
            f'<urn:s> <urn:p> "7"^^<{XSD}integer> .\n'
            f'<urn:s> <urn:q> "+1.0"^^<{XSD}decimal> .\n'
        )
        g = load_ntriples(path)
        assert len(g) == 2
        out = tmp_path / "out.nt"
        export_ntriples(g, out)
        assert out.read_text() == (
            f'<urn:s> <urn:p> "7"^^<{XSD}integer> .\n'
            f'<urn:s> <urn:q> "1.0"^^<{XSD}decimal> .\n'
        )

    @given(text=st.text())
    def test_text_literals_round_trip(self, tmp_path_factory, text):
        g = Graph()
        g.add(Triple(Iri("urn:s"), Iri("urn:p"), Literal(text)))
        path = tmp_path_factory.mktemp("nt") / "text.nt"
        export_ntriples(g, path)
        assert list(load_ntriples(path)) == list(g)

    @pytest.mark.parametrize("char", list(' "{}|^`\\') + ["\x01", "\t"])
    def test_iri_with_forbidden_character_rejected(self, tmp_path, char):
        from ltbp.graph import GraphParseError

        path = tmp_path / "bad.nt"
        path.write_text(
            '<urn:s> <urn:p> "ok" .\n'
            f'<urn:s> <urn:p> <urn:o{char}x> .\n'
            f'<urn:s{char}x> <urn:p> "a" .\n'
        )
        with pytest.raises(GraphParseError, match="line 2"):
            load_ntriples(path)
        path.write_text(f'<urn:s> <urn:p> "ok" .\n<urn:s{char}x> <urn:p> "a" .\n')
        with pytest.raises(GraphParseError, match="line 2"):
            load_ntriples(path)

    @pytest.mark.parametrize("term", [
        f'"abc"^^<{XSD}integer>',
        f'"1.2.3"^^<{XSD}decimal>',
        f'"NaN"^^<{XSD}decimal>',
        f'"2020-02-30"^^<{XSD}date>',
        f'"2020-1-01"^^<{XSD}date>',
        '"bad \\q escape"',
        '"\\u00ZZ"',
        '"\\uD800"',
    ])
    def test_bad_literal_reports_line_number(self, tmp_path, term):
        from ltbp.graph import GraphParseError

        path = tmp_path / "bad.nt"
        path.write_text(f'<urn:s> <urn:p> "ok" .\n<urn:s> <urn:q> {term} .\n')
        with pytest.raises(GraphParseError, match="line 2"):
            load_ntriples(path)

    def test_unicode_escapes_in_literals(self, tmp_path):
        path = tmp_path / "uchar.nt"
        path.write_text('<urn:s> <urn:p> "\\u0041\\U0001F600 \\u00e9" .\n')
        (triple,) = load_ntriples(path)
        assert triple.object == Literal("A\U0001F600 é")

    def test_loose_whitespace_loads_like_canonical_layout(self, tmp_path):
        canonical, loose = tmp_path / "canonical.nt", tmp_path / "loose.nt"
        canonical.write_text(
            '<urn:s> <urn:p> "a b" .\n'
            f'<urn:s> <urn:q> "7"^^<{XSD}integer> .\n'
        )
        loose.write_text(
            '  <urn:s>\t<urn:p>   "a b".\n\n'
            f'<urn:s>  <urn:q> "7"^^<{XSD}integer>  . \n'
        )
        assert list(load_ntriples(loose)) == list(load_ntriples(canonical))
