import dataclasses
import itertools
import tracemalloc
from collections import Counter
from datetime import date, timedelta
from decimal import Decimal
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

import ltbp.graph
import ltbp.terms
from ltbp.graph import (
    DanglingReferenceError,
    DuplicateSubjectError,
    FilterTypeError,
    Graph,
    UnknownOrderError,
    build_graph,
    evaluate,
    export_ntriples,
    load_ntriples,
    match_patterns,
)
from ltbp.ingest import Dataset, GeneratorConfig, generate_synthetic
from ltbp import terms as T
from ltbp.model import (
    AccountClass, Customer, PricingConfig, Product, adjustment_factor, to_factor,
)
from ltbp.pricing import CustomerPremium, PricedOrder, PricingResult, price_dataset
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
from tests.conftest import make_order
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


_S1, _S2, _S3 = Iri("urn:s1"), Iri("urn:s2"), Iri("urn:s3")
_P, _Q, _R = Iri("urn:p"), Iri("urn:q"), Iri("urn:r")
_O = Iri("urn:o")
# A graph no ltbp build makes: (s1, p) holds two objects and (s2, q) three;
# (q, o) holds three subjects and (p, "a") two; r has one subject; two lines
# are repeated.
_FOREIGN = [
    ('<urn:s3> <urn:q> <urn:o> .', Triple(_S3, _Q, _O)),
    ('<urn:s1> <urn:p> "a" .', Triple(_S1, _P, Literal("a"))),
    ('<urn:s1> <urn:q> <urn:o> .', Triple(_S1, _Q, _O)),
    ('<urn:s1> <urn:p> "b" .', Triple(_S1, _P, Literal("b"))),
    ('<urn:s2> <urn:q> <urn:o> .', Triple(_S2, _Q, _O)),
    ('<urn:s2> <urn:p> "a" .', Triple(_S2, _P, Literal("a"))),
    ('<urn:s2> <urn:q> "c" .', Triple(_S2, _Q, Literal("c"))),
    ('<urn:s2> <urn:q> <urn:s1> .', Triple(_S2, _Q, _S1)),
    (f'<urn:s3> <urn:r> "7"^^<{XSD}integer> .', Triple(_S3, _R, Literal(7))),
    ('<urn:s1> <urn:p> "b" .', Triple(_S1, _P, Literal("b"))),
    ('<urn:s3> <urn:p> <urn:s1> .', Triple(_S3, _P, _S1)),
    ('<urn:s2> <urn:q> <urn:o> .', Triple(_S2, _Q, _O)),
]


class TestForeignGraph:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "graph.nt"
        path.write_text("".join(f"{line}\n" for line, _ in _FOREIGN))
        return path

    def test_every_match_shape_equals_brute_force(self, path):
        g = load_ntriples(path)
        triples = list(dict.fromkeys(triple for _, triple in _FOREIGN))
        absent = Iri("urn:absent")
        candidates = [
            [t.subject for t in triples] + [absent],
            [t.predicate for t in triples] + [absent],
            [t.object for t in triples] + [absent, Literal("absent")],
        ]
        names = (Variable("s"), Variable("p"), Variable("o"))
        for shape in itertools.product((False, True), repeat=3):
            choices = [dict.fromkeys(c) if bound else [None]
                       for bound, c in zip(shape, candidates)]
            for terms in itertools.product(*choices):
                found = []
                for m in g.match(*terms):
                    obj = m.object.value if isinstance(m.object, Literal) else m.object
                    values = (m.subject, m.predicate, obj)
                    found.append({name.name: value for name, term, value
                                  in zip(names, terms, values) if term is None})
                pattern = tuple(
                    name if term is None else term for name, term in zip(names, terms)
                )
                expected = brute_force_match(triples, [pattern])
                assert Counter(frozenset(r.items()) for r in found) == Counter(
                    frozenset(r.items()) for r in expected
                ), (shape, terms)

    def test_counts_repeats_once_and_exports_sorted(self, path, tmp_path):
        g = load_ntriples(path)
        lines = sorted({line for line, _ in _FOREIGN})
        assert len(g) == len(lines) == 10
        first, second = tmp_path / "first.nt", tmp_path / "second.nt"
        export_ntriples(g, first)
        assert first.read_text() == "".join(f"{line}\n" for line in lines)
        export_ntriples(load_ntriples(first), second)
        assert second.read_bytes() == first.read_bytes()


class TestAssertions:
    def test_customer_with_region_emits_six(self, key_customer, config):
        g = build_graph(Dataset((key_customer,), (), ()), config=config)
        assert len(g) == 6
        assert (
            Triple(customer_iri("C001"), HAS_ADJUSTMENT_FACTOR,
                   Literal(Decimal("0.100000")))
            in g
        )

    def test_customer_without_region_emits_five(self, config):
        customer = Customer("C009", AccountClass.OTHERS, Decimal("100.00"))
        g = build_graph(Dataset((customer,), (), ()), config=config)
        assert len(g) == 5

    def test_distinct_customers_distinct_subjects(self, config):
        customers = tuple(
            Customer(code, AccountClass.KEY, Decimal("1.00")) for code in ("C1", "C2")
        )
        g = build_graph(Dataset(customers, (), ()), config=config)
        subjects = [t.subject for t in g.match(None, T.HAS_CUSTOMER_CODE, None)]
        assert subjects == [customer_iri("C1"), customer_iri("C2")]
        assert {t.subject for t in g} == set(subjects)

    def test_order_emits_exactly_ten(self, small_dataset, config):
        g = build_graph(small_dataset, config=config)
        triples = list(g.match(order_iri("O1"), None, None))
        assert len(triples) == 10
        assert Triple(order_iri("O1"), WAS_PLACED_BY, customer_iri("C001")) in g
        assert Triple(order_iri("O1"), CONTAINS_PRODUCT, T.product_iri("P01")) in g

    def test_order_count_scales_by_ten(self, small_dataset, config):
        g = build_graph(small_dataset)
        order_subjects = {
            t.subject for t in g if t.subject.value.startswith("urn:ltbp:order:")
        }
        order_triples = [
            t for t in g if t.subject.value.startswith("urn:ltbp:order:")
        ]
        assert len(order_triples) == 10 * len(order_subjects)

    def test_priced_emits_two_and_is_idempotent(self, small_dataset, config):
        priced = PricedOrder(
            "O1", Decimal("100.00"), Decimal("125.00"), Decimal("134.66")
        )
        g = build_graph(small_dataset, PricingResult((), (priced,), ()), config)
        assert len(g) == len(build_graph(small_dataset, config=config)) + 2
        twice = build_graph(small_dataset, PricingResult((), (priced,) * 2, ()), config)
        assert list(twice) == list(g)
        assert Triple(order_iri("O1"), HAS_RM_PRICE, Literal(Decimal("125.00"))) in g
        assert (
            Triple(order_iri("O1"), T.HAS_CONVEX_PRICE, Literal(Decimal("134.66")))
            in g
        )

    def test_unpriced_order_has_no_rm_binding(self, small_dataset):
        g = build_graph(small_dataset)
        rows = match_patterns(
            g, [(Variable("o"), HAS_RM_PRICE, Variable("p"))]
        )
        assert rows == []

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


def _with(dataset, **extra):
    """The dataset with each named entity tuple extended by the given items."""
    grown = {name: getattr(dataset, name) + items for name, items in extra.items()}
    return dataclasses.replace(dataset, **grown)


_STRAY = make_order("O 7", "C001", "P01", date(2020, 5, 1), 5, 5, 10)


class TestBuildGraph:
    @pytest.mark.parametrize("extra, pricing_extra, error, message", [
        ({"products": (Product("P01", "BT-Z", "PL-9"),)}, {},
         DuplicateSubjectError, "product already asserted: urn:ltbp:product:P01"),
        ({"customers": (Customer("C001", AccountClass.OTHERS, Decimal("1.00")),)},
         {}, DuplicateSubjectError,
         "customer already asserted: urn:ltbp:customer:C001"),
        ({"orders": (make_order("O1", "C002", "P02", date(2020, 5, 1), 5, 5, 10),)},
         {}, DuplicateSubjectError, "order already asserted: urn:ltbp:order:O1"),
        ({"orders": (dataclasses.replace(_STRAY, customer_code="C 404"),)}, {},
         DanglingReferenceError, "order O 7 references unknown customer C 404"),
        ({"orders": (dataclasses.replace(_STRAY, product_number="P/404"),)}, {},
         DanglingReferenceError, "order O 7 references unknown product P/404"),
        ({}, {"premiums": (CustomerPremium("C404", Decimal("1.5")),)},
         DanglingReferenceError, "premium references unknown customer C404"),
        ({}, {"priced_orders": (PricedOrder("O404", Decimal("1.00"),
                                            Decimal("1.00"), Decimal("1.00")),)},
         UnknownOrderError, "priced order references unknown order O404"),
    ], ids=["duplicate-product", "duplicate-customer", "duplicate-order",
            "unknown-customer", "unknown-product", "premium-unknown-customer",
            "priced-unknown-order"])
    def test_bad_dataset_raises_like_assert(self, small_dataset, small_pricing,
                                            config, extra, pricing_extra,
                                            error, message):
        dataset = _with(small_dataset, **extra)
        pricing = _with(small_pricing, **pricing_extra)
        with pytest.raises(error) as raised:
            build_graph(dataset, pricing, config)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_builds_no_triple_objects_and_quotes_each_id_once(
        self, small_dataset, small_pricing, config, monkeypatch
    ):
        made, quoted = [], []

        def counting_triple(*args):
            made.append(args)
            return Triple(*args)

        def counting_quote(text, safe="/"):
            quoted.append(text)
            return quote(text, safe=safe)

        monkeypatch.setattr(ltbp.graph, "Triple", counting_triple)
        monkeypatch.setattr(ltbp.terms, "quote", counting_quote)
        g = build_graph(small_dataset, small_pricing, config)
        assert made == []
        ids = (
            [p.product_number for p in small_dataset.products]
            + [c.customer_code for c in small_dataset.customers]
            + [o.order_number for o in small_dataset.orders]
        )
        assert sorted(quoted) == sorted(ids)
        assert len(list(g)) == len(g)
        assert len(made) == len(g)  # the counted name is the one graph.py uses

    def test_each_predicate_holds_its_field(self, small_dataset, small_pricing,
                                            config):
        g = build_graph(small_dataset, small_pricing, config)
        _check_layout(g, _expected_layout(small_dataset, small_pricing, config))

    def test_retains_at_most_180_bytes_per_triple(self, config):
        # An ltbp graph holds one object per (subject, predicate) pair. Kept
        # as a one-element list under a dict per subject, each triple
        # retained 258 bytes; kept as a bare id per predicate map, 146.
        dataset = generate_synthetic(
            GeneratorConfig(seed=42, n_customers=60, n_orders=2_000)
        )
        pricing = price_dataset(dataset, config)
        tracemalloc.start()
        try:
            g = build_graph(dataset, pricing, config)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g) >= 12 * len(dataset.orders)
        assert retained / len(g) <= 180

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hostile_ids_build_their_layout_and_round_trip(self, tmp_path_factory,
                                                           data):
        ids = st.text(
            st.one_of(
                st.sampled_from(' /%"\\éü€'),
                st.characters(blacklist_categories=("Cs", "Cc")),
            ),
            min_size=1, max_size=6,
        )
        money = st.sampled_from(
            [Decimal("100"), Decimal("100.00"), Decimal("99.5"), Decimal("250.00")]
        )
        region = st.one_of(st.none(), st.sampled_from(["EMEA", "AP AC", 'N"A']))
        products = tuple(
            Product(number, data.draw(ids), data.draw(ids))
            for number in data.draw(st.lists(ids, min_size=2, max_size=5, unique=True))
        )
        customers = tuple(
            Customer(code, data.draw(st.sampled_from(AccountClass)),
                     data.draw(money), data.draw(region))
            for code in data.draw(st.lists(ids, min_size=2, max_size=5, unique=True))
        )
        numbers = data.draw(st.lists(ids, min_size=5, max_size=20, unique=True))
        day = st.integers(0, 30)
        orders = tuple(
            make_order(
                number,
                data.draw(st.sampled_from(customers)).customer_code,
                data.draw(st.sampled_from(products)).product_number,
                date(2020, 1, 1) + timedelta(days=data.draw(day)),
                data.draw(day), data.draw(day), data.draw(st.integers(1, 30)),
                price=str(data.draw(money)),
                quantity=data.draw(st.integers(1, 3)),
            )
            for number in numbers
        )
        dataset = Dataset(customers, products, orders)
        config = PricingConfig()
        pricing = price_dataset(dataset, config)

        g = build_graph(dataset, pricing, config)
        _check_layout(g, _expected_layout(dataset, pricing, config))

        out = tmp_path_factory.mktemp("paths")
        export_ntriples(g, out / "graph.nt")
        text = (out / "graph.nt").read_text(encoding="utf-8")
        decimal = f"^^<{XSD}decimal> .\n"
        for order in orders:
            head = f"<{order_iri(order.order_number).value}> <{T.HAS_ORIGINAL_PRICE.value}>"
            assert f'{head} "{order.original_price:f}"{decimal}' in text
        for customer in customers:
            head = (f"<{customer_iri(customer.customer_code).value}> "
                    f"<{T.HAS_ANNUAL_REVENUE.value}>")
            assert f'{head} "{customer.annual_revenue:f}"{decimal}' in text
        export_ntriples(load_ntriples(out / "graph.nt"), out / "again.nt")
        assert (out / "again.nt").read_bytes() == (out / "graph.nt").read_bytes()


def _expected_layout(dataset, pricing, config):
    """Subject -> the predicate -> object pairs ``build_graph`` gives it."""
    layout = {}
    for product in dataset.products:
        layout[T.product_iri(product.product_number)] = {
            T.TYPE: T.PRODUCT_CLASS,
            T.HAS_PRODUCT_NUMBER: Literal(product.product_number),
            T.HAS_BASIC_TYPE: Literal(product.basic_type),
            T.HAS_PRODUCT_LINE: Literal(product.product_line),
        }
    premiums = {p.customer_code: p.premium for p in pricing.premiums}
    for customer in dataset.customers:
        code = customer.customer_code
        rho = adjustment_factor(customer.account_class, config)
        expected = layout[T.customer_iri(code)] = {
            T.TYPE: T.CUSTOMER_CLASS,
            T.HAS_CUSTOMER_CODE: Literal(code),
            T.HAS_ACCOUNT_TYPE: Literal(customer.account_class.value),
            T.HAS_ADJUSTMENT_FACTOR: Literal(to_factor(rho)),
            T.HAS_ANNUAL_REVENUE: Literal(customer.annual_revenue),
            T.HAS_PREMIUM: Literal(to_factor(premiums[code])),
        }
        if customer.region is not None:
            expected[T.HAS_REGION] = Literal(customer.region)
    priced = {p.order_number: p for p in pricing.priced_orders}
    for order in dataset.orders:
        expected = layout[T.order_iri(order.order_number)] = {
            T.TYPE: T.ORDER_CLASS,
            T.HAS_ORDER_NUMBER: Literal(order.order_number),
            T.HAS_QUANTITY: Literal(order.quantity),
            T.HAS_ORIGINAL_PRICE: Literal(order.original_price),
            T.HAS_ORDER_DATE: Literal(order.order_date),
            T.HAS_REQUESTED_DATE: Literal(order.customer_request_date),
            T.HAS_CONFIRMED_DATE: Literal(order.customer_delivery_date),
            T.HAS_STANDARD_DATE: Literal(order.standard_delivery_date),
            T.WAS_PLACED_BY: T.customer_iri(order.customer_code),
            T.CONTAINS_PRODUCT: T.product_iri(order.product_number),
        }
        if order.order_number in priced:
            expected[T.HAS_RM_PRICE] = Literal(priced[order.order_number].rm)
            expected[T.HAS_CONVEX_PRICE] = Literal(priced[order.order_number].convex)
    return layout


def _check_layout(g, layout):
    """Each subject holds exactly its expected pairs, and nothing else is held."""
    for subject, expected in layout.items():
        found = [(t.predicate, t.object) for t in g.match(subject, None, None)]
        assert len(found) == len(expected)
        assert dict(found) == expected
    assert len(g) == sum(len(expected) for expected in layout.values())


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

    @pytest.mark.parametrize("second", [
        '"x" <urn:p> "y" .',
        '<urn:s> "x" "y" .',
    ], ids=["subject", "predicate"])
    def test_stored_literal_rejected_outside_object_position(self, tmp_path,
                                                             second):
        from ltbp.graph import GraphParseError

        path = tmp_path / "bad.nt"
        path.write_text(f'<urn:s> <urn:p> "x" .\n{second}\n')
        with pytest.raises(GraphParseError, match="line 2: expected an IRI"):
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
            f'<urn:s> <urn:p> "007"^^<{XSD}integer> .\n'
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
