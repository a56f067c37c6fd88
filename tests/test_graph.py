import contextlib
import dataclasses
import io
import itertools
import logging
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from collections import Counter
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

import ltbp.terms
from ltbp.analytics import run_competency_questions
from ltbp.cli import main
from ltbp.graph import (
    DanglingReferenceError,
    DuplicateSubjectError,
    EvaluationError,
    FilterTypeError,
    Graph,
    GraphError,
    GraphParseError,
    UnknownOrderError,
    _nt_term,
    _read_image,
    build_graph,
    evaluate,
    export_ntriples,
    load_ntriples,
)
from ltbp.ingest import Dataset, GeneratorConfig, generate_synthetic
from ltbp import terms as T
from ltbp.model import (
    AccountClass, Customer, PricingConfig, Product, adjustment_factor, to_factor,
)
from ltbp.pricing import CustomerPremium, PricedOrder, PricingResult, price_dataset
from ltbp.query import QuerySpec, parse_query
from ltbp.report import revenue_totals
from ltbp.terms import (
    HAS_ADJUSTMENT_FACTOR,
    HAS_RM_PRICE,
    Iri,
    Variable,
    WAS_PLACED_BY,
    CONTAINS_PRODUCT,
    XSD,
    customer_iri,
    order_iri,
)
from tests.conftest import make_order
from tests.oracles import brute_force_match, nested_loop_rows, triples

_INT = f"^^<{XSD}integer>"


def _load(tmp_path, *lines):
    """The graph of the given N-Triples lines, loaded from a file."""
    path = tmp_path / "lines.nt"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return load_ntriples(path)


def _match(g, s=None, p=None, o=None):
    """The triples matching the given terms (None = any), as (s, p, o)
    terms: ``g.match``'s scan filtered by id."""
    ids = [None if term is None else g._id_of(term) for term in (s, p, o)]
    return triples(g, [t for t in g.match(ids[1])
                       if all(i is None or i == x for i, x in zip(ids, t))])


def _rows(g, query):
    return evaluate(g, parse_query(query)).rows


def _store(g):
    """A store's content, each part in its order: the term table, each
    value's repr (``1.0`` and ``1.00`` differ), each predicate's subject
    map, and the size. A store read from an image must equal the one the
    text gives."""
    return (list(g._ids.items()), list(map(repr, g._values)),
            [(p, list(so.items())) for p, so in g._so.items()], len(g))


@contextlib.contextmanager
def _image_hidden(path):
    """While open, ``path`` has no image beside it."""
    image = Path(f"{path}.img")
    hidden = image.with_name(f"{image.name}.hidden")
    image.rename(hidden)
    try:
        yield
    finally:
        hidden.rename(image)


def _text_store(path):
    """The store of ``path`` read from its text, with its image hidden."""
    with _image_hidden(path):
        return _store(load_ntriples(path))


@pytest.fixture
def key_customer():
    return Customer("C001", AccountClass.KEY, Decimal("50000000.00"), "EMEA")


class TestStore:
    def test_set_semantics(self, tmp_path):
        line = f'<urn:a> <urn:b> "1"{_INT} .'
        g = _load(tmp_path, line, line)
        assert len(g) == 1
        assert triples(g) == [(Iri("urn:a"), Iri("urn:b"), 1)]

    def test_match_by_each_position(self, tmp_path):
        g = _load(tmp_path, f'<urn:s1> <urn:p> "1"{_INT} .',
                  f'<urn:s2> <urn:p> "2"{_INT} .')
        t1 = (Iri("urn:s1"), Iri("urn:p"), 1)
        t2 = (Iri("urn:s2"), Iri("urn:p"), 2)
        assert _match(g, Iri("urn:s1")) == [t1]
        assert _match(g, p=Iri("urn:p")) == [t1, t2]
        assert _match(g, o=2) == [t2]
        assert _match(g) == [t1, t2]


class TestDerivedObjectMaps:
    """A graph keeps one subject map per predicate. A predicate's object map
    is built the first time a pattern probes that predicate by object."""

    def test_built_and_loaded_graphs_hold_no_object_map(self, small_graph,
                                                        tmp_path):
        assert small_graph._os == {}
        export_ntriples(small_graph, tmp_path / "graph.nt")
        assert load_ntriples(tmp_path / "graph.nt")._os == {}

    def test_the_stages_queries_probe_no_predicate_by_object(self, small_graph):
        run_competency_questions(small_graph, top_n=3, pair_k=3)
        revenue_totals(small_graph)
        assert small_graph._os == {}

    @pytest.mark.parametrize("where, probed", [
        ("?o :wasPlacedBy cust:C001 . ?o :hasQuantity ?q", [WAS_PLACED_BY]),
        ("?o :wasPlacedBy ?c . ?c :hasCustomerCode \"C001\" . "
         "?o :hasRMPrice ?rm", [T.HAS_CUSTOMER_CODE, WAS_PLACED_BY]),
        ("?o :hasQuantity ?q . ?o :hasRMPrice ?rm", []),  # a scan, then by subject
        ("?s ?p cust:C001", None),  # an unbound predicate: every predicate
    ])
    def test_a_query_builds_the_maps_of_the_predicates_it_probes_by_object(
        self, small_graph, where, probed
    ):
        names = " ".join(dict.fromkeys(re.findall(r"\?\w+", where)))
        assert _rows(small_graph, f"SELECT {names} WHERE {{ {where} }}")
        expected = small_graph._so if probed is None else map(small_graph._id_of, probed)
        assert sorted(small_graph._os) == sorted(expected)

    @pytest.mark.parametrize("which", ["seed-42", "foreign"])
    def test_each_object_map_inverts_the_scan_of_its_predicate(self, config,
                                                               tmp_path, which):
        """``_objects(p)`` lists each object once, in order of first
        appearance in ``match(p)``, with a bare id for one subject and a list
        of its subjects in scan order for more."""
        if which == "seed-42":
            dataset, pricing = _seed_42_dataset(config)
            g = build_graph(dataset, pricing, config)
        else:
            g = _load(tmp_path, *(line for line, _ in _FOREIGN))
        for p in g._so:
            inverse: dict[int, dict] = {}
            for s, _, o in g.match(p):
                inverse.setdefault(o, {})[s] = None
            expected = [(o, [*subjects] if len(subjects) > 1 else next(iter(subjects)))
                        for o, subjects in inverse.items()]
            assert list(g._objects(p).items()) == expected, g._values[p]


_S1, _S2, _S3 = Iri("urn:s1"), Iri("urn:s2"), Iri("urn:s3")
_P, _Q, _R = Iri("urn:p"), Iri("urn:q"), Iri("urn:r")
_O = Iri("urn:o")
# A graph no ltbp build makes: (s1, p) holds two objects and (s2, q) three;
# (q, o) holds three subjects and (p, "a") two; r has one subject; two lines
# are repeated.
_FOREIGN = [
    ('<urn:s3> <urn:q> <urn:o> .', (_S3, _Q, _O)),
    ('<urn:s1> <urn:p> "a" .', (_S1, _P, "a")),
    ('<urn:s1> <urn:q> <urn:o> .', (_S1, _Q, _O)),
    ('<urn:s1> <urn:p> "b" .', (_S1, _P, "b")),
    ('<urn:s2> <urn:q> <urn:o> .', (_S2, _Q, _O)),
    ('<urn:s2> <urn:p> "a" .', (_S2, _P, "a")),
    ('<urn:s2> <urn:q> "c" .', (_S2, _Q, "c")),
    ('<urn:s2> <urn:q> <urn:s1> .', (_S2, _Q, _S1)),
    (f'<urn:s3> <urn:r> "7"{_INT} .', (_S3, _R, 7)),
    ('<urn:s1> <urn:p> "b" .', (_S1, _P, "b")),
    ('<urn:s3> <urn:p> <urn:s1> .', (_S3, _P, _S1)),
    ('<urn:s2> <urn:q> <urn:o> .', (_S2, _Q, _O)),
]


class TestForeignGraph:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "graph.nt"
        path.write_text("".join(f"{line}\n" for line, _ in _FOREIGN))
        return path

    def test_every_match_shape_equals_brute_force(self, path):
        """Each bound/unbound shape, as a one-pattern query, exercises one of
        the join's probes or its scan. The all-bound shape, which projects
        nothing, is the first step of a query that then scans every triple."""
        g = load_ntriples(path)
        held = list(dict.fromkeys(triple for _, triple in _FOREIGN))
        absent = Iri("urn:absent")
        candidates = [
            [s for s, _, _ in held] + [absent],
            [p for _, p, _ in held] + [absent],
            [o for _, _, o in held] + [absent, "absent"],
        ]
        names = (Variable("s"), Variable("p"), Variable("o"))
        scan = (Variable("x"), Variable("y"), Variable("z"))
        for shape in itertools.product((False, True), repeat=3):
            choices = [dict.fromkeys(c) if bound else [None]
                       for bound, c in zip(shape, candidates)]
            for terms in itertools.product(*choices):
                pattern = tuple(
                    name if term is None else term for name, term in zip(names, terms)
                )
                patterns = (pattern,) if not all(shape) else (pattern, scan)
                projected = tuple(t.name for p in patterns for t in p
                                  if isinstance(t, Variable))
                found = evaluate(g, QuerySpec(projected, patterns)).mappings()
                expected = brute_force_match(held, patterns)
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
        assert _match(g, customer_iri("C001"), HAS_ADJUSTMENT_FACTOR,
                      Decimal("0.100000"))

    def test_customer_without_region_emits_five(self, config):
        customer = Customer("C009", AccountClass.OTHERS, Decimal("100.00"))
        g = build_graph(Dataset((customer,), (), ()), config=config)
        assert len(g) == 5

    def test_distinct_customers_distinct_subjects(self, config):
        customers = tuple(
            Customer(code, AccountClass.KEY, Decimal("1.00")) for code in ("C1", "C2")
        )
        g = build_graph(Dataset(customers, (), ()), config=config)
        subjects = [s for s, _, _ in _match(g, p=T.HAS_CUSTOMER_CODE)]
        assert subjects == [customer_iri("C1"), customer_iri("C2")]
        assert {s for s, _, _ in triples(g)} == set(subjects)

    def test_order_emits_exactly_ten(self, small_dataset, config):
        g = build_graph(small_dataset, config=config)
        assert len(_match(g, order_iri("O1"))) == 10
        assert _match(g, order_iri("O1"), WAS_PLACED_BY, customer_iri("C001"))
        assert _match(g, order_iri("O1"), CONTAINS_PRODUCT, T.product_iri("P01"))

    def test_order_count_scales_by_ten(self, small_dataset, config):
        g = build_graph(small_dataset)
        order_triples = [
            t for t in triples(g) if t[0].value.startswith("urn:ltbp:order:")
        ]
        order_subjects = {s for s, _, _ in order_triples}
        assert len(order_triples) == 10 * len(order_subjects)

    def test_priced_emits_two_and_is_idempotent(self, small_dataset, config):
        priced = PricedOrder(
            "O1", Decimal("100.00"), Decimal("125.00"), Decimal("134.66")
        )
        g = build_graph(small_dataset, PricingResult((), (priced,), ()), config)
        assert len(g) == len(build_graph(small_dataset, config=config)) + 2
        twice = build_graph(small_dataset, PricingResult((), (priced,) * 2, ()), config)
        assert triples(twice) == triples(g)
        assert _match(g, order_iri("O1"), HAS_RM_PRICE, Decimal("125.00"))
        assert _match(g, order_iri("O1"), T.HAS_CONVEX_PRICE,
                      Decimal("134.66"))

    def test_unpriced_order_has_no_rm_binding(self, small_dataset):
        g = build_graph(small_dataset)
        assert _rows(g, "SELECT ?o WHERE { ?o :hasRMPrice ?p }") == []

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


def _seed_42_dataset(config):
    """The seed-42 dataset of 2,000 orders and 60 customers, and its pricing."""
    dataset = generate_synthetic(
        GeneratorConfig(seed=42, n_customers=60, n_orders=2_000)
    )
    return dataset, price_dataset(dataset, config)


def _retained_per_triple(make, *args):
    """The graph ``make(*args)`` returns, and the bytes it retains per triple."""
    tracemalloc.start()
    try:
        g = make(*args)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, retained / len(g)


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

    def test_quotes_each_id_once(self, small_dataset, small_pricing, config,
                                 monkeypatch):
        quoted = []

        def counting_quote(text, safe="/"):
            quoted.append(text)
            return quote(text, safe=safe)

        monkeypatch.setattr(ltbp.terms, "quote", counting_quote)
        build_graph(small_dataset, small_pricing, config)
        ids = (
            [p.product_number for p in small_dataset.products]
            + [c.customer_code for c in small_dataset.customers]
            + [o.order_number for o in small_dataset.orders]
        )
        assert sorted(quoted) == sorted(ids)

    # The build shares one term id per date, int quantity and repeated string,
    # keyed by value; these values equal such a key but are other terms.

    def test_bool_quantity_after_an_int_one_is_unsupported(self, small_dataset,
                                                           config):
        assert type(small_dataset.orders[0].quantity) is int
        assert small_dataset.orders[0].quantity == 1
        dataset = _with(small_dataset,
                        orders=(dataclasses.replace(_STRAY, quantity=True),))
        with pytest.raises(GraphError) as raised:
            build_graph(dataset, config=config)
        assert str(raised.value) == "unsupported literal value True"

    def test_decimal_quantity_after_an_int_one_exports_as_decimal(
        self, tmp_path, small_dataset, config
    ):
        assert small_dataset.orders[0].quantity == 1
        dataset = _with(small_dataset,
                        orders=(dataclasses.replace(_STRAY, quantity=Decimal("1")),))
        export_ntriples(build_graph(dataset, config=config), tmp_path / "graph.nt")
        text = (tmp_path / "graph.nt").read_text(encoding="utf-8")
        head = f"<{order_iri(_STRAY.order_number).value}> <{T.HAS_QUANTITY.value}>"
        assert f'{head} "1"^^<{XSD}decimal> .\n' in text
        first = f"<{order_iri(small_dataset.orders[0].order_number).value}>"
        assert f'{first} <{T.HAS_QUANTITY.value}> "1"{_INT} .\n' in text

    def test_equal_decimals_of_two_fields_stay_two_terms(self, tmp_path,
                                                         small_dataset):
        config = PricingConfig(rho_others=0.1)
        customer = Customer("C009", AccountClass.OTHERS, Decimal("0.10"))
        dataset = _with(small_dataset, customers=(customer,))
        export_ntriples(build_graph(dataset, config=config), tmp_path / "graph.nt")
        text = (tmp_path / "graph.nt").read_text(encoding="utf-8")
        head = f"<{customer_iri('C009').value}>"
        decimal = f"^^<{XSD}decimal> .\n"
        assert f'{head} <{T.HAS_ANNUAL_REVENUE.value}> "0.10"{decimal}' in text
        assert f'{head} <{HAS_ADJUSTMENT_FACTOR.value}> "0.100000"{decimal}' in text

    def test_each_predicate_holds_its_field(self, small_dataset, small_pricing,
                                            config):
        g = build_graph(small_dataset, small_pricing, config)
        _check_layout(g, _expected_layout(small_dataset, small_pricing, config))

    def test_retains_at_most_120_bytes_per_triple(self, config):
        # An ltbp graph holds one object per (subject, predicate) pair. Kept
        # as a one-element list under a dict per subject, each triple
        # retained 258 bytes; kept as a bare id in a subject map and an
        # object map per predicate, 142; in a subject map alone, 109.
        dataset, pricing = _seed_42_dataset(config)
        g, per_triple = _retained_per_triple(build_graph, dataset, pricing, config)
        assert len(g) >= 12 * len(dataset.orders)
        assert per_triple <= 120

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
    """The triples ``build_graph`` gives, as (subject, predicate, object)
    terms, in the order that adding them one at a time would take: each
    product's, customer's and order's rows in dataset order, then each
    premium and each priced order in the pricing result's order."""
    layout = []
    for product in dataset.products:
        s = T.product_iri(product.product_number)
        layout += [(s, T.TYPE, T.PRODUCT_CLASS),
                   (s, T.HAS_PRODUCT_NUMBER, product.product_number),
                   (s, T.HAS_BASIC_TYPE, product.basic_type),
                   (s, T.HAS_PRODUCT_LINE, product.product_line)]
    for customer in dataset.customers:
        s = T.customer_iri(customer.customer_code)
        rho = adjustment_factor(customer.account_class, config)
        layout += [(s, T.TYPE, T.CUSTOMER_CLASS),
                   (s, T.HAS_CUSTOMER_CODE, customer.customer_code),
                   (s, T.HAS_ACCOUNT_TYPE, customer.account_class.value),
                   (s, T.HAS_ADJUSTMENT_FACTOR, to_factor(rho)),
                   (s, T.HAS_ANNUAL_REVENUE, customer.annual_revenue)]
        if customer.region is not None:
            layout.append((s, T.HAS_REGION, customer.region))
    for order in dataset.orders:
        s = T.order_iri(order.order_number)
        layout += [(s, T.TYPE, T.ORDER_CLASS),
                   (s, T.HAS_ORDER_NUMBER, order.order_number),
                   (s, T.HAS_QUANTITY, order.quantity),
                   (s, T.HAS_ORIGINAL_PRICE, order.original_price),
                   (s, T.HAS_ORDER_DATE, order.order_date),
                   (s, T.HAS_REQUESTED_DATE, order.customer_request_date),
                   (s, T.HAS_CONFIRMED_DATE, order.customer_delivery_date),
                   (s, T.HAS_STANDARD_DATE, order.standard_delivery_date),
                   (s, T.WAS_PLACED_BY, T.customer_iri(order.customer_code)),
                   (s, T.CONTAINS_PRODUCT, T.product_iri(order.product_number))]
    for premium in pricing.premiums:
        layout.append((T.customer_iri(premium.customer_code), T.HAS_PREMIUM,
                       to_factor(premium.premium)))
    for priced in pricing.priced_orders:
        s = T.order_iri(priced.order_number)
        layout += [(s, T.HAS_RM_PRICE, priced.rm), (s, T.HAS_CONVEX_PRICE, priced.convex)]
    return layout


def _check_layout(g, layout):
    """Each subject holds exactly its expected pairs, and nothing else is
    held. The store's order is the layout's: ``Graph.match``, a walk of
    ``_so``, yields the predicates in the order of their first triple and
    each one's subjects in the order of their triples."""
    pairs, subjects = {}, {}
    for s, p, o in layout:
        pairs.setdefault(s, {})[p] = o
        subjects.setdefault(p, []).append(s)
    for subject, expected in pairs.items():
        found = [(p, o) for _, p, o in _match(g, subject)]
        assert len(found) == len(expected)
        assert dict(found) == expected
    assert len(g) == len(layout)
    assert [(s, p) for s, p, _ in triples(g)] == [
        (s, p) for p, ss in subjects.items() for s in ss]


class TestMatchPatterns:
    def test_single_pattern_counts_orders_of_customer(self, small_graph):
        rows = _rows(small_graph, "SELECT ?o WHERE { ?o :wasPlacedBy cust:C001 }")
        assert len(rows) == 2

    def test_unsatisfiable_pattern(self, small_graph):
        rows = _rows(small_graph, "SELECT ?o WHERE { ?o :wasPlacedBy cust:C404 }")
        assert rows == []

    def test_join_matches_brute_force(self, small_graph):
        spec = parse_query(
            "SELECT ?o ?c ?p WHERE { ?o :wasPlacedBy ?c . ?o :containsProduct ?p }"
        )
        rows = evaluate(small_graph, spec).mappings()
        expected = brute_force_match(triples(small_graph), spec.patterns)
        key = lambda row: sorted((k, str(v)) for k, v in row.items())
        assert sorted(rows, key=key) == sorted(expected, key=key)

    def test_join_commutativity(self, small_graph):
        patterns = [
            (Variable("o"), WAS_PLACED_BY, Variable("c")),
            (Variable("o"), CONTAINS_PRODUCT, Variable("p")),
            (Variable("o"), HAS_RM_PRICE, Variable("rm")),
        ]
        key = lambda row: sorted((k, str(v)) for k, v in row.items())

        def solve(patterns):
            spec = QuerySpec(("o", "c", "p", "rm"), tuple(patterns))
            return sorted(evaluate(small_graph, spec).mappings(), key=key)

        baseline = solve(patterns)
        assert baseline
        for permutation in itertools.permutations(patterns):
            assert solve(permutation) == baseline

    @given(data=st.data())
    def test_random_joins_match_brute_force(self, tmp_path_factory, data):
        subjects = [Iri(f"urn:s{i}") for i in range(4)]
        predicates = [Iri(f"urn:p{i}") for i in range(3)]
        literals = {1: f'"1"{_INT}', 2: f'"2"{_INT}', "a": '"a"'}
        objects = subjects + list(literals)
        drawn = data.draw(
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
        text = {**literals, **{iri: f"<{iri.value}>" for iri in subjects + predicates}}
        g = _load(tmp_path_factory.mktemp("joins"),
                  *(" ".join(text[term] for term in t) + " ." for t in drawn))

        term = st.one_of(
            st.sampled_from([Variable("x"), Variable("y"), Variable("z")]),
            st.sampled_from(subjects),
            st.sampled_from(predicates),
            st.sampled_from(objects),
        )
        patterns = data.draw(
            st.lists(st.tuples(term, term, term), min_size=1, max_size=3)
        )
        names = sorted({t.name for pattern in patterns for t in pattern
                        if isinstance(t, Variable)})
        if not names:  # a query projects a variable: add one matching every triple
            names = ["s", "p", "o"]
            patterns.append(tuple(map(Variable, names)))
        key = lambda row: sorted((k, str(v)) for k, v in row.items())
        got = evaluate(g, QuerySpec(tuple(names), tuple(patterns))).mappings()
        want = brute_force_match(triples(g), patterns)
        assert sorted(got, key=key) == sorted(want, key=key)

    @pytest.mark.parametrize("where", [
        "?s <urn:q> ?o . ?s <urn:p> ?v",  # (s1, p) holds two objects
        "?s <urn:p> ?v . ?t <urn:p> ?v",  # (p, "a") holds two subjects
        "?x <urn:q> ?x",
        "?s ?x ?x",
        "<urn:s3> ?x ?x",
        "?s ?p <urn:o> . ?t ?p ?u",  # ?p bound by an earlier step
        "?s ?p ?o . ?s ?p ?v",
        "?s ?p ?o . ?o ?p ?v",
        "<urn:s2> ?p ?o",  # an unbound predicate
        "?s ?p <urn:s1> . <urn:s1> ?p ?s",
        "?s <urn:absent> ?o",  # constants the graph does not hold
        "<urn:absent> ?p ?o",
        '?s ?p "absent"',
        '?s <urn:p> "absent" . ?s ?p ?o',
    ])
    def test_join_yields_the_nested_loop_rows_in_order(self, tmp_path, where):
        loops = ["<urn:s1> <urn:q> <urn:s1> .", "<urn:s3> <urn:p> <urn:p> ."]
        g = _load(tmp_path, *(line for line, _ in _FOREIGN), *loops)
        names = tuple(dict.fromkeys(re.findall(r"\?(\w+)", where)))
        spec = parse_query(f"SELECT {' '.join('?' + n for n in names)} WHERE {{ {where} }}")
        assert evaluate(g, spec).rows == nested_loop_rows(g, spec.patterns, names)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_joins_yield_the_nested_loop_rows_in_order(self, tmp_path_factory,
                                                              data):
        iris = [Iri(f"urn:t{i}") for i in range(4)]  # each may sit in any position
        literals = {1: f'"1"{_INT}', "a": '"a"'}
        text = {**literals, **{iri: f"<{iri.value}>" for iri in iris}}
        drawn = data.draw(st.lists(
            st.tuples(st.sampled_from(iris), st.sampled_from(iris),
                      st.sampled_from(iris + list(literals))),
            min_size=1, max_size=30,
        ))
        g = _load(tmp_path_factory.mktemp("order"),
                  *(" ".join(text[term] for term in t) + " ." for t in drawn))
        absent = [Iri("urn:absent"), "absent"]
        term = st.one_of(
            st.sampled_from([Variable("x"), Variable("y"), Variable("z")]),
            st.sampled_from(iris + list(literals) + absent),
        )
        patterns = data.draw(
            st.lists(st.tuples(term, term, term), min_size=1, max_size=4)
        )
        names = tuple(sorted({t.name for pattern in patterns for t in pattern
                              if isinstance(t, Variable)})) or ("s", "p", "o")
        if names == ("s", "p", "o"):
            patterns.append(tuple(map(Variable, names)))
        got = evaluate(g, QuerySpec(names, tuple(patterns))).rows
        assert got == nested_loop_rows(g, patterns, names)

    def test_repeated_variable_within_pattern(self, tmp_path):
        g = _load(tmp_path, "<urn:a> <urn:p> <urn:a> .", "<urn:a> <urn:p> <urn:b> .")
        rows = _rows(g, "SELECT ?x WHERE { ?x <urn:p> ?x }")
        assert rows == [(Iri("urn:a"),)]

    def test_filter_type_mismatch_reported(self, small_graph):
        spec = parse_query(
            "SELECT ?o WHERE { ?o :hasOrderDate ?d FILTER(?d > 5) }"
        )
        with pytest.raises(FilterTypeError, match="date"):
            evaluate(small_graph, spec)

    @pytest.mark.parametrize("constant, kind", [
        ('"a\\"b\\tc"', "string"), ("0.0000001", "number"), ("0.00000010", "number"),
    ])
    def test_filter_error_shows_a_constant_as_the_query_writes_it(self, tmp_path,
                                                                  constant, kind):
        g = _load(tmp_path, "<urn:s> <urn:p> <urn:o> .")
        spec = parse_query(f"SELECT ?s WHERE {{ ?s <urn:p> ?o FILTER(?o < {constant}) }}")
        with pytest.raises(FilterTypeError) as raised:
            evaluate(g, spec)
        assert str(raised.value) == (
            f"type mismatch: cannot compare iri to {kind} in ?o < {constant}")

    def test_filter_sees_only_rows_every_pattern_keeps(self, tmp_path):
        # O1 has no RM price, so the second pattern drops it before the
        # filter could divide by its zero quantity.
        g = _load(
            tmp_path,
            f'<urn:ltbp:order:O1> <{T.HAS_QUANTITY.value}> "0"{_INT} .',
            f'<urn:ltbp:order:O2> <{T.HAS_QUANTITY.value}> "2"{_INT} .',
            f'<urn:ltbp:order:O2> <{HAS_RM_PRICE.value}> "10.00"^^<{XSD}decimal> .',
        )
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
        all_prices = _rows(small_graph,
                           "SELECT ?price WHERE { ?o :hasOriginalPrice ?price }")
        expected = sorted(all_prices, reverse=True)[:2]
        assert [(price,) for _, price in table.rows] == expected

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
        assert table.rows == [("Key",), ("Others",), ("Regular",)]

    def test_group_by_groups_terms_not_values(self, tmp_path):
        # 1, 1.0 and 1.00 are equal numbers but three terms, as joins see them.
        objects = [f'"2"{_INT}', f'"1"{_INT}', f'"1.0"{_DEC}', f'"0.5"{_DEC}',
                   f'"1.00"{_DEC}', f'"1.0"{_DEC}']
        g = _load(tmp_path, *(f"<urn:s{i}> <urn:p> {obj} ."
                              for i, obj in enumerate(objects)))
        rows = _rows(g, "SELECT ?v (COUNT(?s) AS ?n) WHERE { ?s <urn:p> ?v } "
                        "GROUP BY ?v")
        assert [(repr(v), n) for v, n in rows] == [
            (repr(Decimal("0.5")), 1), ("1", 1), (repr(Decimal("1.0")), 2),
            (repr(Decimal("1.00")), 1), ("2", 1),
        ]  # ties in first-appearance order

    def test_arithmetic_filter(self, small_graph):
        spec = parse_query(
            "SELECT ?num WHERE { ?o :hasOrderNumber ?num . "
            "?o :hasOriginalPrice ?p FILTER(?p * 2 >= 600) }"
        )
        table = evaluate(small_graph, spec)
        assert sorted(table.rows) == [("O3",), ("O4",)]

    def test_date_comparison_filter(self, small_graph):
        spec = parse_query(
            "SELECT (COUNT(?o) AS ?n) WHERE { ?o :hasRequestedDate ?rd . "
            "?o :hasStandardDate ?sd FILTER(?sd > ?rd) }"
        )
        table = evaluate(small_graph, spec)
        assert table.rows[0][0] == 5  # O6 requested after its standard date

    @pytest.mark.parametrize("func", ["SUM", "AVG"])
    def test_sum_past_the_decimal_range_is_an_evaluation_error(self, tmp_path, func):
        nines = "9" * 1_000_001  # each below the largest Decimal, their sum above
        g = _load(tmp_path, *(f'<urn:o{i}> <urn:rm> "{nines}"^^<{XSD}decimal> .'
                              for i in (1, 2)))
        with pytest.raises(EvaluationError, match=rf"overflow in {func} for \?t"):
            _rows(g, f"SELECT ({func}(?p) AS ?t) WHERE {{ ?o <urn:rm> ?p }}")


class TestNtriples:
    @pytest.mark.parametrize("way", ["image", "text"])
    def test_loaded_graph_retains_at_most_145_bytes_per_triple(self, tmp_path,
                                                               config, way):
        # The interned term texts and values come on top of the subject
        # maps: 168 bytes per triple with an object map per predicate too,
        # 136 without. The store read from the image holds the same objects,
        # each id one int shared by every map, as the text loader's does.
        path = tmp_path / "graph.nt"
        export_ntriples(build_graph(*_seed_42_dataset(config), config), path)
        if way == "text":
            os.remove(f"{path}.img")
        g, per_triple = _retained_per_triple(load_ntriples, path)
        assert len(g) >= 24_000
        assert per_triple <= 145

    def test_empty_graph_empty_file(self, tmp_path):
        path = tmp_path / "empty.nt"
        export_ntriples(Graph(), path)
        assert path.read_text() == ""

    def test_round_trip_preserves_graph(self, small_graph, tmp_path):
        path = tmp_path / "graph.nt"
        export_ntriples(small_graph, path)
        reloaded = load_ntriples(path)
        assert set(triples(reloaded)) == set(triples(small_graph))
        assert len(reloaded) == len(small_graph)

    def test_export_is_sorted_and_deterministic(self, small_graph, tmp_path):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        export_ntriples(small_graph, a)
        export_ntriples(small_graph, b)
        lines = a.read_text().splitlines()
        assert lines == sorted(lines)
        assert a.read_bytes() == b.read_bytes()

    def test_export_orders_prefix_terms_as_sorted_lines(self, tmp_path):
        objects = ["<urn:ab>", f'"5"{_INT}', '"5"', "<urn:a>", '"5 "', '""']
        g = _load(tmp_path, *(f"<urn:{subject}> <urn:{predicate}> {obj} ."
                              for subject in "sr" for predicate in "qp"
                              for obj in objects))
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
            t for t in triples(g) if t[0].value.startswith("urn:ltbp:order:")
        ]
        assert len(order_triples) == 100

    def test_string_escapes_round_trip(self, tmp_path):
        g = _load(tmp_path,
                  '<urn:s> <urn:p> "line\\nbreak\\tand \\"quote\\" \\\\ backslash" .',
                  f'<urn:s> <urn:q> "2020-02-29"^^<{XSD}date> .')
        tricky = 'line\nbreak\tand "quote" \\ backslash'
        assert [o for _, _, o in triples(g)] == [tricky, date(2020, 2, 29)]
        path = tmp_path / "esc.nt"
        export_ntriples(g, path)
        assert set(triples(load_ntriples(path))) == set(triples(g))

    def test_embedded_dots_in_literals_round_trip(self, tmp_path):
        g = _load(tmp_path, '<urn:s> <urn:p> "ends with dot ." .',
                  '<urn:s> <urn:q> "v1.2.3" .')
        assert [o for _, _, o in triples(g)] == ["ends with dot .", "v1.2.3"]
        path = tmp_path / "dots.nt"
        export_ntriples(g, path)
        assert set(triples(load_ntriples(path))) == set(triples(g))

    def test_malformed_line_reports_line_number(self, tmp_path):
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
        path = tmp_path / "bad.nt"
        path.write_text(f'<urn:s> <urn:p> "x" .\n{second}\n')
        with pytest.raises(GraphParseError, match="line 2: expected an IRI"):
            load_ntriples(path)

    def test_unknown_datatype_rejected(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text('<urn:s> <urn:p> "1"^^<urn:unknown> .\n')
        with pytest.raises(GraphParseError, match="unsupported datatype"):
            load_ntriples(path)

    def test_value_equal_literals_keep_their_term_identity(self, tmp_path):
        objects = [f'"100"{_INT}'] + [
            f'"{text}"^^<{XSD}decimal>' for text in ("100.00", "1.00", "1.000000")
        ]
        g = _load(tmp_path, *(f"<urn:s{i}> <urn:p> {obj} ."
                              for i, obj in enumerate(objects)))
        first, second = tmp_path / "first.nt", tmp_path / "second.nt"
        export_ntriples(g, first)
        export_ntriples(load_ntriples(first), second)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        for lexical, dtype in (("100", "integer"), ("100.00", "decimal"),
                               ("1.00", "decimal"), ("1.000000", "decimal")):
            assert f'"{lexical}"^^<{XSD}{dtype}>' in text
        hits = _match(g, o=Decimal("1.00"))
        assert [s for s, _, _ in hits] == [Iri("urn:s2")]

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
        g = build_graph(Dataset((), (Product("P1", text, "PL-1"),), ()))
        path = tmp_path_factory.mktemp("nt") / "text.nt"
        export_ntriples(g, path)
        assert set(triples(load_ntriples(path))) == set(triples(g))
        assert _match(g, T.product_iri("P1"), T.HAS_BASIC_TYPE, text)

    @pytest.mark.parametrize("char", list(' "{}|^`\\') + ["\x01", "\t"])
    def test_iri_with_forbidden_character_rejected(self, tmp_path, char):
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
        path = tmp_path / "bad.nt"
        path.write_text(f'<urn:s> <urn:p> "ok" .\n<urn:s> <urn:q> {term} .\n')
        with pytest.raises(GraphParseError, match="line 2"):
            load_ntriples(path)

    def test_non_utf8_byte_is_named_by_line_and_file_offset(self, tmp_path):
        # Line 5,001 lies far past the first chunk the text decoder reads.
        lines = [f'<urn:s{i}> <urn:p> "v" .\n'.encode() for i in range(1, 6001)]
        lines[5000] = lines[5000].replace(b'"v"', b'"\xff"')
        path = tmp_path / "bad.nt"
        path.write_bytes(b"".join(lines))
        offset = sum(map(len, lines[:5000])) + lines[5000].index(b"\xff")
        with pytest.raises(GraphParseError) as raised:
            load_ntriples(path)
        assert str(raised.value) == (
            f"{path}: line 5001: not UTF-8 text: byte 0xff at offset {offset}"
        )

    @pytest.mark.parametrize("escape, char", [
        *((f"\\{name}", char) for name, char in T.ECHAR.items()),
        ("\\u00e9", "é"), ("\\U0001F600", "\U0001F600"),
    ])
    def test_each_string_escape_loads_and_round_trips(self, tmp_path, escape, char):
        g = _load(tmp_path, f'<urn:s> <urn:p> "<{escape}>" .')
        assert [o for _, _, o in triples(g)] == [f"<{char}>"]
        export_ntriples(g, tmp_path / "out.nt")
        assert triples(load_ntriples(tmp_path / "out.nt")) == triples(g)

    def test_unicode_escapes_in_literals(self, tmp_path):
        path = tmp_path / "uchar.nt"
        path.write_text('<urn:s> <urn:p> "\\u0041\\U0001F600 \\u00e9" .\n')
        (triple,) = triples(load_ntriples(path))
        assert triple[2] == "A\U0001F600 é"

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
        assert triples(load_ntriples(loose)) == triples(load_ntriples(canonical))


# Term texts the loader rejects: bad escapes, a literal outside its
# datatype's lexical form, an unknown datatype and malformed terms.
_BAD_TEXTS = ['"bad \\q"', '"\\uD800"', f'"1.5"{_INT}', '"1"^^<urn:unknown>',
              "<urn:o x>", '"x"@en', "_:b0", "", '"unclosed']
_SRC = Path(__file__).resolve().parent.parent / "src"


def _image_parts(path):
    """The (predicate id, count) pairs, the id columns (one list, in file
    order) and the term texts of ``path``'s image; its trailing CRC-32 must
    be that of the bytes before it."""
    raw = Path(f"{path}.img").read_bytes()
    assert int.from_bytes(raw[-4:], "little") == zlib.crc32(raw[:-4])
    header, body = raw[:-4].split(b"\n", 1)
    predicates = [tuple(map(int, field.split(b":"))) for field in header.split()[3:]]
    columns = 8 * sum(count for _, count in predicates)
    ids = list(struct.unpack(f"<{columns // 4}I", body[:columns]))
    texts = body[columns:].decode("utf-8").split("\n")[:-1]
    return predicates, ids, texts


def _write_image(path, predicates, ids, texts):
    """Write ``path``'s image from its parts, with the size and CRCs that
    match them and ``path``: an image made to pass the CRC checks. An id is
    written as a 4-byte little-endian int, so -1 is 0xffffffff."""
    nt = Path(path).read_bytes()
    counts = "".join(f" {p}:{count}" for p, count in predicates)
    image = (f"ltbp-store-image/2 {len(nt)} {zlib.crc32(nt):08x}{counts}\n".encode("ascii")
             + b"".join(struct.pack("<i" if i < 0 else "<I", i) for i in ids)
             + "".join(f"{text}\n" for text in texts).encode("utf-8"))
    Path(f"{path}.img").write_bytes(image + struct.pack("<I", zlib.crc32(image)))


def _write_v1_image(path):
    """Write ``path``'s image in the first layout, ``ltbp-store-image/1``,
    with all its CRCs right: the header also held the image's CRC-32, the
    term count and the byte lengths of the columns and of the texts."""
    nt = Path(path).read_bytes()
    predicates, ids, texts = _image_parts(path)
    columns = struct.pack(f"<{len(ids)}I", *ids)
    body = columns + "".join(f"{text}\n" for text in texts).encode("utf-8")
    counts = "".join(f" {p}:{count}" for p, count in predicates)

    def header(crc):
        return (f"ltbp-store-image/1 {len(nt)} {zlib.crc32(nt):08x} {crc:08x} "
                f"{len(texts)} {len(columns)} {len(body) - len(columns):020d}"
                f"{counts}\n").encode("ascii")

    crc = zlib.crc32(header(0), zlib.crc32(body))
    Path(f"{path}.img").write_bytes(header(crc) + body)


def _image_store(path):
    """The store of ``path`` read from its image, which must be accepted."""
    with open(f"{path}.img", "rb") as handle:
        return _store(_read_image(path, handle))


def _outcome(path):
    """What loading ``path`` gives: its store, or the GraphParseError text."""
    try:
        return _store(load_ntriples(path))
    except GraphParseError as exc:
        return str(exc)


class TestStoreImage:
    """``export_ntriples`` writes a store image beside ``graph.nt``, and
    ``load_ntriples`` reads it when it matches: the store must equal the one
    the text gives, and a stale, corrupt or missing image must change no
    answer."""

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        dataset = generate_synthetic(
            GeneratorConfig(seed=5, n_customers=2, n_orders=3, n_products=1))
        path = tmp_path_factory.mktemp("imaged") / "graph.nt"
        export_ntriples(build_graph(dataset, price_dataset(dataset, PricingConfig())),
                        path)
        return path

    @pytest.mark.parametrize("priced", [True, False], ids=["priced", "unpriced"])
    def test_image_store_equals_text_store_at_2000_orders(self, tmp_path, config,
                                                          priced):
        dataset, pricing = _seed_42_dataset(config)
        path = tmp_path / "graph.nt"
        export_ntriples(build_graph(dataset, pricing if priced else None, config), path)
        store = _image_store(path)
        assert store == _text_store(path)
        assert store[3] == (24_513 if priced else 20_453)  # less 2 per order, 1 per customer

    def test_image_store_equals_text_store_of_a_multi_valued_graph(self, tmp_path):
        source, path = tmp_path / "foreign.nt", tmp_path / "graph.nt"
        source.write_text("".join(f"{line}\n" for line, _ in _FOREIGN))
        export_ntriples(load_ntriples(source), path)
        assert _image_store(path) == _text_store(path)

    def test_image_layout(self, exported, tmp_path):
        """The header, the columns, the texts and the trailing CRC-32 are as
        documented: an image rebuilt from its parsed parts has the export's
        bytes."""
        path = tmp_path / "graph.nt"
        path.write_bytes(exported.read_bytes())
        _write_image(path, *_image_parts(exported))
        assert Path(f"{path}.img").read_bytes() == Path(f"{exported}.img").read_bytes()
        predicates, ids, texts = _image_parts(exported)
        assert len(ids) == 2 * sum(count for _, count in predicates)
        assert texts == list(load_ntriples(exported)._ids)

    def test_export_replaces_the_image_and_leaves_no_temporary_file(
            self, small_graph, exported, tmp_path):
        path = tmp_path / "graph.nt"
        export_ntriples(load_ntriples(exported), path)
        export_ntriples(small_graph, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.nt", "graph.nt.img"]
        assert _image_store(path) == _text_store(path)
        assert _image_store(path)[3] == len(small_graph)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corrupt_stale_or_missing_image_falls_back(self, exported,
                                                       tmp_path_factory, data):
        path = tmp_path_factory.mktemp("corrupt") / "graph.nt"
        image = Path(f"{path}.img")
        path.write_bytes(exported.read_bytes())
        raw = bytearray(Path(f"{exported}.img").read_bytes())
        kind = data.draw(st.sampled_from(["flip", "truncate", "edit", "missing"]))
        if kind == "flip":
            for _ in range(data.draw(st.integers(1, 3))):
                raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(
                    st.integers(1, 255))
            image.write_bytes(raw)
        elif kind == "truncate":
            image.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif kind == "edit":  # graph.nt changes, and keeps its size
            image.write_bytes(raw)
            nt = bytearray(path.read_bytes())
            at = data.draw(st.integers(0, len(nt) - 1))
            nt[at] = data.draw(st.sampled_from(b'aZ09 <>".\\#').filter(
                lambda byte: byte != nt[at]))
            path.write_bytes(nt)
        got = _outcome(path)
        if kind != "missing":
            with _image_hidden(path):
                assert got == _outcome(path)
        else:
            assert got == _outcome(exported) and not image.exists()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_hostile_image_with_matching_crcs_exits_2_or_falls_back(
            self, exported, tmp_path_factory, data):
        out = tmp_path_factory.mktemp("hostile")
        path, query = out / "graph.nt", out / "q.rq"
        path.write_bytes(exported.read_bytes())
        query.write_text("SELECT ?s ?p ?o WHERE { ?s ?p ?o }", encoding="utf-8")
        predicates, ids, texts = _image_parts(exported)
        n = len(texts)
        literals = [i for i, text in enumerate(texts) if text[0] == '"']
        kind = data.draw(st.sampled_from(
            ["negative", "past", "duplicate", "count", "literal", "predicate",
             "subject"]))
        if kind in ("negative", "past"):
            at = data.draw(st.integers(0, len(ids) - 1))
            ids[at] = (-data.draw(st.integers(1, 2 ** 31)) if kind == "negative"
                       else data.draw(st.integers(n, 2 ** 32 - 1)))
        elif kind == "duplicate":
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            texts[j] = texts[i]
        elif kind == "count":  # the columns and texts no longer split where written
            at = data.draw(st.integers(0, len(predicates) - 1))
            p, count = predicates[at]
            predicates[at] = (p, data.draw(st.integers(0, count + 3).filter(
                lambda c: c != count)))
        elif kind == "predicate":  # a literal in a predicate's place
            at = data.draw(st.integers(0, len(predicates) - 1))
            predicates[at] = (data.draw(st.sampled_from(literals)), predicates[at][1])
        elif kind == "subject":  # a literal in a subject column
            at = data.draw(st.integers(0, len(predicates) - 1))
            start = 2 * sum(count for _, count in predicates[:at])
            ids[start + data.draw(st.integers(0, predicates[at][1] - 1))] = (
                data.draw(st.sampled_from(literals)))
        else:
            texts[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(_BAD_TEXTS))
        _write_image(path, predicates, ids, texts)
        try:
            store = _store(load_ntriples(path))
        except GraphParseError as exc:
            # a changed count moves where the texts start, so their first
            # one reads as a bad term
            assert kind in ("literal", "predicate", "subject", "count")
            assert str(exc).startswith(f"{path}.img: ")
            expected = 2
        else:
            assert kind not in ("literal", "predicate", "subject")
            assert store == _text_store(path)
            expected = 0
        printed, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
            code = main(["query", "--graph", str(path), "--query", str(query)])
        assert code == expected, errors.getvalue()

    def test_literal_subject_in_an_image_is_a_parse_error(self, tmp_path):
        """No text gives a store with a literal subject, so an image that
        holds one is refused as the text would be, naming the image."""
        path, query = tmp_path / "graph.nt", tmp_path / "q.rq"
        path.write_text('<urn:a> <urn:p> "x" .\n<urn:b> <urn:p> "y" .\n',
                        encoding="utf-8")
        query.write_text("SELECT ?s WHERE { ?s <urn:p> ?o }", encoding="utf-8")
        export_ntriples(load_ntriples(path), path)
        predicates, ids, texts = _image_parts(path)
        assert predicates == [(1, 2)] and ids[1] == texts.index("<urn:b>")
        ids[1] = texts.index('"x"')  # the second line's subject
        _write_image(path, predicates, ids, texts)
        with pytest.raises(GraphParseError) as raised:
            load_ntriples(path)
        assert str(raised.value) == f"{path}.img: expected an IRI, got '\"x\"'"
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
            assert main(["query", "--graph", str(path), "--query", str(query)]) == 2
        assert str(raised.value) in errors.getvalue()

    @pytest.mark.parametrize("spoil, reason", [
        ("graph.nt grows", "size"),
        ("graph.nt edited", "CRC"),
        ("body flipped", "CRC"),
        ("predicate id changed", "CRC"),
        ("magic", "format"),
        ("v1 image", "format"),
        ("zero count", "format"),
        ("negative predicate id", "format"),
        ("predicate repeats", "format"),
        ("last text without its line feed", "format"),
        ("id past the texts", "ids"),
    ])
    def test_refused_image_logs_its_reason(self, small_graph, tmp_path, caplog,
                                           spoil, reason):
        path = tmp_path / "graph.nt"
        image = Path(f"{path}.img")
        export_ntriples(small_graph, path)
        if spoil == "graph.nt grows":
            path.write_text(path.read_text() + "# a comment\n")
        elif spoil == "graph.nt edited":
            path.write_bytes(path.read_bytes().replace(b'"PL-1"', b'"PL-2"', 1))
        elif spoil == "body flipped":  # the last text's line feed
            raw = image.read_bytes()
            image.write_bytes(raw[:-5] + b"\t" + raw[-4:])
        elif spoil == "predicate id changed":  # to another in-range id
            header, body = image.read_bytes().split(b"\n", 1)
            fields = header.split()
            p, count = fields[3].split(b":")
            fields[3] = b"%d:%s" % (int(p) + 1, count)
            image.write_bytes(b" ".join(fields) + b"\n" + body)
        elif spoil == "magic":
            image.write_bytes(image.read_bytes().replace(b"image/2", b"image/9", 1))
        elif spoil == "v1 image":  # as the first layout wrote it, CRCs and all
            _write_v1_image(path)
        elif spoil == "zero count":  # one more predicate, with no triples
            predicates, ids, texts = _image_parts(path)
            unused = next(i for i, text in enumerate(texts)
                          if text[0] == "<" and i not in dict(predicates))
            _write_image(path, [*predicates, (unused, 0)], ids, texts)
        elif spoil in ("negative predicate id", "predicate repeats"):  # the second
            predicates, ids, texts = _image_parts(path)
            p = -1 if spoil == "negative predicate id" else predicates[0][0]
            predicates[1] = (p, predicates[1][1])
            _write_image(path, predicates, ids, texts)
        elif spoil == "last text without its line feed":
            raw = image.read_bytes()[:-5]  # less the line feed and the CRC
            image.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
        else:
            predicates, ids, texts = _image_parts(path)
            ids[-1] = len(texts)
            _write_image(path, predicates, ids, texts)
        with caplog.at_level(logging.INFO, logger="ltbp.graph"):
            store = _store(load_ntriples(path))
        [record] = caplog.records
        assert record.getMessage().startswith(
            f"{image}: store image refused ({reason}: ")
        assert record.getMessage().endswith("; parsing the text")
        with _image_hidden(path):
            assert store == _store(load_ntriples(path))

    def test_stage_parses_the_text_when_an_image_text_is_not_utf8(
            self, small_graph, tmp_path, capsys, caplog):
        """The image's CRCs are right, so only the decode refuses it."""
        path, query = tmp_path / "graph.nt", tmp_path / "q.rq"
        export_ntriples(small_graph, path)
        image = Path(f"{path}.img")
        raw = image.read_bytes()[:-4].replace(b'\n"PL-1"\n', b'\n"PL-\xff"\n')
        image.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
        query.write_text("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }", encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="ltbp.graph"):
            assert main(["query", "--graph", str(path), "--query", str(query)]) == 0
        assert capsys.readouterr() == (f"n\n{len(small_graph)}\n", "")
        assert [r.getMessage() for r in caplog.records] == [
            f"{image}: store image refused (format: a term text is not UTF-8); "
            "parsing the text"]

    def test_load_logs_the_image_read_or_its_absence(self, small_graph, tmp_path,
                                                     caplog):
        path = tmp_path / "graph.nt"
        export_ntriples(small_graph, path)
        with caplog.at_level(logging.INFO, logger="ltbp.graph"):
            load_ntriples(path)
            with _image_hidden(path):
                load_ntriples(path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}.img: read the store image",
            f"{path}: no store image (No such file or directory); parsing the text",
        ]

    def test_verbose_stage_says_which_way_it_read_and_quiet_one_nothing(
            self, small_graph, tmp_path):
        path, query = tmp_path / "graph.nt", tmp_path / "q.rq"
        export_ntriples(small_graph, path)
        query.write_text("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }", encoding="utf-8")
        runs = [subprocess.run(
            [sys.executable, "-m", "ltbp", *flags, "query", "--graph", str(path),
             "--query", str(query)],
            env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True,
            text=True, timeout=60) for flags in ([], ["-v"])]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout == f"n\n{len(small_graph)}\n"
        assert runs[0].stderr == ""
        assert runs[1].stderr == f"INFO ltbp.graph: {path}.img: read the store image\n"

    def test_reading_an_image_imports_no_hashlib(self, small_graph, tmp_path):
        # hashlib maps OpenSSL's libcrypto into the stage process; the image
        # is checked with zlib's CRC-32, which every stage has loaded anyway.
        path = tmp_path / "graph.nt"
        export_ntriples(small_graph, path)
        code = ("import logging, sys; logging.basicConfig(level=logging.INFO); "
                "from ltbp.graph import load_ntriples; load_ntriples(sys.argv[1]); "
                "print(sorted(m for m in sys.modules if 'hashlib' in m))")
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, str(path)],
            env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
        assert "read the store image" in done.stderr


_DEC, _DATE = f"^^<{XSD}decimal>", f"^^<{XSD}date>"
# Terms to put into a line of an exported graph.nt: escapes good and bad,
# lexical forms per datatype, unknown or broken datatypes, oversized
# integers, and terms no position accepts.
_MUTANT_TERMS = [
    '"a\\tb\\"c\\\\d\\u00e9\\U0001F600"', '"\\n\\r\\u0085\\u2028"', '"\\u0000"',
    '"bad \\q"', '"\\uD800"', '"\\u12"', '"\\U00110000"', '"ends in \\"', '"raw " quote"',
    f'"007"{_INT}', f'"-0"{_INT}', f'"+5"{_INT}', f'"1.5"{_INT}', f'"{"9" * 4300}"{_INT}',
    f'"{"9" * 5000}"{_INT}', f'"{"0" * 4400}1"{_INT}', f'"+1.0"{_DEC}', f'".5"{_DEC}',
    f'"1."{_DEC}', f'"-0.0"{_DEC}', f'"1e3"{_DEC}', f'"{"1" * 5000}.5"{_DEC}',
    f'"2020-02-29"{_DATE}', f'"2021-02-29"{_DATE}', f'"0000-01-01"{_DATE}',
    '"1"^^<urn:unknown>', f'"1"^^<{XSD}integer', '"x"^^', '"x"@en', '_:b0',
    "<urn:o>", "<urn:o x>", "<>", "urn:o",
]


@st.composite
def _mutated_lines(draw, lines, pool=tuple(_MUTANT_TERMS),
                   places=(2, 2, 2, 3, 3, 0, 1)):
    """Lines of an exported graph.nt with a few of their terms replaced by
    terms from ``pool`` and the whitespace around a few of their terms
    changed. ``places`` are the subject (0), predicate (1) and object (2)
    positions to replace, and whitespace (3), to draw from."""
    terms = [[s, p, rest[:-2]] for s, p, rest in (line.split(" ", 2) for line in lines)]
    gaps = [["", " ", " ", " ", ""] for _ in lines]  # before each term, ".", after
    blank, space = st.text(" \t", max_size=2), st.text(" \t", min_size=1, max_size=3)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        where = draw(st.sampled_from(places))
        if where == 3:
            gaps[i] = [draw(blank), draw(space), draw(space), draw(blank), draw(blank)]
        else:
            terms[i][where] = draw(st.sampled_from(pool))
    return ["".join(map("".join, zip(gap, t + ["."]))) + gap[-1]
            for t, gap in zip(terms, gaps)]


# Object terms for the query-cell property: each kind's edge forms, strings
# that need escapes or look like another kind, and the empty string. No
# integer past Python's 4,300-digit int-from-text limit: every reader refuses
# one by design, and test_query_prints_a_sum_past_the_int_text_limit covers
# how a SUM past it prints.
_NUMBERS = [
    f'"007"{_INT}', f'"-0"{_INT}', f'"3"{_INT}', f'"0.0000001"{_DEC}',
    f'"0.00000010"{_DEC}', f'"1."{_DEC}', f'"-0.0"{_DEC}', f'".5"{_DEC}',
    f'"+1.0"{_DEC}', f'"{"1" * 40}.5"{_DEC}',
]
_CELL_TERMS = (*_NUMBERS, '""', '"a\\tb\\"c\\\\d\\u00e9"', '"\\n\\r"', '"5"',
               '"<urn:o>"', f'"2020-02-29"{_DATE}', f'"0001-01-01"{_DATE}', "<urn:o>")
# Variables over every term, and aggregates over the numbers on <urn:n>;
# the last query aggregates no rows, so its MIN, MAX and AVG are unbound.
_CELL_QUERIES = [
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?o",
    "SELECT ?v (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) WHERE { ?s <urn:n> ?v }"
    " GROUP BY ?v",
    "SELECT (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)"
    " (COUNT(?v) AS ?n) WHERE { ?s <urn:n> ?v }",
    "SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (AVG(?v) AS ?avg)"
    " WHERE { ?s <urn:none> ?v }",
]


def _read_cell(cell: str, kind: type):
    """The value an ``ltbp query`` cell of a ``kind`` value reads back to."""
    if cell == "":
        return None
    if kind is Iri:
        assert cell[0] == "<" and cell[-1] == ">", cell
        return Iri(cell[1:-1])
    if kind is str:
        assert len(cell) >= 2 and cell[0] == cell[-1] == '"', cell
        return T.unescape(cell[1:-1])
    return T.read(kind, cell)


def _term_key(value):
    """A value's identity as a term, its N-Triples text, in which ``1.0`` and
    ``1.00`` differ; None for an unbound value."""
    return None if value is None else _nt_term(value)


class TestGraphFileProperty:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        dataset = generate_synthetic(
            GeneratorConfig(seed=5, n_customers=2, n_orders=3, n_products=1))
        path = tmp_path_factory.mktemp("exported") / "graph.nt"
        export_ntriples(build_graph(dataset, price_dataset(dataset, PricingConfig())),
                        path)
        return path.read_text(encoding="utf-8").splitlines()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_file_round_trips_or_names_a_line(self, exported, tmp_path_factory,
                                                      data):
        lines = data.draw(_mutated_lines(exported))
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        bom = data.draw(st.sampled_from(["", "", "", "\ufeff"]))
        out = tmp_path_factory.mktemp("mutated")
        (out / "graph.nt").write_bytes((bom + end.join(lines) + end).encode("utf-8"))
        try:
            g = load_ntriples(out / "graph.nt")
        except GraphParseError as exc:
            named = re.match(r"line (\d+): ", str(exc))
            assert named and 1 <= int(named.group(1)) <= len(lines), str(exc)[:200]
            return
        export_ntriples(g, out / "first.nt")
        assert _image_store(out / "first.nt") == _text_store(out / "first.nt")
        export_ntriples(load_ntriples(out / "first.nt"), out / "second.nt")
        assert (out / "second.nt").read_bytes() == (out / "first.nt").read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_query_cells_read_back_as_the_result_values(self, exported,
                                                         tmp_path_factory, data):
        lines = data.draw(_mutated_lines(exported, _CELL_TERMS, places=(2, 3)))
        numbers = data.draw(st.lists(st.sampled_from(_NUMBERS), max_size=6))
        lines += [f"<urn:s{i}> <urn:n> {term} ." for i, term in enumerate(numbers)]
        out = tmp_path_factory.mktemp("cells")
        (out / "graph.nt").write_text("".join(f"{line}\n" for line in lines),
                                      encoding="utf-8")
        g = load_ntriples(out / "graph.nt")
        for query in _CELL_QUERIES:
            (out / "q.rq").write_text(query, encoding="utf-8")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(["query", "--graph", str(out / "graph.nt"),
                             "--query", str(out / "q.rq")]) == 0
            header, *rows = printed.getvalue().split("\n")[:-1]
            table = evaluate(g, parse_query(query))
            assert header.split("\t") == table.columns
            cells = [row.split("\t") for row in rows]
            assert [len(row) for row in cells] == [len(row) for row in table.rows]
            for column, values in zip(zip(*cells), zip(*table.rows)):
                values_by_cell = {}  # distinct terms must print distinctly
                for cell, value in zip(column, values):
                    term = _term_key(value)
                    assert _term_key(_read_cell(cell, type(value))) == term, cell
                    other = values_by_cell.setdefault(cell, value)
                    # but an integer and a decimal without a point print alike
                    assert (_term_key(other) == term
                            or {type(other), type(value)} == {int, Decimal}), cell
