import tracemalloc
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from ltbp.ingest import (
    _LONGEST_LEAD,
    _REVENUE_CENTS,
    DanglingReference,
    DuplicateIdentifier,
    GeneratorConfig,
    HeaderMismatch,
    MalformedRow,
    NonPositiveSdt,
    UnknownClassLabel,
    generate_synthetic,
    load_customers,
    load_dataset,
    load_orders,
    load_products,
    write_dataset,
    write_manifest,
)
from ltbp.model import (
    AccountClass, Customer, Product, class_for_revenue, lead_days, rm_eligible,
)
from tests.oracles import reference_generate

CUSTOMER_HEADER = "customer_code,account_class,annual_revenue,region\n"
PRODUCT_HEADER = "product_number,basic_type,product_line\n"
ORDER_HEADER = (
    "order_number,customer_code,product_number,quantity,original_price,"
    "order_date,customer_request_date,customer_delivery_date,"
    "standard_delivery_date\n"
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def customer_file(tmp_path):
    return write(
        tmp_path / "customers.csv",
        CUSTOMER_HEADER + "C001,Key,50000000,EMEA\nC002,Others,100000,\n",
    )


@pytest.fixture
def product_file(tmp_path):
    return write(tmp_path / "products.csv", PRODUCT_HEADER + "P01,BT-A,PL-1\n")


def check_bad_customer_row(tmp_path, row, column):
    """The row after a good one fails at ``column``; with issues it is skipped."""
    path = write(
        tmp_path / "c.csv", CUSTOMER_HEADER + "C001,Key,50000000,\n" + row + "\n"
    )
    with pytest.raises(MalformedRow) as excinfo:
        load_customers(path)
    assert (excinfo.value.line, excinfo.value.column) == (3, column)
    issues = []
    assert [c.customer_code for c in load_customers(path, issues=issues)] == ["C001"]
    assert [(i.line, i.column) for i in issues] == [(3, column)]


class TestLoadCustomers:
    def test_field_by_field_parse(self, customer_file):
        customers = load_customers(customer_file)
        first = customers[0]
        assert first.customer_code == "C001"
        assert first.account_class is AccountClass.KEY
        assert first.annual_revenue == Decimal("50000000.00")
        assert first.region == "EMEA"
        assert customers[1].region is None

    def test_unknown_class_label(self, tmp_path):
        path = write(
            tmp_path / "c.csv", CUSTOMER_HEADER + "C001,Platinum,1000,EMEA\n"
        )
        with pytest.raises(UnknownClassLabel) as excinfo:
            load_customers(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == "account_class"

    def test_rows_after_a_quoted_line_break_name_their_file_line(self, tmp_path):
        text = CUSTOMER_HEADER + 'C001,Key,50000000,"EM\nEA"\nC002,Platinum,1000,\n'
        path = write(tmp_path / "c.csv", text)
        with pytest.raises(UnknownClassLabel) as excinfo:
            load_customers(path)
        assert excinfo.value.line == 4
        write(path, text + "\nC003,Key\n")  # a blank line 5, then a short row
        issues = []
        with pytest.raises(MalformedRow) as excinfo:
            load_customers(path, issues=issues)
        assert excinfo.value.line == 6
        assert [(i.line, i.column) for i in issues] == [(4, "account_class")]

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path / "c.csv", CUSTOMER_HEADER)
        assert load_customers(path) == []

    def test_duplicate_code_rejected(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            CUSTOMER_HEADER + "C001,Key,50000000,\nC001,Key,50000000,\n",
        )
        with pytest.raises(DuplicateIdentifier):
            load_customers(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_customers(tmp_path / "absent.csv")

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path / "c.csv", "a,b\n1,2\n")
        with pytest.raises(HeaderMismatch):
            load_customers(path)

    def test_skip_invalid_collects_issues(self, tmp_path):
        path = write(
            tmp_path / "c.csv",
            CUSTOMER_HEADER
            + "C001,Key,50000000,\nC002,Platinum,10,\nC003,Others,abc,\n",
        )
        issues = []
        customers = load_customers(path, issues=issues)
        assert [c.customer_code for c in customers] == ["C001"]
        assert len(issues) == 2

    @pytest.mark.parametrize("row, column", [
        ("C009,Key,NaN,EMEA", "annual_revenue"),
        ("C009,Key,Infinity,EMEA", "annual_revenue"),
        ("C009,Key,-1,EMEA", "annual_revenue"),
        (",Key,50000000,EMEA", "customer_code"),
        ("C009,Key,5e7,EMEA", "annual_revenue"),
        ("C009,Key, 50000000,EMEA", "annual_revenue"),
    ])
    def test_bad_row_names_its_column_and_is_skippable(self, tmp_path, row, column):
        check_bad_customer_row(tmp_path, row, column)

    def test_revenue_over_bound_is_skippable(self, tmp_path):
        check_bad_customer_row(tmp_path, "C009,Key,10000000000.00,EMEA",
                               "annual_revenue")

    def test_class_revenue_mismatch_warns_but_keeps_declared(self, tmp_path, caplog):
        path = write(tmp_path / "c.csv", CUSTOMER_HEADER + "C001,Key,1000,\n")
        with caplog.at_level("WARNING"):
            customers = load_customers(path)
        assert customers[0].account_class is AccountClass.KEY
        assert any("does not match revenue" in r.message for r in caplog.records)


class TestLoadProducts:
    def test_empty_product_number_names_its_column(self, tmp_path):
        path = write(tmp_path / "p.csv", PRODUCT_HEADER + "P01,BT-A,PL-1\n,BT-B,PL-1\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_products(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, "product_number")
        issues = []
        assert [p.product_number for p in load_products(path, issues=issues)] == ["P01"]
        assert len(issues) == 1


GOOD_ORDER = "O1,C001,P01,5,123.45,2020-01-01,2020-01-11,2020-01-06,2020-01-21"


def check_bad_order_cell(customer_file, product_file, tmp_path, column, value,
                         error):
    """An order after a good one with ``value`` at ``column`` fails there as
    ``error``; with issues it is skipped."""
    customers = load_customers(customer_file)
    products = load_products(product_file)
    cells = GOOD_ORDER.replace("O1,", "O2,", 1).split(",")
    cells[ORDER_HEADER.strip().split(",").index(column)] = value
    path = write(
        tmp_path / "orders.csv",
        ORDER_HEADER + GOOD_ORDER + "\n" + ",".join(cells) + "\n",
    )
    with pytest.raises(error) as excinfo:
        load_orders(path, customers, products)
    assert (excinfo.value.line, excinfo.value.column) == (3, column)
    issues = []
    orders = load_orders(path, customers, products, issues=issues)
    assert [o.order_number for o in orders] == ["O1"]
    assert [(type(i), i.line, i.column) for i in issues] == [(error, 3, column)]


class TestLoadOrders:
    def orders_text(self, row):
        return ORDER_HEADER + row + "\n"

    def test_valid_row(self, customer_file, product_file, tmp_path):
        customers = load_customers(customer_file)
        products = load_products(product_file)
        path = write(
            tmp_path / "orders.csv",
            self.orders_text(
                "O1,C001,P01,5,123.45,2020-01-01,2020-01-11,2020-01-06,2020-01-21"
            ),
        )
        (order,) = load_orders(path, customers, products)
        assert order.quantity == 5
        assert order.original_price == Decimal("123.45")
        assert order.order_date == date(2020, 1, 1)
        assert lead_days(order) == (10, 5, 20)

    def test_dangling_customer(self, customer_file, product_file, tmp_path):
        customers = load_customers(customer_file)
        products = load_products(product_file)
        path = write(
            tmp_path / "orders.csv",
            self.orders_text(
                "O1,NOPE,P01,5,10.00,2020-01-01,2020-01-11,2020-01-06,2020-01-21"
            ),
        )
        with pytest.raises(DanglingReference):
            load_orders(path, customers, products)

    def test_standard_date_equal_to_order_date(
        self, customer_file, product_file, tmp_path
    ):
        customers = load_customers(customer_file)
        products = load_products(product_file)
        path = write(
            tmp_path / "orders.csv",
            self.orders_text(
                "O1,C001,P01,5,10.00,2020-01-01,2020-01-11,2020-01-06,2020-01-01"
            ),
        )
        with pytest.raises(NonPositiveSdt):
            load_orders(path, customers, products)

    @pytest.mark.parametrize("column, value, error", [
        ("order_number", "", MalformedRow),
        ("quantity", "0", MalformedRow),
        ("quantity", "five", MalformedRow),
        ("original_price", "NaN", MalformedRow),
        ("original_price", "0.00", MalformedRow),
        ("original_price", "abc", MalformedRow),
        ("order_date", "2020-02-30", MalformedRow),
        ("customer_request_date", "2019-12-31", MalformedRow),
        ("customer_delivery_date", "2019-12-31", MalformedRow),
        ("customer_delivery_date", "2020-01-01", MalformedRow),  # same day
        ("standard_delivery_date", "2019-12-31", NonPositiveSdt),
    ])
    def test_bad_cell_names_its_column_and_is_skippable(
        self, customer_file, product_file, tmp_path, column, value, error
    ):
        check_bad_order_cell(customer_file, product_file, tmp_path, column, value,
                             error)

    @pytest.mark.parametrize("column, value", [
        ("original_price", "10000000000.00"),
        ("original_price", "99999999999999999999999999.99"),
        ("quantity", "1_000"),
        ("quantity", " 12"),
        ("quantity", "١_٢"),  # Arabic-Indic 1_2
        ("original_price", " 12.5 "),
        ("original_price", "1_000.50"),
        ("original_price", "1e3"),
        ("original_price", "١٢"),  # Arabic-Indic 12
        ("order_date", "20190716"),
        ("standard_delivery_date", "2030-W01-1"),
    ])
    def test_over_bound_or_loose_cell_is_skippable(
        self, customer_file, product_file, tmp_path, column, value
    ):
        check_bad_order_cell(customer_file, product_file, tmp_path, column, value,
                             MalformedRow)


@pytest.mark.parametrize("header, first, repeat, column", [
    (CUSTOMER_HEADER, "C001,Key,50000000,", "C001,Platinum,abc,", "customer_code"),
    (PRODUCT_HEADER, "P01,BT-A,PL-1", "P01,BT-B,PL-2", "product_number"),
    (ORDER_HEADER, GOOD_ORDER, "O1,NOPE,P404,0,abc,x,x,x,x", "order_number"),
], ids=["customers", "products", "orders"])
def test_a_repeated_id_is_a_duplicate_whatever_else_is_wrong(
    customer_file, product_file, tmp_path, header, first, repeat, column
):
    def load(path, **kwargs):
        if header == CUSTOMER_HEADER:
            return load_customers(path, **kwargs)
        if header == PRODUCT_HEADER:
            return load_products(path, **kwargs)
        customers, products = load_customers(customer_file), load_products(product_file)
        return load_orders(path, customers, products, **kwargs)

    path = write(tmp_path / "rows.csv", header + first + "\n" + repeat + "\n")
    with pytest.raises(DuplicateIdentifier) as excinfo:
        load(path)
    assert (excinfo.value.line, excinfo.value.column) == (3, column)
    issues = []
    assert len(load(path, issues=issues)) == 1
    assert [(type(i), i.line, i.column) for i in issues] == [
        (DuplicateIdentifier, 3, column)]


_CUSTOMERS = (Customer("C001", AccountClass.KEY, Decimal("50000000.00")),)
_PRODUCTS = (Product("P01", "BT-A", "PL-1"),)


def priced_rows(prices, first=1):
    """orders.csv text with one order per price text, each otherwise
    ``GOOD_ORDER``. Order O<n> is on file line n + 1: blank lines, which the
    loader skips, stand in for the orders before ``first``."""
    cells = GOOD_ORDER.split(",")
    return ORDER_HEADER + "\n" * (first - 1) + "".join(
        ",".join([f"O{n}", *cells[1:4], price, *cells[5:]]) + "\n"
        for n, price in enumerate(prices, start=first)
    )


def load_priced(path, prices, first=1):
    """The orders and the skipped rows' (type, line, column, message) of
    ``priced_rows(prices, first)`` loaded from ``path`` in skip mode."""
    issues = []
    orders = load_orders(write(path, priced_rows(prices, first)), _CUSTOMERS,
                         _PRODUCTS, issues=issues)
    return orders, [(type(i), i.line, i.column, str(i)) for i in issues]


class TestSharedPrices:
    def test_equal_texts_share_one_decimal(self, tmp_path):
        orders, issues = load_priced(tmp_path / "orders.csv",
                                     ["5.00", "5", "5.00", "5.0", "5", "5.0"])
        assert not issues
        prices = [o.original_price for o in orders]
        assert all(str(p) == "5.00" for p in prices)
        assert prices[0] is prices[2] and prices[1] is prices[4]
        assert prices[3] is prices[5]
        # 5, 5.0 and 5.00 are three texts, each parsed on its own.
        assert len({id(p) for p in prices}) == 3

    def test_a_repeated_bad_text_is_reported_on_every_row(self, tmp_path):
        _, issues = load_priced(tmp_path / "orders.csv", [
            "abc", "12.00", "abc", "0.00", "0.00", "-5.00", "-5.00", "abc",
        ])
        assert [(kind, line, column) for kind, line, column, _ in issues] == [
            (MalformedRow, line, "original_price") for line in (2, 4, 5, 6, 7, 8, 9)
        ]
        assert [message.split(": ", 1)[1] for *_, message in issues] == [
            "not a number: 'abc'", "not a number: 'abc'",
            "order O4: original_price must be > 0",
            "order O5: original_price must be > 0",
            "order O6: original_price must be > 0",
            "order O7: original_price must be > 0", "not a number: 'abc'",
        ]

    @settings(max_examples=40, deadline=None)
    @given(prices=st.lists(st.sampled_from([
        "5", "5.0", "5.00", "0.00", "0.001", "-5.00", "12.345", "12.355", "abc",
        "", "NaN", "1e3", "2020-01-01", "9999999999.99", "10000000000.00",
        "99999999999999999999999999.99",
    ]), min_size=1, max_size=12))
    def test_a_shared_text_reads_as_each_row_alone(self, tmp_path_factory, prices):
        out = tmp_path_factory.mktemp("prices")
        orders, issues = load_priced(out / "all.csv", prices)
        alone_orders, alone_issues = [], []
        for n, price in enumerate(prices, start=1):
            one, errors = load_priced(out / "one.csv", [price], first=n)
            alone_orders += one
            alone_issues += errors
        assert orders == alone_orders
        assert [str(o.original_price) for o in orders] == [
            str(o.original_price) for o in alone_orders]
        assert issues == alone_issues

    def test_retains_at_most_184_bytes_per_order(self, tmp_path):
        # 2,000 orders over 50 price texts retain 179 bytes each: the order,
        # its number and its list entry. A Decimal per order (104 bytes)
        # would add to that.
        prices = [f"{10 + i % 50}.25" for i in range(2_000)]
        path = write(tmp_path / "orders.csv", priced_rows(prices))
        tracemalloc.start()
        try:
            orders = load_orders(path, _CUSTOMERS, _PRODUCTS)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / len(orders) <= 184
        assert len({id(o.original_price) for o in orders}) == 50


class TestRoundTrip:
    def test_write_then_load_is_identity(self, small_dataset, tmp_path):
        write_dataset(small_dataset, tmp_path)
        reloaded = load_dataset(
            tmp_path / "orders.csv",
            tmp_path / "customers.csv",
            tmp_path / "products.csv",
        )
        assert reloaded == small_dataset

    def test_generated_dataset_round_trips(self, tmp_path):
        dataset = generate_synthetic(
            GeneratorConfig(seed=7, n_customers=12, n_orders=60, n_products=4)
        )
        write_dataset(dataset, tmp_path)
        reloaded = load_dataset(
            tmp_path / "orders.csv",
            tmp_path / "customers.csv",
            tmp_path / "products.csv",
        )
        assert reloaded == dataset


# The last end date a generator span may have.
_LAST_END = date.max - timedelta(days=_LONGEST_LEAD)


class TestGenerator:
    @pytest.mark.parametrize("account_class", list(AccountClass))
    def test_revenue_range_ends_fall_in_their_class(self, account_class):
        low, high = _REVENUE_CENTS[account_class]
        assert low < high
        for cents in (low, high):
            revenue = Decimal(cents).scaleb(-2)
            assert class_for_revenue(revenue) is account_class, revenue

    def test_equal_seeds_equal_datasets(self):
        config = GeneratorConfig(seed=42, n_customers=15, n_orders=120, n_products=4)
        assert generate_synthetic(config) == generate_synthetic(config)

    def test_different_seeds_differ_in_order_numbers(self):
        a = generate_synthetic(GeneratorConfig(seed=1, n_customers=5, n_orders=30))
        b = generate_synthetic(GeneratorConfig(seed=2, n_customers=5, n_orders=30))
        assert [o.order_number for o in a.orders] != [o.order_number for o in b.orders]

    def test_counts_match_config(self):
        config = GeneratorConfig(seed=3, n_customers=23, n_orders=111, n_products=7)
        dataset = generate_synthetic(config)
        assert len(dataset.customers) == 23
        assert len(dataset.orders) == 111
        assert len(dataset.products) == 7

    def test_invariants_hold(self, tmp_path):
        dataset = generate_synthetic(
            GeneratorConfig(seed=11, n_customers=30, n_orders=400)
        )
        write_dataset(dataset, tmp_path)
        # The loader rejects duplicate ids and dangling references.
        reloaded = load_dataset(
            tmp_path / "orders.csv",
            tmp_path / "customers.csv",
            tmp_path / "products.csv",
        )
        assert reloaded == dataset
        for order in dataset.orders:
            _, confirmed, standard = lead_days(order)
            assert standard > 0 and confirmed >= 1

    def test_one_date_object_per_distinct_date(self):
        dataset = generate_synthetic(GeneratorConfig(seed=5, n_orders=3000))
        days = [day for o in dataset.orders
                for day in (o.order_date, o.customer_request_date,
                            o.customer_delivery_date, o.standard_delivery_date)]
        assert len({id(day) for day in days}) == len(set(days)) < len(days)

    def test_class_fractions_ordered(self):
        dataset = generate_synthetic(GeneratorConfig(seed=42, n_orders=6000))
        totals = {cls: 0 for cls in AccountClass}
        eligible = {cls: 0 for cls in AccountClass}
        class_of = {c.customer_code: c.account_class for c in dataset.customers}
        for order in dataset.orders:
            cls = class_of[order.customer_code]
            totals[cls] += 1
            requested, _, standard = lead_days(order)
            if rm_eligible(requested, standard):
                eligible[cls] += 1
        fraction = {cls: eligible[cls] / totals[cls] for cls in AccountClass}
        assert (
            fraction[AccountClass.OTHERS]
            >= fraction[AccountClass.REGULAR]
            >= fraction[AccountClass.KEY]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n_customers=st.integers(1, 200),
        n_products=st.integers(1, 30),
        n_orders=st.integers(1, 3000),
        span=st.one_of(
            st.just(GeneratorConfig.date_span),
            st.dates(max_value=_LAST_END).map(lambda d: (d, d)),
            st.integers(0, 2000).map(
                lambda days: (_LAST_END - timedelta(days=days), _LAST_END)),
        ),
    )
    @example(seed=0, n_customers=1, n_products=1, n_orders=1,
             span=(_LAST_END, _LAST_END))
    def test_draws_match_the_library_generator(
            self, seed, n_customers, n_products, n_orders, span):
        config = GeneratorConfig(seed, n_customers, n_orders, n_products, span)
        assert generate_synthetic(config) == reference_generate(config)

    def test_manifest_written(self, tmp_path):
        config = GeneratorConfig(seed=9, n_customers=5, n_orders=10)
        write_manifest(config, tmp_path / "manifest.json")
        text = (tmp_path / "manifest.json").read_text()
        assert '"seed": 9' in text
        assert '"Key"' in text
