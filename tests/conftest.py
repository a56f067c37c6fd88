from datetime import date, timedelta
from decimal import Decimal

import pytest

from ltbp.graph import build_graph
from ltbp.ingest import Dataset
from ltbp.model import AccountClass, Customer, Order, PricingConfig, Product
from ltbp.pricing import price_dataset


def make_order(
    number,
    customer,
    product,
    start,
    requested,
    confirmed,
    standard,
    price="100.00",
    quantity=1,
):
    """Order whose lead times are the given whole-day offsets from start."""
    return Order(
        order_number=number,
        customer_code=customer,
        product_number=product,
        quantity=quantity,
        original_price=Decimal(price),
        order_date=start,
        customer_request_date=start + timedelta(days=requested),
        customer_delivery_date=start + timedelta(days=confirmed),
        standard_delivery_date=start + timedelta(days=standard),
    )


@pytest.fixture
def config():
    return PricingConfig()


@pytest.fixture
def small_dataset():
    """Three customers across all classes, six orders with known behavior.

    C001 (Key) orders at a constant request ratio -> premium 1.
    C002 (Regular) alternates ratios 0.4 / 0.6 -> rsd = rmd = 0.2 -> 1.38.
    C003 (Others) has one eligible and one late-requested order -> premium 1.
    """
    customers = (
        Customer("C001", AccountClass.KEY, Decimal("50000000.00"), "EMEA"),
        Customer("C002", AccountClass.REGULAR, Decimal("7000000.00"), None),
        Customer("C003", AccountClass.OTHERS, Decimal("1000000.00"), "APAC"),
    )
    products = (
        Product("P01", "BT-A", "PL-1"),
        Product("P02", "BT-B", "PL-1"),
    )
    orders = (
        make_order("O1", "C001", "P01", date(2020, 1, 1), 10, 5, 20, "100.00"),
        make_order("O2", "C001", "P02", date(2020, 2, 1), 10, 20, 20, "200.00"),
        make_order("O3", "C002", "P01", date(2020, 1, 15), 8, 10, 20, "300.00"),
        make_order("O4", "C002", "P02", date(2020, 3, 1), 12, 20, 20, "400.00"),
        make_order("O5", "C003", "P01", date(2020, 2, 10), 5, 8, 15, "150.00"),
        make_order("O6", "C003", "P02", date(2020, 4, 1), 25, 10, 20, "250.00"),
    )
    return Dataset(customers, products, orders)


@pytest.fixture
def small_pricing(small_dataset, config):
    return price_dataset(small_dataset, config)


@pytest.fixture
def small_graph(small_dataset, small_pricing, config):
    return build_graph(small_dataset, small_pricing, config)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid or rep.when != "call":
                continue
            name = nodeid.split("::", 1)[1]
            lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in sorted(lines):
        terminalreporter.write_line(f"{verdict}  {name}")
