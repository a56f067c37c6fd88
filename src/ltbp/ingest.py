"""Dataset loading, writing, and seeded synthetic generation.

Input files are plain CSVs with fixed headers and ISO-8601 dates:

    customers.csv  customer_code,account_class,annual_revenue,region
    products.csv   product_number,basic_type,product_line
    orders.csv     order_number,customer_code,product_number,quantity,
                   original_price,order_date,customer_request_date,
                   customer_delivery_date,standard_delivery_date

A malformed row aborts the load by default; with ``skip_invalid`` the row is
recorded as an issue and the load continues. The generator is fully
deterministic for a fixed seed and writes the three CSVs plus a
``manifest.json`` recording the seed and configuration.
"""

from __future__ import annotations

import csv
import json
import logging
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .model import (
    AccountClass,
    Customer,
    Order,
    Product,
    class_matches_revenue,
    to_money,
)

log = logging.getLogger(__name__)

CUSTOMERS_HEADER = ["customer_code", "account_class", "annual_revenue", "region"]
PRODUCTS_HEADER = ["product_number", "basic_type", "product_line"]
ORDERS_HEADER = [
    "order_number",
    "customer_code",
    "product_number",
    "quantity",
    "original_price",
    "order_date",
    "customer_request_date",
    "customer_delivery_date",
    "standard_delivery_date",
]


class LoadError(Exception):
    pass


class HeaderMismatch(LoadError):
    pass


class RowError(LoadError):
    """A rejected row; carries the 1-based file line and offending column."""

    def __init__(self, line: int, column: str, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MalformedRow(RowError):
    pass


class UnknownClassLabel(RowError):
    pass


class DuplicateIdentifier(RowError):
    pass


class DanglingReference(RowError):
    pass


class NonPositiveSdt(RowError):
    pass


@dataclass(frozen=True)
class Dataset:
    customers: tuple[Customer, ...]
    products: tuple[Product, ...]
    orders: tuple[Order, ...]


def validate_dataset(dataset: Dataset) -> None:
    """Check identifier uniqueness and referential integrity."""
    codes = [c.customer_code for c in dataset.customers]
    if len(set(codes)) != len(codes):
        raise LoadError("duplicate customer_code in dataset")
    numbers = [p.product_number for p in dataset.products]
    if len(set(numbers)) != len(numbers):
        raise LoadError("duplicate product_number in dataset")
    order_numbers = [o.order_number for o in dataset.orders]
    if len(set(order_numbers)) != len(order_numbers):
        raise LoadError("duplicate order_number in dataset")
    code_set, number_set = set(codes), set(numbers)
    for order in dataset.orders:
        if order.customer_code not in code_set:
            raise LoadError(
                f"order {order.order_number} references unknown customer "
                f"{order.customer_code}"
            )
        if order.product_number not in number_set:
            raise LoadError(
                f"order {order.order_number} references unknown product "
                f"{order.product_number}"
            )


# --- loading -----------------------------------------------------------------


def _read_rows(path, header: list[str]):
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader)
        except StopIteration:
            raise HeaderMismatch(f"{path}: empty file, expected header {header}")
        if found != header:
            raise HeaderMismatch(f"{path}: header {found} does not match {header}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(
                    line, header[0], f"expected {len(header)} fields, got {len(row)}"
                )
            yield line, row


def _handle(error: RowError, skip_invalid: bool, issues: Optional[list]) -> None:
    if not skip_invalid:
        raise error
    log.warning("skipping row: %s", error)
    if issues is not None:
        issues.append(error)


def load_customers(
    path, *, skip_invalid: bool = False, issues: Optional[list] = None
) -> list[Customer]:
    customers = []
    seen = set()
    for line, row in _read_rows(path, CUSTOMERS_HEADER):
        code, label, revenue_text, region = row
        try:
            account_class = AccountClass.from_label(label)
        except ValueError as exc:
            _handle(UnknownClassLabel(line, "account_class", str(exc)),
                    skip_invalid, issues)
            continue
        try:
            revenue = to_money(revenue_text)
        except InvalidOperation:
            _handle(
                MalformedRow(line, "annual_revenue", f"not a number: {revenue_text!r}"),
                skip_invalid, issues,
            )
            continue
        try:
            customer = Customer(code, account_class, revenue, region or None)
        except ValueError as exc:
            _handle(MalformedRow(line, "annual_revenue", str(exc)),
                    skip_invalid, issues)
            continue
        if code in seen:
            _handle(
                DuplicateIdentifier(line, "customer_code", f"duplicate {code!r}"),
                skip_invalid, issues,
            )
            continue
        if not class_matches_revenue(customer):
            log.warning(
                "customer %s: declared class %s does not match revenue %s; "
                "keeping declared class",
                code, account_class.value, revenue,
            )
        seen.add(code)
        customers.append(customer)
    return customers


def load_products(
    path, *, skip_invalid: bool = False, issues: Optional[list] = None
) -> list[Product]:
    products = []
    seen = set()
    for line, row in _read_rows(path, PRODUCTS_HEADER):
        number, basic_type, product_line = row
        if number in seen:
            _handle(
                DuplicateIdentifier(line, "product_number", f"duplicate {number!r}"),
                skip_invalid, issues,
            )
            continue
        try:
            product = Product(number, basic_type, product_line)
        except ValueError as exc:
            _handle(MalformedRow(line, "product_number", str(exc)),
                    skip_invalid, issues)
            continue
        seen.add(number)
        products.append(product)
    return products


def _parse_date(text: str, line: int, column: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise MalformedRow(line, column, f"not an ISO date: {text!r}") from None


def load_orders(
    path,
    customers: Sequence[Customer],
    products: Sequence[Product],
    *,
    skip_invalid: bool = False,
    issues: Optional[list] = None,
) -> list[Order]:
    codes = {c.customer_code for c in customers}
    numbers = {p.product_number for p in products}
    orders = []
    seen = set()
    for line, row in _read_rows(path, ORDERS_HEADER):
        try:
            order = _parse_order_row(line, row, codes, numbers, seen)
        except RowError as exc:
            _handle(exc, skip_invalid, issues)
            continue
        seen.add(order.order_number)
        orders.append(order)
    return orders


def _parse_order_row(line, row, codes, numbers, seen) -> Order:
    (number, code, product, quantity_text, price_text,
     od_text, rd_text, dd_text, sd_text) = row
    if number in seen:
        raise DuplicateIdentifier(line, "order_number", f"duplicate {number!r}")
    if code not in codes:
        raise DanglingReference(line, "customer_code", f"unknown customer {code!r}")
    if product not in numbers:
        raise DanglingReference(
            line, "product_number", f"unknown product {product!r}"
        )
    try:
        quantity = int(quantity_text)
    except ValueError:
        raise MalformedRow(
            line, "quantity", f"not an integer: {quantity_text!r}"
        ) from None
    if quantity <= 0:
        raise MalformedRow(line, "quantity", f"must be > 0, got {quantity}")
    try:
        price = to_money(price_text)
    except InvalidOperation:
        raise MalformedRow(
            line, "original_price", f"not a number: {price_text!r}"
        ) from None
    if price <= 0:
        raise MalformedRow(line, "original_price", f"must be > 0, got {price}")
    order_date = _parse_date(od_text, line, "order_date")
    request_date = _parse_date(rd_text, line, "customer_request_date")
    delivery_date = _parse_date(dd_text, line, "customer_delivery_date")
    standard_date = _parse_date(sd_text, line, "standard_delivery_date")
    if request_date < order_date:
        raise MalformedRow(
            line, "customer_request_date", "precedes order_date"
        )
    if delivery_date < order_date:
        raise MalformedRow(
            line, "customer_delivery_date", "precedes order_date"
        )
    if standard_date <= order_date:
        raise NonPositiveSdt(
            line, "standard_delivery_date",
            "must be after order_date (standard delivery time must be > 0)",
        )
    return Order(
        order_number=number,
        customer_code=code,
        product_number=product,
        quantity=quantity,
        original_price=price,
        order_date=order_date,
        customer_request_date=request_date,
        customer_delivery_date=delivery_date,
        standard_delivery_date=standard_date,
    )


def load_dataset(
    orders_path,
    customers_path,
    products_path,
    *,
    skip_invalid: bool = False,
    issues: Optional[list] = None,
) -> Dataset:
    customers = load_customers(customers_path, skip_invalid=skip_invalid, issues=issues)
    products = load_products(products_path, skip_invalid=skip_invalid, issues=issues)
    orders = load_orders(
        orders_path, customers, products, skip_invalid=skip_invalid, issues=issues
    )
    return Dataset(tuple(customers), tuple(products), tuple(orders))


# --- writing -----------------------------------------------------------------


def write_csv(path, header: Sequence[str], rows) -> None:
    """One CSV file: RFC 4180 quoting, UTF-8, ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(dataset: Dataset, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "customers": out / "customers.csv",
        "products": out / "products.csv",
        "orders": out / "orders.csv",
    }
    write_csv(paths["customers"], CUSTOMERS_HEADER, (
        [c.customer_code, c.account_class.value, c.annual_revenue, c.region or ""]
        for c in dataset.customers
    ))
    write_csv(paths["products"], PRODUCTS_HEADER, (
        [p.product_number, p.basic_type, p.product_line] for p in dataset.products
    ))
    write_csv(paths["orders"], ORDERS_HEADER, (
        [
            o.order_number,
            o.customer_code,
            o.product_number,
            o.quantity,
            o.original_price,
            o.order_date.isoformat(),
            o.customer_request_date.isoformat(),
            o.customer_delivery_date.isoformat(),
            o.standard_delivery_date.isoformat(),
        ]
        for o in dataset.orders
    ))
    return paths


# --- synthetic generation ------------------------------------------------------

REGIONS = ["AMER", "APAC", "EMEA", "JP"]
BASIC_TYPES = ["BT-A", "BT-B", "BT-C", "BT-D", "BT-E", "BT-F"]
PRODUCT_LINE = "PL-1"

DEFAULT_SPAN = (date(2016, 10, 4), date(2020, 9, 1))

DEFAULT_CLASS_MIX = {
    AccountClass.KEY: 0.2,
    AccountClass.REGULAR: 0.3,
    AccountClass.OTHERS: 0.5,
}


@dataclass(frozen=True)
class ClassBehavior:
    """Lead-time behavior knobs for one account class.

    ``eligible_rate`` controls how often orders are requested earlier than
    the standard date; ``request_ratio`` bounds olt_requested/sdt for those
    orders (a narrow range means stable behavior and a low premium).
    ``confirm_rate``/``confirm_ratio`` do the same for confirmed delivery.
    """

    eligible_rate: float
    request_ratio: tuple[float, float]
    confirm_rate: float
    confirm_ratio: tuple[float, float]

    def __post_init__(self) -> None:
        for rate in (self.eligible_rate, self.confirm_rate):
            if not 0 <= rate <= 1:
                raise ValueError(f"rate must be in [0, 1], got {rate}")
        for lo, hi in (self.request_ratio, self.confirm_ratio):
            if not 0 < lo <= hi < 1:
                raise ValueError(
                    f"ratio range must satisfy 0 < lo <= hi < 1, got ({lo}, {hi})"
                )


# Key accounts expedite least and with the least variation; Regular accounts
# vary most, so they attract the highest premiums.
DEFAULT_EXPEDITE_PROFILE = {
    AccountClass.KEY: ClassBehavior(0.35, (0.75, 0.95), 0.6, (0.5, 0.9)),
    AccountClass.REGULAR: ClassBehavior(0.55, (0.45, 0.95), 0.6, (0.5, 0.9)),
    AccountClass.OTHERS: ClassBehavior(0.70, (0.50, 0.90), 0.6, (0.5, 0.9)),
}

_REVENUE_CENTS = {
    # (low, high) in cents, matching the class revenue bands
    AccountClass.KEY: (10_000_000_01, 100_000_000_00),
    AccountClass.REGULAR: (5_000_000_01, 10_000_000_00),
    AccountClass.OTHERS: (0, 5_000_000_00),
}


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 42
    n_customers: int = 177
    n_orders: int = 65_000
    n_products: int = 25
    date_span: tuple[date, date] = DEFAULT_SPAN
    class_mix: Mapping[AccountClass, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_MIX)
    )
    expedite_profile: Mapping[AccountClass, ClassBehavior] = field(
        default_factory=lambda: dict(DEFAULT_EXPEDITE_PROFILE)
    )

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if min(self.n_customers, self.n_orders, self.n_products) <= 0:
            raise ValueError("counts must be > 0")
        start, end = self.date_span
        if end < start:
            raise ValueError(f"empty date span: {start}..{end}")
        total = sum(self.class_mix.get(c, 0.0) for c in AccountClass)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class_mix must sum to 1, got {total}")
        for cls in AccountClass:
            if cls not in self.expedite_profile:
                raise ValueError(f"expedite_profile missing {cls}")


def _allocate(n: int, mix: Mapping[AccountClass, float]) -> dict[AccountClass, int]:
    """Largest-remainder split of n across classes, deterministic."""
    shares = [(cls, n * mix.get(cls, 0.0)) for cls in AccountClass]
    counts = {cls: int(share) for cls, share in shares}
    remainder = n - sum(counts.values())
    by_fraction = sorted(
        shares, key=lambda item: (-(item[1] - int(item[1])), item[0].value)
    )
    for cls, _ in by_fraction[:remainder]:
        counts[cls] += 1
    return counts


def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset honoring all model invariants."""
    rng = random.Random(config.seed)

    counts = _allocate(config.n_customers, config.class_mix)
    classes = [cls for cls in AccountClass for _ in range(counts[cls])]
    rng.shuffle(classes)
    width = max(4, len(str(config.n_customers)))
    customers = []
    for i, account_class in enumerate(classes, start=1):
        low, high = _REVENUE_CENTS[account_class]
        revenue = to_money(Decimal(rng.randint(low, high)) / 100)
        region = rng.choice(REGIONS) if rng.random() < 0.9 else None
        customers.append(
            Customer(f"C{i:0{width}d}", account_class, revenue, region)
        )

    products = [
        Product(f"P{i:03d}", BASIC_TYPES[(i - 1) % len(BASIC_TYPES)], PRODUCT_LINE)
        for i in range(1, config.n_products + 1)
    ]

    start, end = config.date_span
    span_days = (end - start).days
    order_numbers = rng.sample(range(10_000_000, 100_000_000), config.n_orders)

    orders = []
    for number in order_numbers:
        customer = rng.choice(customers)
        product = rng.choice(products)
        behavior = config.expedite_profile[customer.account_class]
        order_date = start + timedelta(days=rng.randint(0, span_days))
        sdt = rng.randint(14, 56)
        if rng.random() < behavior.eligible_rate:
            ratio = rng.uniform(*behavior.request_ratio)
            olt_requested = min(sdt - 1, max(0, round(ratio * sdt)))
        else:
            olt_requested = sdt + rng.randint(0, 7)
        if rng.random() < behavior.confirm_rate:
            ratio = rng.uniform(*behavior.confirm_ratio)
            olt_confirmed = min(sdt - 1, max(1, round(ratio * sdt)))
        else:
            olt_confirmed = sdt + rng.randint(0, 5)
        orders.append(
            Order(
                order_number=f"O{number}",
                customer_code=customer.customer_code,
                product_number=product.product_number,
                quantity=rng.randint(1, 500),
                original_price=to_money(Decimal(rng.randint(50_00, 500_000)) / 100),
                order_date=order_date,
                customer_request_date=order_date + timedelta(days=olt_requested),
                customer_delivery_date=order_date + timedelta(days=olt_confirmed),
                standard_delivery_date=order_date + timedelta(days=sdt),
            )
        )
    return Dataset(tuple(customers), tuple(products), tuple(orders))


def manifest_dict(config: GeneratorConfig) -> dict:
    return {
        "seed": config.seed,
        "n_customers": config.n_customers,
        "n_orders": config.n_orders,
        "n_products": config.n_products,
        "date_span": [d.isoformat() for d in config.date_span],
        "class_mix": {c.value: config.class_mix[c] for c in AccountClass},
        "expedite_profile": {
            c.value: {
                "eligible_rate": b.eligible_rate,
                "request_ratio": list(b.request_ratio),
                "confirm_rate": b.confirm_rate,
                "confirm_ratio": list(b.confirm_ratio),
            }
            for c, b in ((c, config.expedite_profile[c]) for c in AccountClass)
        },
    }


def write_manifest(config: GeneratorConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest_dict(config), handle, indent=2)
        handle.write("\n")
