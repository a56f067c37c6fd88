"""Dataset loading, writing, and seeded synthetic generation.

Input files are plain CSVs with fixed headers and ISO-8601 dates:

    customers.csv  customer_code,account_class,annual_revenue,region
    products.csv   product_number,basic_type,product_line
    orders.csv     order_number,customer_code,product_number,quantity,
                   original_price,order_date,customer_request_date,
                   customer_delivery_date,standard_delivery_date

The loader converts each cell and builds the entity; the entity rules live
in ``model``, and a rule broken there comes back as a ``RowError`` naming the
row's line and column. A bad row aborts the load by default; given an
``issues`` list, the loader appends the row's error to it and continues. The
generator is fully deterministic for a fixed seed and writes the three CSVs
plus a ``manifest.json`` recording the seed and configuration.
"""

from __future__ import annotations

import csv
import json
import logging
import random
import re
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Optional, Sequence

from .model import (
    AccountClass,
    Customer,
    InvalidField,
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


# --- loading -----------------------------------------------------------------


def _read_rows(path, header: list[str]):
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
            if found is None:
                raise HeaderMismatch(f"{path}: empty file, expected header {header}")
            if found != header:
                raise HeaderMismatch(f"{path}: header {found} does not match {header}")
            # A quoted cell may hold line breaks, so a record is named by the
            # file line it starts on, one past the last line read before it.
            line = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise MalformedRow(
                            line, header[0],
                            f"expected {len(header)} fields, got {len(row)}",
                        )
                    yield line, row
                line = reader.line_num + 1
        except UnicodeDecodeError:
            raise LoadError(not_utf8(path)) from None


def not_utf8(path) -> str:
    """The error text for a file that failed to decode as UTF-8, naming its
    first bad line and that byte's offset in the file.

    Called only once decoding has failed: it reads the file again as bytes,
    line by line. A newline byte never occurs inside a UTF-8 sequence, so a
    line decodes alone exactly as it does within the file.
    """
    offset = 0
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (f"{path}: line {lineno}: not UTF-8 text: byte "
                        f"{raw[exc.start]:#04x} at offset {offset + exc.start}")
            offset += len(raw)
    return f"{path}: not UTF-8 text"


# What a row's cells or entity rules raise; _handle makes each a RowError.
_ROW_FAILURES = (RowError, InvalidField)


def _handle(line: int, error: Exception, issues: Optional[list]) -> None:
    """Raise the row's error, or record it in ``issues`` and go on."""
    if isinstance(error, InvalidField):  # the field names the CSV column
        kind = NonPositiveSdt if error.field == "standard_delivery_date" else MalformedRow
        error = kind(line, error.field, str(error))
    if issues is None:
        raise error from None
    log.warning("skipping row: %s", error)
    issues.append(error)


def _parse_class(label: str, line: int) -> AccountClass:
    try:
        return AccountClass.from_label(label)
    except ValueError as exc:
        raise UnknownClassLabel(line, "account_class", str(exc)) from None


def _parse_money(text: str, line: int, column: str) -> Decimal:
    try:
        return to_money(text)
    except InvalidOperation:
        raise MalformedRow(line, column, f"not a number: {text!r}") from None


def _parse_date(text: str, line: int, column: str, dates: dict) -> date:
    """Parse an ISO date cell and remember it in ``dates``, text -> date."""
    try:
        value = dates[text] = date.fromisoformat(text)
    except ValueError:
        raise MalformedRow(line, column, f"not an ISO date: {text!r}") from None
    return value


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_quantity(text: str, line: int, quantities: dict) -> int:
    """Parse an ASCII integer cell and remember it in ``quantities``; ``int``
    alone would also take ``1_000``, spaces and non-ASCII digits, and it
    refuses more digits than Python's int-from-text limit."""
    if _INTEGER.fullmatch(text) is None:
        raise MalformedRow(line, "quantity", f"not an integer: {text!r}")
    try:
        value = quantities[text] = int(text)
    except ValueError:
        raise MalformedRow(line, "quantity", f"too many digits: {len(text)}") from None
    return value


def load_customers(path, *, issues: Optional[list] = None) -> list[Customer]:
    customers = []
    seen = set()
    for line, row in _read_rows(path, CUSTOMERS_HEADER):
        code, label, revenue_text, region = row
        try:
            customer = Customer(
                code,
                _parse_class(label, line),
                _parse_money(revenue_text, line, "annual_revenue"),
                region or None,
            )
            if code in seen:
                raise DuplicateIdentifier(line, "customer_code", f"duplicate {code!r}")
        except _ROW_FAILURES as exc:
            _handle(line, exc, issues)
            continue
        if not class_matches_revenue(customer):
            log.warning(
                "customer %s: declared class %s does not match revenue %s; "
                "keeping declared class",
                code, customer.account_class.value, customer.annual_revenue,
            )
        seen.add(code)
        customers.append(customer)
    return customers


def load_products(path, *, issues: Optional[list] = None) -> list[Product]:
    products = []
    seen = set()
    for line, row in _read_rows(path, PRODUCTS_HEADER):
        number, basic_type, product_line = row
        try:
            if number in seen:
                raise DuplicateIdentifier(
                    line, "product_number", f"duplicate {number!r}"
                )
            product = Product(number, basic_type, product_line)
        except _ROW_FAILURES as exc:
            _handle(line, exc, issues)
            continue
        seen.add(number)
        products.append(product)
    return products


def load_orders(
    path,
    customers: Sequence[Customer],
    products: Sequence[Product],
    *,
    issues: Optional[list] = None,
) -> list[Order]:
    # Each id maps to its entity's own string, which every order then shares;
    # each distinct date or quantity text parses once per load.
    codes = {c.customer_code: c.customer_code for c in customers}
    numbers = {p.product_number: p.product_number for p in products}
    dates: dict[str, date] = {}
    quantities: dict[str, int] = {}
    orders = []
    seen = set()
    for line, row in _read_rows(path, ORDERS_HEADER):
        try:
            order = _parse_order_row(
                line, row, codes, numbers, seen, dates, quantities
            )
        except _ROW_FAILURES as exc:
            _handle(line, exc, issues)
            continue
        seen.add(order.order_number)
        orders.append(order)
    return orders


def _parse_order_row(line, row, codes, numbers, seen, dates, quantities) -> Order:
    (number, code_text, product_text, quantity_text, price_text,
     od_text, rd_text, dd_text, sd_text) = row
    if number in seen:
        raise DuplicateIdentifier(line, "order_number", f"duplicate {number!r}")
    code = codes.get(code_text)
    if code is None:
        raise DanglingReference(
            line, "customer_code", f"unknown customer {code_text!r}"
        )
    product = numbers.get(product_text)
    if product is None:
        raise DanglingReference(
            line, "product_number", f"unknown product {product_text!r}"
        )
    # A cached date is truthy; a cached quantity 0 just parses again.
    order = Order(
        number,
        code,
        product,
        quantities.get(quantity_text)
        or _parse_quantity(quantity_text, line, quantities),
        _parse_money(price_text, line, "original_price"),
        dates.get(od_text) or _parse_date(od_text, line, "order_date", dates),
        dates.get(rd_text)
        or _parse_date(rd_text, line, "customer_request_date", dates),
        dates.get(dd_text)
        or _parse_date(dd_text, line, "customer_delivery_date", dates),
        dates.get(sd_text)
        or _parse_date(sd_text, line, "standard_delivery_date", dates),
    )
    if order.customer_delivery_date == order.order_date:
        raise MalformedRow(
            line, "customer_delivery_date",
            "same day as order_date: the convex price of a same-day delivery "
            "is undefined",
        )
    return order


def load_dataset(
    orders_path, customers_path, products_path, *, issues: Optional[list] = None
) -> Dataset:
    customers = load_customers(customers_path, issues=issues)
    products = load_products(products_path, issues=issues)
    orders = load_orders(orders_path, customers, products, issues=issues)
    return Dataset(tuple(customers), tuple(products), tuple(orders))


# --- writing -----------------------------------------------------------------


def write_json(path, payload) -> None:
    """One JSON file: two-space indent, UTF-8, ``\\n`` line ends, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


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


# Key accounts expedite least and with the least variation; Regular accounts
# vary most, so they attract the highest premiums.
DEFAULT_EXPEDITE_PROFILE = {
    AccountClass.KEY: ClassBehavior(0.35, (0.75, 0.95), 0.6, (0.5, 0.9)),
    AccountClass.REGULAR: ClassBehavior(0.55, (0.45, 0.95), 0.6, (0.5, 0.9)),
    AccountClass.OTHERS: ClassBehavior(0.70, (0.50, 0.90), 0.6, (0.5, 0.9)),
}

# Eight-digit order numbers, drawn without replacement.
_ORDER_NUMBERS = range(10_000_000, 100_000_000)

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

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise InvalidField("seed", "seed must fit in 64 unsigned bits")
        for name in ("n_customers", "n_orders", "n_products"):
            if getattr(self, name) <= 0:
                raise InvalidField(name, f"{name} must be > 0")
        if self.n_orders > len(_ORDER_NUMBERS):
            raise InvalidField(
                "n_orders", f"n_orders must be <= {len(_ORDER_NUMBERS)}"
            )
        start, end = self.date_span
        if end < start:
            raise InvalidField("date_span", f"empty date span: {start}..{end}")


def _allocate(n: int) -> dict[AccountClass, int]:
    """Largest-remainder split of n across classes by DEFAULT_CLASS_MIX."""
    shares = [(cls, n * DEFAULT_CLASS_MIX[cls]) for cls in AccountClass]
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

    counts = _allocate(config.n_customers)
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
    order_numbers = rng.sample(_ORDER_NUMBERS, config.n_orders)

    orders = []
    for number in order_numbers:
        customer = rng.choice(customers)
        product = rng.choice(products)
        behavior = DEFAULT_EXPEDITE_PROFILE[customer.account_class]
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
        "class_mix": {c.value: DEFAULT_CLASS_MIX[c] for c in AccountClass},
        "expedite_profile": {
            c.value: asdict(DEFAULT_EXPEDITE_PROFILE[c]) for c in AccountClass
        },
    }


def write_manifest(config: GeneratorConfig, path) -> None:
    write_json(path, manifest_dict(config))
