"""Dataset loading, writing, and seeded synthetic generation.

Input files are plain CSVs with fixed headers and ISO-8601 dates:

    customers.csv  customer_code,account_class,annual_revenue,region
    products.csv   product_number,basic_type,product_line
    orders.csv     order_number,customer_code,product_number,quantity,
                   original_price,order_date,customer_request_date,
                   customer_delivery_date,standard_delivery_date

The three files share one row loop. A row whose id repeats an accepted
row's is a duplicate, whatever else it holds; any other row has its cells
converted, numbers and dates by ``terms.read``, and its entity built. The
entity rules live in ``model``, and a rule broken there comes back as a
``RowError`` naming the row's line and column. A bad row aborts the load by
default; given an ``issues`` list, the loader appends the row's error to it
and continues. The generator is fully deterministic for a fixed seed and
writes the three CSVs plus a ``manifest.json`` recording the seed and
configuration. It draws from one ``random.Random(seed)``: ``shuffle`` once
for the customers' classes, ``sample`` once for the order numbers, and every
other integer through a local ``below(n)``, the ``getrandbits`` loop that
CPython 3.11's ``randint`` and ``choice`` run, so each draw is the one those
calls made, without their frames. Floats come from ``random()``.
"""

from __future__ import annotations

import csv
import json
import logging
import random
from dataclasses import asdict, dataclass, fields
from datetime import date, timedelta
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Optional, Sequence

from . import terms
from .model import (
    OTHERS_REVENUE_MAX,
    REGULAR_REVENUE_MAX,
    AccountClass,
    Customer,
    InvalidField,
    Order,
    Product,
    class_matches_revenue,
    collector_paused,
    to_money,
)

log = logging.getLogger(__name__)

# Each file's columns are its entity's fields, in order.
CUSTOMERS_HEADER = [f.name for f in fields(Customer)]
PRODUCTS_HEADER = [f.name for f in fields(Product)]
ORDERS_HEADER = [f.name for f in fields(Order)]


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
    """Each record of the CSV file ``path`` after its header, with the file
    line it starts on. A UTF-8 byte order mark before the header, as
    spreadsheet programs write, is dropped. A record the reader rejects,
    such as a cell past ``csv.field_size_limit()``, is a LoadError naming
    its line, even when rejected rows are skipped: the reader cannot be
    trusted to resume at a record boundary after it."""
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        line = 1
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
        except csv.Error as exc:
            raise LoadError(f"{path}: line {line}: {exc}") from None


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
        return to_money(terms.read(Decimal, text))
    except (ValueError, InvalidOperation):  # InvalidOperation: over 28 digits
        raise MalformedRow(line, column, f"not a number: {text!r}") from None


def _parse_cached(kind: type, text: str, line: int, column: str, cache: dict):
    """Read a date or an integer cell and remember it in ``cache``, text ->
    value."""
    try:
        value = cache[text] = terms.read(kind, text)
    except ValueError as exc:
        raise MalformedRow(line, column, str(exc)) from None
    return value


def _load(path, header: list[str], build, issues: Optional[list]) -> list:
    """The entity ``build(line, row)`` makes of each row, in file order.

    A row whose first cell, the entity's id, repeats an earlier accepted
    row's is a DuplicateIdentifier before anything else in it is read.
    """
    entities = []
    seen = set()
    for line, row in _read_rows(path, header):
        key = row[0]
        try:
            if key in seen:
                raise DuplicateIdentifier(line, header[0], f"duplicate {key!r}")
            entity = build(line, row)
        except _ROW_FAILURES as exc:
            _handle(line, exc, issues)
            continue
        seen.add(key)
        entities.append(entity)
    return entities


def _customer(line: int, row: list[str]) -> Customer:
    code, label, revenue_text, region = row
    customer = Customer(
        code,
        _parse_class(label, line),
        _parse_money(revenue_text, line, "annual_revenue"),
        region or None,
    )
    if not class_matches_revenue(customer):
        log.warning(
            "customer %s: declared class %s does not match revenue %s; "
            "keeping declared class",
            code, customer.account_class.value, customer.annual_revenue,
        )
    return customer


def load_customers(path, *, issues: Optional[list] = None) -> list[Customer]:
    return _load(path, CUSTOMERS_HEADER, _customer, issues)


def load_products(path, *, issues: Optional[list] = None) -> list[Product]:
    return _load(path, PRODUCTS_HEADER, lambda line, row: Product(*row), issues)


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

    def build(line: int, row: list[str]) -> Order:
        (number, code_text, product_text, quantity_text, price_text,
         od_text, rd_text, dd_text, sd_text) = row
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
            or _parse_cached(int, quantity_text, line, "quantity", quantities),
            _parse_money(price_text, line, "original_price"),
            dates.get(od_text)
            or _parse_cached(date, od_text, line, "order_date", dates),
            dates.get(rd_text)
            or _parse_cached(date, rd_text, line, "customer_request_date", dates),
            dates.get(dd_text)
            or _parse_cached(date, dd_text, line, "customer_delivery_date", dates),
            dates.get(sd_text)
            or _parse_cached(date, sd_text, line, "standard_delivery_date", dates),
        )
        if order.customer_delivery_date == order.order_date:
            raise MalformedRow(
                line, "customer_delivery_date",
                "same day as order_date: the convex price of a same-day "
                "delivery is undefined",
            )
        return order

    return _load(path, ORDERS_HEADER, build, issues)


@collector_paused()
def load_dataset(
    orders_path, customers_path, products_path, *, issues: Optional[list] = None
) -> Dataset:
    """The three CSVs as a Dataset, read with the cyclic collector paused."""
    customers = load_customers(customers_path, issues=issues)
    products = load_products(products_path, issues=issues)
    orders = load_orders(orders_path, customers, products, issues=issues)
    return Dataset(tuple(customers), tuple(products), tuple(orders))


# --- writing -----------------------------------------------------------------


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made on the key's first use and kept."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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
    """The three CSVs under ``out_dir``; each distinct date is formatted once."""
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
    text = _Memo(terms.lexical)
    write_csv(paths["orders"], ORDERS_HEADER, (
        [
            o.order_number,
            o.customer_code,
            o.product_number,
            o.quantity,
            o.original_price,
            text[o.order_date],
            text[o.customer_request_date],
            text[o.customer_delivery_date],
            text[o.standard_delivery_date],
        ]
        for o in dataset.orders
    ))
    return paths


# --- synthetic generation ------------------------------------------------------

REGIONS = ["AMER", "APAC", "EMEA", "JP"]
BASIC_TYPES = ["BT-A", "BT-B", "BT-C", "BT-D", "BT-E", "BT-F"]
PRODUCT_LINE = "PL-1"

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

# The most days an order's dates run past its order date: the standard
# delivery time is at most 56 days, and a request comes up to 7 days later.
_LONGEST_LEAD = 56 + 7

# Each class's revenue range, (low, high) in whole cents: model's revenue
# bands, with Key revenue capped at 100,000,000.00.
_OTHERS_CENTS = int(OTHERS_REVENUE_MAX * 100)
_REGULAR_CENTS = int(REGULAR_REVENUE_MAX * 100)
_REVENUE_CENTS = {
    AccountClass.KEY: (_REGULAR_CENTS + 1, 100_000_000_00),
    AccountClass.REGULAR: (_OTHERS_CENTS + 1, _REGULAR_CENTS),
    AccountClass.OTHERS: (0, _OTHERS_CENTS),
}


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 42
    n_customers: int = 177
    n_orders: int = 65_000
    n_products: int = 25
    date_span: tuple[date, date] = (date(2016, 10, 4), date(2020, 9, 1))

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
        if (date.max - end).days < _LONGEST_LEAD:
            raise InvalidField(
                "date_span",
                f"date span must end {_LONGEST_LEAD} days or more before "
                f"{date.max}, got {end}",
            )


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


@collector_paused()
def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset honoring all model invariants, built
    with the cyclic collector paused."""
    rng = random.Random(config.seed)
    getrandbits, random_ = rng.getrandbits, rng.random

    def below(n):
        # A uniform int in [0, n), drawn as CPython 3.11's randint, randrange
        # and choice draw it (Random._randbelow_with_getrandbits), without
        # their frames: k bits at a time until the value is below n.
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    counts = _allocate(config.n_customers)
    classes = [cls for cls in AccountClass for _ in range(counts[cls])]
    rng.shuffle(classes)
    width = max(4, len(str(config.n_customers)))
    customers = []
    for i, account_class in enumerate(classes, start=1):
        low, high = _REVENUE_CENTS[account_class]
        # Money is whole cents scaled by 10**-2: the same digits and
        # exponent as to_money(cents / 100), without the division.
        revenue = Decimal(low + below(high - low + 1)).scaleb(-2)
        region = REGIONS[below(len(REGIONS))] if random_() < 0.9 else None
        customers.append(
            Customer(f"C{i:0{width}d}", account_class, revenue, region)
        )
    behaviors = [DEFAULT_EXPEDITE_PROFILE[c.account_class] for c in customers]

    products = [
        Product(f"P{i:03d}", BASIC_TYPES[(i - 1) % len(BASIC_TYPES)], PRODUCT_LINE)
        for i in range(1, config.n_products + 1)
    ]

    start, end = config.date_span
    days = (end - start).days + 1
    order_numbers = rng.sample(_ORDER_NUMBERS, config.n_orders)
    # One date per distinct day, by its offset from the span's start; a span
    # ends _LONGEST_LEAD days or more before date.max, so every offset fits.
    day = _Memo(lambda offset: start + timedelta(days=offset))

    orders = []
    n_customers, n_products = len(customers), len(products)
    for number in order_numbers:
        i = below(n_customers)
        customer, behavior = customers[i], behaviors[i]
        product = products[below(n_products)]
        offset = below(days)
        sdt = 14 + below(56 - 14 + 1)
        if random_() < behavior.eligible_rate:
            low, high = behavior.request_ratio  # uniform(low, high)
            ratio = low + (high - low) * random_()
            olt_requested = min(sdt - 1, max(0, round(ratio * sdt)))
        else:
            olt_requested = sdt + below(8)
        if random_() < behavior.confirm_rate:
            low, high = behavior.confirm_ratio
            ratio = low + (high - low) * random_()
            olt_confirmed = min(sdt - 1, max(1, round(ratio * sdt)))
        else:
            olt_confirmed = sdt + below(6)
        orders.append(
            Order(
                order_number=f"O{number}",
                customer_code=customer.customer_code,
                product_number=product.product_number,
                quantity=1 + below(500),
                original_price=Decimal(
                    50_00 + below(500_000 - 50_00 + 1)
                ).scaleb(-2),
                order_date=day[offset],
                customer_request_date=day[offset + olt_requested],
                customer_delivery_date=day[offset + olt_confirmed],
                standard_delivery_date=day[offset + sdt],
            )
        )
    return Dataset(tuple(customers), tuple(products), tuple(orders))


def manifest_dict(config: GeneratorConfig) -> dict:
    """The config's fields in their order, then the class mix and profile."""
    return {
        **asdict(config),
        "date_span": [d.isoformat() for d in config.date_span],
        "class_mix": {c.value: DEFAULT_CLASS_MIX[c] for c in AccountClass},
        "expedite_profile": {
            c.value: asdict(DEFAULT_EXPEDITE_PROFILE[c]) for c in AccountClass
        },
    }


def write_manifest(config: GeneratorConfig, path) -> None:
    write_json(path, manifest_dict(config))
