"""Typed domain entities, validation, and lead times.

Lead times are whole calendar days between the order-entry date and the
request / confirmed-delivery / standard-delivery dates. The standard delivery
time (SDT) is the lead time a customer can expect by default; orders requested
earlier than the standard date are eligible for revenue management.

Money and the pricing settings that scale a price are bounded, so that every
price of an accepted order is below 2**45 and a float carries it to the cent:
``original_price`` and ``annual_revenue`` are at most ``MONEY_MAX``,
``p_max`` at most ``P_MAX_MAX`` and ``convex_alpha`` at least
``CONVEX_ALPHA_MIN``. The largest RM price is ``MONEY_MAX * P_MAX_MAX`` = 1e13;
the largest convex price is ``MONEY_MAX * (1 - CONVEX_ALPHA_MIN * ln(sdt))``
with sdt below 3.7 million days (the ``date`` range), ~1.5e13.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import math
from dataclasses import dataclass
from datetime import date
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from typing import Union

CENT = Decimal("0.01")
FACTOR = Decimal("0.000001")

Money = Decimal

MONEY_MAX = Decimal("9999999999.99")
P_MAX_MAX = 1000.0
CONVEX_ALPHA_MIN = -100.0


@contextlib.contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector, and restore its state after.

    The bulk passes allocate millions of objects and no reference cycles, so
    the collector only re-traverses live data: 15-25% of querying the graph,
    and about a quarter of loading and pricing 650,000 orders. The
    collector's state is recorded on entry and restored on exit, a raise
    included (Python docs, "gc"; Instagram Engineering, "Dismissing Python
    Garbage Collection at Instagram", 2017). As a decorator,
    ``@collector_paused()``, it pauses the collector for each call.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def to_money(value: Union[int, float, str, Decimal]) -> Decimal:
    """Quantize to 2 fractional digits, half-even; NaN and infinities raise
    InvalidOperation."""
    money = Decimal(value).quantize(CENT, rounding=ROUND_HALF_EVEN)
    if money.is_nan():
        raise InvalidOperation(f"not a number: {value!r}")
    return money


def to_factor(value: Union[int, float, str, Decimal]) -> Decimal:
    """Quantize to 6 fractional digits, half-even (premiums, rho factors)."""
    return Decimal(value).quantize(FACTOR, rounding=ROUND_HALF_EVEN)


def float_to_money(value: float) -> Decimal:
    """``to_money(value)`` for a finite float below 10**26 in magnitude.

    ``.2f`` formatting rounds the float's exact binary value half-even, as
    ``quantize`` does, so ties such as 0.125 and 2.675 (stored just below)
    round alike, without the ~50-digit exact expansion. Unlike ``to_money``
    it neither raises for NaN or infinity nor overflows the 28-digit context;
    the bounds above keep every price far inside its range.
    """
    return Decimal(f"{value:.2f}")


class InvalidField(ValueError):
    """An entity or config value breaking its rule; ``field`` names the field.

    ``ingest`` takes each CSV's column names from its entity's fields, so
    the loader reports ``field`` as the column of the rejected row.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class AccountClass(enum.Enum):
    """Customer segment; drives the price adjustment factor."""

    KEY = "Key"
    REGULAR = "Regular"
    OTHERS = "Others"

    @classmethod
    def from_label(cls, label: str) -> "AccountClass":
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(f"unknown account class label: {label!r}")

    def __str__(self) -> str:
        return self.value


# Revenue bands (currency units). Bands are closed at their upper bound and
# revenue above the top band maps to Key so the classification is total.
OTHERS_REVENUE_MAX = Decimal(5_000_000)
REGULAR_REVENUE_MAX = Decimal(10_000_000)


@dataclass(frozen=True, slots=True)
class Customer:
    customer_code: str
    account_class: AccountClass
    annual_revenue: Money
    region: str | None = None

    def __post_init__(self) -> None:
        if not self.customer_code:
            raise InvalidField("customer_code", "customer_code must be non-empty")
        if self.annual_revenue < 0:
            raise InvalidField(
                "annual_revenue",
                f"customer {self.customer_code}: annual_revenue must be >= 0",
            )
        if self.annual_revenue > MONEY_MAX:
            raise InvalidField(
                "annual_revenue",
                f"customer {self.customer_code}: annual_revenue must be "
                f"<= {MONEY_MAX}",
            )


@dataclass(frozen=True, slots=True)
class Product:
    product_number: str
    basic_type: str
    product_line: str

    def __post_init__(self) -> None:
        if not self.product_number:
            raise InvalidField("product_number", "product_number must be non-empty")


@dataclass(frozen=True, slots=True)
class Order:
    """One customer order; the four dates are the source of all lead times."""

    order_number: str
    customer_code: str
    product_number: str
    quantity: int
    original_price: Money
    order_date: date
    customer_request_date: date
    customer_delivery_date: date
    standard_delivery_date: date

    def __post_init__(self) -> None:
        number = self.order_number
        if not number:
            raise InvalidField("order_number", "order_number must be non-empty")
        if self.quantity <= 0:
            raise InvalidField("quantity", f"order {number}: quantity must be > 0")
        if self.original_price <= 0:
            raise InvalidField(
                "original_price", f"order {number}: original_price must be > 0"
            )
        if self.original_price > MONEY_MAX:
            raise InvalidField(
                "original_price",
                f"order {number}: original_price must be <= {MONEY_MAX}",
            )
        if self.customer_request_date < self.order_date:
            raise InvalidField(
                "customer_request_date",
                f"order {number}: customer_request_date precedes order_date",
            )
        if self.customer_delivery_date < self.order_date:
            raise InvalidField(
                "customer_delivery_date",
                f"order {number}: customer_delivery_date precedes order_date",
            )
        if self.standard_delivery_date <= self.order_date:
            raise InvalidField(
                "standard_delivery_date",
                f"order {number}: standard_delivery_date must be after order_date",
            )


@dataclass(frozen=True)
class PricingConfig:
    """Weights, bounds, and each account class's adjustment factor rho.

    Each field is one pricing setting: a config-file key, and a flag of
    ``price`` and ``report``. ``rho_<class>`` is read through
    ``adjustment_factor``. ``convex_alpha`` must be <= 0: the convex baseline
    prices faster delivery above the original price, which requires a
    non-positive log coefficient.
    """

    alpha: float = 1.0
    beta: float = 1.0
    p_max: float = 2.0
    convex_alpha: float = -0.5
    rho_key: float = 0.1
    rho_regular: float = 0.05
    rho_others: float = 0.025

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "p_max", "convex_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidField(name, f"{name} must be finite")
        if not 1 < self.p_max <= P_MAX_MAX:
            raise InvalidField("p_max", f"p_max must be > 1 and <= {P_MAX_MAX:g}")
        if self.alpha < 0 or self.beta < 0:
            raise InvalidField("alpha", "alpha and beta must be >= 0")
        if not CONVEX_ALPHA_MIN <= self.convex_alpha <= 0:
            raise InvalidField(
                "convex_alpha",
                f"convex_alpha must be <= 0 and >= {CONVEX_ALPHA_MIN:g}",
            )
        for cls in AccountClass:
            rho = adjustment_factor(cls, self)
            if not 0 <= rho < 1:
                raise InvalidField(
                    rho_field(cls), f"rho for {cls} must be in [0, 1), got {rho}"
                )


def lead_days(order: Order) -> tuple[int, int, int]:
    """``(olt_requested, olt_confirmed, sdt)``: calendar-day differences
    between the order date and each stage date. ``Order`` guarantees that
    the first two are >= 0 and ``sdt`` > 0."""
    base = order.order_date
    return (
        (order.customer_request_date - base).days,
        (order.customer_delivery_date - base).days,
        (order.standard_delivery_date - base).days,
    )


def rm_eligible(olt_requested: int, sdt: int) -> bool:
    """True when the order was requested earlier than the standard date."""
    return sdt > olt_requested


def expedited(olt_confirmed: int, sdt: int) -> bool:
    """True when delivery was confirmed faster than the standard date."""
    return olt_confirmed < sdt


def rho_field(account_class: AccountClass) -> str:
    """The ``PricingConfig`` field that holds the class's rho."""
    return f"rho_{account_class.value.lower()}"


def adjustment_factor(account_class: AccountClass, config: PricingConfig) -> float:
    return getattr(config, rho_field(account_class))


def class_for_revenue(revenue: Union[int, float, Decimal]) -> AccountClass:
    """Classify by annual revenue band; revenue above the top band is Key."""
    if revenue < 0:
        raise ValueError(f"revenue must be >= 0, got {revenue}")
    if revenue <= OTHERS_REVENUE_MAX:
        return AccountClass.OTHERS
    if revenue <= REGULAR_REVENUE_MAX:
        return AccountClass.REGULAR
    return AccountClass.KEY


def class_matches_revenue(customer: Customer) -> bool:
    """Whether the declared class agrees with the revenue band table."""
    return class_for_revenue(customer.annual_revenue) is customer.account_class
