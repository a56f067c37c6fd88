"""Customer premiums and order pricing.

Each customer's order behavior is summarized by the relative standard
deviation (RSD) and relative mean deviation (RMD) of the ratio
``olt_requested / sdt`` over their revenue-management-eligible orders. The
weighted sum of the two, discounted by the class adjustment factor rho, gives
a premium clamped to [1, p_max]:

    premium = max(1, min(p_max, 1 + (alpha * rsd + beta * rmd) * (1 - rho)))

An order confirmed faster than its standard date is then priced at

    rm     = p_o + p_o * (1 - olt_confirmed / sdt) * (premium - 1)
    convex = p_o * (1 + convex_alpha * ln(olt_confirmed / sdt))

and at its original price otherwise: only faster-than-standard delivery is
exploited, never discounted.

``price_dataset`` reads each order twice, and each pass takes the lead days
from the order's dates with ``lead_days``. The first pass appends the ratio
of each eligible order to its customer's list; the lists become the
customer's stats and are freed before the second pass prices the orders. So
the only object kept per order is the ``PricedOrder`` it returns. Each premium
becomes a float once per customer, and each float price becomes cents with
one ``float_to_money``. An order not confirmed faster than standard gets its
own ``original_price`` as both prices. The bounds in ``model`` keep every
price below 2**45, where these steps give the same cents as ``to_money`` of
the float.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from decimal import Decimal
from typing import Iterable, Sequence

from .ingest import write_csv
from .model import (
    Customer,
    Order,
    PricingConfig,
    adjustment_factor,
    collector_paused,
    expedited,
    float_to_money,
    lead_days,
    rm_eligible,
    to_factor,
)


class LogDomainError(ValueError):
    """Convex price is undefined for a same-day confirmed delivery."""


@dataclass(frozen=True, slots=True)
class CustomerStats:
    customer_code: str
    eligible_order_count: int
    rsd: float
    rmd: float


@dataclass(frozen=True, slots=True)
class CustomerPremium:
    customer_code: str
    premium: Decimal  # fixed-point, 6 fractional digits, >= 1

    def __post_init__(self) -> None:
        if self.premium < 1:
            raise ValueError(
                f"premium for {self.customer_code} must be >= 1, got {self.premium}"
            )


@dataclass(frozen=True, slots=True)
class PricedOrder:
    order_number: str
    original: Decimal
    rm: Decimal
    convex: Decimal

    def __post_init__(self) -> None:
        if self.original <= 0:
            raise ValueError(f"order {self.order_number}: original price must be > 0")
        if self.rm < self.original:
            raise ValueError(
                f"order {self.order_number}: rm price below original"
            )
        if self.convex < self.original:
            raise ValueError(
                f"order {self.order_number}: convex price below original"
            )


@dataclass(frozen=True, slots=True)
class PricingIssue:
    order_number: str
    message: str


@dataclass(frozen=True)
class PricingResult:
    premiums: tuple[CustomerPremium, ...]
    priced_orders: tuple[PricedOrder, ...]
    stats: tuple[CustomerStats, ...]
    issues: tuple[PricingIssue, ...] = ()


def compute_rsd(series: Sequence[float]) -> float:
    """Population standard deviation over the mean; 0 for short series."""
    n = len(series)
    if n < 2:
        return 0.0
    mean = math.fsum(series) / n
    if mean == 0:
        return 0.0
    variance = math.fsum((x - mean) ** 2 for x in series) / n
    return math.sqrt(variance) / mean


def compute_rmd(series: Sequence[float]) -> float:
    """Mean absolute deviation about the mean, over the mean; 0 for short
    series."""
    n = len(series)
    if n < 2:
        return 0.0
    mean = math.fsum(series) / n
    if mean == 0:
        return 0.0
    mad = math.fsum(abs(x - mean) for x in series) / n
    return mad / mean


def compute_premium(
    stats: CustomerStats, rho: float, config: PricingConfig
) -> CustomerPremium:
    """Weighted RSD+RMD discounted by rho, clamped to [1, p_max]."""
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    raw = 1.0 + (config.alpha * stats.rsd + config.beta * stats.rmd) * (1.0 - rho)
    clamped = max(1.0, min(config.p_max, raw))
    return CustomerPremium(stats.customer_code, to_factor(clamped))


def rm_price(p_o: float, olt_confirmed: int, sdt: int, premium: float) -> float:
    """Revenue-management price of an order of original price ``p_o``,
    before currency rounding.

    The premium applies to the expedited fraction (1 - olt_confirmed/sdt);
    an order not confirmed faster than standard keeps its original price.
    """
    if not expedited(olt_confirmed, sdt):
        return p_o
    factor = 1.0 - olt_confirmed / sdt
    return p_o + p_o * factor * (premium - 1.0)


def convex_price(
    p_o: float, olt_confirmed: int, sdt: int, convex_alpha: float
) -> float:
    """Log-ratio baseline price of an order of original price ``p_o``,
    before currency rounding."""
    if not expedited(olt_confirmed, sdt):
        return p_o
    if olt_confirmed == 0:
        raise LogDomainError("confirmed lead time of 0 days has no defined log ratio")
    return p_o * (1.0 + convex_alpha * math.log(olt_confirmed / sdt))


@collector_paused()
def price_dataset(dataset, config: PricingConfig) -> PricingResult:
    """Premium per customer and both prices per order, computed with the
    cyclic collector paused.

    Customers with no eligible orders get premium 1. Per-order failures
    (e.g. a zero confirmed lead time) are collected as issues; the affected
    order is left unpriced and the batch continues.
    """
    orders = dataset.orders
    customers = sorted(dataset.customers, key=lambda c: c.customer_code)
    stats = _customer_stats(orders, customers)
    premiums = tuple(
        compute_premium(s, adjustment_factor(c.account_class, config), config)
        for c, s in zip(customers, stats)
    )
    premium_by_code = {p.customer_code: float(p.premium) for p in premiums}

    convex_alpha = config.convex_alpha
    priced = []
    issues = []
    for order in orders:
        number, original = order.order_number, order.original_price
        _, olt_confirmed, sdt = lead_days(order)
        # Both prices are the original itself: a cent amount up to MONEY_MAX
        # is what to_money makes of its own float.
        if not expedited(olt_confirmed, sdt):
            priced.append(PricedOrder(number, original, original, original))
            continue
        p_o = float(original)
        try:
            convex = convex_price(p_o, olt_confirmed, sdt, convex_alpha)
        except LogDomainError as exc:
            issues.append(PricingIssue(number, f"order {number}: {exc}"))
            continue
        rm = rm_price(p_o, olt_confirmed, sdt, premium_by_code[order.customer_code])
        priced.append(PricedOrder(
            number, original, float_to_money(rm), float_to_money(convex)
        ))
    return PricingResult(premiums, tuple(priced), stats, tuple(issues))


def _customer_stats(
    orders: Iterable[Order], customers: Sequence[Customer]
) -> tuple[CustomerStats, ...]:
    """Stats of each customer, in ``customers`` order, over the ratios of
    their eligible orders; the ratio lists are freed on return."""
    ratios: dict[str, list[float]] = defaultdict(list)
    for order in orders:
        olt_requested, _, sdt = lead_days(order)
        if rm_eligible(olt_requested, sdt):
            ratios[order.customer_code].append(olt_requested / sdt)
    stats = []
    for customer in customers:
        series = ratios[customer.customer_code]
        stats.append(CustomerStats(
            customer.customer_code, len(series), compute_rsd(series),
            compute_rmd(series),
        ))
    return tuple(stats)


def write_premiums(result: PricingResult, path) -> None:
    """premiums.csv: customer_code,rsd,rmd,premium (6 fractional digits)."""
    stats = {s.customer_code: s for s in result.stats}
    write_csv(path, ["customer_code", "rsd", "rmd", "premium"], (
        [p.customer_code, f"{stats[p.customer_code].rsd:.6f}",
         f"{stats[p.customer_code].rmd:.6f}", p.premium]
        for p in result.premiums
    ))


def write_priced_orders(result: PricingResult, path) -> None:
    """priced_orders.csv: order_number,original,rm,convex (2-decimal prices)."""
    write_csv(path, [f.name for f in fields(PricedOrder)], (
        [po.order_number, po.original, po.rm, po.convex]
        for po in result.priced_orders
    ))
