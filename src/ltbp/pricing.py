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
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

from .ingest import write_csv
from .model import (
    Customer,
    LeadTimes,
    Order,
    PricingConfig,
    adjustment_factor,
    derive_lead_times,
    rm_eligible,
    to_factor,
    to_money,
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


def behavior_series(orders: Sequence[Order]) -> list[float]:
    """Per-order ratio olt_requested / sdt of the eligible orders, in
    order-date order. Orders must all belong to one customer."""
    codes = {o.customer_code for o in orders}
    if len(codes) > 1:
        raise ValueError(f"orders span multiple customers: {sorted(codes)}")
    series = []
    for order in sorted(orders, key=lambda o: (o.order_date, o.order_number)):
        lt = derive_lead_times(order)
        if rm_eligible(lt):
            series.append(lt.olt_requested / lt.sdt)
    return series


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


def customer_stats(customer_code: str, orders: Sequence[Order]) -> CustomerStats:
    series = behavior_series(orders)
    return CustomerStats(
        customer_code=customer_code,
        eligible_order_count=len(series),
        rsd=compute_rsd(series),
        rmd=compute_rmd(series),
    )


def compute_premium(
    stats: CustomerStats, rho: float, config: PricingConfig
) -> CustomerPremium:
    """Weighted RSD+RMD discounted by rho, clamped to [1, p_max]."""
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    raw = 1.0 + (config.alpha * stats.rsd + config.beta * stats.rmd) * (1.0 - rho)
    clamped = max(1.0, min(config.p_max, raw))
    return CustomerPremium(stats.customer_code, to_factor(clamped))


def rm_price(order: Order, lt: LeadTimes, premium: CustomerPremium) -> float:
    """Revenue-management price of one order, before currency rounding.

    The premium applies to the expedited fraction (1 - olt_confirmed/sdt);
    an order not confirmed faster than standard keeps its original price.
    """
    p_o = float(order.original_price)
    if lt.olt_confirmed >= lt.sdt:
        return p_o
    factor = 1.0 - lt.olt_confirmed / lt.sdt
    return p_o + p_o * factor * (float(premium.premium) - 1.0)


def convex_price(order: Order, lt: LeadTimes, config: PricingConfig) -> float:
    """Log-ratio baseline price of one order, before currency rounding."""
    p_o = float(order.original_price)
    if lt.olt_confirmed >= lt.sdt:
        return p_o
    if lt.olt_confirmed == 0:
        raise LogDomainError(
            f"order {order.order_number}: confirmed lead time of 0 days has no "
            f"defined log ratio"
        )
    return p_o * (1.0 + config.convex_alpha * math.log(lt.olt_confirmed / lt.sdt))


def _premium_for(
    customer: Customer, orders: Sequence[Order], config: PricingConfig
) -> tuple[CustomerStats, CustomerPremium]:
    stats = customer_stats(customer.customer_code, orders)
    rho = adjustment_factor(customer.account_class, config)
    return stats, compute_premium(stats, rho, config)


def price_dataset(dataset, config: PricingConfig) -> PricingResult:
    """Premium per customer and both prices per order.

    Customers with no eligible orders get premium 1. Per-order failures
    (e.g. a zero confirmed lead time) are collected as issues; the affected
    order is left unpriced and the batch continues.
    """
    by_customer: dict[str, list[Order]] = defaultdict(list)
    for order in dataset.orders:
        by_customer[order.customer_code].append(order)

    customers = sorted(dataset.customers, key=lambda c: c.customer_code)
    results = [
        _premium_for(c, by_customer.get(c.customer_code, []), config)
        for c in customers
    ]
    stats = tuple(s for s, _ in results)
    premiums = tuple(p for _, p in results)
    premium_by_code = {p.customer_code: p for p in premiums}

    priced = []
    issues = []
    for order in dataset.orders:
        lt = derive_lead_times(order)
        premium = premium_by_code[order.customer_code]
        rm = rm_price(order, lt, premium)
        try:
            convex = convex_price(order, lt, config)
        except LogDomainError as exc:
            issues.append(PricingIssue(order.order_number, str(exc)))
            continue
        priced.append(
            PricedOrder(
                order_number=order.order_number,
                original=order.original_price,
                rm=to_money(rm),
                convex=to_money(convex),
            )
        )
    return PricingResult(premiums, tuple(priced), stats, tuple(issues))


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
    write_csv(path, ["order_number", "original", "rm", "convex"], (
        [po.order_number, po.original, po.rm, po.convex]
        for po in result.priced_orders
    ))
