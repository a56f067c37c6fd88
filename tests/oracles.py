"""Independent direct-computation oracles used to cross-check the engine.

These deliberately avoid the graph/query machinery: they operate on triples,
the dataset, and the pricing output with plain dictionaries and loops, so
agreement with query-engine results is a real two-route check.
"""

import math
from collections import defaultdict
from decimal import Decimal

from ltbp.model import derive_lead_times, rm_eligible, to_money
from ltbp.pricing import (
    CustomerStats,
    PricedOrder,
    behavior_series,
    compute_premium,
    compute_rmd,
    compute_rsd,
)
from ltbp.terms import Literal, Variable


def brute_force_match(triples, patterns):
    """Reference natural join: scan every triple for every pattern."""
    rows = [{}]
    for pattern in patterns:
        out = []
        for row in rows:
            for triple in triples:
                extended = _unify(row, pattern, triple)
                if extended is not None:
                    out.append(extended)
        rows = out
    return rows


def _unify(row, pattern, triple):
    extended = dict(row)
    for term, actual in zip(pattern, (triple.subject, triple.predicate, triple.object)):
        value = actual.value if isinstance(actual, Literal) else actual
        if isinstance(term, Variable):
            if term.name in extended:
                if extended[term.name] != value:
                    return None
            else:
                extended[term.name] = value
        elif term != actual:
            return None
    return extended


def premium_by_code(pricing):
    return {p.customer_code: p.premium for p in pricing.premiums}


def rm_by_order(pricing):
    return {p.order_number: p.rm for p in pricing.priced_orders}


def original_by_order(pricing):
    return {p.order_number: p.original for p in pricing.priced_orders}


def oracle_cq1(dataset, pricing, n):
    """Customers with premium > 1 ranked by summed RM revenue."""
    premiums = premium_by_code(pricing)
    rm = rm_by_order(pricing)
    totals = defaultdict(lambda: Decimal("0"))
    for order in dataset.orders:
        if premiums[order.customer_code] > 1 and order.order_number in rm:
            totals[order.customer_code] += rm[order.order_number]
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:n]


def priced_orders_oracle(dataset, config):
    """``(stats, premiums, priced_orders, issue_order_numbers)`` of
    ``price_dataset``, computed customer by customer and order by order.

    Each customer's stats come from ``behavior_series`` of their orders. Each
    order is priced on its own from ``derive_lead_times`` with the RM and
    convex formulas written out and rounded by ``to_money``; a same-day
    confirmed expedited order is an issue, not a price.
    """
    orders_of = defaultdict(list)
    for order in dataset.orders:
        orders_of[order.customer_code].append(order)
    stats, premiums = [], {}
    for customer in sorted(dataset.customers, key=lambda c: c.customer_code):
        code = customer.customer_code
        series = behavior_series(orders_of[code])
        stats.append(CustomerStats(
            code, len(series), compute_rsd(series), compute_rmd(series)
        ))
        rho = config.rho_table[customer.account_class]
        premiums[code] = compute_premium(stats[-1], rho, config)
    priced, issues = [], []
    for order in dataset.orders:
        lt = derive_lead_times(order)
        number, original = order.order_number, order.original_price
        if lt.olt_confirmed >= lt.sdt:
            priced.append(PricedOrder(number, original, original, original))
        elif lt.olt_confirmed == 0:
            issues.append(number)
        else:
            p_o = float(original)
            premium = float(premiums[order.customer_code].premium)
            ratio = lt.olt_confirmed / lt.sdt
            rm = p_o + p_o * (1.0 - ratio) * (premium - 1.0)
            convex = p_o * (1.0 + config.convex_alpha * math.log(ratio))
            priced.append(PricedOrder(
                number, original, to_money(rm), to_money(convex)
            ))
    return tuple(stats), tuple(premiums.values()), tuple(priced), issues


def oracle_class_fractions(dataset):
    totals = defaultdict(int)
    eligible = defaultdict(int)
    class_of = {c.customer_code: c.account_class for c in dataset.customers}
    for order in dataset.orders:
        cls = class_of[order.customer_code]
        totals[cls] += 1
        lt = derive_lead_times(order)
        if rm_eligible(lt.olt_requested, lt.sdt):
            eligible[cls] += 1
    present = {c.account_class for c in dataset.customers}
    return {
        cls: (eligible[cls] / totals[cls] if totals[cls] else None)
        for cls in present
    }


def oracle_cq2(dataset):
    fractions = oracle_class_fractions(dataset)
    present = sorted(fractions, key=lambda c: c.value)
    ranked = [c for c in present if fractions[c] is not None]
    ranked.sort(key=lambda c: -fractions[c])
    ranked += [c for c in present if fractions[c] is None]
    return [(c, fractions[c]) for c in ranked]


def oracle_cq3(dataset, pricing):
    """Per-class (max, min, avg) premium over customers, label-ascending."""
    premiums = premium_by_code(pricing)
    per_class = defaultdict(list)
    for customer in dataset.customers:
        per_class[customer.account_class].append(premiums[customer.customer_code])
    out = {}
    for cls, values in per_class.items():
        avg = sum(values) / Decimal(len(values))
        out[cls] = (max(values), min(values), avg)
    return dict(sorted(out.items(), key=lambda item: item[0].value))


def oracle_cq4(dataset, pricing, k):
    rm = rm_by_order(pricing)
    originals = original_by_order(pricing)
    deltas = defaultdict(lambda: Decimal("0"))
    for order in dataset.orders:
        if order.order_number not in rm:
            continue
        pair = (order.customer_code, order.product_number)
        deltas[pair] += rm[order.order_number] - originals[order.order_number]
    ranked = sorted(deltas.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def oracle_totals(pricing):
    def total(attr):
        return sum((getattr(p, attr) for p in pricing.priced_orders), Decimal("0"))

    return total("original"), total("rm"), total("convex")
