"""Independent direct-computation oracles used to cross-check the engine.

These deliberately avoid the graph/query machinery: they operate on triples,
the dataset, and the pricing output with plain dictionaries and loops, so
agreement with query-engine results is a real two-route check. Lead times
come from the dates' ordinals here, not from ``model.lead_days``. The one
exception is ``nested_loop_rows``, the engine's former row-at-a-time join: it
checks the order of the engine's rows, which no other route defines.
"""

import math
from collections import defaultdict
from decimal import Decimal

from ltbp.graph import _plan
from ltbp.model import to_money
from ltbp.pricing import (
    CustomerStats,
    PricedOrder,
    compute_premium,
    compute_rmd,
    compute_rsd,
)
from ltbp.terms import Variable


def triples(graph, ids=None):
    """The id triples ``ids`` of ``graph`` (all of them by default) read back
    as plain ``(s, p, o)`` term tuples."""
    values = graph._values
    return [tuple(map(values.__getitem__, t))
            for t in (graph.match() if ids is None else ids)]


def brute_force_match(triples, patterns):
    """Reference natural join: scan every (s, p, o) term triple for every
    pattern."""
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


def nested_loop_rows(graph, patterns, names):
    """Reference join in the engine's own step order: ``_plan``'s steps, each
    extending one row at a time by the triples of one ``Graph.match`` call.

    The engine's join must yield these rows in this order. Each row is read
    back as the tuple of the values of the variables ``names``.
    """
    slots, start, steps = _plan(graph, patterns)
    rows = [start]
    for cells, bound in steps:
        cs, cp, co = cells
        free = [(k, cell) for k, (cell, b) in enumerate(zip(cells, bound)) if not b]
        out = []
        for row in rows:
            for triple in graph.match(row[cs], row[cp], row[co]):
                new = row.copy()
                for k, cell in free:
                    seen = new[cell]
                    if seen is None:
                        new[cell] = triple[k]
                    elif seen != triple[k]:  # same variable twice within one pattern
                        break
                else:
                    out.append(new)
        rows = out
    values = graph._values
    return [tuple(values[row[slots[name]]] for name in names) for row in rows]


def _unify(row, pattern, triple):
    extended = dict(row)
    for term, actual in zip(pattern, triple):
        if isinstance(term, Variable):
            if term.name in extended:
                if extended[term.name] != actual:
                    return None
            else:
                extended[term.name] = actual
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


def lead_days(order):
    """(requested, confirmed, standard) days after the order date."""
    start = order.order_date.toordinal()
    return tuple(day.toordinal() - start for day in (
        order.customer_request_date, order.customer_delivery_date,
        order.standard_delivery_date,
    ))


def eligible_ratios(orders):
    """Customer code -> the requested / standard lead-time ratio of each of
    their orders requested before the standard date, in order-date order.

    ``price_dataset`` reads the orders in dataset order instead; RSD and RMD
    sum with ``math.fsum``, which is exact in any order, so the stats agree.
    """
    series = defaultdict(list)
    for order in sorted(orders, key=lambda o: (o.order_date, o.order_number)):
        requested, _, standard = lead_days(order)
        if requested < standard:
            series[order.customer_code].append(requested / standard)
    return series


def priced_orders_oracle(dataset, config):
    """``(stats, premiums, priced_orders, issue_order_numbers)`` of
    ``price_dataset``, computed customer by customer and order by order.

    Each customer's stats come from their ``eligible_ratios``. Each order is
    priced on its own from its ``lead_days`` with the RM and convex formulas
    written out and rounded by ``to_money``; a same-day confirmed expedited
    order is an issue, not a price.
    """
    ratios = eligible_ratios(dataset.orders)
    stats, premiums = [], {}
    for customer in sorted(dataset.customers, key=lambda c: c.customer_code):
        code = customer.customer_code
        series = ratios[code]
        stats.append(CustomerStats(
            code, len(series), compute_rsd(series), compute_rmd(series)
        ))
        rho = config.rho_table[customer.account_class]
        premiums[code] = compute_premium(stats[-1], rho, config)
    priced, issues = [], []
    for order in dataset.orders:
        _, confirmed, standard = lead_days(order)
        number, original = order.order_number, order.original_price
        if confirmed >= standard:
            priced.append(PricedOrder(number, original, original, original))
        elif confirmed == 0:
            issues.append(number)
        else:
            p_o = float(original)
            premium = float(premiums[order.customer_code].premium)
            ratio = confirmed / standard
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
        requested, _, standard = lead_days(order)
        if requested < standard:
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
