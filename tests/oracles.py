"""Independent direct-computation oracles used to cross-check the engine.

These deliberately avoid the graph/query machinery: they operate on triples,
the dataset, and the pricing output with plain dictionaries and loops, so
agreement with query-engine results is a real two-route check. Lead times
come from the dates' ordinals here, not from ``model.lead_days``. The one
exceptions are ``nested_loop_rows``, the engine's former row-at-a-time join,
which checks the order of the engine's rows, and ``reference_generate``, the
generator written with ``random.Random``'s public draws, which checks the
order and kind of the generator's draws; no other route defines either.
"""

import math
import random
from collections import defaultdict
from datetime import timedelta
from decimal import Decimal

from ltbp.graph import _plan
from ltbp.ingest import (
    _ORDER_NUMBERS,
    _REVENUE_CENTS,
    BASIC_TYPES,
    DEFAULT_EXPEDITE_PROFILE,
    PRODUCT_LINE,
    REGIONS,
    Dataset,
    _allocate,
    _Memo,
)
from ltbp.model import AccountClass, Customer, Order, Product, to_money
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
    extending one row at a time by the triples of a ``Graph.match`` scan of
    the step's predicate that agree with the row's bound cells.

    The engine's join must yield these rows in this order. Each row is read
    back as the tuple of the values of the variables ``names``.
    """
    slots, start, steps = _plan(graph, patterns)
    rows = [start]
    for cells, bound in steps:
        fixed = [(k, cell) for k, (cell, b) in enumerate(zip(cells, bound)) if b]
        free = [(k, cell) for k, (cell, b) in enumerate(zip(cells, bound)) if not b]
        out = []
        for row in rows:
            for triple in graph.match(row[cells[1]]):
                if any(row[cell] != triple[k] for k, cell in fixed):
                    continue
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


def reference_generate(config):
    """``ingest.generate_synthetic`` drawn through ``randint``, ``choice`` and
    ``uniform``: the same draws in the same order, so the same dataset."""
    rng = random.Random(config.seed)

    counts = _allocate(config.n_customers)
    classes = [cls for cls in AccountClass for _ in range(counts[cls])]
    rng.shuffle(classes)
    width = max(4, len(str(config.n_customers)))
    customers = []
    for i, account_class in enumerate(classes, start=1):
        low, high = _REVENUE_CENTS[account_class]
        revenue = Decimal(rng.randint(low, high)).scaleb(-2)
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
    day = _Memo(lambda offset: start + timedelta(days=offset))

    orders = []
    for number in order_numbers:
        customer = rng.choice(customers)
        product = rng.choice(products)
        behavior = DEFAULT_EXPEDITE_PROFILE[customer.account_class]
        offset = rng.randint(0, span_days)
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
                original_price=Decimal(rng.randint(50_00, 500_000)).scaleb(-2),
                order_date=day[offset],
                customer_request_date=day[offset + olt_requested],
                customer_delivery_date=day[offset + olt_confirmed],
                standard_delivery_date=day[offset + sdt],
            )
        )
    return Dataset(tuple(customers), tuple(products), tuple(orders))
