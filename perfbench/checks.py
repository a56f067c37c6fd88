"""Output checks, computed directly from the CSVs without ltbp's code.

The pipeline checks follow the direct-computation logic of tests/oracles.py,
but read the files a run wrote instead of in-memory objects. Each check
returns a list of ``(stage, message)`` failures; the stage is the one whose
output was wrong.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from datetime import date
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

FACTOR = Decimal("0.000001")

# The CLI stage that writes each file of a pipeline output tree.
STAGE_OF = {
    "premiums.csv": "price", "priced_orders.csv": "price", "graph.nt": "price",
    "cq1.csv": "analyze", "cq2.csv": "analyze", "cq3.csv": "analyze",
    "cq4.csv": "analyze", "cq_report.json": "analyze", "report.json": "report",
}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _eligible(order: dict) -> bool:
    return (date.fromisoformat(order["standard_delivery_date"])
            > date.fromisoformat(order["customer_request_date"]))


def _fraction(eligible: int, total: int) -> str:
    return f"{eligible / total:.6f}" if total else ""


def expected_cqs(data: Path, run: Path, top: int, pairs: int) -> dict:
    """cq1..cq4 rows as the analyze stage must write them."""
    orders = read_rows(data / "orders.csv")
    class_of = {c["customer_code"]: c["account_class"]
                for c in read_rows(data / "customers.csv")}
    premium = {p["customer_code"]: Decimal(p["premium"])
               for p in read_rows(run / "premiums.csv")}
    priced = {p["order_number"]: p for p in read_rows(run / "priced_orders.csv")}

    totals, eligible = defaultdict(int), defaultdict(int)
    rm_by_customer = defaultdict(Decimal)
    delta_by_pair = defaultdict(Decimal)
    for order in orders:
        code = order["customer_code"]
        totals[class_of[code]] += 1
        eligible[class_of[code]] += _eligible(order)
        price = priced.get(order["order_number"])
        if price is None:
            continue
        if premium[code] > 1:
            rm_by_customer[code] += Decimal(price["rm"])
        delta_by_pair[code, order["product_number"]] += (
            Decimal(price["rm"]) - Decimal(price["original"]))

    cq1 = sorted(rm_by_customer.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    classes = sorted(set(class_of.values()))
    fractions = {cls: _fraction(eligible[cls], totals[cls]) for cls in classes}
    ranked = [c for c in classes if totals[c]]
    ranked.sort(key=lambda c: -eligible[c] / totals[c])
    ranked += [c for c in classes if not totals[c]]
    by_class = defaultdict(list)
    for code, cls in class_of.items():
        by_class[cls].append(premium[code])
    cq4 = sorted(delta_by_pair.items(), key=lambda kv: (-kv[1], kv[0]))[:pairs]

    def factor(value):
        return str(value.quantize(FACTOR, rounding=ROUND_HALF_EVEN))

    return {
        "cq1": [[str(i), code, total] for i, (code, total) in enumerate(cq1, 1)],
        "cq2": [[str(i), cls, fractions[cls]] for i, cls in enumerate(ranked, 1)],
        "cq3": [[cls, factor(max(v)), factor(min(v)),
                 factor(sum(v) / Decimal(len(v))), fractions[cls]]
                for cls, v in sorted(by_class.items())],
        "cq4": [[str(i), code, pnum, delta]
                for i, ((code, pnum), delta) in enumerate(cq4, 1)],
    }


def _same_row(expected: list, actual: list) -> bool:
    """Cells compare as text, Decimal cells by value."""
    if len(expected) != len(actual):
        return False
    for want, got in zip(expected, actual):
        if isinstance(want, Decimal):
            try:
                if Decimal(got) != want:
                    return False
            except ArithmeticError:
                return False
        elif want != got:
            return False
    return True


def check_pipeline(data: Path, run: Path, top: int = 20, pairs: int = 20):
    """The analyze and report outputs of one pipeline tree against the CSVs."""
    failures = []
    for name, rows in expected_cqs(data, run, top, pairs).items():
        with open(run / f"{name}.csv", newline="", encoding="utf-8") as handle:
            actual = list(csv.reader(handle))[1:]
        if len(actual) != len(rows) or not all(map(_same_row, rows, actual)):
            failures.append(("analyze", f"{name}.csv disagrees with the CSVs"))

    priced = read_rows(run / "priced_orders.csv")
    orders = read_rows(data / "orders.csv")
    sums = {col: sum((Decimal(p[col]) for p in priced), Decimal(0))
            for col in ("original", "rm", "convex")}
    report = json.loads((run / "report.json").read_text())
    for col, total in sums.items():
        if Decimal(report["totals"][col]) != total:
            failures.append(("report", f"report total {col} "
                             f"{report['totals'][col]} != {total}"))
    if report["counts"]["orders"] != len(orders):
        failures.append(("report", f"report counts {report['counts']['orders']}"
                         f" orders, orders.csv has {len(orders)}"))
    if report["counts"]["eligible"] != sum(map(_eligible, orders)):
        failures.append(("report", "report eligible count is wrong"))
    holds = sums["original"] < sums["rm"] < sums["convex"]
    if report["ordering_holds"] != holds:
        failures.append(("report", "report ordering_holds is wrong"))
    return failures


def check_pricing(data: Path, out: Path, result: dict, p_max: float) -> list[str]:
    """The ``ltbp price`` CSVs of one pricing run."""
    failures = []
    with open(data / "orders.csv", encoding="utf-8") as handle:
        orders_read = sum(1 for _ in handle) - 1
    priced = read_rows(out / "priced_orders.csv")
    if result["orders_read"] != orders_read:
        failures.append(f"read {result['orders_read']} of {orders_read} orders")
    if len(priced) + result["issues"] != orders_read:
        failures.append(f"{len(priced)} priced + {result['issues']} issues "
                        f"!= {orders_read} orders")
    low = [p["order_number"] for p in priced if Decimal(p["rm"]) < Decimal(p["original"])]
    if low:
        failures.append(f"{len(low)} RM prices below original, e.g. {low[0]}")
    bad = [p["customer_code"] for p in read_rows(out / "premiums.csv")
           if not 1 <= Decimal(p["premium"]) <= Decimal(str(p_max))]
    if bad:
        failures.append(f"{len(bad)} premiums outside [1, {p_max}], e.g. {bad[0]}")
    return failures
