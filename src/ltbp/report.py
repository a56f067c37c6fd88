"""Total-revenue comparison across the three pricing regimes.

Totals come from a single aggregation query over the priced graph (summing
original, RM, and convex prices per order), kept in ``totals.rq`` next to this
module so that ``ltbp query`` can run it too; the report records the raw totals
and whether the strict ordering original < rm < convex held, never asserting
particular magnitudes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Optional

from .graph import Graph, evaluate
from .model import AccountClass, PricingConfig, to_money
from .query import parse_query

TOTALS_QUERY = (Path(__file__).parent / "totals.rq").read_text(encoding="utf-8")

_ORDERS_QUERY = "SELECT ?o ?num WHERE { ?o :hasOrderNumber ?num . }"

_PRICED_QUERY = """
SELECT ?o
WHERE {
  ?o :hasRMPrice ?rm .
  ?o :hasConvexPrice ?convex .
}
"""

_ELIGIBLE_COUNT_QUERY = """
SELECT (COUNT(?o) AS ?n)
WHERE {
  ?o :hasRequestedDate ?rd .
  ?o :hasStandardDate ?sd .
  FILTER(?sd > ?rd)
}
"""


class IncompleteDataError(Exception):
    """Orders present in the graph without both computed prices."""

    def __init__(self, order_numbers: list[str]):
        preview = ", ".join(order_numbers[:10])
        suffix = ", ..." if len(order_numbers) > 10 else ""
        super().__init__(f"unpriced orders in graph: {preview}{suffix}")
        self.order_numbers = order_numbers


class InconsistentTotalsError(ValueError):
    """Totals no priced graph yields: the RM total below the original."""


@dataclass(frozen=True)
class RevenueComparison:
    total_original: Decimal
    total_rm: Decimal
    total_convex: Decimal
    n_orders: int
    n_eligible: int
    ordering_holds: bool

    def __post_init__(self) -> None:
        if self.total_original > self.total_rm:
            raise InconsistentTotalsError("total_rm below total_original")


def _rows(graph: Graph, query: str) -> list[tuple]:
    return evaluate(graph, parse_query(query)).rows


def revenue_totals(graph: Graph) -> RevenueComparison:
    """Run the totals query and compare the three regimes."""
    orders = _rows(graph, _ORDERS_QUERY)
    priced = {o for (o,) in _rows(graph, _PRICED_QUERY)}
    unpriced = sorted(number for o, number in orders if o not in priced)
    if unpriced:
        raise IncompleteDataError(unpriced)
    table = evaluate(graph, parse_query(TOTALS_QUERY))
    row = table.mappings()[0]
    total_rm = to_money(row["TotalRMPrice"])
    total_original = to_money(row["TotalOrginalPrice"])
    total_convex = to_money(row["TotalConvexPrice"])
    return RevenueComparison(
        total_original=total_original,
        total_rm=total_rm,
        total_convex=total_convex,
        n_orders=len(orders),
        n_eligible=_rows(graph, _ELIGIBLE_COUNT_QUERY)[0][0],
        ordering_holds=total_original < total_rm < total_convex,
    )


def config_fingerprint(config: PricingConfig) -> str:
    canonical = ",".join(
        [
            f"alpha={config.alpha!r}",
            f"beta={config.beta!r}",
            f"p_max={config.p_max!r}",
            f"convex_alpha={config.convex_alpha!r}",
        ]
        + [f"rho_{c.value}={config.rho_table[c]!r}" for c in AccountClass]
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def emit_report(
    comparison: RevenueComparison,
    path,
    config: Optional[PricingConfig] = None,
    manifest_ref: Optional[str] = None,
) -> None:
    """Deterministic JSON report with 2-decimal currency strings."""
    payload = {
        "totals": {
            "original": str(comparison.total_original),
            "rm": str(comparison.total_rm),
            "convex": str(comparison.total_convex),
        },
        "counts": {
            "orders": comparison.n_orders,
            "eligible": comparison.n_eligible,
        },
        "ordering_holds": comparison.ordering_holds,
        "config_fingerprint": None if config is None else config_fingerprint(config),
        "dataset_manifest_ref": manifest_ref,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
