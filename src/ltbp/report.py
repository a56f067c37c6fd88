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

from . import terms as T
from .graph import Graph, evaluate
from .model import AccountClass, PricingConfig, to_money
from .query import parse_query

TOTALS_QUERY = (Path(__file__).parent / "totals.rq").read_text(encoding="utf-8")

_ORDER_COUNT_QUERY = """
SELECT (COUNT(?o) AS ?n)
WHERE { ?o :hasOrderNumber ?num . }
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
            raise ValueError("total_rm below total_original")


def _unpriced_orders(graph: Graph) -> list[str]:
    missing = []
    for triple in graph.match(None, T.TYPE, T.ORDER_CLASS):
        subject = triple.subject
        has_rm = next(graph.match(subject, T.HAS_RM_PRICE, None), None)
        has_convex = next(graph.match(subject, T.HAS_CONVEX_PRICE, None), None)
        if has_rm is None or has_convex is None:
            number = next(graph.match(subject, T.HAS_ORDER_NUMBER, None), None)
            missing.append(
                number.object.value if number is not None else subject.value
            )
    return sorted(missing)


def _single_count(graph: Graph, query: str) -> int:
    return evaluate(graph, parse_query(query)).rows[0][0]


def revenue_totals(graph: Graph) -> RevenueComparison:
    """Run the totals query and compare the three regimes."""
    unpriced = _unpriced_orders(graph)
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
        n_orders=_single_count(graph, _ORDER_COUNT_QUERY),
        n_eligible=_single_count(graph, _ELIGIBLE_COUNT_QUERY),
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


def load_report(path) -> RevenueComparison:
    with open(Path(path), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    totals = payload["totals"]
    counts = payload["counts"]
    return RevenueComparison(
        total_original=Decimal(totals["original"]),
        total_rm=Decimal(totals["rm"]),
        total_convex=Decimal(totals["convex"]),
        n_orders=counts["orders"],
        n_eligible=counts["eligible"],
        ordering_holds=payload["ordering_holds"],
    )
