"""Competency-question analytics over the priced graph.

Each question runs through the query engine (never directly over the
dataset):

    CQ1  top customers by total RM revenue among those holding a premium > 1
    CQ2  account classes ranked by their share of orders requested earlier
         than the standard date
    CQ3  per-class premium spread (max / min / average)
    CQ4  (customer, product) pairs ranked by total RM uplift over original

Rankings break ties by ascending identifier. Every result is also exportable
as CSV plus a combined ``cq_report.json`` (the plot-ready data); the CQ3
exports carry each class's CQ2 share alongside its spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Optional

from .graph import Graph, GraphError, evaluate, quantized
from .ingest import write_csv, write_json
from .model import AccountClass, to_factor, to_money
from .query import parse_query
from .terms import identifier


@dataclass(frozen=True)
class CustomerRevenue:
    customer_code: str
    total_rm: Decimal


@dataclass(frozen=True)
class PairRevenue:
    customer_code: str
    product_number: str
    revenue_delta: Decimal


@dataclass(frozen=True)
class ClassStats:
    account_class: AccountClass
    max_premium: Decimal
    min_premium: Decimal
    avg_premium: Decimal

    def __post_init__(self) -> None:
        if not self.min_premium <= self.avg_premium <= self.max_premium:
            raise ValueError(
                f"{self.account_class}: premium stats out of order "
                f"({self.min_premium}, {self.avg_premium}, {self.max_premium})"
            )


_CQ1_QUERY = """
SELECT ?code (SUM(?rm) AS ?total)
WHERE {{
  ?o :wasPlacedBy ?c .
  ?o :hasRMPrice ?rm .
  ?c :hasCustomerCode ?code .
  ?c :hasPremium ?p .
  FILTER(?p > 1)
}}
GROUP BY ?code
ORDER BY DESC ?total
LIMIT {n}
"""

_CLASS_TOTALS_QUERY = """
SELECT ?cls (COUNT(?o) AS ?n)
WHERE {
  ?o :wasPlacedBy ?c .
  ?c :hasAccountType ?cls .
}
GROUP BY ?cls
"""

_CLASS_ELIGIBLE_QUERY = """
SELECT ?cls (COUNT(?o) AS ?n)
WHERE {
  ?o :wasPlacedBy ?c .
  ?o :hasRequestedDate ?rd .
  ?o :hasStandardDate ?sd .
  ?c :hasAccountType ?cls .
  FILTER(?sd > ?rd)
}
GROUP BY ?cls
"""

_CLASSES_QUERY = """
SELECT ?cls (COUNT(?c) AS ?n)
WHERE { ?c :hasAccountType ?cls . }
GROUP BY ?cls
"""

_CQ3_QUERY = """
SELECT ?cls (MAX(?p) AS ?maxp) (MIN(?p) AS ?minp) (AVG(?p) AS ?avgp)
WHERE {
  ?c :hasAccountType ?cls .
  ?c :hasPremium ?p .
}
GROUP BY ?cls
"""

_CQ4_QUERY = """
SELECT ?code ?pnum (SUM(?rm) AS ?rmsum) (SUM(?orig) AS ?origsum)
WHERE {
  ?o :wasPlacedBy ?c .
  ?o :containsProduct ?prod .
  ?o :hasRMPrice ?rm .
  ?o :hasOriginalPrice ?orig .
  ?c :hasCustomerCode ?code .
  ?prod :hasProductNumber ?pnum .
}
GROUP BY ?code ?pnum
"""


def cq1_top_customers(graph: Graph, n: int = 20) -> list[CustomerRevenue]:
    """Customers holding a premium > 1, ranked by total RM revenue."""
    if n <= 0:
        return []
    table = evaluate(graph, parse_query(_CQ1_QUERY.format(n=n)))
    return [
        CustomerRevenue(code, quantized(to_money, total, f"RM total of {code}"))
        for code, total in table.rows
    ]


def _account_class(label) -> AccountClass:
    try:
        return AccountClass.from_label(label)
    except ValueError as exc:
        raise GraphError(f"graph holds an {exc}") from None


def _class_counts(graph: Graph, query: str) -> dict[AccountClass, int]:
    table = evaluate(graph, parse_query(query))
    return {_account_class(cls): count for cls, count in table.rows}


def class_eligible_fractions(graph: Graph) -> dict[AccountClass, Optional[float]]:
    """Per class: share of its orders requested earlier than standard date;
    None for a class whose customers placed no orders."""
    present = _class_counts(graph, _CLASSES_QUERY)
    totals = _class_counts(graph, _CLASS_TOTALS_QUERY)
    eligible = _class_counts(graph, _CLASS_ELIGIBLE_QUERY)
    fractions: dict[AccountClass, Optional[float]] = {}
    for cls in present:
        total = totals.get(cls, 0)
        fraction = eligible.get(cls, 0) / total if total else None
        if fraction is not None and not 0 <= fraction <= 1:
            raise GraphError(f"{cls}: fraction {fraction} not in [0, 1]")
        fractions[cls] = fraction
    return fractions


def cq2_occurrence_ranking(
    graph: Graph,
) -> list[tuple[AccountClass, Optional[float]]]:
    """Classes ranked by eligible-order share, descending; absent last."""
    fractions = class_eligible_fractions(graph)
    present = sorted(fractions, key=lambda c: c.value)
    ranked = [c for c in present if fractions[c] is not None]
    ranked.sort(key=lambda c: -fractions[c])
    ranked += [c for c in present if fractions[c] is None]
    return [(c, fractions[c]) for c in ranked]


def cq3_class_premium_stats(graph: Graph) -> list[ClassStats]:
    """Max / min / average premium per class."""
    table = evaluate(graph, parse_query(_CQ3_QUERY))
    return [
        ClassStats(
            account_class=_account_class(cls_label),
            max_premium=maxp,
            min_premium=minp,
            avg_premium=avgp,  # exact; rounded only when written out
        )
        for cls_label, maxp, minp, avgp in table.rows
    ]


def cq4_initial_selection(graph: Graph, k: int) -> list[PairRevenue]:
    """(customer, product) pairs ranked by total RM uplift, top k."""
    if k <= 0:
        return []
    table = evaluate(graph, parse_query(_CQ4_QUERY))
    pairs = [
        PairRevenue(
            code, pnum,
            quantized(to_money, rmsum, f"RM total of ({code}, {pnum})")
            - quantized(to_money, origsum, f"original total of ({code}, {pnum})"),
        )
        for code, pnum, rmsum, origsum in table.rows
    ]
    pairs.sort(key=lambda p: -p.revenue_delta)  # stable: ties stay id-ascending
    return pairs[:k]


@dataclass(frozen=True)
class CqReport:
    top_customers: list[CustomerRevenue]
    occurrence_ranking: list[tuple[AccountClass, Optional[float]]]
    class_stats: list[ClassStats]
    pair_selection: list[PairRevenue]


def run_competency_questions(
    graph: Graph, top_n: int = 20, pair_k: int = 20
) -> CqReport:
    return CqReport(
        top_customers=cq1_top_customers(graph, top_n),
        occurrence_ranking=cq2_occurrence_ranking(graph),
        class_stats=cq3_class_premium_stats(graph),
        pair_selection=cq4_initial_selection(graph, pair_k),
    )


def _fraction_text(fraction: Optional[float]) -> Optional[str]:
    return None if fraction is None else f"{fraction:.6f}"


def _cq_tables(report: CqReport) -> dict[str, tuple[list[str], list[list]]]:
    """Each CQ's header and rows of cells, as both exports write them; the
    CSVs add a rank to cq1, cq2 and cq4. A fraction of None writes as an
    empty CSV cell and as JSON null, and an identifier that is not a string
    as ``terms.identifier`` writes it."""
    fractions = dict(report.occurrence_ranking)
    return {
        "cq1": (["customer_code", "total_rm_revenue"], [
            [identifier(row.customer_code), str(row.total_rm)]
            for row in report.top_customers
        ]),
        "cq2": (["account_class", "eligible_fraction"], [
            [cls.value, _fraction_text(fraction)]
            for cls, fraction in report.occurrence_ranking
        ]),
        "cq3": (["account_class", "max_premium", "min_premium", "avg_premium",
                 "eligible_fraction"], [
            [s.account_class.value, *(
                str(quantized(to_factor, v, f"premium of class {s.account_class}"))
                for v in (s.max_premium, s.min_premium, s.avg_premium)
            ), _fraction_text(fractions.get(s.account_class))]
            for s in report.class_stats
        ]),
        "cq4": (["customer_code", "product_number", "revenue_delta"], [
            [identifier(row.customer_code), identifier(row.product_number),
             str(row.revenue_delta)]
            for row in report.pair_selection
        ]),
    }


_RANKED = ("cq1", "cq2", "cq4")


def write_cq_csvs(report: CqReport, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (header, rows) in _cq_tables(report).items():
        if name in _RANKED:
            header = ["rank", *header]
            rows = [[rank, *row] for rank, row in enumerate(rows, start=1)]
        paths[name] = out / f"{name}.csv"
        write_csv(paths[name], header, rows)
    return paths


def write_cq_json(report: CqReport, path) -> None:
    write_json(path, {
        name: [dict(zip(header, row)) for row in rows]
        for name, (header, rows) in _cq_tables(report).items()
    })
