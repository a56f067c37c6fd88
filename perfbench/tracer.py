"""Spans and counts around ltbp's public functions, installed from outside.

``install`` replaces each traced function under every name an ltbp module
binds it to: ``analytics`` and ``report`` import ``evaluate`` by name, and
``cli``, ``analytics`` and ``report`` do the same with ``parse_query``, so
patching only the defining module would miss their calls. ``Graph.match`` is
wrapped on the class to count calls and the triples each call yields.
``uninstall`` puts every original object back.

Spans stay in memory as ``[name, start, end, parent, request]`` and are
written out once the run ends. A span's layer is the part of its name before
the first dot.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

# (defining module, function name, span name)
TARGETS = (
    ("ltbp.ingest", "generate_synthetic", "ingest.generate"),
    ("ltbp.ingest", "write_dataset", "ingest.write_dataset"),
    ("ltbp.ingest", "load_dataset", "ingest.load_dataset"),
    ("ltbp.pricing", "price_dataset", "pricing.price_dataset"),
    ("ltbp.pricing", "write_premiums", "pricing.write_csv"),
    ("ltbp.pricing", "write_priced_orders", "pricing.write_csv"),
    ("ltbp.graph", "build_graph", "graph.build_graph"),
    ("ltbp.graph", "export_ntriples", "graph.export_ntriples"),
    ("ltbp.graph", "load_ntriples", "graph.load_ntriples"),
    ("ltbp.graph", "evaluate", "graph.evaluate"),
    ("ltbp.query", "parse_query", "query.parse_query"),
    ("ltbp.analytics", "cq1_top_customers", "analytics.cq1"),
    ("ltbp.analytics", "cq2_occurrence_ranking", "analytics.cq2"),
    ("ltbp.analytics", "cq3_class_premium_stats", "analytics.cq3"),
    ("ltbp.analytics", "cq4_initial_selection", "analytics.cq4"),
    ("ltbp.analytics", "class_eligible_fractions", "analytics.class_fractions"),
    ("ltbp.analytics", "write_cq_csvs", "analytics.write"),
    ("ltbp.analytics", "write_cq_json", "analytics.write"),
    ("ltbp.report", "revenue_totals", "report.revenue_totals"),
    ("ltbp.report", "emit_report", "report.emit_report"),
)

LAYERS = ("ingest", "pricing", "graph", "query", "analytics", "report", "cli")
STAGES = ("generate", "price", "analyze", "report")


def _count_load(counts, args, kwargs, dataset):
    skipped = len(kwargs.get("issues") or ())
    counts["ingest.rows_skipped"] += skipped
    counts["ingest.rows_read"] += (len(dataset.customers) + len(dataset.products)
                                   + len(dataset.orders) + skipped)


def _count_priced(counts, args, kwargs, result):
    counts["pricing.orders_priced"] += len(result.priced_orders)
    counts["pricing.issues"] += len(result.issues)
    counts["pricing.premiums_above_1"] += sum(p.premium > 1 for p in result.premiums)


def _count_export(counts, args, kwargs, _):
    counts["graph.nt_bytes"] += os.path.getsize(args[1])


def _count_evaluate(counts, args, kwargs, table):
    counts["graph.evaluate_calls"] += 1
    counts["graph.rows_out"] += len(table.rows)


COUNTERS = {
    "ingest.load_dataset": _count_load,
    "pricing.price_dataset": _count_priced,
    "graph.build_graph": lambda c, a, k, g: c.update({"graph.triples": len(g)}),
    "graph.export_ntriples": _count_export,
    "graph.evaluate": _count_evaluate,
    "query.parse_query": lambda c, a, k, r: c.update({"query.parses": 1}),
    "analytics.class_fractions":
        lambda c, a, k, r: c.update({"analytics.class_fraction_passes": 1}),
}


COUNT_METRICS = (
    "graph.triples", "graph.nt_bytes", "graph.evaluate_calls",
    "graph.match_calls", "graph.triples_matched", "graph.rows_out",
    "query.parses", "analytics.class_fraction_passes",
    "ingest.rows_read", "ingest.rows_skipped",
    "pricing.orders_priced", "pricing.issues", "pricing.premiums_above_1",
)

# Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "graph.triples", "graph.nt_bytes", "analytics.class_fraction_passes",
    "graph.match_calls", "pricing.orders_priced", "ingest.rows_read",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._open[-1] if self._open else None, self.request]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import ltbp.cli  # noqa: F401  imports every ltbp module
        from ltbp.graph import Graph

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ltbp" or n.startswith("ltbp.")]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span_name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)

        match = Graph.match
        counts = self.counts

        @functools.wraps(match)
        def counted_match(graph, *args, **kwargs):
            counts["graph.match_calls"] += 1
            for triple in match(graph, *args, **kwargs):
                counts["graph.triples_matched"] += 1
                yield triple

        self._patches.append((Graph, "match", match))
        Graph.match = counted_match

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(traces: list[dict], rss_mb: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the dumps of one traced run.

    ``rss_mb`` maps a CLI stage to the peak RSS of the process that ran it.
    Every metric is present; a layer the workload never calls reads 0.
    """
    total, own, layer_own = defaultdict(float), defaultdict(float), defaultdict(float)
    counts = Counter()
    for trace in traces:
        counts.update(trace["counts"])
        for span, self_s in zip(trace["spans"], self_times(trace["spans"])):
            name, start, end = span[0], span[1], span[2]
            total[name] += end - start
            own[name] += self_s
            layer_own[name.split(".", 1)[0]] += self_s

    metrics = {
        "graph.build_graph_s": total["graph.build_graph"],
        "graph.export_ntriples_s": total["graph.export_ntriples"],
        "graph.load_ntriples_s": total["graph.load_ntriples"],
        "graph.evaluate_s": total["graph.evaluate"],
        "query.parse_query_s": total["query.parse_query"],
        "analytics.cq1_s": total["analytics.cq1"],
        "analytics.cq2_s": total["analytics.cq2"],
        "analytics.cq3_s": total["analytics.cq3"],
        "analytics.cq4_s": total["analytics.cq4"],
        "analytics.class_fractions_s": total["analytics.class_fractions"],
        "analytics.write_s": total["analytics.write"],
        "report.revenue_totals_s": total["report.revenue_totals"],
        "report.emit_report_s": total["report.emit_report"],
        "ingest.generate_s": total["ingest.generate"],
        "ingest.write_dataset_s": total["ingest.write_dataset"],
        "ingest.load_dataset_s": total["ingest.load_dataset"],
        "pricing.price_dataset_s": total["pricing.price_dataset"],
        "pricing.write_csv_s": total["pricing.write_csv"],
    }
    for stage in STAGES:
        metrics[f"cli.{stage}_self_s"] = own[f"cli.{stage}"]
        metrics[f"cli.{stage}_rss_mb"] = rss_mb.get(stage, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_own[layer]
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    rows = counts["graph.rows_out"]
    metrics["graph.matched_per_row"] = (
        counts["graph.triples_matched"] / rows if rows else 0.0)
    return metrics

