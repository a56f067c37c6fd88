"""Tests of the benchmark itself: its output checks catch wrong results and
count them as failures, and its tracer leaves ltbp as it found it.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import sys
from decimal import Decimal

import pytest

import ltbp.cli
import ltbp.graph
from ltbp import analytics, ingest, pricing
from ltbp.model import PricingConfig
from perfbench import checks, common, workloads
from perfbench.tracer import Tracer, layer_metrics, self_times


@pytest.fixture(autouse=True)
def ledger_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "LEDGER", tmp_path / "ledger.json")


def small_setup(seed):
    config = PricingConfig()
    dataset = ingest.generate_synthetic(
        ingest.GeneratorConfig(seed=seed, n_orders=300, n_customers=6))
    result = pricing.price_dataset(dataset, config)
    return dataset, result, ltbp.graph.build_graph(dataset, result, config)


@pytest.fixture
def pipeline_tree(tmp_path):
    """One generate -> price -> analyze -> report tree at a small size."""
    data, run = tmp_path / "data", tmp_path / "run-1"
    for argv in (
        ["generate", "--seed", "7", "--orders", "400", "--customers", "8",
         "--out", data],
        ["price", "--orders", data / "orders.csv", "--portfolio",
         data / "customers.csv", "--products", data / "products.csv",
         "--out", run],
        ["--out-dir", run, "analyze", "--graph", run / "graph.nt"],
        ["report", "--graph", run / "graph.nt", "--out", run / "report.json"],
    ):
        assert ltbp.cli.main([str(a) for a in argv]) == 0
    return data, run


def test_lookup_wrong_answer_is_counted_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "lookup_setup", small_setup)
    monkeypatch.setattr(workloads, "LOOKUP_MIN_MIXES", 4)
    honest = workloads.lookup(3, 0, False)
    assert honest.attempted == 12 and not honest.failed

    evaluate = ltbp.graph.evaluate

    def wrong_premium(graph, spec):
        table = evaluate(graph, spec)
        if list(spec.projections) == ["cls", "premium"]:
            table.rows = [(cls, p + Decimal("0.000001")) for cls, p in table.rows]
        return table

    monkeypatch.setattr(ltbp.graph, "evaluate", wrong_premium)
    out = workloads.lookup(3, 0, False)
    assert out.attempted == 12
    assert len(out.failed) == 4  # one customer_premium request per mix
    assert all("customer_premium" in m for m in out.messages)


def test_untampered_pipeline_tree_passes(pipeline_tree):
    assert checks.check_pipeline(*pipeline_tree) == []


def _rewrite_first_cell(path, column, new):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][rows[0].index(column)] = new
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("tamper, stage", [
    ("report_total", "report"),
    ("report_count", "report"),
    ("cq1_total", "analyze"),
    ("cq2_fraction", "analyze"),
])
def test_tampered_pipeline_output_is_counted_as_failure(pipeline_tree, tamper, stage):
    data, run = pipeline_tree
    if tamper.startswith("report"):
        report = json.loads((run / "report.json").read_text())
        if tamper == "report_total":
            report["totals"]["rm"] = str(Decimal(report["totals"]["rm"]) + Decimal("0.01"))
        else:
            report["counts"]["orders"] += 1
        (run / "report.json").write_text(json.dumps(report))
    elif tamper == "cq1_total":
        _rewrite_first_cell(run / "cq1.csv", "total_rm_revenue", "1.00")
    else:
        _rewrite_first_cell(run / "cq2.csv", "eligible_fraction", "0.123456")

    assert [s for s, _ in checks.check_pipeline(data, run)] == [stage]
    out = workloads.Outcome()
    workloads._check_pipeline_outputs(out, run.parent, 7, [("run-1", {})])
    assert ("run-1", stage) in out.failed


def test_pipeline_pass_differing_from_the_first_is_a_failure(pipeline_tree):
    data, run = pipeline_tree
    second = run.parent / "run-2"
    second.mkdir()
    for path in run.iterdir():
        (second / path.name).write_bytes(path.read_bytes())
    (second / "cq_report.json").write_text("{}\n")
    out = workloads.Outcome()
    workloads._check_pipeline_outputs(out, run.parent, 7, [("run-1", {}), ("run-2", {})])
    assert out.failed == {("run-2", "analyze")}


def test_counts_of_changed_ltbp_sources_start_a_fresh_ledger_entry(tmp_path, monkeypatch):
    package = tmp_path / "ltbp"
    package.mkdir()
    (package / "graph.py").write_text("def match(): pass\n")
    monkeypatch.setattr(common, "PACKAGE", package)
    counts = dict.fromkeys(workloads.EXACT_COUNTS, 5)

    def check(value):
        out = workloads.Outcome()
        workloads._check_counts(out, "pipeline", 3, "300",
                                {**counts, "graph.match_calls": value}, "op")
        return out.messages

    assert check(100) == []
    assert check(100) == []
    assert [m.split(":")[0] for m in check(90)] == ["determinism fault"]
    (package / "graph.py").write_text("def match(): return 1\n")
    assert check(90) == []  # new code: its counts are recorded afresh
    assert check(100) != []


def test_pricing_check_catches_rm_below_original(tmp_path):
    dataset, result, _ = small_setup(5)
    ingest.write_dataset(dataset, tmp_path)
    pricing.write_premiums(result, tmp_path / "premiums.csv")
    pricing.write_priced_orders(result, tmp_path / "priced_orders.csv")
    report = {"orders_read": len(dataset.orders),
              "issues": len(result.issues)}
    assert checks.check_pricing(tmp_path, tmp_path, report, 2.0) == []
    _rewrite_first_cell(tmp_path / "priced_orders.csv", "rm", "0.01")
    assert any("below original" in m
               for m in checks.check_pricing(tmp_path, tmp_path, report, 2.0))


def _ltbp_bindings():
    from ltbp.graph import Graph

    bound = {(name, attr): value
             for name, module in sys.modules.items()
             if name == "ltbp" or name.startswith("ltbp.")
             for attr, value in vars(module).items()}
    bound[("Graph", "match")] = Graph.__dict__["match"]
    return bound


def test_tracer_wraps_names_where_callers_look_them_up_and_restores_them():
    _, _, graph = small_setup(11)
    before = _ltbp_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert analytics.evaluate is not before[("ltbp.analytics", "evaluate")]
        assert ltbp.cli.parse_query is not before[("ltbp.cli", "parse_query")]
        analytics.cq1_top_customers(graph, 3)
    finally:
        tracer.uninstall()
    assert _ltbp_bindings() == before

    names = [span[0] for span in tracer.spans]
    assert names == ["analytics.cq1", "query.parse_query", "graph.evaluate"]
    assert [span[3] for span in tracer.spans] == [None, 0, 0]
    assert tracer.counts["graph.match_calls"] > 0
    assert tracer.counts["graph.triples_matched"] > 0


def test_self_time_subtracts_direct_children():
    spans = [["cli.price", 0.0, 10.0, None, "r"],
             ["graph.build_graph", 1.0, 4.0, 0, "r"],
             ["graph.evaluate", 5.0, 6.0, 0, "r"]]
    assert self_times(spans) == [6.0, 3.0, 1.0]
    metrics = layer_metrics([{"spans": spans, "counts": {}}], {"price": 90.0})
    assert metrics["cli.price_self_s"] == 6.0
    assert metrics["graph.self_s"] == 4.0
    assert metrics["cli.price_rss_mb"] == 90.0
    assert metrics["analytics.cq1_s"] == 0.0


def test_traced_lookup_run_restores_every_ltbp_name(monkeypatch):
    monkeypatch.setattr(workloads, "lookup_setup", small_setup)
    monkeypatch.setattr(workloads, "LOOKUP_TRACED_MIXES", 2)
    monkeypatch.setattr(workloads, "TRACES", common.LEDGER.parent / "traces")
    workloads.lookup_setup(3)  # import what the run imports before comparing
    before = _ltbp_bindings()
    out = workloads.lookup(3, 0, True)
    assert _ltbp_bindings() == before
    assert not out.failed and out.attempted == 12  # 6 plain + 6 traced requests
    assert out.metrics["graph.evaluate_calls"] == (6, "count")
    assert out.metrics["query.parses"] == (6, "count")
