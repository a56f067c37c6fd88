import contextlib
import csv
import filecmp
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ltbp.cli import main
from ltbp.ingest import CUSTOMERS_HEADER, ORDERS_HEADER, PRODUCTS_HEADER, Dataset
from ltbp.model import (
    MONEY_MAX, AccountClass, Customer, Order, PricingConfig, Product, to_factor,
)
from ltbp.pricing import PricingResult
from ltbp.report import config_fingerprint
from ltbp.terms import XSD, unescape
from tests.oracles import (
    oracle_cq1, oracle_cq2, oracle_cq3, oracle_cq4, oracle_totals,
    priced_orders_oracle,
)

ROOT = Path(__file__).resolve().parent.parent
TOTALS_RQ = ROOT / "src" / "ltbp" / "totals.rq"


def run(args):
    return main([str(a) for a in args])


def _quantity_filter(expr):
    return f"SELECT ?o WHERE {{ ?o :hasQuantity ?q FILTER({expr}) }}"


def generate(out, seed=5, orders=60, customers=8, products=3):
    code = run([
        "generate", "--seed", seed, "--orders", orders,
        "--customers", customers, "--products", products, "--out", out,
    ])
    assert code == 0
    return out


def price_args(data_dir, out):
    return [
        "price",
        "--orders", data_dir / "orders.csv",
        "--portfolio", data_dir / "customers.csv",
        "--products", data_dir / "products.csv",
        "--out", out,
    ]


def price(data_dir, out):
    assert run(price_args(data_dir, out)) == 0
    return out


class TestGenerate:
    def test_twice_identical_files(self, tmp_path):
        a = generate(tmp_path / "a")
        b = generate(tmp_path / "b")
        for name in ("customers.csv", "products.csv", "orders.csv", "manifest.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_manifest_records_seed(self, tmp_path):
        generate(tmp_path / "d", seed=99)
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["n_orders"] == 60

    def test_date_span_flags_bound_order_dates(self, tmp_path):
        code = run([
            "generate", "--seed", 3, "--orders", 40, "--customers", 5,
            "--start", "2021-03-01", "--end", "2021-04-01",
            "--out", tmp_path / "d",
        ])
        assert code == 0
        rows = (tmp_path / "d" / "orders.csv").read_text().splitlines()[1:]
        dates = [row.split(",")[5] for row in rows]
        assert min(dates) >= "2021-03-01" and max(dates) <= "2021-04-01"

    @pytest.mark.parametrize("flag, text", [
        ("--start", "20190716"), ("--end", "2030-W01-1"), ("--start", "2021-02-29"),
    ])
    def test_date_flag_takes_only_the_dashed_form(self, tmp_path, capsys, flag, text):
        code = run(["generate", flag, text, "--out", tmp_path / "d",
                    "--orders", 5, "--customers", 2])
        assert code == 1
        assert f"usage error: not an ISO date: {text!r}" in capsys.readouterr().err

    def test_span_ending_near_the_last_date_is_data_error(self, tmp_path, capsys):
        # An order's dates run up to 63 days past its order date.
        code = run(["generate", "--start", "9999-11-01", "--end", "9999-12-31",
                    "--out", tmp_path / "late", "--orders", 5, "--customers", 2])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: date span must end 63 days or more before 9999-12-31, "
            "got 9999-12-31\n")
        code = run(["generate", "--start", "9999-10-01", "--end", "9999-10-29",
                    "--out", tmp_path / "d", "--orders", 200, "--customers", 2])
        assert code == 0

    def test_seed_42_bytes(self, tmp_path):
        # The four files as first written; any change to the generator's
        # draws or to the writer's text shows here.
        generate(tmp_path, seed=42, orders=2000, customers=60, products=25)
        found = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("customers.csv", "products.csv", "orders.csv",
                              "manifest.json")}
        assert found == {
            "customers.csv":
                "6d6d2badf691cbc19015340d74011e3fe9357f4a8ba53a7e459cc16e4344b32c",
            "products.csv":
                "97b2d2ee09e6e19965b130d43236f4570ee68dfbe546c3664d16d8b5781ba756",
            "orders.csv":
                "52995933b90b2c30aba3091a19ec61acb887c33da1a4363674235bcaf8e73b43",
            "manifest.json":
                "ba7a85551c793e9ed8732c4706f5e64eb9847904f5224c97fc453641ea04b5f1",
        }

    def test_bad_date_flag_is_usage_error(self, tmp_path, capsys):
        code = run([
            "generate", "--start", "not-a-date", "--out", tmp_path / "d",
            "--orders", 5, "--customers", 2,
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


class TestPrice:
    def test_outputs_exist(self, tmp_path):
        data = generate(tmp_path / "data")
        out = price(data, tmp_path / "run")
        for name in ("premiums.csv", "priced_orders.csv", "graph.nt"):
            assert (out / name).exists(), name
        header = (out / "premiums.csv").read_text().splitlines()[0]
        assert header == "customer_code,rsd,rmd,premium"
        header = (out / "priced_orders.csv").read_text().splitlines()[0]
        assert header == "order_number,original,rm,convex"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run([
            "price", "--orders", tmp_path / "nope.csv",
            "--portfolio", tmp_path / "nope.csv",
            "--products", tmp_path / "nope.csv",
            "--out", tmp_path / "run",
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: no such file: {tmp_path}/nope.csv\n"

    def test_bad_row_aborts_without_skip_invalid(self, tmp_path):
        data = generate(tmp_path / "data")
        orders = data / "orders.csv"
        lines = orders.read_text().splitlines()
        broken = lines[1].split(",")
        broken[0] = "OBAD"
        broken[3] = "-4"  # negative quantity
        lines.insert(1, ",".join(broken))
        orders.write_text("\n".join(lines) + "\n")
        code = run([
            "price", "--orders", orders,
            "--portfolio", data / "customers.csv",
            "--products", data / "products.csv",
            "--out", tmp_path / "run",
        ])
        assert code == 2

    def test_skip_invalid_continues(self, tmp_path, capsys):
        data = generate(tmp_path / "data")
        orders = data / "orders.csv"
        lines = orders.read_text().splitlines()
        broken = lines[1].split(",")
        broken[0] = "OBAD"
        broken[3] = "-4"
        lines.insert(1, ",".join(broken))
        orders.write_text("\n".join(lines) + "\n")
        code = run([
            "--skip-invalid",
            "price", "--orders", orders,
            "--portfolio", data / "customers.csv",
            "--products", data / "products.csv",
            "--out", tmp_path / "run",
        ])
        assert code == 0
        assert "skipped" in capsys.readouterr().err

    def test_config_file_and_flag_overrides(self, tmp_path):
        import argparse

        from ltbp.cli import build_pricing_config

        cfg = tmp_path / "pricing.cfg"
        cfg.write_text("p_max = 1.5\nrho_key = 0.2\n# comment\n")
        args = argparse.Namespace(
            config=str(cfg), alpha=None, beta=None, p_max=1.8, convex_alpha=None,
            rho_key=None, rho_regular=None, rho_others=None,
        )
        config = build_pricing_config(args)
        assert config.p_max == 1.8  # flag beats file
        assert config.rho_key == 0.2  # file beats default
        assert config.rho_regular == 0.05

    def test_price_honors_config_flags(self, tmp_path):
        data = generate(tmp_path / "data")
        code = run([
            "price", "--orders", data / "orders.csv",
            "--portfolio", data / "customers.csv",
            "--products", data / "products.csv",
            "--out", tmp_path / "run",
            "--p-max", "1.1",
        ])
        assert code == 0
        premiums = (tmp_path / "run" / "premiums.csv").read_text()
        values = [float(line.split(",")[3]) for line in premiums.splitlines()[1:]]
        assert values and max(values) <= 1.1

    def test_bad_config_key_is_data_error(self, tmp_path):
        data = generate(tmp_path / "data")
        cfg = tmp_path / "pricing.cfg"
        cfg.write_text("nonsense = 1\n")
        code = run([
            "price", "--orders", data / "orders.csv",
            "--portfolio", data / "customers.csv",
            "--products", data / "products.csv",
            "--out", tmp_path / "run", "--config", cfg,
        ])
        assert code == 2

    def test_repeated_config_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "pricing.cfg"
        cfg.write_text("p_max = 1.5\n# comment\n\np_max = 1.2\n")
        code = run([
            "price", "--orders", tmp_path / "o.csv",
            "--portfolio", tmp_path / "c.csv", "--products", tmp_path / "p.csv",
            "--out", tmp_path / "run", "--config", cfg,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 4: p_max is already set on line 1\n")
        assert not (tmp_path / "run").exists()


class TestAnalyzeQueryReport:
    @pytest.fixture
    def run_dir(self, tmp_path):
        data = generate(tmp_path / "data")
        return price(data, tmp_path / "run")

    def test_analyze_outputs(self, run_dir, tmp_path):
        out = tmp_path / "cq"
        code = run(["--out-dir", out, "analyze", "--graph", run_dir / "graph.nt"])
        assert code == 0
        for name in ("cq1.csv", "cq2.csv", "cq3.csv", "cq4.csv", "cq_report.json"):
            assert (out / name).exists(), name

    def test_report_and_query_agree(self, run_dir, tmp_path, capsys):
        code = run([
            "report", "--graph", run_dir / "graph.nt",
            "--out", tmp_path / "report.json",
        ])
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "report.json").read_text())

        code = run(["query", "--graph", run_dir / "graph.nt", "--query", TOTALS_RQ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split("\t")
        values = dict(zip(header, out[1].split("\t")))
        assert values["TotalRMPrice"] == payload["totals"]["rm"]
        assert values["TotalOrginalPrice"] == payload["totals"]["original"]
        assert values["TotalConvexPrice"] == payload["totals"]["convex"]

    @pytest.mark.parametrize("flags, config", [
        ([], None),
        (["--alpha", "2"], PricingConfig(alpha=2.0)),
        (["--rho-others", "0.5"], PricingConfig(rho_others=0.5)),
    ])
    def test_report_fingerprints_the_config_its_flags_set(self, run_dir, tmp_path,
                                                          flags, config):
        out = tmp_path / "report.json"
        assert run(["report", "--graph", run_dir / "graph.nt", "--out", out,
                    *flags]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["config_fingerprint"] == (
            None if config is None else config_fingerprint(config))

    def test_report_rejects_an_out_of_range_flag(self, run_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["report", "--graph", run_dir / "graph.nt", "--out", out,
                    "--rho-key", "1.5"]) == 2
        assert "rho" in capsys.readouterr().err
        assert not out.exists()

    def test_query_syntax_error_is_data_error(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "bad.rq"
        bad.write_text("SELECT WHERE {")
        code = run(["query", "--graph", run_dir / "graph.nt", "--query", bad])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, column", [
        ("(" * 200 + "?q > 1" + ")" * 200, 109),
        ("-" * 1000 + "?q > 1", 109),
    ], ids=["parentheses", "negations"])
    def test_query_nested_too_deep_is_data_error(self, run_dir, tmp_path, capsys,
                                                 expr, column):
        q = tmp_path / "deep.rq"
        q.write_text(f"SELECT ?o WHERE {{ ?o :hasQuantity ?q FILTER({expr}) }}")
        code = run(["query", "--graph", run_dir / "graph.nt", "--query", q])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line 1, column {column}: filter expression nests deeper" in err

    def test_query_nested_fifty_levels_runs(self, run_dir, tmp_path, capsys):
        q = tmp_path / "nested.rq"
        q.write_text(
            "SELECT (COUNT(?o) AS ?n) WHERE { ?o :hasQuantity ?q FILTER("
            + "(" * 50 + "-?q < 0" + ")" * 50 + ") }"
        )
        code = run(["query", "--graph", run_dir / "graph.nt", "--query", q])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["n", "60"]

    @pytest.mark.parametrize("query, message", [
        ("SELECT ?o WHERE { ?o :hasQuantity ?q } LIMIT " + "9" * 5000,
         "line 1, column 46: too many digits"),
        (_quantity_filter("?q > " + "9" * 5000), "line 1, column 50: too many digits"),
        # A sum of 10**1000000 or more: past the decimal exponent limit, yet
        # within the filter's digit budget, one digit past its longer operand.
        (_quantity_filter(f"?q + {'9' * 1_000_000}.0 > 1"),
         "decimal overflow in (?q + 9999"),
    ], ids=["limit", "filter", "decimal-overflow"])
    def test_query_number_out_of_range_is_data_error(self, run_dir, tmp_path, capsys,
                                                     query, message):
        q = tmp_path / "big.rq"
        q.write_text(query)
        capsys.readouterr()
        assert run(["query", "--graph", run_dir / "graph.nt", "--query", q]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err

    def test_query_formats_iris_and_dates(self, run_dir, tmp_path, capsys):
        q = tmp_path / "q.rq"
        q.write_text(
            "SELECT ?o ?d WHERE { ?o :hasOrderDate ?d } ORDER BY ?d LIMIT 1"
        )
        code = run(["query", "--graph", run_dir / "graph.nt", "--query", q])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "o\td"
        subject, day = lines[1].split("\t")
        assert subject.startswith("<urn:ltbp:order:O") and subject.endswith(">")
        assert len(day) == 10 and day[4] == "-"

    def test_usage_error_exit_code(self, capsys):
        assert run(["frobnicate"]) == 1
        assert run([]) == 1
        capsys.readouterr()

    def test_internal_error_exit_code(self, tmp_path, monkeypatch, capsys):
        import ltbp.cli

        def boom(config):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(ltbp.cli.ingest, "generate_synthetic", boom)
        code = run(["generate", "--seed", "1", "--orders", "5",
                    "--customers", "2", "--out", tmp_path / "d"])
        assert code == 3
        assert "internal error" in capsys.readouterr().err


def _write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


# Identifier terms a valid graph may hold that are not strings, and the cell
# each writes as: the text ``ltbp query`` prints for it.
_IDENTIFIERS = [
    (f'"1.5"^^<{XSD}decimal>', "1.5"),
    (f'"5"^^<{XSD}integer>', "5"),
    (f'"2020-02-29"^^<{XSD}date>', "2020-02-29"),
    ("<urn:x>", "<urn:x>"),
]


@pytest.mark.parametrize("term, cell", _IDENTIFIERS)
def test_analyze_writes_an_identifier_that_is_not_a_string_as_text(tmp_path, term,
                                                                   cell):
    graph = _write_lines(tmp_path / "graph.nt", [
        f"<urn:c> <urn:ltbp:p:hasCustomerCode> {term} .",
        f'<urn:c> <urn:ltbp:p:hasPremium> "1.5"^^<{XSD}decimal> .',
        "<urn:o> <urn:ltbp:p:wasPlacedBy> <urn:c> .",
        "<urn:o> <urn:ltbp:p:containsProduct> <urn:p> .",
        f'<urn:o> <urn:ltbp:p:hasRMPrice> "10.00"^^<{XSD}decimal> .',
        f'<urn:o> <urn:ltbp:p:hasOriginalPrice> "9.00"^^<{XSD}decimal> .',
        f"<urn:p> <urn:ltbp:p:hasProductNumber> {term} .",
    ])
    out = tmp_path / "cq"
    assert run(["--out-dir", out, "analyze", "--graph", graph]) == 0
    assert (out / "cq1.csv").read_text(encoding="utf-8") == (
        f"rank,customer_code,total_rm_revenue\n1,{cell},10.00\n")
    assert (out / "cq4.csv").read_text(encoding="utf-8") == (
        f"rank,customer_code,product_number,revenue_delta\n1,{cell},{cell},1.00\n")
    report = json.loads((out / "cq_report.json").read_text(encoding="utf-8"))
    assert report["cq1"] == [{"customer_code": cell, "total_rm_revenue": "10.00"}]
    assert report["cq4"] == [{"customer_code": cell, "product_number": cell,
                              "revenue_delta": "1.00"}]


@pytest.mark.parametrize("term, names", [
    (term, names) for (term, _), names in zip(
        _IDENTIFIERS, ["1.5, A7", "5, A7", "A7, 2020-02-29", "A7, <urn:x>"])
])
def test_report_names_unpriced_orders_that_are_not_strings(tmp_path, capsys, term,
                                                           names):
    """Unpriced orders are named in ORDER BY order: numbers, then strings,
    then dates, then IRIs."""
    graph = _write_lines(tmp_path / "graph.nt", [
        '<urn:o1> <urn:ltbp:p:hasOrderNumber> "A7" .',
        f"<urn:o2> <urn:ltbp:p:hasOrderNumber> {term} .",
    ])
    capsys.readouterr()
    assert run(["report", "--graph", graph, "--out", tmp_path / "report.json"]) == 2
    assert capsys.readouterr().err == f"error: unpriced orders in graph: {names}\n"


def _rewrite_column(path, column, old, new):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    index = rows[0].index(column)
    for row in rows[1:]:
        if row[index] == old:
            row[index] = new
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("code", ["C 1", "C,2", 'C"3', "Ç<4>"])
def test_hostile_customer_code_survives_pipeline(tmp_path, code):
    data = generate(tmp_path / "data")
    with open(data / "orders.csv", encoding="utf-8", newline="") as handle:
        placed = [row[1] for row in csv.reader(handle)][1:]
    victim = max(sorted(set(placed)), key=placed.count)
    _rewrite_column(data / "customers.csv", "customer_code", victim, code)
    _rewrite_column(data / "orders.csv", "customer_code", victim, code)

    out = price(data, tmp_path / "run")
    assert run(["--out-dir", out, "analyze", "--graph", out / "graph.nt",
                "--pairs", 1000]) == 0
    assert run(["report", "--graph", out / "graph.nt",
                "--out", out / "report.json"]) == 0

    carriers = {"premiums.csv", "cq1.csv", "cq4.csv"}
    for path in sorted(out.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert rows and all(len(row) == len(header) for row in rows), path.name
        if path.name in carriers:
            column = header.index("customer_code")
            assert code in {row[column] for row in rows}, path.name
    cq1 = json.loads((out / "cq_report.json").read_text(encoding="utf-8"))["cq1"]
    assert code in {row["customer_code"] for row in cq1}


def test_same_day_delivery_row_rejected_or_skipped(tmp_path, capsys):
    data = generate(tmp_path / "data")
    with open(data / "orders.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    rows[1][header.index("customer_delivery_date")] = rows[1][header.index("order_date")]
    with open(data / "orders.csv", "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    out = tmp_path / "run"

    assert run(price_args(data, out)) == 2
    assert "line 2, column customer_delivery_date" in capsys.readouterr().err
    assert run(["--skip-invalid", *price_args(data, out)]) == 0
    assert run(["--out-dir", out, "analyze", "--graph", out / "graph.nt"]) == 0
    assert run(["report", "--graph", out / "graph.nt",
                "--out", out / "report.json"]) == 0


@pytest.mark.parametrize("column, value", [
    ("original_price", "99999999999999999999999999.99"),
    ("quantity", "1_000"),
    ("quantity", " 12"),
    ("quantity", "١_٢"),  # Arabic-Indic 1_2
    pytest.param("quantity", "9" * 5000, id="quantity-5000-digits"),
])
def test_out_of_bound_or_loose_cell_rejected_or_skipped(tmp_path, capsys, column,
                                                        value):
    data = generate(tmp_path / "data")
    with open(data / "orders.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][rows[0].index(column)] = value
    with open(data / "orders.csv", "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    out = tmp_path / "run"

    capsys.readouterr()
    assert run(price_args(data, out)) == 2
    err = capsys.readouterr().err
    assert f"line 2, column {column}" in err and "internal error" not in err
    assert run(["--skip-invalid", *price_args(data, out)]) == 0
    with open(out / "priced_orders.csv", encoding="utf-8", newline="") as handle:
        assert len(list(csv.reader(handle))) == len(rows) - 1


@pytest.mark.parametrize("skip", [[], ["--skip-invalid"]])
def test_oversized_cell_is_a_file_error(tmp_path, capsys, skip):
    # The cell holds a line break, so its record starts on line 5 and the
    # reader fails on a later one; a record that breaks the reader is a file
    # error in both modes, as no record boundary after it can be trusted.
    data = generate(tmp_path / "data")
    path = data / "customers.csv"
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[4][0] = "C\n" + "9" * 200_000
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    assert run([*skip, *price_args(data, tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 5: field larger than field limit (131072)\n")


def test_byte_order_mark_prices_as_without_one(tmp_path):
    data = generate(tmp_path / "data")
    plain = price(data, tmp_path / "plain")
    for name in ("orders.csv", "customers.csv", "products.csv"):
        path = data / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked = price(data, tmp_path / "marked")
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(marked)) and "graph.nt.img" in names
    assert filecmp.cmpfiles(plain, marked, names, shallow=False)[0] == names


@pytest.mark.parametrize("settings", [
    ["--p-max", "1e300", "--alpha", "1e300"],
    ["--p-max", "1000.5"],
    ["--convex-alpha=-1e300"],
])
def test_setting_over_bound_is_data_error(tmp_path, capsys, settings):
    args = [*price_args(generate(tmp_path / "data"), tmp_path / "run"), *settings]
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


def _rewrite_graph(tmp_path, predicate, new_object, orders=60):
    out = price(generate(tmp_path / "data", orders=orders), tmp_path / "run")
    graph = out / "graph.nt"
    lines = []
    for line in graph.read_text(encoding="utf-8").splitlines():
        subject, pred, _ = line.split(" ", 2)
        if pred.endswith(f":{predicate}>"):
            line = f"{subject} {pred} {new_object} ."
        lines.append(f"{line}\n")
    graph.write_text("".join(lines), encoding="utf-8")
    return graph


def _non_utf8_csv(tmp_path):
    data = generate(tmp_path / "data")
    with open(data / "customers.csv", "ab") as handle:
        handle.write(b"C\xff,Key,50000000,\n")
    return price_args(data, tmp_path / "run")


def _non_utf8_graph(tmp_path):
    graph = tmp_path / "graph.nt"
    graph.write_bytes(b'<urn:s> <urn:p> "\xff" .\n')
    return ["analyze", "--graph", graph]


def _platinum_account_type(tmp_path):
    return ["analyze", "--graph",
            _rewrite_graph(tmp_path, "hasAccountType", '"Platinum"')]


def _rm_total_below_original(tmp_path):
    rm = '"0.01"^^<http://www.w3.org/2001/XMLSchema#decimal>'
    graph = _rewrite_graph(tmp_path, "hasRMPrice", rm)
    return ["report", "--graph", graph, "--out", tmp_path / "report.json"]


@pytest.mark.parametrize("make_args", [
    _non_utf8_csv,
    _non_utf8_graph,
    lambda tmp_path: ["generate", "--orders", 0, "--out", tmp_path / "d"],
    lambda tmp_path: ["generate", "--orders", 10**8, "--out", tmp_path / "d"],
    lambda tmp_path: [*price_args(generate(tmp_path / "data"), tmp_path / "run"),
                      "--p-max", "0.5"],
    lambda tmp_path: [*price_args(generate(tmp_path / "data"), tmp_path / "run"),
                      "--alpha", "nan"],
    _platinum_account_type,
    _rm_total_below_original,
], ids=["non-utf8-csv", "non-utf8-graph", "zero-orders", "too-many-orders",
        "p-max-below-one", "nan-alpha", "platinum-account-type",
        "rm-total-below-original"])
def test_bad_input_is_data_error(tmp_path, capsys, make_args):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize("args, reason, named", [
    (["analyze", "--graph", "{dir}"], "is a directory", "{dir}"),
    (["query", "--graph", "{graph}", "--query", "{dir}"], "is a directory", "{dir}"),
    (["price", "--orders", "{dir}", "--portfolio", "{data}/customers.csv",
      "--products", "{data}/products.csv", "--out", "{dir}/run"],
     "is a directory", "{dir}"),
    (["price", "--orders", "{graph}", "--portfolio", "{graph}",
      "--products", "{graph}", "--config", "{dir}", "--out", "{dir}/run"],
     "is a directory", "{dir}"),
    (["report", "--graph", "{dir}", "--out", "{dir}/report.json"],
     "is a directory", "{dir}"),
    (["analyze", "--graph", "{graph}/graph.nt"], "not a directory",
     "{graph}/graph.nt"),
], ids=["analyze-graph", "query-query", "price-orders", "price-config",
        "report-graph", "graph-under-a-file"])
def test_unopenable_input_path_is_data_error(tmp_path, capsys, args, reason, named):
    paths = {"dir": tmp_path / "dir", "graph": tmp_path / "graph.nt",
             "data": generate(tmp_path / "data")}
    paths["dir"].mkdir()
    paths["graph"].write_text("<urn:s> <urn:p> <urn:o> .\n", encoding="utf-8")
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in args]) == 2
    assert capsys.readouterr().err == f"error: {reason}: {named.format(**paths)}\n"


def test_unreadable_input_path_is_data_error(tmp_path, monkeypatch, capsys):
    import errno

    import ltbp.cli

    def denied(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(ltbp.cli.graphmod, "load_ntriples", denied)
    assert run(["analyze", "--graph", tmp_path / "graph.nt"]) == 2
    assert capsys.readouterr().err == (
        f"error: permission denied: {tmp_path / 'graph.nt'}\n")


def test_value_error_from_a_bug_is_internal_error(tmp_path, monkeypatch, capsys):
    import ltbp.cli

    def boom(graph):
        raise ValueError("synthetic bug")

    out = price(generate(tmp_path / "data"), tmp_path / "run")
    monkeypatch.setattr(ltbp.cli.reportmod, "revenue_totals", boom)
    code = run(["report", "--graph", out / "graph.nt", "--out", out / "report.json"])
    assert code == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys,
                                                  collecting):
    import ltbp.cli

    seen = []

    def recording(args):
        seen.append(gc.isenabled())
        return 0

    def bug(config):
        raise ValueError("synthetic bug")

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        codes = [run(["generate", "--seed", "1", "--orders", "5", "--customers", "2",
                      "--out", tmp_path / "d"])]
        assert gc.isenabled() is collecting
        codes.append(run(["price", "--orders", tmp_path / "nope.csv",
                          "--portfolio", tmp_path / "nope.csv",
                          "--products", tmp_path / "nope.csv",
                          "--out", tmp_path / "run"]))
        assert gc.isenabled() is collecting
        with monkeypatch.context() as patch:
            patch.setattr(ltbp.cli.ingest, "generate_synthetic", bug)
            codes.append(run(["generate", "--out", tmp_path / "e"]))
        assert gc.isenabled() is collecting
        with monkeypatch.context() as patch:
            patch.setattr(ltbp.cli, "cmd_generate", recording)
            codes.append(run(["generate"]))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert codes == [0, 2, 3, 0]
    assert seen == [False]
    capsys.readouterr()


def test_run_pipeline_script_runs_from_a_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, ROOT / "scripts" / "run_pipeline.py", "--out", tmp_path],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["counts"]["orders"] == 2_000
    assert report["ordering_holds"] is True


def test_cli_imports_no_hashlib():
    # hashlib maps OpenSSL's libcrypto into every stage process; only a
    # config fingerprint needs it, and report imports it for that alone.
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ltbp.cli; print(sorted(m for m in sys.modules if 'hashlib' in m))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _with_bad_byte(path, lineno):
    """Put byte 0xff into line ``lineno`` of ``path``; its offset in the file."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    path.write_bytes(b"\n".join(lines))
    return sum(len(line) + 1 for line in lines[:lineno - 1])


@pytest.mark.parametrize("target, lineno", [
    ("orders", 50), ("customers", 5), ("graph", 500), ("query", 3), ("config", 2),
])
def test_non_utf8_input_is_named_by_line(tmp_path, capsys, target, lineno):
    data = generate(tmp_path / "data")
    graph = price(data, tmp_path / "run") / "graph.nt"
    query, config = tmp_path / "q.rq", tmp_path / "pricing.cfg"
    query.write_text("SELECT ?o\nWHERE {\n  ?o :hasQuantity ?q\n}\n")
    config.write_text("alpha = 1\nbeta = 1\np_max = 2\n")
    path, args = {
        "orders": (data / "orders.csv", price_args(data, tmp_path / "out")),
        "customers": (data / "customers.csv", price_args(data, tmp_path / "out")),
        "graph": (graph, ["--out-dir", tmp_path / "cq", "analyze", "--graph", graph]),
        "query": (query, ["query", "--graph", graph, "--query", query]),
        "config": (config, [*price_args(data, tmp_path / "out"), "--config", config]),
    }[target]
    offset = _with_bad_byte(path, lineno)
    capsys.readouterr()
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line {lineno}: not UTF-8 text: byte 0xff at offset {offset}\n"
    )


_PRICING_FLAGS = ["--alpha", "--beta", "--p-max", "--convex-alpha", "--rho-key",
                  "--rho-regular", "--rho-others"]


@pytest.mark.parametrize("command", ["price", "report"])
def test_help_lists_the_seven_pricing_flags_in_order(capsys, command):
    with pytest.raises(SystemExit) as done:
        run([command, "--help"])
    assert done.value.code == 0
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags[flags.index("--config") + 1:] == _PRICING_FLAGS
    from ltbp.cli import make_parser

    required = {"price": ["--orders", "o", "--portfolio", "c", "--products", "p"],
                "report": ["--graph", "g"]}[command]
    for value, flag in enumerate(_PRICING_FLAGS):
        args = make_parser().parse_args([command, *required, flag, str(value)])
        assert getattr(args, flag[2:].replace("-", "_")) == value


def test_help_text_usage_lines_parse():
    import ltbp.cli

    lines = [line.strip() for line in ltbp.cli.__doc__.splitlines()
             if line.startswith("    ltbp ")]
    commands = []
    for line in lines:
        words = re.split(r"\s{2,}", line)[0].split()  # drop a trailing note
        commands.append(ltbp.cli.make_parser().parse_args(words[1:]).command)
    assert sorted(commands) == ["analyze", "generate", "price", "query", "report"]


_DECIMAL = "^^<http://www.w3.org/2001/XMLSchema#decimal>"


@pytest.mark.parametrize("command, predicate, digits, message", [
    ("report", "hasRMPrice", 31, "error: ?TotalRMPrice, 6.000000e+32, has too many"),
    ("analyze", "hasRMPrice", 31, "RM total of "),
    ("analyze", "hasPremium", 25, "premium of class "),
])
def test_number_no_priced_graph_holds_is_data_error(tmp_path, capsys, command,
                                                    predicate, digits, message):
    graph = _rewrite_graph(tmp_path, predicate, f'"{"9" * digits}"{_DECIMAL}')
    args = {"report": ["report", "--graph", graph, "--out", tmp_path / "report.json"],
            "analyze": ["--out-dir", tmp_path / "cq", "analyze", "--graph", graph]}
    capsys.readouterr()
    assert run(args[command]) == 2
    err = capsys.readouterr().err
    assert message in err and "has too many digits" in err
    assert not list(tmp_path.glob("cq/*")) and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("func", ["SUM", "AVG"])
def test_sum_past_the_decimal_range_is_data_error(tmp_path, capsys, func):
    nines = f'"{"9" * 1_000_001}"{_DECIMAL}'
    graph = _rewrite_graph(tmp_path, "hasRMPrice", nines, orders=2)
    query = tmp_path / "q.rq"
    query.write_text(f"SELECT ({func}(?p) AS ?t) WHERE {{ ?o :hasRMPrice ?p }}")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 2
    assert run(["report", "--graph", graph, "--out", tmp_path / "report.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: decimal overflow in {func} for ?t",
                   "error: decimal overflow in SUM for ?TotalRMPrice"]


def test_query_prints_a_sum_past_the_int_text_limit(tmp_path, capsys):
    # Python's str() of an int stops at 4,300 digits; the loader takes that many.
    quantity = f'"{"9" * 4300}"^^<http://www.w3.org/2001/XMLSchema#integer>'
    graph = _rewrite_graph(tmp_path, "hasQuantity", quantity, orders=2)
    query = tmp_path / "q.rq"
    query.write_text("SELECT (SUM(?q) AS ?t) WHERE { ?o :hasQuantity ?q }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out == f"t\n1{'9' * 4299}8\n"  # twice 4,300 nines


def test_query_prints_one_row_per_line_and_escapes_strings(tmp_path, capsys):
    region = 'tab\tbreak\nreturn\r"quote" \\ é'
    escaped = region.translate({9: "\\t", 10: "\\n", 13: "\\r", 34: '\\"', 92: "\\\\"})
    graph = _rewrite_graph(tmp_path, "hasRegion", f'"{escaped}"')
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?r ?n WHERE { ?c :hasRegion ?r . ?c :hasCustomerCode ?n }"
                     " ORDER BY ?n LIMIT 2")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert len(lines) == 4 and lines[-1] == ""
    cells = [line.split("\t") for line in lines[1:3]]
    assert [len(row) for row in cells] == [2, 2]
    assert [row[0] for row in cells] == [f'"{escaped}"', f'"{escaped}"']
    assert [unescape(row[0][1:-1]) for row in cells] == [region, region]


# N-Triples comment lines: one without a final ".", one with fewer than three
# terms before it, one with three or more, and one indented. The test below
# puts the third between two lines of one subject, which the loader reads
# with the subject id of the line before.
_COMMENTS = ["# exported by ltbp", "#.", "# <urn:s1> <urn:p> 9 .", "  #  "]


def test_query_skips_ntriples_comment_lines(tmp_path, capsys):
    graph = tmp_path / "graph.nt"
    graph.write_text("\n".join([
        _COMMENTS[0], _COMMENTS[1],
        '<urn:s1> <urn:p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        _COMMENTS[2],
        '<urn:s1> <urn:q> "a" .',
        _COMMENTS[3],
        '<urn:s2> <urn:p> "2"^^<http://www.w3.org/2001/XMLSchema#integer> .',
    ]) + "\n", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out == (
        "s\tp\to\n"
        "<urn:s1>\t<urn:p>\t1\n<urn:s2>\t<urn:p>\t2\n<urn:s1>\t<urn:q>\t\"a\"\n")


@pytest.mark.parametrize("comment", _COMMENTS)
def test_query_counts_comment_lines_in_error_line_numbers(tmp_path, capsys, comment):
    graph = tmp_path / "graph.nt"
    graph.write_text(f'{comment}\n<urn:s> <urn:p> "x" .\n{comment}\nnot a triple\n',
                     encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s <urn:p> ?o }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: malformed triple: 'not a triple'\n")


@pytest.mark.parametrize("line, printed", [
    ('<urn:s1> <urn:p> "a" . # a comment', '"a"'),
    ('<urn:s1> <urn:p> "a" .# a comment that ends in .', '"a"'),
    ("<urn:s1> <urn:p> <urn:o#f> . # c", "<urn:o#f>"),
    ("<urn:s1> <urn:p> <urn:o#f> . # c .", "<urn:o#f>"),
    ('<urn:s1> <urn:p> "x . # y" .', '"x . # y"'),
    ('<urn:s1> <urn:p> "x . # y" . # c', '"x . # y"'),
    ('<urn:s1> <urn:p> "x . # y" . # c .', '"x . # y"'),
    ('<urn:s1> <urn:p> "7"^^<http://www.w3.org/2001/XMLSchema#integer> . #c', "7"),
])
def test_query_skips_a_comment_after_a_triple(tmp_path, capsys, line, printed):
    graph = tmp_path / "graph.nt"
    graph.write_text(f'{line}\n<urn:s2> <urn:p> "b" . # c\n', encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s ?o WHERE { ?s <urn:p> ?o }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out == (
        f's\to\n<urn:s1>\t{printed}\n<urn:s2>\t"b"\n')


@pytest.mark.parametrize("line, error", [
    ("<urn:s1> <urn:p> . # c", "malformed triple: '<urn:s1> <urn:p> . # c'"),
    ("<urn:s1> <urn:p> . # c .", "malformed object term: '. # c'"),
    ('<urn:s1> <urn:p> "a # c', "malformed triple: '<urn:s1> <urn:p> \"a # c'"),
    ("<urn:s1> <urn:p> <urn:o> <urn:x> . # c", "malformed triple: "
     "'<urn:s1> <urn:p> <urn:o> <urn:x> . # c'"),
    ('<urn:s1> <urn:p> "a"^^<urn:t> . # c .', "unsupported datatype <urn:t>"),
])
def test_query_names_the_line_of_a_bad_triple_before_a_comment(tmp_path, capsys,
                                                                line, error):
    graph = tmp_path / "graph.nt"
    graph.write_text(f'<urn:s0> <urn:p> "a" . # c\n{line}\n', encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s <urn:p> ?o }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 2
    assert capsys.readouterr().err == f"error: line 2: {error}\n"


def test_query_prints_decimals_in_plain_notation(tmp_path, capsys):
    # str() of these two decimals is 1E-7 and 1.0E-7, which no reader accepts.
    graph = tmp_path / "graph.nt"
    graph.write_text(
        f'<urn:s1> <urn:p> "0.0000001"{_DECIMAL} .\n'
        f'<urn:s2> <urn:p> "0.00000010"{_DECIMAL} .\n', encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?v (AVG(?v) AS ?a) WHERE { ?s <urn:p> ?v } GROUP BY ?v")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out == (
        "v\ta\n0.0000001\t0.0000001\n0.00000010\t0.00000010\n")


@pytest.mark.parametrize("value, total", [
    ("1111111111111111111111111111111111111111.5",
     "2222222222222222222222222222222222222223.0"),
    ("100000000000000000000000000000000.0", "200000000000000000000000000000000.0"),
], ids=["inexact-at-28-digits", "rounded-at-28-digits"])
def test_query_sums_decimals_past_the_context_precision_exactly(tmp_path, capsys,
                                                                value, total):
    # Each sum has more digits than the 28-digit decimal context holds.
    graph = tmp_path / "graph.nt"
    graph.write_text(f'<urn:x1> <urn:ltbp:p:v> "{value}"{_DECIMAL} .\n'
                     f'<urn:x2> <urn:ltbp:p:v> "{value}"{_DECIMAL} .\n',
                     encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { ?x :v ?v . }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out == f"s\ta\n{total}\t{value}\n"


@pytest.mark.parametrize("condition, subjects", [
    ("?d + 0 = ?d", ["<urn:x1>", "<urn:x2>"]),
    ("?d - 0 = ?d", ["<urn:x1>", "<urn:x2>"]),
    ("?d * 1 = ?d", ["<urn:x1>", "<urn:x2>"]),
    ("-(-?d) = ?d", ["<urn:x1>", "<urn:x2>"]),
    ("-?d + ?d = 0", ["<urn:x1>", "<urn:x2>"]),
    ("?d / 1 = ?d", ["<urn:x2>"]),  # division rounds to 28 digits
], ids=["add", "subtract", "multiply", "negate", "negate-add", "divide"])
def test_query_filter_arithmetic_past_the_context_precision(tmp_path, capsys,
                                                            condition, subjects):
    # ?d of <urn:x1> has 31 digits, more than the 28-digit decimal context holds.
    graph = tmp_path / "graph.nt"
    graph.write_text(
        f'<urn:x1> <urn:ltbp:p:v> "99999999999999999999999999999.99"{_DECIMAL} .\n'
        f'<urn:x2> <urn:ltbp:p:v> "1.5"{_DECIMAL} .\n', encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(f"SELECT ?x WHERE {{ ?x :v ?d . FILTER({condition}) }} ORDER BY ?x")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out.splitlines() == ["x", *subjects]


@pytest.mark.parametrize("value, condition, budget", [
    (f'"{"9" * 5000}.5"{_DECIMAL}', "?d * ?d > 0", 5002),
    (f'"{"9" * 5000}.5"{_DECIMAL}', "?d * 99 > 0", 5002),
    (f'"{"9" * 4300}"^^<http://www.w3.org/2001/XMLSchema#integer>',
     "?d * ?d > 0", 4301),
    (f'"1.5"{_DECIMAL}', f"?d + 0.{'0' * 4300}1 > 0", 4300),
], ids=["decimal-product", "decimal-by-two-digits", "integer-product",
        "sum-of-far-apart-digits"])
def test_query_filter_arithmetic_past_its_digit_budget_is_data_error(
        tmp_path, capsys, value, condition, budget):
    # An exact + - * result may have one digit more than its longer operand,
    # or 4,300 digits; a longer one would let a filter grow values unbounded.
    graph = tmp_path / "graph.nt"
    graph.write_text(f"<urn:x1> <urn:ltbp:p:v> {value} .\n", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(f"SELECT ?x WHERE {{ ?x :v ?d . FILTER({condition}) }}")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: result of more than {budget} digits in ")


@pytest.mark.parametrize("condition", [
    "?d + ?d > ?d", "?d - ?d = 0", "?d * 1 = ?d", "?d * 0.1 < ?d", "?d * 9 > ?d",
])
def test_query_filter_arithmetic_within_its_digit_budget(tmp_path, capsys,
                                                         condition):
    graph = tmp_path / "graph.nt"
    graph.write_text(f'<urn:x1> <urn:ltbp:p:v> "{"9" * 5000}.5"{_DECIMAL} .\n',
                     encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(f"SELECT ?x WHERE {{ ?x :v ?d . FILTER({condition}) }}")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out.splitlines() == ["x", "<urn:x1>"]


def test_query_order_key_not_projected_is_data_error(tmp_path, capsys):
    graph = tmp_path / "graph.nt"
    graph.write_text(f'<urn:x1> <urn:ltbp:p:v> "1.5"{_DECIMAL} .\n', encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s :v ?d . } ORDER BY ?d")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 2
    assert "order key ?d is not a result column" in capsys.readouterr().err


def _query_exit(tmp_path, capsys, text):
    """``ltbp query``'s exit code and stderr for ``text`` over a one-line graph."""
    graph = tmp_path / "graph.nt"
    graph.write_text("<urn:s> <urn:p> <urn:o> .\n", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(text, encoding="utf-8")
    capsys.readouterr()
    return run(["query", "--graph", graph, "--query", query]), capsys.readouterr().err


@pytest.mark.parametrize("iri", ['<urn:a"b>', "<urn:a{b}>", "<urn:a|b>", "<urn:a`b>"])
def test_query_iri_with_a_character_ntriples_forbids_is_data_error(tmp_path, capsys,
                                                                   iri):
    code, err = _query_exit(tmp_path, capsys, f"SELECT ?s WHERE {{ ?s {iri} ?o }}")
    assert code == 2
    assert err.startswith("error: line 1, column 22: character ")
    assert err.endswith(f" not allowed in IRI {iri}\n")


@pytest.mark.parametrize("query, message", [
    ("SELECT ?s (COUNT(?o) AS ?s) WHERE { ?s <urn:p> ?o } GROUP BY ?s "
     "ORDER BY DESC ?s", "result column ?s is projected twice"),
    ("SELECT (COUNT(?o) AS ?n) (COUNT(?s) AS ?n) WHERE { ?s <urn:p> ?o }",
     "result column ?n is projected twice"),
    ("SELECT (COUNT(?o) AS ?o) WHERE { ?s <urn:p> ?o }",
     "alias ?o names a pattern variable"),
], ids=["alias-of-a-projected-variable", "alias-twice", "alias-of-its-variable"])
def test_query_result_columns_are_distinct_and_name_no_pattern_variable(
        tmp_path, capsys, query, message):
    assert _query_exit(tmp_path, capsys, query) == (2, f"error: {message}\n")


def test_premiums_past_the_decimal_precision_keep_their_stats_ordered(tmp_path, capsys):
    # 30 significant digits: summed in the 28-digit context, the mean fell below MIN.
    premium = "1.00000000000000000000000000009"
    graph = _rewrite_graph(tmp_path, "hasPremium", f'"{premium}"{_DECIMAL}')
    assert run(["--out-dir", tmp_path / "cq", "analyze", "--graph", graph]) == 0
    with open(tmp_path / "cq" / "cq3.csv", newline="", encoding="utf-8") as handle:
        stats = list(csv.DictReader(handle))
    assert stats
    for row in stats:
        low, mean, high = (Decimal(row[f"{name}_premium"]) for name in ("min", "avg", "max"))
        assert low <= mean <= high
    query = tmp_path / "q.rq"
    query.write_text("SELECT (AVG(?p) AS ?a) WHERE { ?c :hasPremium ?p }")
    capsys.readouterr()
    assert run(["query", "--graph", graph, "--query", query]) == 0
    assert capsys.readouterr().out == f"a\n{premium}\n"


# --- CSV loader contract, end to end ---------------------------------------

_ID_CHARS = st.one_of(
    st.sampled_from(' ,"\'%/\\#<>é€'),
    st.characters(blacklist_categories=("Cs", "Cc")),
)
_IDS = st.text(_ID_CHARS, min_size=1, max_size=5)
_DAY0 = date(1, 1, 1)
_LAST_DAY = date(9999, 12, 31) - timedelta(days=80)
_MONEY_MAX_CENTS = int(MONEY_MAX * 100)
# Cells no loader may accept, by the kind of cell they stand in for.
_BAD_CELLS = {
    "money": [" 12.5 ", "1_000.50", "1e3", "١٢", "NaN", "Infinity", "", "12,5",
              "-1.00", "10000000000.00", "0x10"],
    "price": ["0.00", "0.004"],  # round to no price at all
    "date": ["20190716", "2030-W01-1", "2020-02-30", "2020-1-01", " 2020-01-01",
             "2020-01-01T00:00", "", "٢٠٢٠-٠١-٠١"],
    "quantity": ["0", "-1", "1_000", " 12", "١٢", "1.0", "", "9" * 5000],
}


def _money_text(draw, cents):
    """One of the texts that denote ``cents`` as money: signs, zero padding,
    a bare point, a leading point."""
    value = Decimal(cents).scaleb(-2)
    forms = [f"{value:.2f}", f"+{value:.2f}", f"0{value:.2f}", f"{value:.2f}0"]
    if cents % 100 == 0:
        forms += [str(cents // 100), f"{cents // 100}."]
    if cents < 100:
        forms.append(f"{value:.2f}"[1:])  # ".05"
    return draw(st.sampled_from(forms))


@st.composite
def _csv_dataset(draw):
    """CSV rows for 3-8 customers, 1-3 products and 10-40 orders, with
    boundary cells, and the dataset they denote; at times one cell is
    replaced by a form the loader must reject, and then also ``(file, line,
    column)`` of that cell."""
    codes = draw(st.lists(_IDS, min_size=3, max_size=8, unique=True))
    numbers = draw(st.lists(_IDS, min_size=1, max_size=3, unique=True))
    order_ids = draw(st.lists(_IDS, min_size=10, max_size=40, unique=True))
    boundary_cents = st.sampled_from([1, 99, 100, _MONEY_MAX_CENTS])
    rows = {"customers": [], "products": [], "orders": []}
    customers, products, orders = [], [], []
    for code in codes:
        cls = draw(st.sampled_from(AccountClass))
        cents = draw(st.one_of(st.just(0), boundary_cents,
                               st.integers(0, _MONEY_MAX_CENTS)))
        region = draw(st.one_of(st.just(""), _IDS))
        rows["customers"].append([code, cls.value, _money_text(draw, cents), region])
        customers.append(Customer(code, cls, Decimal(cents).scaleb(-2), region or None))
    for number in numbers:
        basic_type, line = draw(_IDS), draw(_IDS)
        rows["products"].append([number, basic_type, line])
        products.append(Product(number, basic_type, line))
    for number in order_ids:
        code, product = draw(st.sampled_from(codes)), draw(st.sampled_from(numbers))
        quantity = draw(st.integers(1, 500))
        cents = draw(st.one_of(boundary_cents, st.integers(1, 500_000)))
        start = draw(st.one_of(st.sampled_from([_DAY0, _LAST_DAY]),
                               st.dates(_DAY0, _LAST_DAY)))
        standard = draw(st.integers(1, 56))
        requested = draw(st.one_of(st.just(0), st.integers(0, 70)))  # same day too
        confirmed = draw(st.one_of(st.just(standard), st.integers(1, 70)))
        days = [start + timedelta(days=d) for d in (0, requested, confirmed, standard)]
        rows["orders"].append([
            number, code, product,
            draw(st.sampled_from([str(quantity), f"+{quantity}", f"00{quantity}"])),
            _money_text(draw, cents), *(day.isoformat() for day in days),
        ])
        orders.append(Order(number, code, product, quantity,
                            Decimal(cents).scaleb(-2), *days))
    dataset = Dataset(tuple(customers), tuple(products), tuple(orders))
    if not draw(st.booleans()):
        return rows, dataset, None
    bad = draw(st.sampled_from([
        ("customers", 2, "money"), ("customers", 1, "class"), ("customers", 0, "id"),
        ("products", 0, "id"), ("orders", 0, "id"), ("orders", 1, "customer"),
        ("orders", 3, "quantity"), ("orders", 4, "money"), ("orders", 4, "price"),
        *(("orders", column, "date") for column in (5, 6, 7, 8)),
        ("orders", 7, "same-day"),
    ]))
    name, column, kind = bad
    table = rows[name]
    index = draw(st.integers(0, len(table) - 1))
    if kind == "id":  # empty, or a duplicate of the row before
        cell = draw(st.sampled_from(["", *(row[0] for row in table[index - 1:index])]))
    elif kind == "class":
        cell = "Platinum"
    elif kind == "customer":
        cell = draw(_IDS.filter(lambda code: code not in codes))
    elif kind == "same-day":
        cell = table[index][5]
    else:
        cell = draw(st.sampled_from(
            _BAD_CELLS[kind] + (_BAD_CELLS["money"] if kind == "price" else [])))
    table[index][column] = cell
    header = {"customers": CUSTOMERS_HEADER, "products": PRODUCTS_HEADER,
              "orders": ORDERS_HEADER}[name]
    return rows, dataset, (name, index + 2, header[column])


class TestLoaderContractProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=_csv_dataset(), p_max=st.sampled_from([None, "1000"]),
           convex_alpha=st.sampled_from([None, "-100"]))
    def test_csvs_run_to_the_oracles_or_stop_at_the_loader(
        self, tmp_path_factory, case, p_max, convex_alpha
    ):
        rows, dataset, bad = case
        data = tmp_path_factory.mktemp("csv")
        for name, header in (("customers", CUSTOMERS_HEADER),
                             ("products", PRODUCTS_HEADER), ("orders", ORDERS_HEADER)):
            path = data / f"{name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows[name])
        flags = {"--p-max": p_max, "--convex-alpha": convex_alpha}
        args = price_args(data, data / "run") + [
            a for flag, value in flags.items() if value for a in (flag, value)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(args)
        if bad is not None:
            name, line, column = bad
            assert code == 2, err.getvalue()
            assert f"line {line}, column {column}: " in err.getvalue(), bad
            return
        assert code == 0, err.getvalue()
        assert run(["--out-dir", data / "run", "analyze",
                    "--graph", data / "run" / "graph.nt"]) == 0
        assert run(["report", "--graph", data / "run" / "graph.nt",
                    "--out", data / "run" / "report.json"]) == 0

        config = PricingConfig(p_max=float(p_max or 2.0),
                               convex_alpha=float(convex_alpha or -0.5))
        stats, premiums, priced, issues = priced_orders_oracle(dataset, config)
        assert issues == []
        pricing = PricingResult(premiums, priced, stats)
        cq = json.loads((data / "run" / "cq_report.json").read_text(encoding="utf-8"))
        assert [[r["customer_code"], r["total_rm_revenue"]] for r in cq["cq1"]] == [
            [code, str(total)] for code, total in oracle_cq1(dataset, pricing, 20)]
        fractions = oracle_cq2(dataset)
        text = {cls: None if f is None else f"{f:.6f}" for cls, f in fractions}
        assert [[r["account_class"], r["eligible_fraction"]] for r in cq["cq2"]] == [
            [cls.value, text[cls]] for cls, _ in fractions]
        assert [list(r.values()) for r in cq["cq3"]] == [
            [cls.value, *(str(to_factor(v)) for v in spread), text[cls]]
            for cls, spread in oracle_cq3(dataset, pricing).items()]
        assert [list(r.values()) for r in cq["cq4"]] == [
            [*pair, str(delta)] for pair, delta in oracle_cq4(dataset, pricing, 20)]
        report = json.loads((data / "run" / "report.json").read_text(encoding="utf-8"))
        original, rm, convex = oracle_totals(pricing)
        assert report["totals"] == {"original": str(original), "rm": str(rm),
                                    "convex": str(convex)}
        eligible = sum(o.customer_request_date < o.standard_delivery_date
                       for o in dataset.orders)
        assert report["counts"] == {"orders": len(dataset.orders), "eligible": eligible}
        assert report["ordering_holds"] == (original < rm < convex)
