"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion PASS/FAIL
summary is printed at the end of the session (see conftest).
"""

import filecmp
import math
import os
import random
import statistics
import subprocess
import sys
import time
from datetime import date
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from ltbp.analytics import (
    cq1_top_customers,
    cq2_occurrence_ranking,
    cq3_class_premium_stats,
    cq4_initial_selection,
)
from ltbp.graph import build_graph, evaluate
from ltbp.ingest import GeneratorConfig, generate_synthetic
from ltbp.model import (
    AccountClass,
    PricingConfig,
    adjustment_factor,
    class_for_revenue,
    lead_days,
)
from ltbp.pricing import (
    CustomerStats,
    compute_premium,
    compute_rmd,
    compute_rsd,
    convex_price,
    price_dataset,
    rm_price,
)
from ltbp.query import QuerySyntaxError, parse_query
from ltbp.report import TOTALS_QUERY, revenue_totals
from tests.conftest import make_order
from tests.oracles import oracle_cq1, oracle_cq2, oracle_cq3, oracle_cq4

DEFAULT_CONFIG = PricingConfig()


@pytest.fixture(scope="session")
def full_scale_run():
    """Seed-42 default dataset at full scale, priced and materialized once."""
    started = time.perf_counter()
    dataset = generate_synthetic(GeneratorConfig())
    pricing = price_dataset(dataset, DEFAULT_CONFIG)
    graph = build_graph(dataset, pricing, DEFAULT_CONFIG)
    elapsed = time.perf_counter() - started
    return dataset, pricing, graph, elapsed


def test_c01_adjustment_table_and_revenue_bands():
    """Criterion 1: the factor table and revenue bands match exactly."""
    started = time.perf_counter()
    assert adjustment_factor(AccountClass.KEY, DEFAULT_CONFIG) == 0.1
    assert adjustment_factor(AccountClass.REGULAR, DEFAULT_CONFIG) == 0.05
    assert adjustment_factor(AccountClass.OTHERS, DEFAULT_CONFIG) == 0.025
    assert class_for_revenue(50_000_000) is AccountClass.KEY
    assert class_for_revenue(7_000_000) is AccountClass.REGULAR
    assert class_for_revenue(3_000_000) is AccountClass.OTHERS
    assert class_for_revenue(0) is AccountClass.OTHERS
    assert time.perf_counter() - started < 1.0


def test_c02_premium_bounds_and_rho_monotonicity():
    """Criterion 2: 10,000 random stats/rho combinations stay in [1, 2] and
    the premium never increases in rho."""
    started = time.perf_counter()
    rng = random.Random(2025)
    for _ in range(10_000):
        rsd = rng.uniform(0, 3)
        rmd = rng.uniform(0, 3)
        rho_lo, rho_hi = sorted((rng.uniform(0, 0.999), rng.uniform(0, 0.999)))
        stats = CustomerStats("C", 5, rsd, rmd)
        p_lo = compute_premium(stats, rho_lo, DEFAULT_CONFIG).premium
        p_hi = compute_premium(stats, rho_hi, DEFAULT_CONFIG).premium
        assert Decimal(1) <= p_hi <= p_lo <= Decimal(2)
    assert time.perf_counter() - started < 5.0


def test_c03_rm_price_oracle():
    """Criterion 3: the RM formula matches an independent re-implementation
    on the worked example and 1,000 random cases, 1e-9 pre-rounding."""
    started = time.perf_counter()
    order = make_order("O1", "C1", "P1", date(2020, 1, 1), 0, 5, 10, price="100.00")
    _, confirmed, standard = lead_days(order)
    value = rm_price(float(order.original_price), confirmed, standard, 1.5)
    assert value == pytest.approx(125.0, abs=1e-9)

    rng = random.Random(7)
    for i in range(1_000):
        price = Decimal(rng.randint(1, 1_000_000)) / 100
        sdt = rng.randint(1, 100)
        conf = rng.randint(0, 120)
        prem_value = Decimal(rng.randint(1_000_000, 2_000_000)) / 1_000_000
        order = make_order(
            f"R{i}", "C1", "P1", date(2019, 1, 1), 0, conf, sdt, price=str(price)
        )
        _, confirmed, standard = lead_days(order)
        value = rm_price(
            float(order.original_price), confirmed, standard,
            float(prem_value),
        )
        p_o = float(price)
        if conf >= sdt:
            expected = p_o
        else:
            expected = p_o * (1.0 + (1.0 - conf / sdt) * (float(prem_value) - 1.0))
        assert value == pytest.approx(expected, abs=1e-9)
    assert time.perf_counter() - started < 5.0


def test_c04_convex_price_oracle():
    """Criterion 4: the convex formula with alpha=-0.5 matches its log
    expansion on the worked example and 1,000 random cases, 1e-9."""
    started = time.perf_counter()
    order = make_order("O1", "C1", "P1", date(2020, 1, 1), 0, 5, 10, price="100.00")
    _, confirmed, standard = lead_days(order)
    value = convex_price(
        float(order.original_price), confirmed, standard,
        DEFAULT_CONFIG.convex_alpha,
    )
    assert value == pytest.approx(100.0 - 50.0 * math.log(0.5), abs=1e-9)
    assert round(value, 2) == 134.66

    rng = random.Random(11)
    for i in range(1_000):
        price = Decimal(rng.randint(1, 1_000_000)) / 100
        sdt = rng.randint(2, 100)
        conf = rng.randint(1, 120)
        order = make_order(
            f"R{i}", "C1", "P1", date(2019, 1, 1), 0, conf, sdt, price=str(price)
        )
        _, confirmed, standard = lead_days(order)
        value = convex_price(
            float(order.original_price), confirmed, standard,
            DEFAULT_CONFIG.convex_alpha,
        )
        p_o = float(price)
        if conf >= sdt:
            expected = p_o
        else:
            expected = p_o - 0.5 * p_o * math.log(conf / sdt)
        assert value == pytest.approx(expected, abs=1e-9)
    assert time.perf_counter() - started < 5.0


def test_c05_statistics_oracle():
    """Criterion 5: rsd/rmd agree with a stdlib two-pass oracle within 1e-12
    on 1,000 random series of lengths 0 to 1000."""
    started = time.perf_counter()
    rng = random.Random(13)
    lengths = [0, 1, 2, 1000] + [rng.randint(0, 1000) for _ in range(996)]
    for n in lengths:
        series = [rng.uniform(0.01, 2.0) for _ in range(n)]
        rsd = compute_rsd(series)
        rmd = compute_rmd(series)
        if n < 2:
            assert rsd == 0.0 and rmd == 0.0
            continue
        mean = statistics.fmean(series)
        expected_rsd = statistics.pstdev(series) / mean
        expected_rmd = statistics.fmean(abs(x - mean) for x in series) / mean
        assert rsd == pytest.approx(expected_rsd, abs=1e-12)
        assert rmd == pytest.approx(expected_rmd, abs=1e-12)
    assert time.perf_counter() - started < 10.0


def test_c06_revenue_ordering_at_full_scale(full_scale_run):
    """Criterion 6: on the seed-42 default dataset (65,000 orders, 177
    customers) the totals query yields original < rm < convex, totals equal
    direct summation exactly, and the pipeline fits the time budget."""
    dataset, pricing, graph, build_elapsed = full_scale_run
    started = time.perf_counter()
    assert len(dataset.orders) == 65_000
    assert len(dataset.customers) == 177
    assert not pricing.issues
    assert len(pricing.priced_orders) == 65_000
    for po in pricing.priced_orders:
        assert po.original <= po.rm <= po.original * 2
        assert po.convex >= po.original

    comparison = revenue_totals(graph)
    assert comparison.ordering_holds is True
    assert comparison.total_original < comparison.total_rm < comparison.total_convex

    direct_original = sum((p.original for p in pricing.priced_orders), Decimal("0"))
    direct_rm = sum((p.rm for p in pricing.priced_orders), Decimal("0"))
    direct_convex = sum((p.convex for p in pricing.priced_orders), Decimal("0"))
    assert comparison.total_original == direct_original
    assert comparison.total_rm == direct_rm
    assert comparison.total_convex == direct_convex

    table = evaluate(graph, parse_query(TOTALS_QUERY))
    row = table.mappings()[0]
    assert row["TotalOrginalPrice"] == direct_original
    assert row["TotalRMPrice"] == direct_rm
    assert row["TotalConvexPrice"] == direct_convex
    assert build_elapsed + (time.perf_counter() - started) < 30.0


def test_c07_graph_oracle_equivalence():
    """Criterion 7: every CQ via the query engine equals direct computation
    on 100 random small datasets; exact ranks/counts, 1e-9 for decimals."""
    started = time.perf_counter()
    for seed in range(100):
        config = GeneratorConfig(
            seed=seed,
            n_customers=3 + seed % 6,
            n_orders=10 + seed % 41,  # <= 50
            n_products=2 + seed % 3,
        )
        dataset = generate_synthetic(config)
        pricing = price_dataset(dataset, DEFAULT_CONFIG)
        graph = build_graph(dataset, pricing, DEFAULT_CONFIG)

        cq1 = [(r.customer_code, r.total_rm) for r in cq1_top_customers(graph, 20)]
        assert cq1 == oracle_cq1(dataset, pricing, 20)

        engine_cq2 = cq2_occurrence_ranking(graph)
        oracle2 = oracle_cq2(dataset)
        assert [cls for cls, _ in engine_cq2] == [cls for cls, _ in oracle2]
        for (_, got), (_, want) in zip(engine_cq2, oracle2):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)

        oracle3 = oracle_cq3(dataset, pricing)
        stats = cq3_class_premium_stats(graph)
        assert [s.account_class for s in stats] == list(oracle3)
        for s in stats:
            omax, omin, oavg = oracle3[s.account_class]
            assert (s.max_premium, s.min_premium) == (omax, omin)
            assert abs(s.avg_premium - oavg) <= Decimal("1e-9")

        cq4 = [
            ((p.customer_code, p.product_number), p.revenue_delta)
            for p in cq4_initial_selection(graph, 10)
        ]
        assert cq4 == oracle_cq4(dataset, pricing, 10)
    assert time.perf_counter() - started < 30.0


MALFORMED_QUERIES = [
    "",
    "SELECT",
    "SELECT ?s",
    "SELECT ?s WHERE",
    "SELECT ?s WHERE {",
    "SELECT ?s WHERE { ?s ?p }",
    "SELECT ?s WHERE { ?s ?p ?o",
    "SELECT ?s WHERE ?s ?p ?o }",
    "WHERE { ?s ?p ?o }",
    "SELECT ?s FROM WHERE { ?s ?p ?o }",
    "SELECT (SUM ?x AS ?t) WHERE { ?s ?p ?x }",
    "SELECT (SUM(?x) ?t) WHERE { ?s ?p ?x }",
    "SELECT (SUM(?x) AS t) WHERE { ?s ?p ?x }",
    "SELECT (MEDIAN(?x) AS ?t) WHERE { ?s ?p ?x }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
    "SELECT ((SUM(?x) AS ?t) WHERE { ?s ?p ?x }",
    "SELECT * WHERE { ?s ?p ?o }",
    "SELECT ?s, ?p WHERE { ?s ?p ?o }",
    "select where { ?s ?p ?o }",
    "SELECT ?s WHERE { }",
    "SELECT ?s WHERE { . }",
    "SELECT ?s WHERE { ?s ?p ?o . . }",
    "SELECT ?s WHERE { ?s nope:p ?o }",
    "SELECT ?s WHERE { <unclosed ?p ?o }",
    "SELECT ?s WHERE { ?s ?p 'quotes' }",
    'SELECT ?s WHERE { ?s ?p "unterminated }',
    "SELECT ?s WHERE { ?s :p: ?o }",
    "SELECT ?s WHERE { ?s ?p ?o } @",
    "SELECT ?s WHERE { ?s ?p ?o } EXTRA",
    "SELECT ?s WHERE { ?s ?p ?o } ?x",
    "SELECT ?s WHERE { ?s ?p ?o } GROUP ?s",
    "SELECT ?s WHERE { ?s ?p ?o } GROUP BY",
    "SELECT ?s WHERE { ?s ?p ?o } GROUP BY 5",
    "SELECT ?s WHERE { ?s ?p ?o } ORDER ?s",
    "SELECT ?s WHERE { ?s ?p ?o } ORDER BY",
    "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC",
    "SELECT ?s WHERE { ?s ?p ?o } ORDER BY hasRMPrice",
    "SELECT ?s WHERE { ?s ?p ?o } LIMIT",
    "SELECT ?s WHERE { ?s ?p ?o } LIMIT x",
    "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1.5",
    "SELECT ?s WHERE { ?s ?p ?o } LIMIT -1",
    "SELECT ?s WHERE { ?s ?p ?o } limit limit",
    "SELECT ?s WHERE { ?s ?p ?o FILTER }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER ( }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER () }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER (?o > ) }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER (?o & ?s) }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER (?o && ?s }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER ((?o > 1) }",
    "SELECT ?s WHERE { ?s ?p ?o FILTER (?o > 1)) }",
]


def test_c08_parser_accepts_totals_query_and_positions_errors():
    """Criterion 8: the totals query parses to 3 SUM aggregates + 3 patterns;
    50 malformed fixtures each fail with a positioned syntax error."""
    started = time.perf_counter()
    spec = parse_query(TOTALS_QUERY)
    assert [a.func for a in spec.aggregates] == ["SUM", "SUM", "SUM"]
    assert len(spec.patterns) == 3
    assert len(MALFORMED_QUERIES) == 50
    assert len(set(MALFORMED_QUERIES)) == 50
    for text in MALFORMED_QUERIES:
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query(text)
        assert excinfo.value.line >= 1, text
        assert excinfo.value.column >= 1, text
    assert time.perf_counter() - started < 1.0


def test_rm_prices_equal_exact_arithmetic(full_scale_run):
    """Every RM price on the seed-42 default dataset equals the formula
    evaluated exactly, in fractions, from the Decimal original price, the
    Decimal premium and the lead times, rounded half-even to the cent: the
    float evaluation and its one rounding step lose no cent."""
    dataset, pricing, _, _ = full_scale_run
    premium = {p.customer_code: Fraction(p.premium) for p in pricing.premiums}
    rm = {p.order_number: p.rm for p in pricing.priced_orders}
    expedited = 0
    disagree = []
    for order in dataset.orders:
        _, confirmed, standard = lead_days(order)
        exact = Fraction(order.original_price)
        if confirmed < standard:
            expedited += 1
            fraction = 1 - Fraction(confirmed, standard)
            exact += exact * fraction * (premium[order.customer_code] - 1)
        if rm[order.order_number] * 100 != round(exact * 100):  # half-even
            disagree.append((order.order_number, rm[order.order_number], exact))
    assert expedited == 38_949
    assert disagree == []


def test_convex_prices_equal_exact_evaluation(full_scale_run):
    """Every convex price on the seed-42 default dataset equals the formula
    evaluated in 50-digit decimal arithmetic, ln included, from the Decimal
    original price, the float alpha's exact value and the lead times,
    rounded half-even to the cent: the float evaluation, ``math.log`` and
    its one rounding step lose no cent."""
    dataset, pricing, _, _ = full_scale_run
    alpha = Decimal(DEFAULT_CONFIG.convex_alpha)
    convex = {p.order_number: p.convex for p in pricing.priced_orders}
    factors = {}  # (confirmed, standard) -> 1 + alpha * ln(confirmed / standard)
    expedited = 0
    disagree = []
    with localcontext(prec=50, rounding=ROUND_HALF_EVEN):
        for order in dataset.orders:
            _, confirmed, standard = lead_days(order)
            exact = order.original_price
            if confirmed < standard:
                expedited += 1
                key = confirmed, standard
                if key not in factors:
                    factors[key] = 1 + alpha * (Decimal(confirmed) / standard).ln()
                exact *= factors[key]
            if convex[order.order_number] != exact.quantize(Decimal("0.01")):
                disagree.append((order.order_number, convex[order.order_number], exact))
    assert expedited == 38_949
    assert disagree == []


def test_c09_key_class_expedites_least(full_scale_run):
    """Criterion 9: with the default expedite profile at seed 42, the Key
    class has the lowest eligible-order fraction."""
    dataset, _, graph, _ = full_scale_run
    ranking = cq2_occurrence_ranking(graph)
    assert ranking[-1][0] is AccountClass.KEY
    fractions = dict(ranking)
    assert fractions[AccountClass.KEY] == min(
        f for f in fractions.values() if f is not None
    )
    # and the ranking is the direct-count ranking
    assert ranking == oracle_cq2(dataset)


def test_c10_end_to_end_determinism(tmp_path):
    """Criterion 10: two identical generate/price/analyze/report runs produce
    byte-identical output trees (hash randomization varied deliberately)."""
    started = time.perf_counter()

    def run_tree(root: Path, hashseed: str) -> None:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        data, out = root / "data", root / "run"
        steps = [
            ["generate", "--seed", "42", "--orders", "2000", "--customers", "60",
             "--products", "10", "--out", str(data)],
            ["price", "--orders", str(data / "orders.csv"),
             "--portfolio", str(data / "customers.csv"),
             "--products", str(data / "products.csv"), "--out", str(out)],
            ["--out-dir", str(out), "analyze", "--graph", str(out / "graph.nt")],
            ["report", "--graph", str(out / "graph.nt"),
             "--out", str(out / "report.json")],
        ]
        for step in steps:
            result = subprocess.run(
                [sys.executable, "-m", "ltbp", *step],
                env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr

    run_tree(tmp_path / "one", "1")
    run_tree(tmp_path / "two", "2")

    one_files = sorted(
        p.relative_to(tmp_path / "one")
        for p in (tmp_path / "one").rglob("*") if p.is_file()
    )
    two_files = sorted(
        p.relative_to(tmp_path / "two")
        for p in (tmp_path / "two").rglob("*") if p.is_file()
    )
    assert one_files == two_files and one_files
    assert Path("run/graph.nt.img") in one_files  # the store image is compared too
    for rel in one_files:
        assert filecmp.cmp(tmp_path / "one" / rel, tmp_path / "two" / rel,
                           shallow=False), rel
    assert time.perf_counter() - started < 60.0
