import json
from decimal import Decimal

import pytest

from ltbp.analytics import (
    cq1_top_customers,
    cq2_occurrence_ranking,
    cq3_class_premium_stats,
    cq4_initial_selection,
    run_competency_questions,
    write_cq_csvs,
    write_cq_json,
)
from ltbp.graph import build_graph
from ltbp.ingest import Dataset, GeneratorConfig, generate_synthetic
from ltbp.model import AccountClass
from ltbp.pricing import price_dataset
from tests.oracles import oracle_cq1, oracle_cq2, oracle_cq3, oracle_cq4


class TestCq1:
    def test_excludes_premium_one_customers(self, small_graph):
        ranking = cq1_top_customers(small_graph, 20)
        assert [r.customer_code for r in ranking] == ["C002"]
        assert ranking[0].total_rm == Decimal("757.00")

    def test_all_premiums_one_gives_empty_ranking(self, config):
        from datetime import date

        from ltbp.model import Customer, Product
        from tests.conftest import make_order

        customers = (Customer("C1", AccountClass.KEY, Decimal("20000000.00")),)
        products = (Product("P1", "BT-A", "PL-1"),)
        orders = tuple(  # every order requested at the standard date: no premium
            make_order(f"O{i}", "C1", "P1", date(2020, 1, 1 + i), 20, 10, 20)
            for i in range(3)
        )
        dataset = Dataset(customers, products, orders)
        pricing = price_dataset(dataset, config)
        assert all(p.premium == 1 for p in pricing.premiums)
        graph = build_graph(dataset, pricing, config)
        assert cq1_top_customers(graph, 20) == []

    def test_n_larger_than_population(self, small_graph):
        assert len(cq1_top_customers(small_graph, 999)) == 1

    def test_zero_n(self, small_graph):
        assert cq1_top_customers(small_graph, 0) == []


class TestCq2:
    def test_fractions_on_fixture(self, small_graph):
        ranking = cq2_occurrence_ranking(small_graph)
        assert ranking == [
            (AccountClass.KEY, 1.0),
            (AccountClass.REGULAR, 1.0),
            (AccountClass.OTHERS, 0.5),
        ]

    def test_class_without_orders_ranked_last_as_absent(self, config):
        dataset = generate_synthetic(
            GeneratorConfig(seed=8, n_customers=6, n_orders=30)
        )
        # strip every order placed by Key customers
        key_codes = {
            c.customer_code
            for c in dataset.customers
            if c.account_class is AccountClass.KEY
        }
        trimmed = Dataset(
            dataset.customers,
            dataset.products,
            tuple(o for o in dataset.orders if o.customer_code not in key_codes),
        )
        graph = build_graph(trimmed, price_dataset(trimmed, config), config)
        ranking = cq2_occurrence_ranking(graph)
        assert ranking[-1] == (AccountClass.KEY, None)


class TestCq3:
    def test_stats_on_fixture(self, small_graph):
        stats = {s.account_class: s for s in cq3_class_premium_stats(small_graph)}
        assert len(stats) == 3
        regular = stats[AccountClass.REGULAR]
        assert regular.max_premium == Decimal("1.380000")
        assert regular.min_premium == Decimal("1.380000")
        assert regular.avg_premium == Decimal("1.380000")
        key = stats[AccountClass.KEY]
        assert key.max_premium == key.min_premium == Decimal("1.000000")

    def test_two_customer_average(self, config):
        dataset = generate_synthetic(
            GeneratorConfig(seed=14, n_customers=8, n_orders=80)
        )
        pricing = price_dataset(dataset, config)
        graph = build_graph(dataset, pricing, config)
        stats = cq3_class_premium_stats(graph)
        oracle = oracle_cq3(dataset, pricing)
        for s in stats:
            omax, omin, oavg = oracle[s.account_class]
            assert s.max_premium == omax
            assert s.min_premium == omin
            assert abs(s.avg_premium - oavg) <= Decimal("0.000001")


class TestCq4:
    def test_expedited_pair_ranks_first(self, small_graph):
        pairs = cq4_initial_selection(small_graph, 10)
        assert (pairs[0].customer_code, pairs[0].product_number) == ("C002", "P01")
        assert pairs[0].revenue_delta == Decimal("57.00")

    def test_zero_delta_pairs_rank_last_in_id_order(self, small_graph):
        pairs = cq4_initial_selection(small_graph, 10)
        tail = [(p.customer_code, p.product_number) for p in pairs[1:]]
        assert tail == sorted(tail)
        assert all(p.revenue_delta == 0 for p in pairs[1:])

    def test_k_one(self, small_graph):
        assert len(cq4_initial_selection(small_graph, 1)) == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_cqs_match_direct_computation(self, seed, config):
        dataset = generate_synthetic(
            GeneratorConfig(
                seed=seed,
                n_customers=3 + seed % 6,
                n_orders=20 + seed * 7,
                n_products=2 + seed % 3,
            )
        )
        pricing = price_dataset(dataset, config)
        graph = build_graph(dataset, pricing, config)

        cq1 = [(r.customer_code, r.total_rm) for r in cq1_top_customers(graph, 20)]
        assert cq1 == oracle_cq1(dataset, pricing, 20)

        assert cq2_occurrence_ranking(graph) == oracle_cq2(dataset)

        stats = cq3_class_premium_stats(graph)
        oracle3 = oracle_cq3(dataset, pricing)
        assert {s.account_class for s in stats} == set(oracle3)
        for s in stats:
            omax, omin, oavg = oracle3[s.account_class]
            assert (s.max_premium, s.min_premium) == (omax, omin)
            assert abs(s.avg_premium - oavg) <= Decimal("1e-6")

        cq4 = [
            ((p.customer_code, p.product_number), p.revenue_delta)
            for p in cq4_initial_selection(graph, 15)
        ]
        assert cq4 == oracle_cq4(dataset, pricing, 15)

    def test_cq1_ranking_invariant_under_price_scaling(self, small_dataset, config):
        scaled = Dataset(
            small_dataset.customers,
            small_dataset.products,
            tuple(
                type(o)(
                    o.order_number, o.customer_code, o.product_number, o.quantity,
                    o.original_price * 7, o.order_date, o.customer_request_date,
                    o.customer_delivery_date, o.standard_delivery_date,
                )
                for o in small_dataset.orders
            ),
        )
        base_graph = build_graph(
            small_dataset, price_dataset(small_dataset, config), config
        )
        scaled_graph = build_graph(scaled, price_dataset(scaled, config), config)
        base = [r.customer_code for r in cq1_top_customers(base_graph, 20)]
        after = [r.customer_code for r in cq1_top_customers(scaled_graph, 20)]
        assert base == after


class TestExports:
    def test_csv_and_json_outputs(self, small_graph, tmp_path):
        report = run_competency_questions(small_graph, top_n=5, pair_k=5)
        paths = write_cq_csvs(report, tmp_path)
        assert paths["cq1"].read_text().splitlines()[0] == (
            "rank,customer_code,total_rm_revenue"
        )
        assert "1,C002,757.00" in paths["cq1"].read_text()
        write_cq_json(report, tmp_path / "cq_report.json")
        payload = json.loads((tmp_path / "cq_report.json").read_text())
        assert set(payload) == {"cq1", "cq2", "cq3", "cq4"}
        assert payload["cq2"][0]["account_class"] == "Key"

    def test_outputs_deterministic(self, small_graph, tmp_path):
        report = run_competency_questions(small_graph)
        write_cq_json(report, tmp_path / "a.json")
        write_cq_json(report, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_class_fractions_computed_once(self, small_graph, monkeypatch):
        import ltbp.analytics

        calls = []
        original = ltbp.analytics.class_eligible_fractions

        def counted(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(ltbp.analytics, "class_eligible_fractions", counted)
        run_competency_questions(small_graph)
        assert len(calls) == 1
