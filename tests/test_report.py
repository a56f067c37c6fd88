import json
from datetime import date
from decimal import Decimal

import pytest

from ltbp.graph import build_graph
from ltbp.ingest import Dataset
from ltbp.model import AccountClass, Customer, PricingConfig, Product
from ltbp.pricing import PricedOrder, PricingResult, price_dataset
from ltbp.report import (
    IncompleteDataError,
    RevenueComparison,
    config_fingerprint,
    emit_report,
    revenue_totals,
)
from tests.conftest import make_order
from tests.oracles import oracle_totals


def single_order_graph(config):
    customers = (Customer("C1", AccountClass.KEY, Decimal("20000000.00")),)
    products = (Product("P1", "BT-A", "PL-1"),)
    orders = (make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 5, 10),)
    dataset = Dataset(customers, products, orders)
    priced = PricedOrder("O1", Decimal("100.00"), Decimal("125.00"), Decimal("134.66"))
    return build_graph(dataset, PricingResult((), (priced,), ()))


class TestRevenueTotals:
    def test_flat_dataset_equal_totals(self, config):
        customers = (Customer("C1", AccountClass.KEY, Decimal("20000000.00")),)
        products = (Product("P1", "BT-A", "PL-1"),)
        orders = tuple(  # no expedite, no premium: all three regimes equal
            make_order(f"O{i}", "C1", "P1", date(2020, 1, 1 + i), 20, 20, 20)
            for i in range(3)
        )
        dataset = Dataset(customers, products, orders)
        graph = build_graph(dataset, price_dataset(dataset, config), config)
        rc = revenue_totals(graph)
        assert rc.total_original == rc.total_rm == rc.total_convex
        assert rc.ordering_holds is False
        assert rc.n_orders == 3
        assert rc.n_eligible == 0

    def test_single_priced_order(self, config):
        rc = revenue_totals(single_order_graph(config))
        assert rc.total_original == Decimal("100.00")
        assert rc.total_rm == Decimal("125.00")
        assert rc.total_convex == Decimal("134.66")
        assert rc.ordering_holds is True
        assert rc.n_orders == 1
        assert rc.n_eligible == 1

    def test_totals_equal_direct_summation(self, small_graph, small_pricing):
        rc = revenue_totals(small_graph)
        original, rm, convex = oracle_totals(small_pricing)
        assert (rc.total_original, rc.total_rm, rc.total_convex) == (
            original, rm, convex,
        )
        assert rc.total_rm - rc.total_original == sum(
            (p.rm - p.original for p in small_pricing.priced_orders), Decimal("0")
        )

    def test_unpriced_orders_reported(self, small_dataset, config):
        graph = build_graph(small_dataset)  # entities only, no prices
        with pytest.raises(IncompleteDataError) as excinfo:
            revenue_totals(graph)
        assert "O1" in excinfo.value.order_numbers
        assert len(excinfo.value.order_numbers) == len(small_dataset.orders)

    def test_rm_below_original_rejected(self):
        with pytest.raises(ValueError):
            RevenueComparison(
                Decimal("10.00"), Decimal("9.00"), Decimal("12.00"), 1, 0, False
            )


class TestEmitReport:
    def test_deterministic_bytes(self, config, tmp_path):
        rc = revenue_totals(single_order_graph(config))
        emit_report(rc, tmp_path / "a.json", config=config, manifest_ref="m.json")
        emit_report(rc, tmp_path / "b.json", config=config, manifest_ref="m.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_totals_reflected_exactly(self, config, tmp_path):
        rc = revenue_totals(single_order_graph(config))
        emit_report(rc, tmp_path / "report.json", config=config)
        text = (tmp_path / "report.json").read_text()
        assert '"original": "100.00"' in text
        assert '"rm": "125.00"' in text
        assert '"convex": "134.66"' in text

    def test_round_trip(self, config, tmp_path):
        rc = revenue_totals(single_order_graph(config))
        emit_report(rc, tmp_path / "report.json", config=config)
        assert json.loads((tmp_path / "report.json").read_text()) == {
            "totals": {"original": str(rc.total_original), "rm": str(rc.total_rm),
                       "convex": str(rc.total_convex)},
            "counts": {"orders": rc.n_orders, "eligible": rc.n_eligible},
            "ordering_holds": rc.ordering_holds,
            "config_fingerprint": config_fingerprint(config),
            "dataset_manifest_ref": None,
        }

    def test_fingerprint_stable_and_config_sensitive(self, config):
        assert config_fingerprint(config) == config_fingerprint(PricingConfig())
        other = PricingConfig(p_max=1.5)
        assert config_fingerprint(config) != config_fingerprint(other)
