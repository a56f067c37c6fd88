import math
import statistics
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from ltbp.ingest import Dataset, GeneratorConfig, generate_synthetic
from ltbp.model import AccountClass, Customer, PricingConfig, Product, derive_lead_times
from ltbp.pricing import (
    CustomerPremium,
    CustomerStats,
    LogDomainError,
    behavior_series,
    compute_premium,
    compute_rmd,
    compute_rsd,
    convex_price,
    price_dataset,
    rm_price,
)
from tests.conftest import make_order
from tests.oracles import oracle_totals

ratios = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)


def premium(value) -> CustomerPremium:
    return CustomerPremium("C", Decimal(str(value)))


class TestBehaviorSeries:
    def test_no_eligible_orders(self):
        orders = [make_order("O1", "C1", "P1", date(2020, 1, 1), 20, 5, 20)]
        assert behavior_series(orders) == []

    def test_single_ratio(self):
        orders = [make_order("O1", "C1", "P1", date(2020, 1, 1), 10, 5, 20)]
        assert behavior_series(orders) == [0.5]

    def test_mixed_eligibility_chronological(self):
        orders = [
            make_order("O2", "C1", "P1", date(2020, 3, 1), 5, 5, 20),   # 0.25
            make_order("O1", "C1", "P1", date(2020, 1, 1), 10, 5, 20),  # 0.5
            make_order("O3", "C1", "P1", date(2020, 2, 1), 25, 5, 20),  # late
        ]
        assert behavior_series(orders) == [0.5, 0.25]

    def test_rejects_mixed_customers(self):
        orders = [
            make_order("O1", "C1", "P1", date(2020, 1, 1), 10, 5, 20),
            make_order("O2", "C2", "P1", date(2020, 1, 2), 10, 5, 20),
        ]
        with pytest.raises(ValueError, match="multiple customers"):
            behavior_series(orders)


class TestStats:
    def test_constant_series_zero(self):
        assert compute_rsd([0.5, 0.5, 0.5]) == 0.0
        assert compute_rmd([0.5, 0.5, 0.5]) == 0.0

    def test_two_point_series(self):
        assert compute_rsd([0.4, 0.6]) == pytest.approx(0.2, abs=1e-15)
        assert compute_rmd([0.4, 0.6]) == pytest.approx(0.2, abs=1e-15)

    def test_empty_and_singleton_guards(self):
        assert compute_rsd([]) == 0.0
        assert compute_rmd([]) == 0.0
        assert compute_rsd([0.7]) == 0.0
        assert compute_rmd([0.7]) == 0.0

    @given(st.lists(ratios, min_size=2, max_size=200))
    def test_rsd_matches_stdlib_oracle(self, series):
        expected = statistics.pstdev(series) / statistics.mean(series)
        assert compute_rsd(series) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(ratios, min_size=2, max_size=200))
    def test_rmd_matches_two_pass_oracle(self, series):
        mean = statistics.mean(series)
        expected = statistics.mean([abs(x - mean) for x in series]) / mean
        assert compute_rmd(series) == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.integers(1, 50), min_size=2, max_size=30),
        st.integers(2, 40),
    )
    def test_scale_invariance(self, requested, k):
        # ratios (k*olt)/(k*sdt) are bit-identical to olt/sdt
        sdt = max(requested) + 1
        base = [
            make_order(f"O{i}", "C1", "P1", date(2018, 1, 1), r, 1, sdt)
            for i, r in enumerate(requested)
        ]
        scaled = [
            make_order(f"O{i}", "C1", "P1", date(2018, 1, 1), r * k, 1, sdt * k)
            for i, r in enumerate(requested)
        ]
        assert compute_rsd(behavior_series(base)) == compute_rsd(
            behavior_series(scaled)
        )
        assert compute_rmd(behavior_series(base)) == compute_rmd(
            behavior_series(scaled)
        )


class TestComputePremium:
    def test_no_variability_no_premium(self, config):
        for rho in (0.0, 0.025, 0.1, 0.9):
            result = compute_premium(CustomerStats("C", 0, 0.0, 0.0), rho, config)
            assert result.premium == Decimal("1.000000")

    def test_clamped_at_ceiling(self, config):
        result = compute_premium(CustomerStats("C", 9, 3.0, 3.0), 0.1, config)
        assert result.premium == Decimal("2.000000")

    def test_worked_example(self, config):
        result = compute_premium(CustomerStats("C", 4, 0.3, 0.2), 0.05, config)
        assert result.premium == Decimal("1.475000")

    def test_invalid_rho_rejected(self, config):
        with pytest.raises(ValueError):
            compute_premium(CustomerStats("C", 0, 0.0, 0.0), 1.0, config)

    @given(
        rsd=st.floats(0, 3), rmd=st.floats(0, 3),
        rho1=st.floats(0, 0.99), rho2=st.floats(0, 0.99),
    )
    def test_monotone_in_rho(self, rsd, rmd, rho1, rho2):
        config = PricingConfig()
        lo, hi = sorted((rho1, rho2))
        stats = CustomerStats("C", 5, rsd, rmd)
        p_lo = compute_premium(stats, lo, config).premium
        p_hi = compute_premium(stats, hi, config).premium
        assert p_lo >= p_hi
        assert Decimal("1") <= p_hi <= p_lo <= Decimal("2")


class TestRmPrice:
    def order(self, price="100.00", requested=2, confirmed=5, sdt=10):
        return make_order(
            "O1", "C1", "P1", date(2020, 1, 1), requested, confirmed, sdt,
            price=price,
        )

    def test_premium_one_keeps_original(self):
        order = self.order()
        lt = derive_lead_times(order)
        assert rm_price(order, lt, premium(1)) == 100.0

    def test_confirmed_at_standard_keeps_original(self):
        order = self.order(confirmed=10, sdt=10)
        lt = derive_lead_times(order)
        assert rm_price(order, lt, premium(1.5)) == 100.0

    def test_worked_example(self):
        order = self.order(confirmed=5, sdt=10)
        lt = derive_lead_times(order)
        assert rm_price(order, lt, premium(1.5)) == pytest.approx(125.0, abs=1e-9)

    def test_slower_than_standard_never_discounts(self):
        order = self.order(confirmed=15, sdt=10)
        lt = derive_lead_times(order)
        assert rm_price(order, lt, premium(2)) == 100.0

    @given(
        price=st.decimals(min_value="0.01", max_value="99999.99", places=2),
        confirmed=st.integers(0, 80),
        sdt=st.integers(1, 80),
        prem=st.floats(1.0, 2.0),
    )
    def test_bounds(self, price, confirmed, sdt, prem):
        order = self.order(price=str(price), requested=0, confirmed=confirmed,
                           sdt=sdt)
        lt = derive_lead_times(order)
        value = rm_price(order, lt, premium(round(prem, 6)))
        assert float(price) <= value <= float(price) * 2.0 + 1e-9

    @given(
        conf1=st.integers(0, 49), conf2=st.integers(0, 49), sdt=st.integers(50, 80)
    )
    def test_deeper_expedite_larger_price(self, conf1, conf2, sdt):
        lo, hi = sorted((conf1, conf2))
        order = self.order(requested=0, confirmed=lo, sdt=sdt)
        deep = rm_price(order, derive_lead_times(order), premium(1.5))
        order2 = self.order(requested=0, confirmed=hi, sdt=sdt)
        shallow = rm_price(order2, derive_lead_times(order2), premium(1.5))
        assert deep >= shallow


class TestConvexPrice:
    def test_confirmed_at_standard_keeps_original(self, config):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 10, 10)
        lt = derive_lead_times(order)
        assert convex_price(order, lt, config) == 100.0

    def test_worked_example(self, config):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 5, 10)
        lt = derive_lead_times(order)
        expected = 100.0 * (1.0 - 0.5 * math.log(0.5))
        value = convex_price(order, lt, config)
        assert value == pytest.approx(expected, abs=1e-9)
        assert round(value, 2) == 134.66

    def test_zero_confirmed_lead_time_raises(self, config):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 0, 10)
        lt = derive_lead_times(order)
        with pytest.raises(LogDomainError):
            convex_price(order, lt, config)


class TestPriceDataset:
    def constant_behavior_dataset(self):
        customers = (Customer("C1", AccountClass.KEY, Decimal("20000000.00")),)
        products = (Product("P1", "BT-A", "PL-1"),)
        orders = tuple(
            make_order(f"O{i}", "C1", "P1", date(2020, 1, 1 + i), 10, 20, 20)
            for i in range(4)
        )
        return Dataset(customers, products, orders)

    def test_constant_behavior_all_premiums_one(self, config):
        result = price_dataset(self.constant_behavior_dataset(), config)
        assert all(p.premium == Decimal("1.000000") for p in result.premiums)
        original, rm, convex = oracle_totals(result)
        assert rm == original  # nothing confirmed faster either
        assert convex == original

    def test_customer_without_orders_gets_premium_one(self, config):
        dataset = self.constant_behavior_dataset()
        extra = Customer("C2", AccountClass.OTHERS, Decimal("100.00"))
        dataset = Dataset(dataset.customers + (extra,), dataset.products,
                          dataset.orders)
        result = price_dataset(dataset, config)
        by_code = {p.customer_code: p.premium for p in result.premiums}
        assert by_code["C2"] == Decimal("1.000000")

    def test_composed_premium_applies_to_each_order(self, small_dataset, config):
        result = price_dataset(small_dataset, config)
        by_code = {p.customer_code: p for p in result.premiums}
        assert by_code["C002"].premium == Decimal("1.380000")
        rm = {p.order_number: p.rm for p in result.priced_orders}
        # O3: 300 * (1 + 0.5 * 0.38), O4 confirmed at standard
        assert rm["O3"] == Decimal("357.00")
        assert rm["O4"] == Decimal("400.00")

    def test_log_domain_issue_collected_not_fatal(self, config):
        customers = (Customer("C1", AccountClass.KEY, Decimal("20000000.00")),)
        products = (Product("P1", "BT-A", "PL-1"),)
        orders = (
            make_order("O1", "C1", "P1", date(2020, 1, 1), 5, 0, 20),  # conf 0
            make_order("O2", "C1", "P1", date(2020, 1, 2), 5, 10, 20),
        )
        result = price_dataset(Dataset(customers, products, orders), config)
        assert [i.order_number for i in result.issues] == ["O1"]
        assert [p.order_number for p in result.priced_orders] == ["O2"]

    def test_invariants_on_synthetic_dataset(self, config):
        dataset = generate_synthetic(
            GeneratorConfig(seed=42, n_customers=25, n_orders=800)
        )
        result = price_dataset(dataset, config)
        assert not result.issues
        for po in result.priced_orders:
            assert po.original <= po.rm <= po.original * 2
            assert po.convex >= po.original

    def test_deterministic(self, small_dataset, config):
        assert price_dataset(small_dataset, config) == price_dataset(
            small_dataset, config
        )
