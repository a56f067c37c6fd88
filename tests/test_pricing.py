import math
import statistics
import tracemalloc
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from ltbp.ingest import Dataset, GeneratorConfig, generate_synthetic
from ltbp.model import (
    CONVEX_ALPHA_MIN,
    MONEY_MAX,
    P_MAX_MAX,
    AccountClass,
    Customer,
    PricingConfig,
    Product,
    derive_lead_times,
    float_to_money,
    to_money,
)
from ltbp.pricing import (
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
from tests.oracles import oracle_totals, priced_orders_oracle

ratios = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)


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
        p_o = float(order.original_price)
        assert rm_price(p_o, lt.olt_confirmed, lt.sdt, 1.0) == 100.0

    def test_confirmed_at_standard_keeps_original(self):
        order = self.order(confirmed=10, sdt=10)
        lt = derive_lead_times(order)
        p_o = float(order.original_price)
        assert rm_price(p_o, lt.olt_confirmed, lt.sdt, 1.5) == 100.0

    def test_worked_example(self):
        order = self.order(confirmed=5, sdt=10)
        lt = derive_lead_times(order)
        p_o = float(order.original_price)
        value = rm_price(p_o, lt.olt_confirmed, lt.sdt, 1.5)
        assert value == pytest.approx(125.0, abs=1e-9)

    def test_slower_than_standard_never_discounts(self):
        order = self.order(confirmed=15, sdt=10)
        lt = derive_lead_times(order)
        p_o = float(order.original_price)
        assert rm_price(p_o, lt.olt_confirmed, lt.sdt, 2.0) == 100.0

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
        p_o = float(order.original_price)
        value = rm_price(p_o, lt.olt_confirmed, lt.sdt, round(prem, 6))
        assert float(price) <= value <= float(price) * 2.0 + 1e-9

    @given(
        conf1=st.integers(0, 49), conf2=st.integers(0, 49), sdt=st.integers(50, 80)
    )
    def test_deeper_expedite_larger_price(self, conf1, conf2, sdt):
        lo, hi = sorted((conf1, conf2))
        lt = derive_lead_times(self.order(requested=0, confirmed=lo, sdt=sdt))
        deep = rm_price(100.0, lt.olt_confirmed, lt.sdt, 1.5)
        lt = derive_lead_times(self.order(requested=0, confirmed=hi, sdt=sdt))
        shallow = rm_price(100.0, lt.olt_confirmed, lt.sdt, 1.5)
        assert deep >= shallow


class TestConvexPrice:
    def test_confirmed_at_standard_keeps_original(self, config):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 10, 10)
        lt = derive_lead_times(order)
        assert convex_price(100.0, lt.olt_confirmed, lt.sdt, config.convex_alpha) == 100.0

    def test_worked_example(self, config):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 5, 10)
        lt = derive_lead_times(order)
        expected = 100.0 * (1.0 - 0.5 * math.log(0.5))
        value = convex_price(100.0, lt.olt_confirmed, lt.sdt, config.convex_alpha)
        assert value == pytest.approx(expected, abs=1e-9)
        assert round(value, 2) == 134.66

    def test_zero_confirmed_lead_time_raises(self, config):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 2, 0, 10)
        lt = derive_lead_times(order)
        with pytest.raises(LogDomainError):
            convex_price(100.0, lt.olt_confirmed, lt.sdt, config.convex_alpha)


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


class TestFloatToMoney:
    @given(st.one_of(
        st.floats(min_value=-(2.0**45), max_value=2.0**45),
        st.integers(-(2**48), 2**48).map(lambda k: k / 8),  # exact half-cent ties
    ))
    @example(0.125)
    @example(0.375)
    @example(2.675)
    @example(1.005)
    def test_equals_to_money(self, value):
        cents = float_to_money(value)
        assert cents == to_money(value)
        assert str(cents) == str(to_money(value))

    def test_ties_round_half_even_on_the_binary_value(self):
        assert [str(float_to_money(x)) for x in (0.125, 0.375, 2.675, 1.005)] == [
            "0.12", "0.38", "2.67", "1.00",  # 2.675 and 1.005 are stored below
        ]


@st.composite
def small_datasets(draw):
    """3-8 customers and 10-40 orders over a few weeks, with lead days drawn
    to hit the boundaries: requested at standard, confirmed at standard,
    confirmed the same day, and confirmed later than standard."""
    n_customers = draw(st.integers(3, 8))
    customers = tuple(
        Customer(f"C{i}", draw(st.sampled_from(AccountClass)), Decimal("1.00"))
        for i in range(n_customers)
    )
    products = (Product("P1", "BT-A", "PL-1"),)
    orders = []
    for i in range(draw(st.integers(10, 40))):
        sdt = draw(st.integers(1, 30))
        requested = draw(st.one_of(st.just(sdt), st.integers(0, 40)))
        confirmed = draw(st.one_of(st.just(sdt), st.just(0), st.integers(0, 40)))
        price = draw(st.decimals(min_value="0.01", max_value=MONEY_MAX, places=2))
        orders.append(make_order(
            f"O{i}", f"C{draw(st.integers(0, n_customers - 1))}", "P1",
            date(2020, 1, 1) + timedelta(days=draw(st.integers(0, 40))),
            requested, confirmed, sdt, price=str(price),
        ))
    return Dataset(customers, products, tuple(orders))


class TestOnePass:
    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_equals_the_per_order_oracle(self, dataset):
        config = PricingConfig()
        result = price_dataset(dataset, config)
        stats, premiums, priced, issues = priced_orders_oracle(dataset, config)
        assert result.stats == stats  # float fields compared exactly
        assert result.premiums == premiums
        assert result.priced_orders == priced
        assert [i.order_number for i in result.issues] == issues

    def test_peak_above_the_result_per_order(self, config):
        # The result is what price_dataset keeps. A per-order object held
        # through the pass, such as a LeadTimes per order (83 bytes/order),
        # shows as traced peak above it.
        dataset = generate_synthetic(GeneratorConfig(seed=5, n_orders=20_000))
        tracemalloc.start()
        try:
            result = price_dataset(dataset, config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.priced_orders) == len(dataset.orders)
        assert (peak - retained) / len(dataset.orders) <= 24

    def test_order_of_orders_does_not_change_stats(self, config):
        dataset = generate_synthetic(
            GeneratorConfig(seed=3, n_customers=12, n_orders=600)
        )
        result = price_dataset(dataset, config)
        shuffled = Dataset(dataset.customers, dataset.products,
                           dataset.orders[::-1])
        again = price_dataset(shuffled, config)
        assert again.stats == result.stats  # float fields compared exactly
        assert again.premiums == result.premiums

    def test_not_expedited_prices_are_the_original(self, small_dataset, config):
        result = price_dataset(small_dataset, config)
        by_number = {p.order_number: p for p in result.priced_orders}
        for order in small_dataset.orders:
            lt = derive_lead_times(order)
            if lt.olt_confirmed < lt.sdt:
                continue
            priced = by_number[order.order_number]
            for price in (priced.rm, priced.convex):
                assert price == order.original_price
                assert str(price) == str(order.original_price)

    def test_largest_accepted_order_prices_to_the_cent(self):
        config = PricingConfig(alpha=1e300, p_max=P_MAX_MAX,
                               convex_alpha=CONVEX_ALPHA_MIN)
        start = date.min
        customers = (Customer("C1", AccountClass.OTHERS, MONEY_MAX),)
        products = (Product("P1", "BT-A", "PL-1"),)
        longest = (date.max - start).days
        orders = (
            make_order("O1", "C1", "P1", start, 0, 1, longest, price=str(MONEY_MAX)),
            make_order("O2", "C1", "P1", start, 1, 1, 3, price=str(MONEY_MAX)),
        )
        result = price_dataset(Dataset(customers, products, orders), config)
        assert result.premiums[0].premium == Decimal(P_MAX_MAX).quantize(
            Decimal("0.000001"))
        first = result.priced_orders[0]
        lt = derive_lead_times(orders[0])
        p_o, premium = float(MONEY_MAX), float(result.premiums[0].premium)
        confirmed, sdt = lt.olt_confirmed, lt.sdt
        assert first.rm == to_money(rm_price(p_o, confirmed, sdt, premium))
        assert first.convex == to_money(
            convex_price(p_o, confirmed, sdt, config.convex_alpha))
        assert max(first.rm, first.convex) < 2**45
