from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from ltbp.model import (
    CONVEX_ALPHA_MIN,
    MONEY_MAX,
    P_MAX_MAX,
    AccountClass,
    Customer,
    InvalidField,
    Order,
    PricingConfig,
    adjustment_factor,
    class_for_revenue,
    class_matches_revenue,
    lead_days,
    rm_eligible,
)
from tests.conftest import make_order


class TestAccountClass:
    def test_exactly_three_labels(self):
        assert {c.value for c in AccountClass} == {"Key", "Regular", "Others"}

    def test_from_label_roundtrip(self):
        for cls in AccountClass:
            assert AccountClass.from_label(cls.value) is cls

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="Platinum"):
            AccountClass.from_label("Platinum")


class TestDeriveLeadTimes:
    def test_same_day_request(self):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 0, 5, 20)
        assert lead_days(order)[0] == 0

    def test_confirmed_ten_days(self):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 3, 10, 20)
        assert lead_days(order)[1] == 10

    def test_sdt_twenty_days(self):
        order = make_order("O1", "C1", "P1", date(2020, 1, 1), 3, 10, 20)
        assert lead_days(order)[2] == 20

    def test_crosses_month_boundary(self):
        order = Order(
            "O1", "C1", "P1", 1, Decimal("10.00"),
            date(2020, 1, 25), date(2020, 2, 4), date(2020, 2, 14), date(2020, 2, 24),
        )
        assert lead_days(order) == (10, 20, 30)

    @given(req=st.integers(0, 400), conf=st.integers(0, 400), sdt=st.integers(1, 400))
    def test_sdt_always_positive(self, req, conf, sdt):
        order = make_order("O1", "C1", "P1", date(2018, 6, 1), req, conf, sdt)
        assert lead_days(order)[2] > 0


class TestRmEligible:
    def test_requested_before_standard(self):
        assert rm_eligible(10, 20) is True

    def test_boundary_is_strict(self):
        assert rm_eligible(20, 20) is False

    def test_late_request(self):
        assert rm_eligible(25, 20) is False

    @given(sdt=st.integers(1, 200), olt=st.integers(0, 200), drop=st.integers(0, 200))
    def test_monotone_in_requested_lead_time(self, sdt, olt, drop):
        before = rm_eligible(olt, sdt)
        after = rm_eligible(max(0, olt - drop), sdt)
        assert not (before and not after)


class TestAdjustmentFactor:
    def test_default_table(self, config):
        assert adjustment_factor(AccountClass.KEY, config) == 0.1
        assert adjustment_factor(AccountClass.REGULAR, config) == 0.05
        assert adjustment_factor(AccountClass.OTHERS, config) == 0.025

    def test_total_over_enumeration(self, config):
        for cls in AccountClass:
            assert 0 <= adjustment_factor(cls, config) < 1


class TestClassForRevenue:
    @pytest.mark.parametrize(
        "revenue, expected",
        [
            (50_000_000, AccountClass.KEY),
            (7_000_000, AccountClass.REGULAR),
            (0, AccountClass.OTHERS),
            (5_000_000, AccountClass.OTHERS),  # bands closed at upper bound
            (10_000_000, AccountClass.REGULAR),
            (100_000_000, AccountClass.KEY),
            (250_000_000, AccountClass.KEY),  # above the top band
        ],
    )
    def test_bands(self, revenue, expected):
        assert class_for_revenue(revenue) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            class_for_revenue(-1)

    def test_mismatch_detected(self):
        customer = Customer("C1", AccountClass.KEY, Decimal("1000.00"))
        assert not class_matches_revenue(customer)


class TestValidation:
    def test_negative_revenue_rejected(self):
        with pytest.raises(ValueError):
            Customer("C1", AccountClass.KEY, Decimal("-1"))

    def test_zero_quantity_rejected(self):
        with pytest.raises(ValueError):
            make_order("O1", "C1", "P1", date(2020, 1, 1), 1, 1, 5, quantity=0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError):
            make_order("O1", "C1", "P1", date(2020, 1, 1), 1, 1, 5, price="0.00")

    def test_request_before_order_date_rejected(self):
        with pytest.raises(ValueError):
            make_order("O1", "C1", "P1", date(2020, 1, 1), -1, 1, 5)

    def test_standard_date_must_follow_order_date(self):
        with pytest.raises(ValueError):
            make_order("O1", "C1", "P1", date(2020, 1, 1), 1, 1, 0)


class TestPricingConfig:
    def test_defaults_are_valid(self):
        config = PricingConfig()
        assert config.p_max == 2.0
        assert config.convex_alpha == -0.5

    def test_p_max_must_exceed_one(self):
        with pytest.raises(ValueError):
            PricingConfig(p_max=1.0)

    def test_rho_range_enforced(self):
        with pytest.raises(ValueError):
            PricingConfig(rho_table={
                AccountClass.KEY: 1.0,
                AccountClass.REGULAR: 0.05,
                AccountClass.OTHERS: 0.025,
            })

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            PricingConfig(alpha=-0.1)

    def test_positive_convex_alpha_rejected(self):
        with pytest.raises(ValueError):
            PricingConfig(convex_alpha=0.5)


class TestBounds:
    """Money and the settings that scale a price have upper bounds, so that
    every accepted order prices below 2**45, where a float keeps the cent."""

    def test_money_bound_is_inclusive(self):
        Customer("C1", AccountClass.KEY, MONEY_MAX)
        make_order("O1", "C1", "P1", date(2020, 1, 1), 1, 1, 5, price=str(MONEY_MAX))

    def test_revenue_over_bound_rejected(self):
        with pytest.raises(InvalidField) as excinfo:
            Customer("C1", AccountClass.KEY, MONEY_MAX + Decimal("0.01"))
        assert excinfo.value.field == "annual_revenue"

    @pytest.mark.parametrize("price", [
        str(MONEY_MAX + Decimal("0.01")), "99999999999999999999999999.99",
    ])
    def test_price_over_bound_rejected(self, price):
        with pytest.raises(InvalidField) as excinfo:
            make_order("O1", "C1", "P1", date(2020, 1, 1), 1, 1, 5, price=price)
        assert excinfo.value.field == "original_price"

    def test_setting_bounds_are_inclusive(self):
        PricingConfig(p_max=P_MAX_MAX, convex_alpha=CONVEX_ALPHA_MIN)

    @pytest.mark.parametrize("field, value", [
        ("p_max", P_MAX_MAX * 1.001),
        ("p_max", 1e300),
        ("convex_alpha", CONVEX_ALPHA_MIN * 1.001),
        ("convex_alpha", -1e300),
    ])
    def test_setting_over_bound_rejected(self, field, value):
        with pytest.raises(InvalidField) as excinfo:
            PricingConfig(**{field: value})
        assert excinfo.value.field == field
