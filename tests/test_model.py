import contextlib
import gc
import inspect
import sys
import weakref
from dataclasses import FrozenInstanceError, fields
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from ltbp.graph import FilterTypeError, build_graph, evaluate
from ltbp.ingest import (
    GeneratorConfig, MalformedRow, generate_synthetic, load_dataset, write_dataset,
)
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
    collector_paused,
    lead_days,
    rm_eligible,
)
from ltbp.pricing import price_dataset
from ltbp.query import parse_query
from ltbp.report import TOTALS_QUERY
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
            PricingConfig(rho_key=1.0)

    def test_hashable(self):
        assert hash(PricingConfig()) == hash(PricingConfig())
        assert len({PricingConfig(), PricingConfig(rho_key=0.2)}) == 2

    def test_immutable(self):
        config = PricingConfig()
        with pytest.raises(FrozenInstanceError):
            config.rho_key = 0.5
        # Every setting is a number, so no value can change in place after
        # validation.
        assert all(isinstance(getattr(config, f.name), float) for f in fields(config))

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
        ("rho_key", 1.0),
        ("rho_regular", 1.0),
        ("rho_others", 1.0),
    ])
    def test_setting_over_bound_rejected(self, field, value):
        with pytest.raises(InvalidField) as excinfo:
            PricingConfig(**{field: value})
        assert excinfo.value.field == field


@pytest.fixture
def collector_state():
    """Restores the collector's state, thresholds and callbacks after a test."""
    was, thresholds, callbacks = gc.isenabled(), gc.get_threshold(), gc.callbacks[:]
    yield
    (gc.enable if was else gc.disable)()
    gc.set_threshold(*thresholds)
    gc.callbacks[:] = callbacks


_CONFIG_2000 = GeneratorConfig(seed=42, n_customers=60, n_orders=2_000)


def _csv_paths(dataset, out_dir):
    """The dataset written to CSVs, as ``load_dataset`` takes their paths."""
    paths = write_dataset(dataset, out_dir)
    return [paths[name] for name in ("orders", "customers", "products")]


@pytest.mark.usefixtures("collector_state")
class TestCollectorPaused:
    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("raising", [False, True], ids=["return", "raise"])
    def test_state_is_restored_on_return_and_on_raise(self, collecting, raising):
        (gc.enable if collecting else gc.disable)()
        with contextlib.suppress(KeyError), collector_paused():
            assert not gc.isenabled()
            if raising:
                raise KeyError("synthetic")
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_when_a_decorated_pass_raises(
            self, tmp_path, small_dataset, small_graph, collecting):
        paths = _csv_paths(small_dataset, tmp_path)
        orders = paths[0].read_text(encoding="utf-8").splitlines(True)
        paths[0].write_text(orders[0] + orders[1][orders[1].index(","):]
                            + "".join(orders[2:]), encoding="utf-8")
        mismatch = parse_query(
            'SELECT ?o WHERE { ?o :hasQuantity ?q FILTER(?q > "a") }')
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(MalformedRow, match="line 2, column order_number"):
            load_dataset(*paths)
        assert gc.isenabled() is collecting
        with pytest.raises(FilterTypeError, match="type mismatch"):
            evaluate(small_graph, mismatch)
        assert gc.isenabled() is collecting

    def test_a_pass_promotes_its_objects_without_collecting_them(self):
        @collector_paused()
        def allocate():
            return [[i] for i in range(10_000)]

        gc.enable()
        starts = []
        gc.callbacks.append(lambda phase, info: starts.append(phase == "start"))
        kept = allocate()
        after = gc.get_count()[0]
        assert not any(starts)
        assert after < 100 and gc.get_freeze_count() == 0
        assert len(kept) == 10_000

    def test_a_cycle_made_in_a_pass_is_still_collected(self):
        class Node:
            pass

        @collector_paused()
        def make_cycle():
            node = Node()
            node.self = node
            return weakref.ref(node)

        gc.enable()
        ref = make_cycle()
        assert ref() is not None  # promoted, not collected
        gc.collect()
        assert ref() is None

    def test_a_hosts_frozen_objects_stay_frozen(self):
        @collector_paused()
        def allocate():
            return [[i] for i in range(1_000)]

        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            allocate()
            assert gc.get_freeze_count() == frozen > 0
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_the_bulk_passes_run_no_collection(self, tmp_path, config):
        dataset = generate_synthetic(_CONFIG_2000)
        pricing = price_dataset(dataset, config)
        calls = [
            (generate_synthetic, (_CONFIG_2000,)),
            (load_dataset, _csv_paths(dataset, tmp_path)),
            (price_dataset, (dataset, config)),
            (evaluate, (build_graph(dataset, pricing, config),
                        parse_query(TOTALS_QUERY))),
        ]
        thresholds, counts = gc.get_threshold(), {}
        for function, args in calls:
            # A collection counts when it starts with the function's own frame
            # on the stack, so none of the caller's or a wrapper's counts.
            code, inside = inspect.unwrap(function).__code__, []

            def hook(phase, info):
                if phase == "start":
                    frame = sys._getframe(1)
                    while frame is not None and frame.f_code is not code:
                        frame = frame.f_back
                    inside.append(frame is not None)

            gc.enable()
            gc.set_threshold(1)
            gc.callbacks.append(hook)
            try:
                function(*args)
            finally:
                gc.callbacks.remove(hook)
                gc.set_threshold(*thresholds)
            counts[function.__name__] = sum(inside)
        assert counts == dict.fromkeys(
            ["generate_synthetic", "load_dataset", "price_dataset", "evaluate"], 0)
