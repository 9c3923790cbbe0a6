"""Package-delivery and air-cargo factor arithmetic."""
from __future__ import annotations

import pytest

from aamcba.factors.logistics import (
    MINUTES_PER_DAY,
    MINUTES_PER_MONTH,
    FleetSize,
    cargo_cost_savings,
    cargo_inventory_cost,
    cargo_lead_time_value,
    cargo_months_saved,
    cargo_time_inventory_savings,
    fleet_size,
    inventory_cost_bracket,
    logistics_cost_savings,
    market_value,
    max_trips_per_drone,
    normalized_market,
    package_lead_time_value,
    smco_package_trips,
    us_market_share,
    warehouse_monthly_cost,
)

from oracles import compound_bruteforce


def test_calendar_constants():
    assert MINUTES_PER_MONTH == 43200.0
    assert MINUTES_PER_DAY == 1440.0


def test_market_projection():
    got = market_value(2030, 343.303, 2019, 0.538)
    assert got == pytest.approx(39101.84849941853, rel=1e-12)
    assert got == pytest.approx(compound_bruteforce(343.303, 0.538, 11), rel=1e-12)


def test_us_market_share():
    assert us_market_share(211.553, 343.303) == pytest.approx(
        0.6162282298727363, rel=1e-12
    )


def test_normalized_market_modes():
    assert normalized_market(100.0, 0.6, 50.0) == pytest.approx(1.2, rel=1e-15)
    assert normalized_market(100.0, 0.6, 50.0, single_ratio=True) == pytest.approx(
        2.0, rel=1e-15
    )


def test_local_package_trips():
    got = smco_package_trips(1.5, 6.5e9, 0.86, 3.9e6, 3.33e8)
    assert got == pytest.approx(98202702.7027027, rel=1e-12)


def test_drone_trip_ceiling_is_exact():
    assert max_trips_per_drone(24.0, 284.0) == 17040.0


def test_fleet_size_reserve_structure():
    fleet = fleet_size(17040.0 * 10.0, 17040.0, 0.25)
    assert fleet.active == pytest.approx(10.0, rel=1e-15)
    assert fleet.total == pytest.approx(2.25 * fleet.active, rel=1e-12)
    assert FleetSize(active=8.0, reserve=2.0).total == 18.0


def test_logistics_cost_savings_anchor():
    got = logistics_cost_savings(170400.0, 22.5, 10.0, 30.0, 250.0, 4000.0, 800.0)
    assert got == pytest.approx(96480.0, rel=1e-9)


def test_logistics_capex_amortization():
    spread = logistics_cost_savings(
        170400.0, 22.5, 10.0, 30.0, 250.0, 4000.0, 800.0, amortize_capex_years=4
    )
    assert spread == pytest.approx(163980.0, rel=1e-9)
    with pytest.raises(ValueError, match="package trips must be positive"):
        logistics_cost_savings(0.0, 22.5, 10.0, 30.0, 250.0, 4000.0, 800.0)


def test_package_lead_time_value():
    got = package_lead_time_value(170400.0, 13.0, 3.61)
    assert got == pytest.approx(170400.0 * 13.0 / 1440.0 * 3.61, rel=1e-15)


def test_cargo_months_and_warehouse():
    assert cargo_months_saved(43200.0, 50.0) == pytest.approx(50.0, rel=1e-15)
    monthly = warehouse_monthly_cost(0.79, 0.25, 39631.0, 27867.0, 138.0)
    assert monthly == pytest.approx(708122.6874637682, rel=1e-12)
    assert cargo_cost_savings(2.0, monthly) == pytest.approx(2.0 * monthly, rel=1e-15)


def test_inventory_bracket_sign_modes():
    bracket = inventory_cost_bracket(1.417, 24000.0, 34.0, 525.0)
    assert bracket == pytest.approx(-0.0647028630952381, rel=1e-12)
    as_printed = cargo_inventory_cost(bracket, 525.0, 50.0, 1000.0)
    assert as_printed < 0
    flipped = cargo_inventory_cost(
        bracket, 525.0, 50.0, 1000.0, sign="positive_extra_cost"
    )
    assert flipped == pytest.approx(-as_printed, rel=1e-15)
    with pytest.raises(ValueError, match="unknown sign mode"):
        cargo_inventory_cost(bracket, 525.0, 50.0, 1000.0, sign="upside_down")


def test_cargo_headline_netting():
    # a negative inventory "cost" increases the printed savings
    assert cargo_time_inventory_savings(100.0, -20.0, 0.44) == pytest.approx(
        0.44 * 120.0, rel=1e-15
    )
    assert cargo_lead_time_value(2.0, 3.61) == pytest.approx(216.6, rel=1e-15)
