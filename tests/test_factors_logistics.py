"""Package delivery (BF3) and air cargo (BF4), step by step through each
factor's recorded trace."""
from __future__ import annotations

import pytest

from oracles import compound_bruteforce

#: A fleet of exactly ten active drones: in 2022, the first horizon year,
#: the single-ratio market level is 1, the region holds the whole
#: population, so 170400 parcels are 10 x 17040 drone trips.
PACKAGE_CONSTANTS = {
    "market_value_2019": 343.303, "market_base_year": 2019,
    "market_cagr": 0.538, "us_market_2019": 211.553,
    "annual_parcels": 170400.0, "parcel_fraction": 1.0,
    "operational_days": 284.0, "round_trip_min": 24.0, "reserve_fraction": 0.25,
    "driver_hours_per_day": 10.0, "packages_per_driver_day": 250.0,
    "truck_cost_per_hour": 30.0, "drone_capital_cost": 4000.0,
    "drone_operating_cost": 800.0, "ATS_min": 13.0, "VDTS": 3.61,
}
PACKAGE_VALUES = {"population": 3.33e8, "us_population": 3.33e8}
SINGLE_RATIO = {"bf3_single_ratio": True}


def package_trace(factor_value, constants=None, toggles=SINGLE_RATIO, year=2022,
                  values=None):
    """BF3's trace by label, on ``PACKAGE_CONSTANTS`` with overrides."""
    trace = {}
    factor_value("BF3", {**PACKAGE_CONSTANTS, **(constants or {})},
                 {**PACKAGE_VALUES, **(values or {})}, toggles,
                 trace=trace, year=year)
    return trace


def test_market_projection(factor_value):
    got = package_trace(factor_value, year=2030)["global drone logistics market ($M)"]
    assert got == pytest.approx(39101.84849941853, rel=1e-12)
    assert got == pytest.approx(compound_bruteforce(343.303, 0.538, 11), rel=1e-12)


def test_us_market_share(factor_value):
    trace = package_trace(factor_value)
    assert trace["US market share"] == pytest.approx(0.6162282298727363, rel=1e-12)


def test_normalized_market_modes(factor_value):
    share = 211.553 / 343.303
    single = package_trace(factor_value, year=2024)
    printed = package_trace(factor_value, toggles={}, year=2024)
    level = "market level vs first horizon year"
    assert single[level] == pytest.approx(1.538 ** 2, rel=1e-12)
    # the printed form scales by the US share a second time
    assert printed[level] == pytest.approx(share * 1.538 ** 2, rel=1e-12)
    assert package_trace(factor_value)[level] == 1.0


def test_local_package_trips(factor_value):
    trace = package_trace(
        factor_value, {"market_cagr": 0.5, "annual_parcels": 6.5e9,
                       "parcel_fraction": 0.86},
        values={"population": 3.9e6}, year=2023,
    )
    assert trace["market level vs first horizon year"] == pytest.approx(1.5, rel=1e-12)
    assert trace["drone package deliveries"] == pytest.approx(
        98202702.7027027, rel=1e-12
    )


def test_drone_trip_ceiling_is_exact(factor_value):
    trace = package_trace(factor_value)
    assert trace["deliveries one drone can fly per year"] == 17040.0


def test_fleet_size_reserve_structure(factor_value):
    trace = package_trace(factor_value)
    assert trace["drone package deliveries"] == 170400.0
    active = trace["active drone fleet"]
    assert active == 10.0
    assert trace["fleet incl. rotation and reserve"] == pytest.approx(
        2.25 * active, rel=1e-12
    )


def test_logistics_cost_savings_anchor(factor_value):
    trace = package_trace(factor_value)
    assert trace["cost savings vs truck delivery ($)"] == pytest.approx(
        96480.0, rel=1e-9
    )


def test_logistics_capex_amortization(factor_value):
    spread = package_trace(
        factor_value, toggles={**SINGLE_RATIO, "amortize_capex_years": 4}
    )
    assert spread["cost savings vs truck delivery ($)"] == pytest.approx(
        163980.0, rel=1e-9
    )
    with pytest.raises(ValueError, match="package trips must be positive"):
        package_trace(factor_value, {"parcel_fraction": 0.0})


def test_package_lead_time_value(factor_value):
    trace = package_trace(factor_value)
    assert trace["delivery lead-time value ($)"] == pytest.approx(
        170400.0 * 13.0 / 1440.0 * 3.61, rel=1e-15
    )


CARGO_CONSTANTS = {
    "trip_time_saved_min": 50.0, "trip_distance_miles": 50.0,
    "warehouse_rent_psf_month": 0.79, "warehouse_nnn_psf_month": 0.25,
    "warehouse_size_sf": 39631.0, "warehouse_wage_year": 27867.0,
    "warehouse_area_per_worker_sf": 138.0,
    "truck_cost_per_mile": 1.417, "truck_payload_lb": 24000.0,
    "evtol_cost_per_mile": 34.0, "evtol_payload_lb": 525.0,
    "evtol_cost_share": 0.44, "VDTS": 3.61,
}


def cargo_trace(factor_value, cargo_trips=43200.0, toggles=None, constants=None):
    """BF4's trace by label, on ``CARGO_CONSTANTS`` with overrides."""
    trace = {}
    factor_value("BF4", {**CARGO_CONSTANTS, **(constants or {})},
                 {"cargo_trips": cargo_trips}, toggles, trace=trace)
    return trace


def test_calendar_constants(factor_value):
    # a day is 1440 minutes, a month 30 days
    lead = package_trace(factor_value, {"ATS_min": 1440.0})
    assert lead["delivery lead-time value ($)"] == 170400.0 * 3.61
    month = cargo_trace(factor_value, 1.0, constants={"trip_time_saved_min": 43200.0})
    assert month["delivery months saved"] == 1.0


def test_cargo_months_and_warehouse(factor_value):
    trace = cargo_trace(factor_value)
    assert trace["delivery months saved"] == pytest.approx(50.0, rel=1e-15)
    monthly = trace["monthly warehouse cost ($)"]
    assert monthly == pytest.approx(708122.6874637682, rel=1e-12)
    assert trace["warehouse cost avoided ($)"] == pytest.approx(
        50.0 * monthly, rel=1e-15
    )


def test_inventory_bracket_sign_modes(factor_value):
    trace = cargo_trace(factor_value, 1000.0)
    bracket = trace["cost gap per lb-mile, truck minus eVTOL ($)"]
    assert bracket == pytest.approx(-0.0647028630952381, rel=1e-12)
    as_printed = trace["inventory carry cost of flying ($)"]
    assert as_printed == pytest.approx(bracket * 525.0 * 50.0 * 1000.0, rel=1e-15)
    assert as_printed < 0
    flipped = cargo_trace(
        factor_value, 1000.0, toggles={"bf4_ci_sign": "positive_extra_cost"}
    )
    assert flipped["inventory carry cost of flying ($)"] == pytest.approx(
        -as_printed, rel=1e-15
    )


def test_cargo_headline_netting(factor_value):
    trace = cargo_trace(factor_value, 2.0 * 43200.0 / 50.0)
    # a negative inventory "cost" increases the printed savings
    savings = trace["warehouse cost avoided ($)"]
    inventory = trace["inventory carry cost of flying ($)"]
    assert inventory < 0
    assert trace["net cost and inventory savings ($)"] == pytest.approx(
        0.44 * (savings - inventory), rel=1e-15
    )
    assert trace["cargo lead-time value ($)"] == pytest.approx(216.6, rel=1e-15)
