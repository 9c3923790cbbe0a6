"""Greenhouse-gas savings arithmetic (BF9)."""
from __future__ import annotations

import pytest

from oracles import compound_bruteforce


def _ghg_inputs(vehicle_trips, package_trips, cargo_trips):
    """BF9 inputs for 2022 that give these replaced-trip counts.

    The US market equals the global one, so the first horizon year's
    market level is exactly 1 and the package count is the regional share
    of ``annual_parcels``.
    """
    us_population, population = 3.33e8, 3.9e6
    constants = {
        "scc_2020": 51.0, "scm_2020": 1200.0, "scn_2020": 1500.0,
        "scghg_base_year": 2020, "scghg_discount": 0.03, "mpg_fleet": 22.5,
        "co2_tons_per_gallon": 8.89e-3, "co2_share_of_ghg": 0.993,
        "us_annual_trips": 4.11e11, "evtol_emission_ratio": 0.35,
        "seats_per_evtol": 4.0,
        "market_value_2019": 343.303, "us_market_2019": 343.303,
        "market_base_year": 2019, "market_cagr": 0.538,
        "annual_parcels": package_trips * us_population / population,
        "parcel_fraction": 1.0,
    }
    values = {
        "vmt_us": 3.2e12, "us_population": us_population,
        "population": population, "passenger_trips": 4.0 * vehicle_trips,
        "cargo_trips": cargo_trips,
    }
    return constants, values


def ghg_trace(factor_value, constants=None, year=2022):
    """BF9's trace by label for 2500 vehicle trips, 8e6 package trips and
    15000 cargo trips, with constant overrides."""
    base, values = _ghg_inputs(2500.0, 8.0e6, 15000.0)
    trace = {}
    factor_value("BF9", {**base, **(constants or {})}, values, trace=trace,
                 year=year)
    return trace


def test_social_cost_compounding(factor_value):
    scc = "social cost of CO2 ($/ton)"
    assert ghg_trace(factor_value)[scc] == pytest.approx(54.1059, abs=1e-4)
    assert ghg_trace(factor_value, year=2030)[scc] == pytest.approx(
        compound_bruteforce(51.0, 0.03, 10), rel=1e-12
    )
    assert ghg_trace(factor_value, {"scghg_base_year": 2022})[scc] == 51.0


def test_blended_non_co2_cost(factor_value):
    got = ghg_trace(factor_value)["blended methane/nitrous social cost ($/ton)"]
    assert got == pytest.approx(1350.0 * 1.03**2, rel=1e-12)


def test_non_co2_tons_per_gallon(factor_value):
    trace = ghg_trace(factor_value)
    got = (trace["methane and nitrous oxide emitted (tons)"]
           / trace["gallons burned by the ground fleet"])
    assert got == pytest.approx(6.266868076535731e-05, rel=1e-9)


def test_emission_split_reproduces_the_share(factor_value):
    trace = ghg_trace(factor_value)
    co2 = trace["CO2 emitted (tons)"]
    other = trace["methane and nitrous oxide emitted (tons)"]
    assert co2 / (co2 + other) == pytest.approx(0.993, abs=1e-9)
    assert trace["gallons burned by the ground fleet"] == pytest.approx(
        trace["local road miles (mi)"] / 22.5, rel=1e-15
    )


def test_trip_attribution_and_demand(factor_value):
    trace = ghg_trace(factor_value)
    trips = trace["local ground vehicle trips"]
    assert trips == pytest.approx(3.9e6 / 3.33e8 * 4.11e11, rel=1e-15)
    assert trace["drone package deliveries"] == pytest.approx(8.0e6, rel=1e-12)
    assert trace["share of ground trips replaced"] == pytest.approx(
        (2500.0 + 8.0e6 + 15000.0) / trips, rel=1e-12
    )
    with pytest.raises(ValueError, match="ground trip count"):
        ghg_trace(factor_value, {"us_annual_trips": 0.0})


def test_ghg_savings_anchor(factor_value):
    got = factor_value("BF9", *_ghg_inputs(2500.0, 8.0e6, 15000.0))
    assert got == pytest.approx(554221.6651525829, rel=1e-12)


def test_ghg_savings_scales_with_replaced_trips(factor_value):
    one = factor_value("BF9", *_ghg_inputs(1000.0, 0.0, 0.0))
    two = factor_value("BF9", *_ghg_inputs(2000.0, 0.0, 0.0))
    assert two == pytest.approx(2.0 * one, rel=1e-12)
