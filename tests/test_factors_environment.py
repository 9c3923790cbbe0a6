"""Greenhouse-gas savings arithmetic (BF9)."""
from __future__ import annotations

import pytest

from aamcba.factors.environment import (
    blended_non_co2_cost,
    demand_factor,
    fleet_gallons,
    ground_emissions,
    local_ground_trips,
    non_co2_tons_per_gallon,
    social_cost_forward,
)

from oracles import compound_bruteforce


def test_social_cost_compounding():
    assert social_cost_forward(51.0, 2022, 2020, 0.03) == pytest.approx(
        54.1059, abs=1e-4
    )
    assert social_cost_forward(51.0, 2030, 2020, 0.03) == pytest.approx(
        compound_bruteforce(51.0, 0.03, 10), rel=1e-12
    )
    assert social_cost_forward(51.0, 2020, 2020, 0.03) == 51.0


def test_blended_non_co2_cost():
    got = blended_non_co2_cost(1200.0, 1500.0, 2022, 2020, 0.03)
    assert got == pytest.approx(1350.0 * 1.03**2, rel=1e-12)


def test_non_co2_tons_per_gallon():
    got = non_co2_tons_per_gallon(8.89e-3, 0.993)
    assert got == pytest.approx(6.266868076535731e-05, rel=1e-9)


def test_emission_split_reproduces_the_share():
    co2, other = ground_emissions(fleet_gallons(1e9, 22.5), 8.89e-3, 0.993)
    assert co2 / (co2 + other) == pytest.approx(0.993, abs=1e-9)
    assert fleet_gallons(1e9, 22.5) == pytest.approx(1e9 / 22.5, rel=1e-15)


def test_trip_attribution_and_demand():
    trips = local_ground_trips(4.11e11, 3.33e8, 3.9e6)
    assert trips == pytest.approx(3.9e6 / 3.33e8 * 4.11e11, rel=1e-15)
    share = demand_factor(2500.0, 8.0e6, 15000.0, trips)
    assert share == pytest.approx((2500.0 + 8.0e6 + 15000.0) / trips, rel=1e-15)
    with pytest.raises(ValueError, match="ground trip count"):
        demand_factor(2500.0, 8.0e6, 15000.0, 0.0)


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
        "market_cagr": 0.538,
        "annual_parcels": package_trips * us_population / population,
        "parcel_fraction": 1.0,
    }
    values = {
        "vmt_us": 3.2e12, "us_population": us_population,
        "population": population, "passenger_trips": 4.0 * vehicle_trips,
        "cargo_trips": cargo_trips,
    }
    return constants, values


def test_ghg_savings_anchor(factor_value):
    got = factor_value("BF9", *_ghg_inputs(2500.0, 8.0e6, 15000.0))
    assert got == pytest.approx(554221.6651525829, rel=1e-12)


def test_ghg_savings_scales_with_replaced_trips(factor_value):
    one = factor_value("BF9", *_ghg_inputs(1000.0, 0.0, 0.0))
    two = factor_value("BF9", *_ghg_inputs(2000.0, 0.0, 0.0))
    assert two == pytest.approx(2.0 * one, rel=1e-12)
