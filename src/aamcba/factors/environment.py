"""Greenhouse-gas savings from shifting ground trips to air (BF-9).

Social costs of CO2, methane, and nitrous oxide are published for a base
year and compounded forward at a fixed annual rate. The ground fleet's
emissions are estimated from locally attributed vehicle miles; the share
of them avoided is the fraction of ground trips the air services replace,
scaled by how much cleaner the electric aircraft are.
"""
from __future__ import annotations


def social_cost_forward(
    base_value: float, year: float, base_year: float, annual_rate: float
) -> float:
    """Social cost per ton compounded forward from its publication year."""
    return base_value * (1.0 + annual_rate) ** (year - base_year)


def blended_non_co2_cost(
    scm_base: float,
    scn_base: float,
    year: float,
    base_year: float,
    annual_rate: float,
) -> float:
    """Average of the methane and nitrous-oxide social costs for a year."""
    scm = social_cost_forward(scm_base, year, base_year, annual_rate)
    scn = social_cost_forward(scn_base, year, base_year, annual_rate)
    return (scm + scn) / 2.0


def non_co2_tons_per_gallon(
    co2_tons_per_gallon: float, co2_share_of_ghg: float
) -> float:
    """Methane-plus-nitrous tons per gallon implied by the CO2 share."""
    return co2_tons_per_gallon * (1.0 / co2_share_of_ghg - 1.0)


def fleet_gallons(vmt: float, mpg_fleet: float) -> float:
    """Fuel burned to drive the attributed vehicle miles."""
    return vmt / mpg_fleet


def ground_emissions(
    gallons: float, co2_tons_per_gallon: float, co2_share_of_ghg: float
) -> tuple[float, float]:
    """Tons of CO2 and of methane-plus-nitrous from the fleet's fuel burn."""
    co2 = co2_tons_per_gallon * gallons
    other = non_co2_tons_per_gallon(co2_tons_per_gallon, co2_share_of_ghg) * gallons
    return co2, other


def local_ground_trips(
    us_annual_trips: float, us_population: float, population: float
) -> float:
    """US annual vehicle trips attributed to the region by population."""
    return population / us_population * us_annual_trips


def demand_factor(
    evtol_passenger_trips: float,
    package_trips: float,
    cargo_trips: float,
    ground_trips: float,
) -> float:
    """Fraction of local ground trips the air services replace."""
    if ground_trips <= 0:
        raise ValueError(f"ground trip count must be positive, got {ground_trips}")
    return (evtol_passenger_trips + package_trips + cargo_trips) / ground_trips
