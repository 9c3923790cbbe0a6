"""Package delivery by drone (BF-3) and cargo delivery by eVTOL (BF-4).

BF-3 walks from the global market projection down to local trip counts,
fleet size, and the cost/lead-time savings they imply. BF-4 prices the
delivery months saved by cargo trips against warehouse operating cost,
then nets out the extra per-pound flight cost.
"""
from __future__ import annotations

from dataclasses import dataclass

MINUTES_PER_MONTH = 30.0 * 24.0 * 60.0
MINUTES_PER_DAY = 24.0 * 60.0


@dataclass(frozen=True)
class FleetSize:
    """Drones in the air, on charge, and in reserve."""

    active: float
    reserve: float

    @property
    def total(self) -> float:
        # one flying shift, one charging shift, plus the reserve pool
        return 2.0 * self.active + self.reserve


def market_value(year: int, base_value: float, base_year: int, cagr: float) -> float:
    """Global market value projected at a constant compound growth rate."""
    return base_value * (1.0 + cagr) ** (year - base_year)


def us_market_share(us_base: float, global_base: float) -> float:
    """US share of the global market in the base year."""
    return us_base / global_base


def us_market_value(global_value: float, share: float) -> float:
    return global_value * share


def normalized_market(
    us_value: float,
    share: float,
    us_value_2022: float,
    single_ratio: bool = False,
) -> float:
    """US market value normalized by its 2022 level.

    The printed form scales by the US share a second time; ``single_ratio``
    drops that extra factor and normalizes the US value directly.
    """
    if single_ratio:
        return us_value / us_value_2022
    return us_value * share / us_value_2022


def smco_package_trips(
    normalized: float,
    annual_parcels: float,
    parcel_fraction: float,
    population: float,
    us_population: float,
) -> float:
    """Annual drone package deliveries in the study region."""
    return normalized * (annual_parcels * parcel_fraction) * (population / us_population)


def max_trips_per_drone(round_trip_min: float, operational_days: float) -> float:
    """Yearly ceiling on deliveries for one drone flying every operational day."""
    return 60.0 / round_trip_min * 24.0 * operational_days


def fleet_size(
    package_trips: float, trips_per_drone: float, reserve_fraction: float
) -> FleetSize:
    active = package_trips / trips_per_drone
    return FleetSize(active=active, reserve=reserve_fraction * active)


def logistics_cost_savings(
    package_trips: float,
    fleet_total: float,
    driver_hours_per_day: float,
    truck_cost_per_hour: float,
    packages_per_driver_day: float,
    drone_capital_cost: float,
    drone_operating_cost: float,
    amortize_capex_years: int | None = None,
) -> float:
    """BF-3 cost savings: per-package truck cost minus per-package drone cost.

    As printed the full drone capital cost is charged against every year's
    deliveries; ``amortize_capex_years`` spreads it over that many years
    instead.
    """
    if package_trips <= 0:
        raise ValueError(f"package trips must be positive, got {package_trips}")
    truck_cost_per_package = driver_hours_per_day * truck_cost_per_hour / packages_per_driver_day
    capital = drone_capital_cost
    if amortize_capex_years is not None:
        capital /= amortize_capex_years
    drone_cost_per_package = (capital + drone_operating_cost) * fleet_total / package_trips
    return (truck_cost_per_package - drone_cost_per_package) * package_trips


def package_lead_time_value(package_trips: float, ats_min: float, vdts: float) -> float:
    """BF-3 lead-time value: days saved across deliveries priced at VDTS."""
    return package_trips * (ats_min / MINUTES_PER_DAY) * vdts


def cargo_months_saved(cargo_trips: float, minutes_saved_per_trip: float) -> float:
    """Delivery time saved by a year's cargo trips, in months."""
    return cargo_trips * minutes_saved_per_trip / MINUTES_PER_MONTH


def warehouse_monthly_cost(
    rent_psf: float,
    nnn_psf: float,
    size_sf: float,
    wage_per_year: float,
    area_per_worker_sf: float,
) -> float:
    """Monthly cost of one warehouse: lease plus staffing."""
    return (rent_psf + nnn_psf) * size_sf + size_sf / area_per_worker_sf * (
        wage_per_year / 12.0
    )


def cargo_cost_savings(months_saved: float, warehouse_cost_monthly: float) -> float:
    """Warehouse cost avoided by the saved delivery months."""
    return months_saved * warehouse_cost_monthly


def inventory_cost_bracket(
    truck_cost_per_mile: float,
    truck_payload_lb: float,
    evtol_cost_per_mile: float,
    evtol_payload_lb: float,
) -> float:
    """Per-pound-mile cost gap between truck and eVTOL (negative when flying
    costs more)."""
    return truck_cost_per_mile / truck_payload_lb - evtol_cost_per_mile / evtol_payload_lb


def cargo_inventory_cost(
    bracket: float,
    evtol_payload_lb: float,
    trip_miles: float,
    cargo_trips: float,
    sign: str = "as_printed",
) -> float:
    """Extra cost incurred by flying the cargo instead of trucking it.

    As printed the bracket is negative, so this quantity is negative and
    *adds* to the cost difference downstream; ``sign='positive_extra_cost'``
    reads it as a positive extra cost instead.
    """
    value = bracket * evtol_payload_lb * trip_miles * cargo_trips
    if sign == "positive_extra_cost":
        return abs(value)
    if sign != "as_printed":
        raise ValueError(f"unknown sign mode {sign!r}")
    return value


def cargo_time_inventory_savings(
    cost_savings: float, inventory_cost: float, realizable_share: float
) -> float:
    """BF-4 headline: realizable share of warehouse savings net of extra cost."""
    return realizable_share * (cost_savings - inventory_cost)


def cargo_lead_time_value(months_saved: float, vdts: float) -> float:
    """Lead-time value of the saved months priced at VDTS per day."""
    return months_saved * 30.0 * vdts
