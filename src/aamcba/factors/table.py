"""The nine benefit factors, each defined once.

A ``Factor`` record holds the factor's id, label and output file names,
the scenario inputs it reads, and one ``evaluate(s, v, year, rec)``: ``s``
is the scenario, ``v`` one channel's series values for ``year``. It
computes each intermediate once and hands it to ``rec(label, value,
item=None)``, which returns the value unchanged. The engine passes a
recorder that does nothing, or, for a factor whose plot table lists items,
one that keeps the entries tagged with an ``item`` name; ``explain``
passes one that keeps the whole trace. A record may also hold a
``check(s)`` across its inputs, which validation runs before any
evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from ..errors import ScenarioError
from . import agriculture, environment, inspection, logistics, medical, mobility

if TYPE_CHECKING:
    from ..ingest import Scenario

Recorder = Callable[..., float]
Values = Mapping[str, float]

_CROPS = ("soybean", "corn", "wheat")


def no_record(label: str, value: float, item: str | None = None) -> float:
    """The recorder of a plain evaluation: keeps nothing."""
    return value


@dataclass(frozen=True)
class Factor:
    """One benefit factor: names, declared inputs and its evaluation."""

    id: str
    label: str
    #: Stem of the factor's own ``<stem>.csv`` output.
    file_stem: str
    #: Plot table the factor goes in: its value, or with ``plot_items``
    #: the intermediates its ``evaluate`` tags with an item name.
    plot_file: str
    evaluate: Callable[[Scenario, Values, int, Recorder], float]
    constants: tuple[str, ...] = ()
    exogenous: tuple[str, ...] = ()
    historical: tuple[str, ...] = ()
    #: (toggle, constant) pairs: the constant is read while the toggle is on.
    toggle_constants: tuple[tuple[str, str], ...] = ()
    plot_items: bool = False
    #: Checks across the factor's inputs, run by validation once its
    #: constants are known present: a failure is a ScenarioError, and the
    #: warnings are returned.
    check: Callable[[Scenario], list[str]] | None = None

    def required_constants(self, s: Scenario) -> tuple[str, ...]:
        """The constants an evaluation under ``s``'s toggles reads."""
        return self.constants + tuple(
            key for toggle, key in self.toggle_constants if s.toggle(toggle)
        )


def _passenger_time(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    rec("median household income ($/yr)", v["mhi"])
    vtts = rec(
        "value of travel time, income-scaled ($/h)",
        mobility.vtts_scaled(v["mhi"], s.constant("MHI_2015"), s.constant("VTTS_2015")),
    )
    trips = rec("passenger trips", v["passenger_trips"])
    minutes = rec("minutes saved per trip", s.constant("trip_time_saved_min"))
    hours = rec("passenger hours saved", mobility.hours_saved(trips, minutes))
    return hours * vtts


def _traffic_safety(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    vmt = rec(
        "local road miles, population-scaled (mi)",
        mobility.vmt_local(v["vmt_us"], v["us_population"], v["population"]),
    )
    fatalities = rec(
        "fatalities avoided at full substitution",
        mobility.avoided_fatalities(
            vmt,
            s.constant("ground_fatality_per_100m_miles"),
            s.constant("air_fatality_per_100m_miles"),
        ),
    )
    trips = v["passenger_trips"]
    if s.toggle("bf2_use_trip_miles"):
        trips = mobility.evtol_trips(trips, s.constant("seats_per_evtol"))
    rec("trips moved to the air", trips)
    share = rec(
        "share of road miles replaced",
        mobility.air_miles_share(trips, s.constant("trip_distance_miles"), vmt),
    )
    reduction = rec(
        "expected fatality reduction", mobility.fatality_reduction(share, fatalities)
    )
    return reduction * rec("value of a statistical life ($)", v["vsl"])


def _fatality_rates(s: Scenario) -> list[str]:
    ground = s.constant("ground_fatality_per_100m_miles")
    air = s.constant("air_fatality_per_100m_miles")
    if air < ground:
        return []
    return [
        f"air fatality rate ({air}) is not below ground rate ({ground}); "
        "safety benefit will be non-positive"
    ]


def _package_trips(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    base_year = int(s.constants.get("market_base_year", 2019))
    base_value = s.constant("market_value_2019")
    cagr = s.constant("market_cagr")
    share = logistics.us_market_share(s.constant("us_market_2019"), base_value)
    value_year = rec(
        "global drone logistics market ($M)",
        logistics.market_value(year, base_value, base_year, cagr),
    )
    rec("US market share", share)
    us_year = rec("US market value ($M)", logistics.us_market_value(value_year, share))
    value_first = logistics.market_value(s.horizon_start, base_value, base_year, cagr)
    us_first = logistics.us_market_value(value_first, share)
    norm = rec(
        "market level vs first horizon year",
        logistics.normalized_market(
            us_year, share, us_first, single_ratio=bool(s.toggle("bf3_single_ratio"))
        ),
    )
    return rec(
        "drone package deliveries",
        logistics.smco_package_trips(
            norm,
            s.constant("annual_parcels"),
            s.constant("parcel_fraction"),
            v["population"],
            v["us_population"],
        ),
    )


def _package_delivery(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    trips = _package_trips(s, v, year, rec)
    per_drone = rec(
        "deliveries one drone can fly per year",
        logistics.max_trips_per_drone(
            s.constant("round_trip_min"), s.constant("operational_days")
        ),
    )
    fleet = logistics.fleet_size(trips, per_drone, s.constant("reserve_fraction"))
    rec("active drone fleet", fleet.active)
    rec("fleet incl. rotation and reserve", fleet.total)
    cost = rec(
        "cost savings vs truck delivery ($)",
        logistics.logistics_cost_savings(
            trips,
            fleet.total,
            s.constant("driver_hours_per_day"),
            s.constant("truck_cost_per_hour"),
            s.constant("packages_per_driver_day"),
            s.constant("drone_capital_cost"),
            s.constant("drone_operating_cost"),
            amortize_capex_years=s.toggle("amortize_capex_years"),
        ),
    )
    lead = rec(
        "delivery lead-time value ($)",
        logistics.package_lead_time_value(
            trips, s.constant("ATS_min"), s.constant("VDTS")
        ),
    )
    return cost + lead


def _air_cargo(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    trips = rec("cargo trips", v["cargo_trips"])
    months = rec(
        "delivery months saved",
        logistics.cargo_months_saved(trips, s.constant("trip_time_saved_min")),
    )
    warehouse = rec(
        "monthly warehouse cost ($)",
        logistics.warehouse_monthly_cost(
            s.constant("warehouse_rent_psf_month"),
            s.constant("warehouse_nnn_psf_month"),
            s.constant("warehouse_size_sf"),
            s.constant("warehouse_wage_year"),
            s.constant("warehouse_area_per_worker_sf"),
        ),
    )
    cost_savings = rec(
        "warehouse cost avoided ($)", logistics.cargo_cost_savings(months, warehouse)
    )
    bracket = rec(
        "cost gap per lb-mile, truck minus eVTOL ($)",
        logistics.inventory_cost_bracket(
            s.constant("truck_cost_per_mile"),
            s.constant("truck_payload_lb"),
            s.constant("evtol_cost_per_mile"),
            s.constant("evtol_payload_lb"),
        ),
    )
    inventory = rec(
        "inventory carry cost of flying ($)",
        logistics.cargo_inventory_cost(
            bracket,
            s.constant("evtol_payload_lb"),
            s.constant("trip_distance_miles"),
            trips,
            sign=s.toggle("bf4_ci_sign"),
        ),
    )
    realizable = rec("realizable share", s.constant("evtol_cost_share"))
    core = rec(
        "net cost and inventory savings ($)",
        logistics.cargo_time_inventory_savings(cost_savings, inventory, realizable),
    )
    lead = rec(
        "cargo lead-time value ($)",
        logistics.cargo_lead_time_value(months, s.constant("VDTS")),
    )
    return core + lead


def _bridge_inspection(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    inspections = s.constant("heavy_inspections_per_year")
    traffic = s.constant("traffic_per_lane_hour")
    slow = rec(
        "vehicles delayed, traditional closures",
        inspection.vehicles_delayed(
            inspections, s.constant("lane_closure_hours_traditional"), traffic
        ),
    )
    fast = rec(
        "vehicles delayed, drone-assisted closures",
        inspection.vehicles_delayed(
            inspections, s.constant("lane_closure_hours_drone"), traffic
        ),
    )
    hours = rec(
        "vehicle delay hours avoided",
        inspection.delay_hours_saved(slow, fast, s.constant("delay_min_per_vehicle")),
    )
    vtts = rec(
        "value of travel time ($/h)",
        mobility.vtts_scaled(v["mhi"], s.constant("MHI_2015"), s.constant("VTTS_2015")),
    )
    delay_value = rec(
        "delay cost avoided ($)", inspection.delay_time_value(hours, vtts)
    )
    lines = inspection.inspection_cost_savings(
        inspections,
        s.constant("drone_capable_inspections"),
        s.constant("core_hours_share"),
    )
    rec("cost, all inspections by snooper truck ($)", lines.all_snooper)
    rec("cost, drone-capable share by drone ($)", lines.drone_share)
    rec("cost, remainder by snooper truck ($)", lines.snooper_share)
    return delay_value + rec("inspection cost savings ($)", lines.savings)


def _inspection_counts(s: Scenario) -> list[str]:
    capable = s.constant("drone_capable_inspections")
    total = s.constant("heavy_inspections_per_year")
    if capable > total:
        raise ScenarioError(
            f"constant 'drone_capable_inspections' ({capable}) exceeds "
            f"'heavy_inspections_per_year' ({total})"
        )
    return []


def _farming(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    incremental = bool(s.toggle("bf6_incremental"))
    reading = (
        "increment only" if incremental
        else "whole uplifted harvest, ~40x the increment"
    )
    share = rec(
        "adopting-farm share",
        agriculture.adoption_share(
            s.constant("farms_adopting"), s.constant("farms_total")
        ),
    )
    # Without bf6_matching_area the corn cost line runs on the soybean
    # acreage, as published.
    matching_area = s.toggle("bf6_matching_area")
    production = 0.0
    cost = 0.0
    for crop in _CROPS:
        area = v[f"{crop}_area"]
        production += rec(
            f"{crop} production value ($, {reading})",
            agriculture.crop_production_value(
                v[f"{crop}_yield"], s.constant(f"{crop}_yield_uplift"), area,
                v[f"{crop}_price"], share, incremental_only=incremental,
            ),
        )
        if crop == "corn" and not matching_area:
            area = v["soybean_area"]
        cost += agriculture.crop_cost_savings(
            area, s.constant(f"cost_savings_per_acre_{crop}"), share
        )
    rec(f"crop production value ($, {reading})", production, item="crop_production")
    rec("crop input-cost savings ($)", cost, item="crop_cost_savings")
    per_head = agriculture.livestock_savings_per_head(
        s.constant("livestock_hours_saved_hill"),
        s.constant("livestock_hours_saved_grassland"),
        s.constant("farm_labor_rate"),
        s.constant("herd_size_case_study"),
    )
    livestock = rec(
        "livestock labor savings ($)",
        agriculture.livestock_savings(
            per_head, rec("livestock count", v["livestock"]), share
        ),
        item="livestock_savings",
    )
    return production + cost + livestock


def _medical_response(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    stations = s.constant("DSN")
    ohca = rec(
        "cardiac arrests expected",
        medical.ohca_count(v["population"], s.constant("ohca_per_100k")),
    )
    values = medical.life_saving_value_all_cases(
        ohca, v["vsl"], s.constant("survival_rates"), s.constant("CAS")
    )
    for count, value in zip(stations[1:], values[1:]):
        count = int(count)
        rec(f"net value, {count} stations ($)", value, item=f"stations_{count}")
    case = s.toggle("bf7_case")
    rec("selected network size (stations)", stations[case])
    return values[case]


def _medical_ladder(s: Scenario) -> list[str]:
    dsn = s.constant("DSN")
    surv = s.constant("survival_rates")
    cas = s.constant("CAS")
    if not (len(dsn) == len(surv) == len(cas)):
        raise ScenarioError(
            f"DSN/survival_rates/CAS lengths differ: "
            f"{len(dsn)}/{len(surv)}/{len(cas)}"
        )
    if len(dsn) < 2:
        raise ScenarioError("DSN/survival_rates/CAS need at least 2 entries")
    if dsn[0] != 0:
        raise ScenarioError(f"DSN must start at 0 (no-drone case), got {dsn[0]}")
    case = s.toggle("bf7_case")
    # type(), not isinstance(): true and false are ints to isinstance
    if type(case) is not int or not 1 <= case <= len(dsn) - 1:
        raise ScenarioError(
            f"bf7_case must be an integer in 1..{len(dsn) - 1}, got {case!r}"
        )
    warnings = []
    if any(b < a for a, b in zip(surv, surv[1:])):
        warnings.append("survival_rates are not non-decreasing across DSN cases")
    if any(b < a for a, b in zip(dsn, dsn[1:])):
        warnings.append("DSN station counts are not non-decreasing")
    return warnings


def _tax_revenue(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    return rec("tax income passed through ($)", v["tax_income"])


def _ghg_reduction(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    base_year = s.constant("scghg_base_year")
    rate = s.constant("scghg_discount")
    vmt = rec(
        "local road miles (mi)",
        mobility.vmt_local(v["vmt_us"], v["us_population"], v["population"]),
    )
    gallons = rec(
        "gallons burned by the ground fleet",
        environment.fleet_gallons(vmt, s.constant("mpg_fleet")),
    )
    co2, other = environment.ground_emissions(
        gallons, s.constant("co2_tons_per_gallon"), s.constant("co2_share_of_ghg")
    )
    rec("CO2 emitted (tons)", co2)
    rec("methane and nitrous oxide emitted (tons)", other)
    scc = rec(
        "social cost of CO2 ($/ton)",
        environment.social_cost_forward(s.constant("scc_2020"), year, base_year, rate),
    )
    sc_other = rec(
        "blended methane/nitrous social cost ($/ton)",
        environment.blended_non_co2_cost(
            s.constant("scm_2020"), s.constant("scn_2020"), year, base_year, rate
        ),
    )
    share = rec(
        "share of ground trips replaced",
        environment.demand_factor(
            rec(
                "eVTOL vehicle trips",
                mobility.evtol_trips(
                    v["passenger_trips"], s.constant("seats_per_evtol")
                ),
            ),
            rec("drone package deliveries", _package_trips(s, v, year, no_record)),
            rec("cargo trips", v["cargo_trips"]),
            rec(
                "local ground vehicle trips",
                environment.local_ground_trips(
                    s.constant("us_annual_trips"), v["us_population"], v["population"]
                ),
            ),
        ),
    )
    ratio = rec("emission advantage factor", s.constant("evtol_emission_ratio"))
    return share * ratio * (scc * co2 + sc_other * other)


#: The replaced-trip count of BF9 folds in package deliveries, so it reads
#: the package-market constants as well.
_PACKAGE_MARKET = (
    "market_value_2019", "market_cagr", "us_market_2019", "annual_parcels",
    "parcel_fraction",
)

FACTORS: dict[str, Factor] = {f.id: f for f in (
    Factor(
        "BF1", "passenger trip time savings", "passenger_time_savings",
        "plot_time_safety_inspection.csv", _passenger_time,
        constants=("VTTS_2015", "MHI_2015", "trip_time_saved_min"),
        exogenous=("passenger_trips",),
        historical=("mhi",),
    ),
    Factor(
        "BF2", "traffic safety improvement", "traffic_safety",
        "plot_time_safety_inspection.csv", _traffic_safety,
        constants=(
            "trip_distance_miles",
            "ground_fatality_per_100m_miles",
            "air_fatality_per_100m_miles",
        ),
        exogenous=("passenger_trips", "us_population"),
        historical=("vmt_us", "population", "vsl"),
        toggle_constants=(("bf2_use_trip_miles", "seats_per_evtol"),),
        check=_fatality_rates,
    ),
    Factor(
        "BF3", "package delivery savings", "package_delivery",
        "plot_delivery_savings.csv", _package_delivery,
        constants=(
            *_PACKAGE_MARKET,
            "operational_days", "round_trip_min", "reserve_fraction",
            "driver_hours_per_day", "packages_per_driver_day",
            "truck_cost_per_hour", "drone_capital_cost", "drone_operating_cost",
            "ATS_min", "VDTS",
        ),
        exogenous=("us_population",),
        historical=("population",),
    ),
    Factor(
        "BF4", "air cargo savings", "air_cargo",
        "plot_delivery_savings.csv", _air_cargo,
        constants=(
            "trip_time_saved_min", "trip_distance_miles",
            "warehouse_rent_psf_month", "warehouse_nnn_psf_month",
            "warehouse_size_sf", "warehouse_wage_year",
            "warehouse_area_per_worker_sf", "truck_cost_per_mile",
            "truck_payload_lb", "evtol_cost_per_mile", "evtol_payload_lb",
            "evtol_cost_share", "VDTS",
        ),
        exogenous=("cargo_trips",),
    ),
    Factor(
        "BF5", "bridge inspection savings", "bridge_inspection",
        "plot_time_safety_inspection.csv", _bridge_inspection,
        constants=(
            "VTTS_2015", "MHI_2015", "heavy_inspections_per_year",
            "drone_capable_inspections", "core_hours_share",
            "lane_closure_hours_traditional", "lane_closure_hours_drone",
            "traffic_per_lane_hour", "delay_min_per_vehicle",
        ),
        historical=("mhi",),
        check=_inspection_counts,
    ),
    Factor(
        "BF6", "farming productivity", "farming",
        "plot_farming_components.csv", _farming,
        constants=(
            "farms_total", "farms_adopting",
            *(f"{crop}_yield_uplift" for crop in _CROPS),
            *(f"cost_savings_per_acre_{crop}" for crop in _CROPS),
            "livestock_hours_saved_hill", "livestock_hours_saved_grassland",
            "farm_labor_rate", "herd_size_case_study",
        ),
        historical=(
            *(f"{crop}_area" for crop in _CROPS),
            *(f"{crop}_yield" for crop in _CROPS),
            *(f"{crop}_price" for crop in _CROPS),
            "livestock",
        ),
        plot_items=True,
    ),
    Factor(
        "BF7", "emergency medical response", "medical_response",
        "plot_medical_cases.csv", _medical_response,
        constants=("ohca_per_100k", "DSN", "survival_rates", "CAS"),
        historical=("population", "vsl"),
        plot_items=True,
        check=_medical_ladder,
    ),
    Factor(
        "BF8", "tax revenue", "tax_revenue", "plot_tax_ghg.csv", _tax_revenue,
        exogenous=("tax_income",),
    ),
    Factor(
        "BF9", "greenhouse gas reduction", "ghg_reduction",
        "plot_tax_ghg.csv", _ghg_reduction,
        constants=(
            "scc_2020", "scm_2020", "scn_2020", "scghg_discount",
            "scghg_base_year", "mpg_fleet", "co2_share_of_ghg",
            "co2_tons_per_gallon", "evtol_emission_ratio", "us_annual_trips",
            "seats_per_evtol", *_PACKAGE_MARKET,
        ),
        exogenous=("passenger_trips", "cargo_trips", "us_population"),
        historical=("vmt_us", "population"),
    ),
)}

FACTOR_IDS = tuple(FACTORS)
FACTOR_LABELS = {f.id: f.label for f in FACTORS.values()}
FACTOR_FILE_NAMES = {f.id: f.file_stem for f in FACTORS.values()}
