"""The nine benefit factors, each defined once.

A ``Factor`` record holds the factor's id and label, the scenario inputs
it reads, and one ``evaluate(s, v, year, rec)``: ``s`` is the scenario,
``v`` one channel's series values for ``year``. It computes each
intermediate once and hands it to ``rec(label, value, item=None)``, which
returns the value unchanged. The engine passes a recorder that keeps every
entry: that trace is what ``explain`` prints. A factor whose evaluation
tags entries with an ``item`` name also names a plot table, which lists
those entries. A record may also hold a ``check(s)`` across its inputs,
which validation runs before any evaluation.

The evaluations are pure arithmetic on any number type. The engine runs
each forecast channel in turn: a comonotone envelope with every banded input
at the same limit (a factor need not be monotone in each input alone). Each
input's domain is checked once, outside the arithmetic: by
``ingest.validate_scenario``, each factor's ``check`` and, for forecasts,
the engine, which also names the constants behind a value that overflows.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .errors import ScenarioError

if TYPE_CHECKING:
    from .ingest import Scenario

Recorder = Callable[..., float]
Values = Mapping[str, float]

_CROPS = ("soybean", "corn", "wheat")

_MINUTES_PER_DAY = 24.0 * 60.0
_MINUTES_PER_MONTH = 30.0 * _MINUTES_PER_DAY

def no_record(label: str, value: float, item: str | None = None) -> float:
    """The recorder of a plain evaluation: keeps nothing."""
    return value


class Factor:
    """One benefit factor: id, label, declared inputs and its evaluation."""

    __slots__ = (
        "id", "label", "evaluate", "constants", "exogenous", "historical",
        "toggle_constants", "check", "plot_file",
    )

    def __init__(
        self,
        id: str,
        label: str,
        evaluate: Callable[[Scenario, Values, int, Recorder], float],
        constants: tuple[str, ...] = (),
        exogenous: tuple[str, ...] = (),
        historical: tuple[str, ...] = (),
        toggle_constants: tuple[tuple[str, str], ...] = (),
        check: Callable[[Scenario], list[str]] | None = None,
        plot_file: str | None = None,
    ) -> None:
        self.id = id
        self.label = label
        self.evaluate = evaluate
        self.constants = constants
        self.exogenous = exogenous
        self.historical = historical
        #: (toggle, constant) pairs: the constant is read while the toggle is on.
        self.toggle_constants = toggle_constants
        #: Checks across the factor's inputs, run by validation once its
        #: constants are known present: a failure is a ScenarioError, and the
        #: warnings are returned.
        self.check = check
        #: The plot table of the intermediates ``evaluate`` tags with an item
        #: name; None for a factor that tags none (its value is in results.csv).
        self.plot_file = plot_file

    def required_constants(self, s: Scenario) -> tuple[str, ...]:
        """The constants an evaluation under ``s``'s toggles reads."""
        return self.constants + tuple(
            key for toggle, key in self.toggle_constants if s.toggle(toggle)
        )


def _vtts(s: Scenario, v: Values) -> float:
    """Travel-time value re-scaled by median household income growth."""
    return v["mhi"] / s.constant("MHI_2015") * s.constant("VTTS_2015")


def _vmt_local(v: Values) -> float:
    """Local vehicle miles, scaled from the national figure by population."""
    return v["vmt_us"] / v["us_population"] * v["population"]


def _blended(count: float, core_share: float, rates: tuple[float, float]) -> float:
    """Annual cost of ``count`` inspections split across core and off hours."""
    rate_core, rate_offhours = rates
    core_count = count * core_share
    return core_count * rate_core + (count - core_count) * rate_offhours


def _passenger_time(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    rec("median household income ($/yr)", v["mhi"])
    vtts = rec("value of travel time, income-scaled ($/h)", _vtts(s, v))
    trips = rec("passenger trips", v["passenger_trips"])
    minutes = rec("minutes saved per trip", s.constant("trip_time_saved_min"))
    hours = rec("passenger hours saved", trips * minutes / 60.0)
    return hours * vtts


def _traffic_safety(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    # The local VMT cancels algebraically (the share of it flown times the
    # fatalities avoided over all of it); it is still computed stepwise so
    # that each link can be reported.
    vmt = rec("local road miles, population-scaled (mi)", _vmt_local(v))
    fatalities = rec(
        "fatalities avoided at full substitution",
        vmt / 1e8 * (
            s.constant("ground_fatality_per_100m_miles")
            - s.constant("air_fatality_per_100m_miles")
        ),
    )
    trips = v["passenger_trips"]
    if s.toggle("bf2_use_trip_miles"):
        # vehicle trips at full occupancy, not passenger trips
        trips = trips / s.constant("seats_per_evtol")
    rec("trips moved to the air", trips)
    share = rec(
        "share of road miles replaced",
        trips * s.constant("trip_distance_miles") / vmt,
    )
    reduction = rec("expected fatality reduction", share * fatalities)
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


def _package_market(s: Scenario, year: int) -> tuple[float, float, float, float]:
    """The global drone logistics market in ``year``, the US share, the US
    market value, and its level against the first horizon year."""
    base_year = s.constant("market_base_year")
    base_value = s.constant("market_value_2019")
    growth = 1.0 + s.constant("market_cagr")
    share = s.constant("us_market_2019") / base_value
    value_year = base_value * growth ** (year - base_year)
    us_year = value_year * share
    us_first = base_value * growth ** (s.horizon_start - base_year) * share
    # The printed form scales by the US share a second time;
    # bf3_single_ratio drops that extra factor.
    if s.toggle("bf3_single_ratio"):
        return value_year, share, us_year, us_year / us_first
    return value_year, share, us_year, us_year * share / us_first


def _package_trips(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    """Annual drone package deliveries in the study region: the global
    market projection, cut to the US share, normalized by its level in the
    first horizon year, applied to the region's share of US parcels."""
    value_year, share, us_year, level = _package_market(s, year)
    rec("global drone logistics market ($M)", value_year)
    rec("US market share", share)
    rec("US market value ($M)", us_year)
    rec("market level vs first horizon year", level)
    return rec(
        "drone package deliveries",
        level * (s.constant("annual_parcels") * s.constant("parcel_fraction"))
        * (v["population"] / v["us_population"]),
    )


def _package_delivery(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    trips = _package_trips(s, v, year, rec)
    per_drone = rec(
        "deliveries one drone can fly per year",
        60.0 / s.constant("round_trip_min") * 24.0 * s.constant("operational_days"),
    )
    active = rec("active drone fleet", trips / per_drone)
    # one flying shift, one charging shift, plus the reserve pool
    fleet = rec(
        "fleet incl. rotation and reserve",
        2.0 * active + s.constant("reserve_fraction") * active,
    )
    truck_per_package = (
        s.constant("driver_hours_per_day") * s.constant("truck_cost_per_hour")
        / s.constant("packages_per_driver_day")
    )
    # As printed the full drone capital cost is charged against every
    # year's deliveries; amortize_capex_years spreads it over that many.
    capital = s.constant("drone_capital_cost")
    years = s.toggle("amortize_capex_years")
    if years is not None:
        capital /= years
    drone_per_package = (
        (capital + s.constant("drone_operating_cost")) * fleet / trips
    )
    cost = rec(
        "cost savings vs truck delivery ($)",
        (truck_per_package - drone_per_package) * trips,
    )
    lead = rec(
        "delivery lead-time value ($)",
        trips * (s.constant("ATS_min") / _MINUTES_PER_DAY) * s.constant("VDTS"),
    )
    return cost + lead


def _air_cargo(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    trips = rec("cargo trips", v["cargo_trips"])
    months = rec(
        "delivery months saved",
        trips * s.constant("trip_time_saved_min") / _MINUTES_PER_MONTH,
    )
    size = s.constant("warehouse_size_sf")
    warehouse = rec(
        "monthly warehouse cost ($)",
        (s.constant("warehouse_rent_psf_month") + s.constant("warehouse_nnn_psf_month"))
        * size
        + size / s.constant("warehouse_area_per_worker_sf")
        * (s.constant("warehouse_wage_year") / 12.0),
    )
    cost_savings = rec("warehouse cost avoided ($)", months * warehouse)
    payload = s.constant("evtol_payload_lb")
    bracket = rec(
        "cost gap per lb-mile, truck minus eVTOL ($)",
        s.constant("truck_cost_per_mile") / s.constant("truck_payload_lb")
        - s.constant("evtol_cost_per_mile") / payload,
    )
    inventory = bracket * payload * s.constant("trip_distance_miles") * trips
    # As printed the bracket is negative, so this cost is negative and
    # adds to the savings below; positive_extra_cost reads it as a positive
    # extra cost instead.
    if s.toggle("bf4_ci_sign") == "positive_extra_cost":
        inventory = abs(inventory)
    inventory = rec("inventory carry cost of flying ($)", inventory)
    realizable = rec("realizable share", s.constant("evtol_cost_share"))
    core = rec(
        "net cost and inventory savings ($)",
        realizable * (cost_savings - inventory),
    )
    lead = rec("cargo lead-time value ($)", months * 30.0 * s.constant("VDTS"))
    return core + lead


def _bridge_inspection(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    inspections = s.constant("heavy_inspections_per_year")
    traffic = s.constant("traffic_per_lane_hour")
    slow = rec(
        "vehicles delayed, traditional closures",
        inspections * s.constant("lane_closure_hours_traditional") * traffic,
    )
    fast = rec(
        "vehicles delayed, drone-assisted closures",
        inspections * s.constant("lane_closure_hours_drone") * traffic,
    )
    hours = rec(
        "vehicle delay hours avoided",
        (slow - fast) * s.constant("delay_min_per_vehicle") / 60.0,
    )
    vtts = rec("value of travel time ($/h)", _vtts(s, v))
    delay_value = rec("delay cost avoided ($)", hours * vtts)
    capable = s.constant("drone_capable_inspections")
    core_share = s.constant("core_hours_share")
    snooper = (s.constant("snooper_rate_core"), s.constant("snooper_rate_offhours"))
    drone = (s.constant("drone_rate_core"), s.constant("drone_rate_offhours"))
    all_snooper = rec(
        "cost, all inspections by snooper truck ($)",
        _blended(inspections, core_share, snooper),
    )
    by_drone = rec(
        "cost, drone-capable share by drone ($)",
        _blended(capable, core_share, drone),
    )
    remaining = rec(
        "cost, remainder by snooper truck ($)",
        _blended(inspections - capable, core_share, snooper),
    )
    return delay_value + rec(
        "inspection cost savings ($)", all_snooper - (by_drone + remaining)
    )


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
    # The printed production equation values the whole uplifted harvest,
    # (yield + yield * uplift) * area; bf6_incremental values only the
    # extra bushels, roughly forty times less.
    incremental = bool(s.toggle("bf6_incremental"))
    reading = (
        "increment only" if incremental
        else "whole uplifted harvest, ~40x the increment"
    )
    share = rec(
        "adopting-farm share",
        s.constant("farms_adopting") / s.constant("farms_total"),
    )
    # Without bf6_matching_area the corn cost line runs on the soybean
    # acreage, as published.
    matching_area = s.toggle("bf6_matching_area")
    production = 0.0
    cost = 0.0
    for crop in _CROPS:
        area = v[f"{crop}_area"]
        per_acre = v[f"{crop}_yield"]
        uplift = s.constant(f"{crop}_yield_uplift")
        if incremental:
            bushels = per_acre * uplift * area
        else:
            bushels = (per_acre + per_acre * uplift) * area
        production += rec(
            f"{crop} production value ($, {reading})",
            bushels * v[f"{crop}_price"] * share,
        )
        if crop == "corn" and not matching_area:
            area = v["soybean_area"]
        cost += area * s.constant(f"cost_savings_per_acre_{crop}") * share
    rec(f"crop production value ($, {reading})", production, item="crop_production")
    rec("crop input-cost savings ($)", cost, item="crop_cost_savings")
    # labor saved per animal in the published monitoring case study
    per_head = (
        (s.constant("livestock_hours_saved_hill")
         + s.constant("livestock_hours_saved_grassland"))
        * s.constant("farm_labor_rate") / s.constant("herd_size_case_study")
    )
    livestock = rec(
        "livestock labor savings ($)",
        per_head * rec("livestock count", v["livestock"]) * share,
        item="livestock_savings",
    )
    return production + cost + livestock


def _medical_response(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    stations = s.constant("DSN")
    ohca = rec(
        "cardiac arrests expected",
        s.constant("ohca_per_100k") / 1e5 * v["population"],
    )
    # Each network case adds survivors over case 0, the no-drone baseline,
    # whose value is therefore zero by construction; each added survivor
    # is worth the statistical life net of the network's cost per survivor.
    rates = s.constant("survival_rates")
    baseline = ohca * rates[0]
    values = [
        (v["vsl"] - cost) * (ohca * rate - baseline)
        for rate, cost in zip(rates, s.constant("CAS"))
    ]
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


def _social_costs(s: Scenario, year: int) -> tuple[float, float]:
    """The social costs per ton of CO2 and of methane and nitrous oxide
    (blended) in ``year``, compounded from their base year."""
    years = year - s.constant("scghg_base_year")
    growth = (1.0 + s.constant("scghg_discount")) ** years
    blended = (s.constant("scm_2020") * growth + s.constant("scn_2020") * growth) / 2.0
    return s.constant("scc_2020") * growth, blended


def _ghg_reduction(s: Scenario, v: Values, year: int, rec: Recorder) -> float:
    # Social costs per ton are published for a base year and compounded
    # forward; the share of the ground fleet's emissions avoided is the
    # fraction of ground trips the air services replace, scaled by how much
    # cleaner the electric aircraft are.
    vmt = rec("local road miles (mi)", _vmt_local(v))
    gallons = rec(
        "gallons burned by the ground fleet", vmt / s.constant("mpg_fleet")
    )
    per_gallon = s.constant("co2_tons_per_gallon")
    co2 = rec("CO2 emitted (tons)", per_gallon * gallons)
    other = rec(
        "methane and nitrous oxide emitted (tons)",
        per_gallon * (1.0 / s.constant("co2_share_of_ghg") - 1.0) * gallons,
    )
    scc, sc_other = _social_costs(s, year)
    rec("social cost of CO2 ($/ton)", scc)
    rec("blended methane/nitrous social cost ($/ton)", sc_other)
    evtol = rec(
        "eVTOL vehicle trips", v["passenger_trips"] / s.constant("seats_per_evtol")
    )
    packages = rec(
        "drone package deliveries", _package_trips(s, v, year, no_record)
    )
    cargo = rec("cargo trips", v["cargo_trips"])
    ground = rec(
        "local ground vehicle trips",
        v["population"] / v["us_population"] * s.constant("us_annual_trips"),
    )
    share = rec("share of ground trips replaced", (evtol + packages + cargo) / ground)
    ratio = rec("emission advantage factor", s.constant("evtol_emission_ratio"))
    return share * ratio * (scc * co2 + sc_other * other)


#: The package-delivery constants, which BF9's replaced-trip count reads too.
_PACKAGE_MARKET = (
    "market_value_2019", "market_base_year", "market_cagr", "us_market_2019",
    "annual_parcels", "parcel_fraction",
)

FACTORS: dict[str, Factor] = {f.id: f for f in (
    Factor(
        "BF1", "passenger trip time savings", _passenger_time,
        constants=("VTTS_2015", "MHI_2015", "trip_time_saved_min"),
        exogenous=("passenger_trips",),
        historical=("mhi",),
    ),
    Factor(
        "BF2", "traffic safety improvement", _traffic_safety,
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
        "BF3", "package delivery savings", _package_delivery,
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
        "BF4", "air cargo savings", _air_cargo,
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
        "BF5", "bridge inspection savings", _bridge_inspection,
        constants=(
            "VTTS_2015", "MHI_2015", "heavy_inspections_per_year",
            "drone_capable_inspections", "core_hours_share",
            "lane_closure_hours_traditional", "lane_closure_hours_drone",
            "traffic_per_lane_hour", "delay_min_per_vehicle",
            "snooper_rate_core", "snooper_rate_offhours",
            "drone_rate_core", "drone_rate_offhours",
        ),
        historical=("mhi",),
        check=_inspection_counts,
    ),
    Factor(
        "BF6", "farming productivity", _farming,
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
        plot_file="plot_farming_components.csv",
    ),
    Factor(
        "BF7", "emergency medical response", _medical_response,
        constants=("ohca_per_100k", "DSN", "survival_rates", "CAS"),
        historical=("population", "vsl"),
        check=_medical_ladder,
        plot_file="plot_medical_cases.csv",
    ),
    Factor(
        "BF8", "tax revenue", _tax_revenue,
        exogenous=("tax_income",),
    ),
    Factor(
        "BF9", "greenhouse gas reduction", _ghg_reduction,
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
