"""End-to-end scenario evaluation.

The flow: validate the scenario, forecast every historical series the
enabled factors need, then evaluate each factor year by year on the three
forecast channels (lower, mean, upper). Factor arithmetic is monotone in
the banded inputs, so running the channels through the same formulas keeps
a valid 95% band; the band constructor re-orders the endpoints in the rare
case a formula inverts them. Evaluators are pure functions of the scenario
and one year's values, so they are safe to parallelize if that ever
matters; at this size it does not.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .factors import agriculture, environment, inspection, logistics, medical, mobility
from .forecast import ArimaOrder, ForecastError, PipelineResult, auto_pipeline
from .ingest import (
    FACTOR_IDS,
    Scenario,
    ScenarioError,
    load_scenario,
    required_inputs,
    validate_scenario,
)
from .ledger import (
    FACTOR_LABELS,
    AnnualResult,
    BandValue,
    summary_dict,
    write_band_csv,
    write_factor_csv,
    write_npi_csv,
    write_results_csv,
)

_CHANNELS = ("lower", "mean", "upper")

ALL_EMIT = frozenset(("csv", "json", "plotdata"))

#: Output file stem per factor, named by what the factor measures.
FACTOR_FILE_NAMES = {
    "BF1": "passenger_time_savings",
    "BF2": "traffic_safety",
    "BF3": "package_delivery",
    "BF4": "air_cargo",
    "BF5": "bridge_inspection",
    "BF6": "farming",
    "BF7": "medical_response",
    "BF8": "tax_revenue",
    "BF9": "ghg_reduction",
}


@dataclass(frozen=True)
class RunManifest:
    """Everything one CLI run needs; two identical manifests give
    byte-identical outputs."""

    scenario_path: Path
    output_dir: Path
    enabled_factors: tuple[str, ...] = FACTOR_IDS
    seed: int = 0
    emit: frozenset[str] = ALL_EMIT
    pin_orders: bool = False
    best_effort: bool = False
    toggles: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.enabled_factors:
            raise ScenarioError("no benefit factors enabled")
        unknown = set(self.emit) - ALL_EMIT
        if unknown:
            raise ScenarioError(f"unknown emit kinds: {sorted(unknown)}")


@dataclass
class EvaluationResult:
    """Forecasts, yearly ledger rows, and accumulated warnings for one run."""

    scenario: Scenario
    factors: tuple[str, ...]
    annual: list[AnnualResult]
    forecasts: dict[str, PipelineResult]
    warnings: list[str]
    #: The inputs every factor saw: year -> channel -> series name -> value.
    channel_values: dict[int, dict[str, dict[str, float]]]


def _note(trace: list | None, label: str, value: float) -> None:
    if trace is not None:
        trace.append((label, float(value)))


def _eval_bf1(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    vtts = mobility.vtts_scaled(
        v["mhi"], s.constant("MHI_2015"), s.constant("VTTS_2015")
    )
    minutes = s.constant("trip_time_saved_min")
    hours = mobility.hours_saved(v["passenger_trips"], minutes)
    _note(trace, "median household income ($/yr)", v["mhi"])
    _note(trace, "value of travel time, income-scaled ($/h)", vtts)
    _note(trace, "passenger trips", v["passenger_trips"])
    _note(trace, "minutes saved per trip", minutes)
    _note(trace, "passenger hours saved", hours)
    return mobility.passenger_time_value(v["passenger_trips"], minutes, vtts)


def _eval_bf2(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    use_vehicle_trips = bool(s.toggle("bf2_use_trip_miles"))
    seats = s.constant("seats_per_evtol") if use_vehicle_trips else 1.0
    if trace is not None:
        miles = s.constant("trip_distance_miles")
        ground = s.constant("ground_fatality_per_100m_miles")
        air = s.constant("air_fatality_per_100m_miles")
        vmt = mobility.vmt_local(v["vmt_us"], v["us_population"], v["population"])
        fatalities = mobility.avoided_fatalities(vmt, ground, air)
        trips = v["passenger_trips"]
        if use_vehicle_trips:
            trips = mobility.evtol_trips(trips, seats)
        share = mobility.air_miles_share(trips, miles, vmt)
        _note(trace, "local road miles, population-scaled (mi)", vmt)
        _note(trace, "fatalities avoided at full substitution", fatalities)
        _note(trace, "trips moved to the air", trips)
        _note(trace, "share of road miles replaced", share)
        _note(trace, "expected fatality reduction", share * fatalities)
        _note(trace, "value of a statistical life ($)", v["vsl"])
    return mobility.safety_cost_reduction(
        v["passenger_trips"],
        s.constant("trip_distance_miles"),
        v["vmt_us"],
        v["us_population"],
        v["population"],
        s.constant("ground_fatality_per_100m_miles"),
        s.constant("air_fatality_per_100m_miles"),
        v["vsl"],
        seats_per_vehicle=seats,
        use_trip_counts=use_vehicle_trips,
    )


def _package_trips(
    s: Scenario, v: Mapping[str, float], year: int, trace=None
) -> float:
    base_year = int(s.constants.get("market_base_year", 2019))
    base_value = s.constant("market_value_2019")
    cagr = s.constant("market_cagr")
    share = logistics.us_market_share(s.constant("us_market_2019"), base_value)
    value_year = logistics.market_value(year, base_value, base_year, cagr)
    us_year = logistics.us_market_value(value_year, share)
    value_first = logistics.market_value(s.horizon_start, base_value, base_year, cagr)
    us_first = logistics.us_market_value(value_first, share)
    norm = logistics.normalized_market(
        us_year, share, us_first, single_ratio=bool(s.toggle("bf3_single_ratio"))
    )
    trips = logistics.smco_package_trips(
        norm,
        s.constant("annual_parcels"),
        s.constant("parcel_fraction"),
        v["population"],
        v["us_population"],
    )
    _note(trace, "global drone logistics market ($M)", value_year)
    _note(trace, "US market share", share)
    _note(trace, "US market value ($M)", us_year)
    _note(trace, "market level vs first horizon year", norm)
    _note(trace, "drone package deliveries", trips)
    return trips


def _eval_bf3(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    trips = _package_trips(s, v, year, trace)
    per_drone = logistics.max_trips_per_drone(
        s.constant("round_trip_min"), s.constant("operational_days")
    )
    fleet = logistics.fleet_size(trips, per_drone, s.constant("reserve_fraction"))
    cost = logistics.logistics_cost_savings(
        trips,
        fleet.total,
        s.constant("driver_hours_per_day"),
        s.constant("truck_cost_per_hour"),
        s.constant("packages_per_driver_day"),
        s.constant("drone_capital_cost"),
        s.constant("drone_operating_cost"),
        amortize_capex_years=s.toggle("amortize_capex_years"),
    )
    lead = logistics.package_lead_time_value(
        trips, s.constant("ATS_min"), s.constant("VDTS")
    )
    _note(trace, "deliveries one drone can fly per year", per_drone)
    _note(trace, "active drone fleet", fleet.active)
    _note(trace, "fleet incl. rotation and reserve", fleet.total)
    _note(trace, "cost savings vs truck delivery ($)", cost)
    _note(trace, "delivery lead-time value ($)", lead)
    return cost + lead


def _eval_bf4(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    months = logistics.cargo_months_saved(
        v["cargo_trips"], s.constant("trip_time_saved_min")
    )
    warehouse = logistics.warehouse_monthly_cost(
        s.constant("warehouse_rent_psf_month"),
        s.constant("warehouse_nnn_psf_month"),
        s.constant("warehouse_size_sf"),
        s.constant("warehouse_wage_year"),
        s.constant("warehouse_area_per_worker_sf"),
    )
    cost_savings = logistics.cargo_cost_savings(months, warehouse)
    bracket = logistics.inventory_cost_bracket(
        s.constant("truck_cost_per_mile"),
        s.constant("truck_payload_lb"),
        s.constant("evtol_cost_per_mile"),
        s.constant("evtol_payload_lb"),
    )
    inventory = logistics.cargo_inventory_cost(
        bracket,
        s.constant("evtol_payload_lb"),
        s.constant("trip_distance_miles"),
        v["cargo_trips"],
        sign=s.toggle("bf4_ci_sign"),
    )
    realizable = s.constant("evtol_cost_share")
    core = logistics.cargo_time_inventory_savings(cost_savings, inventory, realizable)
    lead = logistics.cargo_lead_time_value(months, s.constant("VDTS"))
    _note(trace, "cargo trips", v["cargo_trips"])
    _note(trace, "delivery months saved", months)
    _note(trace, "monthly warehouse cost ($)", warehouse)
    _note(trace, "warehouse cost avoided ($)", cost_savings)
    _note(trace, "cost gap per lb-mile, truck minus eVTOL ($)", bracket)
    _note(trace, "inventory carry cost of flying ($)", inventory)
    _note(trace, "realizable share", realizable)
    _note(trace, "net cost and inventory savings ($)", core)
    _note(trace, "cargo lead-time value ($)", lead)
    return core + lead


def _eval_bf5(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    vtts = mobility.vtts_scaled(
        v["mhi"], s.constant("MHI_2015"), s.constant("VTTS_2015")
    )
    inspections = s.constant("heavy_inspections_per_year")
    closure_slow = s.constant("lane_closure_hours_traditional")
    closure_fast = s.constant("lane_closure_hours_drone")
    traffic = s.constant("traffic_per_lane_hour")
    delay_min = s.constant("delay_min_per_vehicle")
    delay_value = inspection.delay_time_value(
        inspections, closure_slow, closure_fast, traffic, delay_min, vtts
    )
    lines = inspection.inspection_cost_savings(
        inspections,
        s.constant("drone_capable_inspections"),
        s.constant("core_hours_share"),
    )
    if trace is not None:
        slow = inspection.vehicles_delayed(inspections, closure_slow, traffic)
        fast = inspection.vehicles_delayed(inspections, closure_fast, traffic)
        hours = inspection.delay_hours_saved(
            inspections, closure_slow, closure_fast, traffic, delay_min
        )
        _note(trace, "vehicles delayed, traditional closures", slow)
        _note(trace, "vehicles delayed, drone-assisted closures", fast)
        _note(trace, "vehicle delay hours avoided", hours)
        _note(trace, "value of travel time ($/h)", vtts)
        _note(trace, "delay cost avoided ($)", delay_value)
        _note(trace, "cost, all inspections by snooper truck ($)", lines.all_snooper)
        _note(trace, "cost, drone-capable share by drone ($)", lines.drone_share)
        _note(trace, "cost, remainder by snooper truck ($)", lines.snooper_share)
        _note(trace, "inspection cost savings ($)", lines.savings)
    return delay_value + lines.savings


def _bf6_crops(s: Scenario, v: Mapping[str, float]) -> tuple:
    corn_cost_area = (
        v["corn_area"] if s.toggle("bf6_matching_area") else v["soybean_area"]
    )
    return (
        agriculture.CropInputs(
            "soybean", v["soybean_area"], v["soybean_yield"], v["soybean_price"],
            s.constant("soybean_yield_uplift"),
            s.constant("cost_savings_per_acre_soybean"),
        ),
        agriculture.CropInputs(
            "corn", v["corn_area"], v["corn_yield"], v["corn_price"],
            s.constant("corn_yield_uplift"),
            s.constant("cost_savings_per_acre_corn"),
            cost_area_acres=corn_cost_area,
        ),
        agriculture.CropInputs(
            "wheat", v["wheat_area"], v["wheat_yield"], v["wheat_price"],
            s.constant("wheat_yield_uplift"),
            s.constant("cost_savings_per_acre_wheat"),
        ),
    )


def _bf6_components(
    s: Scenario, v: Mapping[str, float]
) -> tuple[float, float, float]:
    share = agriculture.adoption_share(
        s.constant("farms_adopting"), s.constant("farms_total")
    )
    return agriculture.agriculture_value(
        _bf6_crops(s, v),
        v["livestock"],
        s.constant("livestock_hours_saved_hill"),
        s.constant("livestock_hours_saved_grassland"),
        s.constant("farm_labor_rate"),
        s.constant("herd_size_case_study"),
        share,
        incremental_only=bool(s.toggle("bf6_incremental")),
    )


def _eval_bf6(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    production, cost, livestock = _bf6_components(s, v)
    if trace is not None:
        share = agriculture.adoption_share(
            s.constant("farms_adopting"), s.constant("farms_total")
        )
        reading = (
            "increment only" if s.toggle("bf6_incremental")
            else "whole uplifted harvest, ~40x the increment"
        )
        _note(trace, "adopting-farm share", share)
        for crop in _bf6_crops(s, v):
            _note(
                trace,
                f"{crop.name} production value ($, {reading})",
                agriculture.crop_production_value(
                    crop.yield_per_acre, crop.uplift, crop.area_acres,
                    crop.price, share,
                    incremental_only=bool(s.toggle("bf6_incremental")),
                ),
            )
        _note(trace, f"crop production value ($, {reading})", production)
        _note(trace, "crop input-cost savings ($)", cost)
        _note(trace, "livestock count", v["livestock"])
        _note(trace, "livestock labor savings ($)", livestock)
    return production + cost + livestock


def _eval_bf7(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    rate = s.constant("ohca_per_100k")
    survival = s.constant("survival_rates")
    costs = s.constant("CAS")
    case = s.toggle("bf7_case")
    if trace is not None:
        stations = s.constant("DSN")
        ohca = medical.ohca_count(v["population"], rate)
        _note(trace, "cardiac arrests expected", ohca)
        values = medical.life_saving_value_all_cases(
            v["population"], v["vsl"], rate, survival, costs
        )
        for j in range(1, len(stations)):
            _note(trace, f"net value, {int(stations[j])} stations ($)", values[j])
        _note(trace, "selected network size (stations)", stations[case])
    return medical.life_saving_value(
        v["population"], v["vsl"], rate, survival, costs, case
    )


def _eval_bf8(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    _note(trace, "tax income passed through ($)", v["tax_income"])
    return v["tax_income"]


def _eval_bf9(s: Scenario, v: Mapping[str, float], year: int, trace=None) -> float:
    seats = s.constant("seats_per_evtol")
    vehicle_trips = mobility.evtol_trips(v["passenger_trips"], seats)
    package_trips = _package_trips(s, v, year, None)
    if trace is not None:
        mpg = s.constant("mpg_fleet")
        per_gallon = s.constant("co2_tons_per_gallon")
        co2_share = s.constant("co2_share_of_ghg")
        vmt = mobility.vmt_local(v["vmt_us"], v["us_population"], v["population"])
        co2, other = environment.ground_emissions(vmt, mpg, per_gallon, co2_share)
        ground_trips = environment.local_ground_trips(
            s.constant("us_annual_trips"), v["us_population"], v["population"]
        )
        share = environment.demand_factor(
            vehicle_trips, package_trips, v["cargo_trips"], ground_trips
        )
        _note(trace, "local road miles (mi)", vmt)
        _note(trace, "gallons burned by the ground fleet", environment.fleet_gallons(vmt, mpg))
        _note(trace, "CO2 emitted (tons)", co2)
        _note(trace, "methane and nitrous oxide emitted (tons)", other)
        _note(
            trace,
            "social cost of CO2 ($/ton)",
            environment.social_cost_forward(
                s.constant("scc_2020"), year,
                s.constant("scghg_base_year"), s.constant("scghg_discount"),
            ),
        )
        _note(
            trace,
            "blended methane/nitrous social cost ($/ton)",
            environment.blended_non_co2_cost(
                s.constant("scm_2020"), s.constant("scn_2020"), year,
                s.constant("scghg_base_year"), s.constant("scghg_discount"),
            ),
        )
        _note(trace, "eVTOL vehicle trips", vehicle_trips)
        _note(trace, "drone package deliveries", package_trips)
        _note(trace, "cargo trips", v["cargo_trips"])
        _note(trace, "local ground vehicle trips", ground_trips)
        _note(trace, "share of ground trips replaced", share)
        _note(trace, "emission advantage factor", s.constant("evtol_emission_ratio"))
    return environment.ghg_savings(
        year,
        v["vmt_us"],
        v["us_population"],
        v["population"],
        vehicle_trips,
        package_trips,
        v["cargo_trips"],
        s.constant("scc_2020"),
        s.constant("scm_2020"),
        s.constant("scn_2020"),
        s.constant("scghg_base_year"),
        s.constant("scghg_discount"),
        s.constant("mpg_fleet"),
        s.constant("co2_tons_per_gallon"),
        s.constant("co2_share_of_ghg"),
        s.constant("us_annual_trips"),
        s.constant("evtol_emission_ratio"),
    )


_EVALUATORS = {
    "BF1": _eval_bf1,
    "BF2": _eval_bf2,
    "BF3": _eval_bf3,
    "BF4": _eval_bf4,
    "BF5": _eval_bf5,
    "BF6": _eval_bf6,
    "BF7": _eval_bf7,
    "BF8": _eval_bf8,
    "BF9": _eval_bf9,
}


def _values_for_year(
    scenario: Scenario,
    forecasts: Mapping[str, PipelineResult],
    exogenous_names,
    year: int,
    channel: str,
) -> dict[str, float]:
    """Merge exogenous points and one forecast channel for a single year."""
    values: dict[str, float] = {}
    for name in sorted(exogenous_names):
        values[name] = scenario.exogenous(name).value_at(year)
    for name, result in forecasts.items():
        band = result.band
        if not band.years[0] <= year <= band.years[-1]:
            raise ForecastError(
                f"forecast for '{name}' covers {band.years[0]}-{band.years[-1]}, "
                f"not {year}"
            )
        values[name] = getattr(band, channel)[year - band.years[0]]
    return values


def _band_from_channels(lower: float, mean: float, upper: float) -> BandValue:
    return BandValue(min(lower, mean, upper), mean, max(lower, mean, upper))


def normalize_factors(factors) -> tuple[str, ...]:
    """Validate factor ids and put them in canonical BF1..BF9 order."""
    requested = set(factors)
    unknown = requested - set(FACTOR_IDS)
    if unknown:
        raise ScenarioError(f"unknown benefit factors: {sorted(unknown)}")
    if not requested:
        raise ScenarioError("no benefit factors enabled")
    return tuple(f for f in FACTOR_IDS if f in requested)


def evaluate(
    scenario: Scenario,
    factors=None,
    pin_orders: bool = False,
    best_effort: bool = False,
) -> EvaluationResult:
    """Forecast, run the enabled factors, and build the yearly ledger.

    ``pin_orders`` uses the scenario's per-series (p, d, q) entries instead
    of automatic identification where they exist. Inadequate forecast
    models abort unless ``best_effort``, which demotes them to warnings.
    """
    enabled = normalize_factors(factors) if factors is not None else FACTOR_IDS
    warnings = validate_scenario(scenario, enabled)
    _, exogenous_names, historical_names = required_inputs(enabled)
    include_mean = bool(scenario.toggle("include_mean_when_differenced"))

    forecasts: dict[str, PipelineResult] = {}
    for name in sorted(historical_names):
        series = scenario.historical(name)
        steps = scenario.horizon_end - series.last_year
        pinned = None
        if pin_orders and name in scenario.orders:
            pinned = ArimaOrder(*scenario.orders[name])
        try:
            result = auto_pipeline(
                series, steps, pinned=pinned,
                include_mean_when_differenced=include_mean,
            )
        except ForecastError as err:
            raise ForecastError(f"forecasting '{name}': {err}") from err
        if not result.adequate:
            message = (
                f"no residual-whiteness-passing model found for '{name}'; "
                f"kept order ({result.fit.order.p},{result.fit.order.d},"
                f"{result.fit.order.q})"
            )
            if not best_effort:
                raise ForecastError(
                    message + " (enable best-effort to accept it)"
                )
            warnings.append(message)
        forecasts[name] = result

    if "BF6" in enabled and not scenario.toggle("bf6_incremental"):
        warnings.append(
            "farming production is valued as the whole uplifted harvest "
            "(published form); bf6_incremental values only the increment, "
            "roughly 40x smaller"
        )

    annual: list[AnnualResult] = []
    values_by_year: dict[int, dict[str, dict[str, float]]] = {}
    for year in scenario.horizon_years:
        channel_values = values_by_year[year] = {
            channel: _values_for_year(
                scenario, forecasts, exogenous_names, year, channel
            )
            for channel in _CHANNELS
        }
        benefits: dict[str, BandValue] = {}
        for factor_id in enabled:
            evaluator = _EVALUATORS[factor_id]
            lower, mean, upper = (
                evaluator(scenario, channel_values[channel], year)
                for channel in _CHANNELS
            )
            benefits[factor_id] = _band_from_channels(lower, mean, upper)
        annual.append(
            AnnualResult(
                year=year,
                benefits=benefits,
                capex=channel_values["mean"]["capex"],
                opex=channel_values["mean"]["opex"],
            )
        )
    return EvaluationResult(
        scenario=scenario,
        factors=enabled,
        annual=annual,
        forecasts=forecasts,
        warnings=warnings,
        channel_values=values_by_year,
    )


def explain(result: EvaluationResult, factor_id: str, year: int) -> str:
    """A printable derivation of one factor in one year (mean channel)."""
    if factor_id not in result.factors:
        raise ScenarioError(
            f"factor '{factor_id}' was not part of this run "
            f"(enabled: {', '.join(result.factors)})"
        )
    scenario = result.scenario
    if year not in scenario.horizon_years:
        raise ScenarioError(
            f"year {year} outside horizon "
            f"{scenario.horizon_start}-{scenario.horizon_end}"
        )
    trace: list[tuple[str, float]] = []
    values = result.channel_values[year]["mean"]
    _EVALUATORS[factor_id](scenario, values, year, trace)
    band = next(r for r in result.annual if r.year == year).benefits[factor_id]
    lines = [f"{factor_id} ({FACTOR_LABELS[factor_id]}), year {year}"]
    for label, value in trace:
        lines.append(f"  {label}: {value:,.6g}")
    lines.append(
        f"  value ($): {band.mean:,.2f}   "
        f"[95% band {band.lower:,.2f} .. {band.upper:,.2f}]"
    )
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return repr(float(value))


def _summary(result: EvaluationResult, seed: int | None = None) -> dict:
    s = result.scenario
    forecast_info = {}
    for name, pipeline in result.forecasts.items():
        fit = pipeline.fit
        forecast_info[name] = {
            "order": [fit.order.p, fit.order.d, fit.order.q],
            "adequate": pipeline.adequate,
            "sigma2": fit.sigma2,
            "tests": [
                {
                    "name": report.name,
                    "statistic": report.statistic,
                    "p_value": report.p_value,
                    "lags": report.lags_used,
                }
                for report in pipeline.diagnostics
            ],
        }
    payload = {
        "scenario": s.name,
        "horizon": {"start": s.horizon_start, "end": s.horizon_end},
        "factors": list(result.factors),
        "ledger": summary_dict(result.annual),
        "forecasts": forecast_info,
        "warnings": result.warnings,
    }
    if seed is not None:
        payload["seed"] = seed
    return payload


def _write_plot_rows(path: Path, rows: Sequence[tuple]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["year", "item", "lower", "mean", "upper"])
        for year, item, band in rows:
            writer.writerow(
                [year, item, _fmt(band.lower), _fmt(band.mean), _fmt(band.upper)]
            )


#: Plot groupings of factors that share a natural scale.
_PLOT_GROUPS = (
    ("plot_time_safety_inspection.csv", ("BF1", "BF2", "BF5")),
    ("plot_delivery_savings.csv", ("BF3", "BF4")),
    ("plot_tax_ghg.csv", ("BF8", "BF9")),
)


def _write_plot_data(result: EvaluationResult, out_dir: Path) -> list[Path]:
    written: list[Path] = []
    scenario = result.scenario
    for filename, group in _PLOT_GROUPS:
        members = [f for f in group if f in result.factors]
        if not members:
            continue
        rows = [
            (r.year, FACTOR_FILE_NAMES[f], r.benefits[f])
            for r in result.annual
            for f in members
        ]
        path = out_dir / filename
        _write_plot_rows(path, rows)
        written.append(path)

    if "BF6" in result.factors:
        rows = []
        labels = ("crop_production", "crop_cost_savings", "livestock_savings")
        for r in result.annual:
            per_channel = {
                channel: _bf6_components(scenario, values)
                for channel, values in result.channel_values[r.year].items()
            }
            for idx, label in enumerate(labels):
                rows.append(
                    (
                        r.year,
                        label,
                        _band_from_channels(
                            per_channel["lower"][idx],
                            per_channel["mean"][idx],
                            per_channel["upper"][idx],
                        ),
                    )
                )
        path = out_dir / "plot_farming_components.csv"
        _write_plot_rows(path, rows)
        written.append(path)

    if "BF7" in result.factors:
        stations = scenario.constant("DSN")
        rate = scenario.constant("ohca_per_100k")
        survival = scenario.constant("survival_rates")
        costs = scenario.constant("CAS")
        rows = []
        for r in result.annual:
            per_channel = {
                channel: medical.life_saving_value_all_cases(
                    values["population"], values["vsl"], rate, survival, costs
                )
                for channel, values in result.channel_values[r.year].items()
            }
            for j in range(1, len(stations)):
                rows.append(
                    (
                        r.year,
                        f"stations_{int(stations[j])}",
                        _band_from_channels(
                            per_channel["lower"][j],
                            per_channel["mean"][j],
                            per_channel["upper"][j],
                        ),
                    )
                )
        path = out_dir / "plot_medical_cases.csv"
        _write_plot_rows(path, rows)
        written.append(path)

    path = out_dir / "plot_npi_band.csv"
    write_npi_csv(path, result.annual)
    written.append(path)
    return written


def write_outputs(
    result: EvaluationResult,
    out_dir: str | Path,
    emit=ALL_EMIT,
    seed: int | None = None,
) -> list[Path]:
    """Write the selected output kinds; returns the paths written."""
    unknown = set(emit) - ALL_EMIT
    if unknown:
        raise ScenarioError(f"unknown emit kinds: {sorted(unknown)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in emit:
        for factor_id in result.factors:
            path = out_dir / f"{FACTOR_FILE_NAMES[factor_id]}.csv"
            write_factor_csv(path, factor_id, result.annual)
            written.append(path)
        path = out_dir / "results.csv"
        write_results_csv(path, result.annual)
        written.append(path)
        path = out_dir / "npi.csv"
        write_npi_csv(path, result.annual)
        written.append(path)
        for name in sorted(result.forecasts):
            band = result.forecasts[name].band
            path = out_dir / f"forecast_{name}.csv"
            write_band_csv(
                path,
                band.years,
                [
                    BandValue(lo, mid, up)
                    for lo, mid, up in zip(band.lower, band.mean, band.upper)
                ],
            )
            written.append(path)
    if "json" in emit:
        path = out_dir / "summary.json"
        text = json.dumps(
            _summary(result, seed), sort_keys=True, indent=2,
            separators=(",", ": "),
        )
        path.write_text(text + "\n")
        written.append(path)
    if "plotdata" in emit:
        written.extend(_write_plot_data(result, out_dir))
    return written


def run(manifest: RunManifest) -> EvaluationResult:
    """Load, evaluate, and write one manifest end to end."""
    scenario = load_scenario(manifest.scenario_path)
    if manifest.toggles:
        scenario = scenario.with_overrides(toggles=manifest.toggles)
    result = evaluate(
        scenario,
        manifest.enabled_factors,
        pin_orders=manifest.pin_orders,
        best_effort=manifest.best_effort,
    )
    write_outputs(result, manifest.output_dir, manifest.emit, seed=manifest.seed)
    return result
