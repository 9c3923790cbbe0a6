"""End-to-end scenario evaluation.

The flow: validate the scenario, forecast every historical series the
enabled factors need, then evaluate each factor year by year on the three
forecast channels (lower, mean, upper), each as ``factors`` defines
it. Factor arithmetic is monotone in the banded inputs, so running the
channels through the same formulas keeps a valid 95% band; the band
constructor re-orders the endpoints in the rare case a formula inverts
them. Evaluators are pure functions of the scenario
and one year's values, so they are safe to parallelize if that ever
matters; at this size it does not.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .factors import FACTORS, Recorder, no_record
from .forecast import ArimaOrder, ForecastError, PipelineResult, auto_pipeline
from .ingest import (
    FACTOR_IDS,
    Scenario,
    ScenarioError,
    load_scenario,
    normalize_factors,
    required_inputs,
    validate_scenario,
)
from .ledger import (
    AnnualResult,
    BandValue,
    summary_dict,
    write_channels_csv,
    write_factor_csv,
    write_item_csv,
    write_npi_csv,
    write_results_csv,
)

_CHANNELS = ("lower", "mean", "upper")

ALL_EMIT = frozenset(("csv", "json", "plotdata"))


def normalize_emit(kinds) -> frozenset[str]:
    """Check output kinds against ``ALL_EMIT``."""
    kinds = frozenset(kinds)
    unknown = kinds - ALL_EMIT
    if unknown:
        raise ScenarioError(
            f"unknown emit kinds: {sorted(unknown)}; "
            f"valid: {', '.join(sorted(ALL_EMIT))}"
        )
    return kinds


class RunManifest:
    """Everything one CLI run needs; two identical manifests give
    byte-identical outputs."""

    __slots__ = (
        "scenario_path", "output_dir", "enabled_factors", "seed", "emit",
        "pin_orders", "best_effort", "toggles",
    )

    def __init__(
        self,
        scenario_path: Path,
        output_dir: Path,
        enabled_factors: tuple[str, ...] = FACTOR_IDS,
        seed: int = 0,
        emit: frozenset[str] = ALL_EMIT,
        pin_orders: bool = False,
        best_effort: bool = False,
        toggles: dict | None = None,
    ) -> None:
        self.scenario_path = scenario_path
        self.output_dir = output_dir
        self.enabled_factors = normalize_factors(enabled_factors)
        self.seed = seed
        self.emit = normalize_emit(emit)
        self.pin_orders = pin_orders
        self.best_effort = best_effort
        self.toggles = {} if toggles is None else toggles


class EvaluationResult:
    """Forecasts, yearly ledger rows, and accumulated warnings for one run."""

    __slots__ = (
        "scenario", "factors", "annual", "forecasts", "warnings",
        "channel_values", "item_bands",
    )

    def __init__(
        self,
        scenario: Scenario,
        factors: tuple[str, ...],
        annual: list[AnnualResult],
        forecasts: dict[str, PipelineResult],
        warnings: list[str],
        channel_values: dict[int, dict[str, dict[str, float]]],
        item_bands: dict[tuple[str, int], list[tuple[str, BandValue]]],
    ) -> None:
        self.scenario = scenario
        self.factors = factors
        self.annual = annual
        self.forecasts = forecasts
        self.warnings = warnings
        #: The inputs every factor saw: year -> channel -> series name -> value.
        self.channel_values = channel_values
        #: (factor id, year) -> the (item, band) pairs its evaluation tags, for
        #: the factors whose plot table lists items.
        self.item_bands = item_bands


def _values_for_year(
    scenario: Scenario,
    forecasts: Mapping[str, PipelineResult],
    exogenous_names,
    year: int,
) -> dict[str, dict[str, float]]:
    """Each channel's inputs for one year: the exogenous points, the same in
    every channel, then each forecast's value in that channel."""
    exogenous = {
        name: scenario.exogenous(name).value_at(year)
        for name in sorted(exogenous_names)
    }
    by_channel = {channel: dict(exogenous) for channel in _CHANNELS}
    for name, result in forecasts.items():
        band = result.band
        if not band.years[0] <= year <= band.years[-1]:
            raise ForecastError(
                f"forecast for '{name}' covers {band.years[0]}-{band.years[-1]}, "
                f"not {year}"
            )
        i = year - band.years[0]
        for channel, values in by_channel.items():
            values[name] = getattr(band, channel)[i]
    return by_channel


def _band_from_channels(lower: float, mean: float, upper: float) -> BandValue:
    return BandValue(min(lower, mean, upper), mean, max(lower, mean, upper))


def _item_recorder(items: list[tuple[str, float]]) -> Recorder:
    """A recorder that keeps the (item, value) of every item-tagged entry."""

    def rec(label: str, value: float, item: str | None = None) -> float:
        if item is not None:
            items.append((item, value))
        return value

    return rec


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
    enabled = normalize_factors(factors)
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
    item_bands: dict[tuple[str, int], list[tuple[str, BandValue]]] = {}
    for year in scenario.horizon_years:
        channel_values = values_by_year[year] = _values_for_year(
            scenario, forecasts, exogenous_names, year
        )
        benefits: dict[str, BandValue] = {}
        for factor_id in enabled:
            factor = FACTORS[factor_id]
            if factor.plot_items:
                kept: list[list[tuple[str, float]]] = [[] for _ in _CHANNELS]
                recorders = [_item_recorder(items) for items in kept]
            else:
                recorders = [no_record] * len(_CHANNELS)
            lower, mean, upper = (
                factor.evaluate(scenario, channel_values[channel], year, rec)
                for channel, rec in zip(_CHANNELS, recorders)
            )
            benefits[factor_id] = _band_from_channels(lower, mean, upper)
            if factor.plot_items:
                item_bands[factor_id, year] = [
                    (item, _band_from_channels(lo, mid, up))
                    for (item, lo), (_, mid), (_, up) in zip(*kept)
                ]
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
        item_bands=item_bands,
    )


def _trace(
    result: EvaluationResult, factor_id: str, year: int, channel: str
) -> list[tuple[str, float, str | None]]:
    """Every (label, value, item) a factor records in one year and channel."""
    entries: list[tuple[str, float, str | None]] = []

    def rec(label: str, value: float, item: str | None = None) -> float:
        entries.append((label, value, item))
        return value

    FACTORS[factor_id].evaluate(
        result.scenario, result.channel_values[year][channel], year, rec
    )
    return entries


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
    factor = FACTORS[factor_id]
    band = next(r for r in result.annual if r.year == year).benefits[factor_id]
    lines = [f"{factor_id} ({factor.label}), year {year}"]
    for label, value, _ in _trace(result, factor_id, year, "mean"):
        lines.append(f"  {label}: {float(value):,.6g}")
    lines.append(
        f"  value ($): {band.mean:,.2f}   "
        f"[95% band {band.lower:,.2f} .. {band.upper:,.2f}]"
    )
    return "\n".join(lines)


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


def _write_plot_data(result: EvaluationResult, out_dir: Path) -> list[Path]:
    """One table per factor plot file: each factor's value, or the items its
    evaluation tags, by year."""
    groups: dict[str, list[str]] = {}
    for factor_id in result.factors:
        groups.setdefault(FACTORS[factor_id].plot_file, []).append(factor_id)
    written: list[Path] = []
    for filename, members in groups.items():
        rows = []
        for r in result.annual:
            for factor_id in members:
                factor = FACTORS[factor_id]
                if factor.plot_items:
                    bands = result.item_bands[factor_id, r.year]
                else:
                    bands = [(factor.file_stem, r.benefits[factor_id])]
                rows += [
                    (r.year, item, band.lower, band.mean, band.upper)
                    for item, band in bands
                ]
        path = out_dir / filename
        write_item_csv(path, rows)
        written.append(path)
    return written


def write_outputs(
    result: EvaluationResult,
    out_dir: str | Path,
    emit=ALL_EMIT,
    seed: int | None = None,
) -> list[Path]:
    """Write the selected output kinds; returns the paths written."""
    emit = normalize_emit(emit)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in emit:
        for factor_id in result.factors:
            path = out_dir / f"{FACTORS[factor_id].file_stem}.csv"
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
            write_channels_csv(path, band.years, band.lower, band.mean, band.upper)
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
