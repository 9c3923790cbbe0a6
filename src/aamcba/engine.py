"""End-to-end scenario evaluation.

The flow: validate the scenario, forecast every historical series the
enabled factors need, then evaluate each factor year by year on the three
forecast channels (lower, mean, upper), each as ``factors`` defines it.
The ``Scenario`` constructor checks what holds whatever the factors;
``validate_scenario`` checks what the enabled factors and the cost ledger
need; after them, evaluation reads the scenario's mappings directly.
Every step a factor records is kept in the result's ``traces``, which
``explain`` and the plot tables read.
``evaluate`` derives every number the outputs report: the yearly ledger,
the summary and the plot tables. A series that cannot be forecast or
whose forecast leaves its domain, a model that fails the whiteness check
without ``best_effort``, or a factor value, a year's net gain, a horizon
total or a plot item that is not a finite float, raises ScenarioError
naming it, so ``run``, ``validate`` and ``explain`` reject the same
inputs; the writers only format. Running
the three channels through the same formulas gives a comonotone envelope:
each factor with every forecast input at its lower, its mean or its upper
limit together. That assumes every forecast error moves together, so it
is not a 95% interval, and ``explain`` prints it as the envelope. A
factor can fall as one input rises, so its band sorts the three channel
values. Evaluators are pure functions of the scenario and one year's
values, so they are safe to parallelize if that ever matters; at this
size it does not.
"""
from __future__ import annotations

import json
from math import isfinite
from pathlib import Path
from typing import Iterable, Mapping

from .factors import FACTORS, Recorder, normalize_factors
from .forecast import ForecastError, PipelineResult, auto_pipeline
from .forecast.common import MIN_OBS
from .ingest import (
    INPUTS,
    Scenario,
    ScenarioError,
    check_horizon_domain,
    load_scenario,  # the CLI loads through this module (see cli.py)
)
from .ledger import (
    CHANNELS,
    AnnualResult,
    BandValue,
    summary_dict,
    write_channels_csv,
    write_item_csv,
    write_npi_csv,
    write_results_csv,
)

#: One recorded step of a factor's evaluation: (label, value, item or None).
Entry = tuple[str, float, str | None]

#: The exogenous series the cost ledger reads, whatever the factors.
COST_SERIES = ("capex", "opex")


class EvaluationResult:
    """Forecasts, yearly ledger rows, accumulated warnings, and the summary
    and plot tables derived from them, for one run."""

    __slots__ = (
        "scenario", "factors", "annual", "forecasts", "warnings", "traces",
        "summary", "plot_tables",
    )

    def __init__(
        self,
        scenario: Scenario,
        factors: tuple[str, ...],
        annual: list[AnnualResult],
        forecasts: dict[str, PipelineResult],
        warnings: list[str],
        traces: dict[tuple[str, int], tuple[list[Entry], ...]],
        summary: dict,
        plot_tables: dict[str, list[tuple]],
    ) -> None:
        self.scenario = scenario
        self.factors = factors
        self.annual = annual
        self.forecasts = forecasts
        self.warnings = warnings
        #: (factor id, year) -> the lower, mean and upper channels' lists of
        #: every (label, value, item) the factor's evaluation recorded.
        self.traces = traces
        #: summary.json's payload.
        self.summary = summary
        #: plot file name -> its (year, item, lower, mean, upper) rows.
        self.plot_tables = plot_tables


def validate_scenario(
    s: Scenario, factors: Iterable[str] | None = None
) -> list[str]:
    """Check a scenario against the requirements of the enabled factors
    and the cost ledger.

    This is the one place these are checked. Hard failures raise
    ScenarioError naming the offending key, series, or year.
    Suspicious-but-legal values come back as warning strings.
    """
    enabled = normalize_factors(factors)
    used = [FACTORS[f] for f in enabled]
    warnings: list[str] = []

    for factor in used:
        if factor.check:
            warnings += factor.check(s)
    # the cost ledger always runs
    needed_exo = [(f.id, name) for f in used for name in f.exogenous]
    needed_exo += [("costs", name) for name in COST_SERIES]
    for f, name in needed_exo:
        if name not in s.input_series:
            raise ScenarioError(
                f"exogenous series '{name}' is required by {f} but missing"
            )
        ts = s.input_series[name]
        if not ts.first_year <= s.horizon_start <= s.horizon_end <= ts.last_year:
            starts_inside = ts.first_year <= s.horizon_start <= ts.last_year
            raise ScenarioError(
                f"exogenous series '{name}' does not cover year "
                f"{ts.last_year + 1 if starts_inside else s.horizon_start} "
                f"(covers {ts.first_year}-{ts.last_year})"
            )
        check_horizon_domain(s, name, ts.years, ts.values, f"exogenous series '{name}'")
    needed_hist: dict[str, str] = {}
    for factor in used:
        for name in factor.historical:
            needed_hist.setdefault(name, factor.id)
    for name, f in needed_hist.items():
        if name not in s.historical_series:
            raise ScenarioError(
                f"historical series '{name}' is required by {f} but missing"
            )
        ts = s.historical_series[name]
        if ts.last_year >= s.horizon_start:
            raise ScenarioError(
                f"historical series '{name}' extends to {ts.last_year}, "
                f"into the forecast horizon starting {s.horizon_start}"
            )
        if len(ts.values) < MIN_OBS:
            raise ScenarioError(
                f"historical series '{name}' has {len(ts.values)} points; "
                f"at least {MIN_OBS} are needed for forecasting"
            )

    for name in COST_SERIES:
        ts = s.input_series.get(name)
        if ts and any(v < 0 for v in ts.values):
            warnings.append(f"'{name}' has negative entries")
    for key, row in INPUTS.items():
        if row.bracket and key in s.constants:
            (lo, hi), v = row.bracket, s.constants[key]
            if not lo <= v <= hi:
                warnings.append(
                    f"constant '{key}'={v} is outside the expected range [{lo}, {hi}]"
                )
    return warnings



def _values_for_year(
    scenario: Scenario,
    forecasts: Mapping[str, PipelineResult],
    exogenous_names,
    year: int,
) -> dict[str, dict[str, float]]:
    """Each channel's inputs for one year: the exogenous points, the same in
    every channel, then each forecast's value in that channel. Validation
    made each series cover the horizon, and each forecast runs to its end
    year."""
    exogenous = {
        name: scenario.input_series[name].value_at(year) for name in exogenous_names
    }
    by_channel = {channel: dict(exogenous) for channel in CHANNELS}
    for name, result in forecasts.items():
        band = result.band
        i = year - band.years[0]
        for channel, values in by_channel.items():
            values[name] = getattr(band, channel)[i]
    return by_channel


def _band_from_channels(lower: float, mean: float, upper: float) -> BandValue:
    return BandValue(min(lower, mean, upper), mean, max(lower, mean, upper))


def _recorder(entries: list[Entry]) -> Recorder:
    """A recorder that keeps every (label, value, item) entry."""

    def rec(label: str, value: float, item: str | None = None) -> float:
        entries.append((label, value, item))
        return value

    return rec


class _ReadLog:
    """A scenario stand-in that logs the constants read, in order."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario, self.read = scenario, {}

    def constant(self, key: str):
        value = self.read[key] = self.scenario.constant(key)
        return value

    def __getattr__(self, name: str):
        return getattr(self.scenario, name)


class _Stop(Exception):
    """A recorded step is not a finite float; args are (label,)."""


def _stop_at_not_finite(label: str, value, item: str | None = None):
    if not (isinstance(value, float) and isfinite(value)):
        raise _Stop(repr(label))
    return value


def _not_finite(factor, scenario: Scenario, values, year: int, channel: str):
    """The error for a channel of ``factor`` whose value is not a finite
    float. The channel is evaluated again, logging the constants it reads,
    up to its first recorded step that is not a finite float either."""
    log, step = _ReadLog(scenario), "value"
    try:
        factor.evaluate(log, values, year, _stop_at_not_finite)
    except _Stop as stop:
        step = stop.args[0]
    except ArithmeticError:
        pass
    named = ", ".join(f"'{key}' ({value!r})" for key, value in log.read.items())
    source = f"constants {named}" if named else "the series alone"
    return ScenarioError(
        f"{factor.id} in {year} ({channel} channel): {step} from {source} "
        "is not a finite number"
    )


def evaluate(
    scenario: Scenario,
    factors=None,
    pin_orders: bool = False,
    best_effort: bool = False,
) -> EvaluationResult:
    """Forecast, run the enabled factors, and build the yearly ledger.

    ``pin_orders`` uses the scenario's per-series (p, d, q) entries instead
    of automatic identification where they exist. An inadequate forecast
    model raises ScenarioError unless ``best_effort``, which demotes it to
    a warning.
    """
    enabled = normalize_factors(factors)
    warnings = validate_scenario(scenario, enabled)
    used = [FACTORS[factor_id] for factor_id in enabled]
    exogenous_names = sorted({*COST_SERIES, *(n for f in used for n in f.exogenous)})
    historical_names = sorted({n for f in used for n in f.historical})
    include_mean = scenario.toggle("include_mean_when_differenced")

    forecasts: dict[str, PipelineResult] = {}
    for name in historical_names:
        series = scenario.historical_series[name]
        steps = scenario.horizon_end - series.last_year
        pinned = scenario.orders.get(name) if pin_orders else None
        try:
            result = auto_pipeline(
                series, steps, pinned=pinned,
                include_mean_when_differenced=include_mean,
            )
        except (ForecastError, ArithmeticError, ValueError) as err:
            raise ScenarioError(
                f"historical series '{name}' cannot be forecast: {err}"
            ) from err
        if not result.adequate:
            message = (
                f"no residual-whiteness-passing model found for '{name}'; "
                f"kept order ({result.fit.order.p},{result.fit.order.d},"
                f"{result.fit.order.q})"
            )
            if not best_effort:
                raise ScenarioError(message + " (enable --best-effort to accept it)")
            warnings.append(message)
        band = result.band
        for channel, values in (("lower", band.lower), ("upper", band.upper)):
            what = f"forecast of historical series '{name}' ({channel} channel)"
            check_horizon_domain(scenario, name, band.years, values, what)
        forecasts[name] = result

    if "BF6" in enabled and not scenario.toggle("bf6_incremental"):
        warnings.append(
            "farming production is valued as the whole uplifted harvest "
            "(published form); bf6_incremental values only the increment, "
            "roughly 40x smaller"
        )

    annual: list[AnnualResult] = []
    traces: dict[tuple[str, int], tuple[list[Entry], ...]] = {}
    for year in scenario.horizon_years:
        inputs = _values_for_year(scenario, forecasts, exogenous_names, year)
        benefits: dict[str, BandValue] = {}
        for factor_id in enabled:
            factor = FACTORS[factor_id]
            trace = traces[factor_id, year] = ([], [], [])
            channels = []
            # inputs holds the channels in CHANNELS order, as trace does
            for (channel, values), entries in zip(inputs.items(), trace):
                try:
                    value = factor.evaluate(scenario, values, year, _recorder(entries))
                except ArithmeticError:
                    value = None
                if not (isinstance(value, float) and isfinite(value)):
                    raise _not_finite(factor, scenario, values, year, channel)
                channels.append(value)
            benefits[factor_id] = _band_from_channels(*channels)
        costs = inputs["mean"]
        try:
            annual.append(AnnualResult(year, benefits, costs["capex"], costs["opex"]))
        except ValueError:
            raise ScenarioError(
                f"npi in {year}: the factor values less capex and opex "
                "are not a finite number"
            ) from None
    return EvaluationResult(
        scenario, enabled, annual, forecasts, warnings, traces,
        _summary(scenario, enabled, annual, forecasts, warnings),
        _plot_tables(scenario, enabled, traces),
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
    factor = FACTORS[factor_id]
    band = next(r for r in result.annual if r.year == year).benefits[factor_id]
    lines = [f"{factor_id} ({factor.label}), year {year}"]
    _, mean, _ = result.traces[factor_id, year]
    for label, value, _ in mean:
        lines.append(f"  {label}: {float(value):,.6g}")
    lines.append(
        f"  value ($): {band.mean:,.2f}   "
        f"[comonotone envelope {band.lower:,.2f} .. {band.upper:,.2f}]"
    )
    return "\n".join(lines)


def _summary(
    scenario: Scenario,
    factors: tuple[str, ...],
    annual: list[AnnualResult],
    forecasts: Mapping[str, PipelineResult],
    warnings: list[str],
) -> dict:
    """summary.json's payload. ScenarioError if a horizon total or the
    growth rate is not a finite number."""
    forecast_info = {}
    for name, pipeline in forecasts.items():
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
    return {
        "scenario": scenario.name,
        "horizon": {"start": scenario.horizon_start, "end": scenario.horizon_end},
        "factors": list(factors),
        "ledger": summary_dict(annual),
        "forecasts": forecast_info,
        "warnings": warnings,
    }


def _plot_tables(
    scenario: Scenario,
    factors: tuple[str, ...],
    traces: Mapping[tuple[str, int], tuple[list[Entry], ...]],
) -> dict[str, list[tuple]]:
    """One table per enabled factor that has a plot file, by year: the
    steps its trace tags with an item, banded across the channels."""
    tables: dict[str, list[tuple]] = {}
    for factor_id in factors:
        filename = FACTORS[factor_id].plot_file
        if filename is None:
            continue
        rows = tables[filename] = []
        for year in scenario.horizon_years:
            # the three channels record the same steps in the same order
            for (_, lo, _), (_, mid, item), (_, up, _) in zip(*traces[factor_id, year]):
                if item is None:
                    continue
                try:
                    band = _band_from_channels(lo, mid, up)
                except ValueError:
                    raise ScenarioError(
                        f"{factor_id} plot item '{item}' in {year} "
                        "is not a finite number"
                    ) from None
                rows.append((year, item, band.lower, band.mean, band.upper))
    return tables


def write_outputs(result: EvaluationResult, out_dir: str | Path) -> list[Path]:
    """Write every output file; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
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
    path = out_dir / "summary.json"
    text = json.dumps(result.summary, sort_keys=True, indent=2, separators=(",", ": "))
    path.write_text(text + "\n")
    written.append(path)
    for filename, rows in result.plot_tables.items():
        path = out_dir / filename
        write_item_csv(path, rows)
        written.append(path)
    return written

