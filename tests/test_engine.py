"""Scenario evaluation end to end: forecasts, ledger, outputs, explanations."""
from __future__ import annotations

import json

import pytest

from aamcba.cli import main
from aamcba.engine import _summary, evaluate, explain, write_outputs
from aamcba.factors import FACTOR_IDS, FACTORS, normalize_factors
from aamcba.ingest import ScenarioError, TimeSeries
from aamcba.ledger import AnnualResult, BandValue


def test_default_run_shape(default_scenario, default_evaluation):
    result = default_evaluation
    assert result.factors == FACTOR_IDS
    assert [r.year for r in result.annual] == list(default_scenario.horizon_years)
    assert len(result.forecasts) == 14
    assert all(p.adequate for p in result.forecasts.values())
    # the only warning on the bundled scenario is the published-form note
    assert len(result.warnings) == 1
    assert "whole uplifted harvest" in result.warnings[0]


def test_band_ordering_everywhere(default_evaluation):
    for annual in default_evaluation.annual:
        for band in annual.benefits.values():
            assert band.lower <= band.mean <= band.upper
        npi = annual.npi
        assert npi.lower <= npi.mean <= npi.upper


def test_costs_come_straight_from_the_scenario(default_scenario, default_evaluation):
    capex = default_scenario.input_series["capex"]
    opex = default_scenario.input_series["opex"]
    for annual in default_evaluation.annual:
        assert annual.capex == capex.value_at(annual.year)
        assert annual.opex == opex.value_at(annual.year)


def test_incremental_farming_drops_the_warning(default_scenario, default_evaluation):
    lean = evaluate(
        default_scenario.with_overrides(toggles={"bf6_incremental": True}),
        ("BF6",),
    )
    assert not any("uplifted harvest" in w for w in lean.warnings)
    printed_band = default_evaluation.annual[0].benefits["BF6"]
    lean_band = lean.annual[0].benefits["BF6"]
    assert printed_band.mean / lean_band.mean > 30.0


def test_disabling_one_factor_moves_npi_by_its_band(
    default_scenario, default_evaluation
):
    partial = evaluate(
        default_scenario, tuple(f for f in FACTOR_IDS if f != "BF7")
    )
    for full_year, part_year in zip(default_evaluation.annual, partial.annual):
        dropped = full_year.benefits["BF7"]
        assert full_year.npi.mean - part_year.npi.mean == pytest.approx(
            dropped.mean, rel=1e-9
        )
        assert full_year.npi.lower - part_year.npi.lower == pytest.approx(
            dropped.lower, rel=1e-9
        )
        assert full_year.npi.upper - part_year.npi.upper == pytest.approx(
            dropped.upper, rel=1e-9
        )


def test_tax_only_run_needs_no_forecasts(default_scenario):
    result = evaluate(default_scenario, ("BF8",))
    assert result.forecasts == {}
    tax = default_scenario.input_series["tax_income"]
    capex = default_scenario.input_series["capex"]
    opex = default_scenario.input_series["opex"]
    for annual in result.annual:
        band = annual.benefits["BF8"]
        assert band.lower == band.mean == band.upper
        assert band.mean == tax.value_at(annual.year)
        want = (
            tax.value_at(annual.year)
            - capex.value_at(annual.year)
            - opex.value_at(annual.year)
        )
        assert annual.npi.mean == pytest.approx(want, rel=1e-12)


def test_pinned_orders_demand_best_effort_on_this_data(default_scenario):
    # the bundled series are synthetic placeholders, so the published pins
    # describe a different dataset and at least one fails the whiteness check
    with pytest.raises(ScenarioError, match=(
        "^no residual-whiteness-passing model found for '.+'; kept order "
        r"\(\d,\d,\d\) \(enable --best-effort to accept it\)$"
    )):
        evaluate(default_scenario, pin_orders=True)
    accepted = evaluate(default_scenario, pin_orders=True, best_effort=True)
    assert any("kept order" in w for w in accepted.warnings)
    for name, order in default_scenario.orders.items():
        assert accepted.forecasts[name].fit.order == order


def test_a_value_that_is_not_finite_names_its_step_and_constants(default_scenario):
    # a negative base to a fractional power is complex
    complex_growth = default_scenario.with_overrides(
        constants={"scghg_discount": -2.0, "scghg_base_year": 2020.5}
    )
    with pytest.raises(ScenarioError) as caught:
        evaluate(complex_growth, ("BF9",))
    assert str(caught.value) == (
        "BF9 in 2022 (lower channel): 'social cost of CO2 ($/ton)' from "
        "constants 'mpg_fleet' (22.5), 'co2_tons_per_gallon' (0.00889), "
        "'co2_share_of_ghg' (0.993), 'scghg_base_year' (2020.5), "
        "'scghg_discount' (-2.0), 'scm_2020' (1200.0), 'scn_2020' (1500.0), "
        "'scc_2020' (51.0) is not a finite number"
    )
    # the power overflows before any step is recorded
    overflow = default_scenario.with_overrides(constants={"market_cagr": 1e200})
    with pytest.raises(ScenarioError, match=(
        r"^BF3 in 2022 \(lower channel\): value from constants "
        r"'market_base_year' \(2019.0\), .*'market_cagr' \(1e\+200\), "
    )):
        evaluate(overflow, ("BF3",))


def test_a_series_that_cannot_be_forecast_is_named(default_scenario):
    mhi = default_scenario.historical_series["mhi"]
    flat = default_scenario.with_overrides()
    flat.historical_series = {
        **flat.historical_series,
        "mhi": TimeSeries("mhi", mhi.years, [40000.0] * len(mhi.values)),
    }
    with pytest.raises(ScenarioError, match=(
        "^historical series 'mhi' cannot be forecast: series is constant"
    )):
        evaluate(flat, ("BF1",))


def test_explain_bridge_inspection(default_evaluation):
    text = explain(default_evaluation, "BF5", 2022)
    assert text.startswith("BF5 (bridge inspection savings), year 2022")
    assert "cost, all inspections by snooper truck ($): 1.33792e+06" in text
    assert "cost, drone-capable share by drone ($): 112,920" in text
    assert "inspection cost savings ($): 556,040" in text
    assert "value ($):" in text
    assert "[comonotone envelope" in text


def test_explain_medical_network(default_evaluation):
    text = explain(default_evaluation, "BF7", 2022)
    assert "cardiac arrests expected" in text
    assert "net value, 50 stations ($)" in text
    assert "net value, 1015 stations ($)" in text
    assert "selected network size (stations): 1,015" in text


def test_explain_and_plot_tables_read_the_recorded_trace(
    default_evaluation, tmp_path, monkeypatch
):
    years = (2022, 2027, 2032)
    texts = [explain(default_evaluation, f, y) for f in FACTOR_IDS for y in years]
    write_outputs(default_evaluation, tmp_path / "before")

    def fail(*args):
        raise AssertionError("a factor was evaluated again")

    for factor in FACTORS.values():
        monkeypatch.setattr(factor, "evaluate", fail)
    again = [explain(default_evaluation, f, y) for f in FACTOR_IDS for y in years]
    assert again == texts
    written = write_outputs(default_evaluation, tmp_path / "after")
    assert written
    for path in written:
        assert path.read_bytes() == (tmp_path / "before" / path.name).read_bytes()


def test_explain_errors(default_scenario, default_evaluation):
    with pytest.raises(ScenarioError, match="was not part of this run"):
        explain(evaluate(default_scenario, ("BF8",)), "BF1", 2022)
    with pytest.raises(ScenarioError, match="year 2040 outside horizon"):
        explain(default_evaluation, "BF1", 2040)


def test_normalize_factors():
    assert normalize_factors(["BF9", "BF1"]) == ("BF1", "BF9")
    with pytest.raises(ScenarioError, match="unknown benefit factors"):
        normalize_factors(["BF1", "BFX"])
    with pytest.raises(ScenarioError, match="no benefit factors enabled"):
        normalize_factors([])


def test_write_outputs_full_set(default_evaluation, tmp_path):
    out = tmp_path / "out"
    written = write_outputs(default_evaluation, out)
    names = sorted(p.name for p in written)
    forecast_files = [
        f"forecast_{name}.csv" for name in default_evaluation.forecasts
    ]
    want = sorted(
        forecast_files
        + ["plot_farming_components.csv", "plot_medical_cases.csv"]
        + ["results.csv", "npi.csv", "summary.json"]
    )
    assert len(want) == 19
    assert names == want
    assert all(p.is_file() for p in written)


def test_plot_tables_hold_only_tagged_items(default_evaluation, tmp_path):
    # results.csv holds every factor's value, so a plot table lists only the
    # steps its factor's trace tags with an item, and repeats no results row;
    # a factor that tags none has no table.
    write_outputs(default_evaluation, tmp_path)

    def rows(name):
        return (tmp_path / name).read_text().splitlines()[1:]

    results = set(rows("results.csv"))
    tables = []
    for factor_id in default_evaluation.factors:
        tagged = {
            item
            for year in (2022, 2032)
            for _, _, item in default_evaluation.traces[factor_id, year][1]
            if item is not None
        }
        plot_file = FACTORS[factor_id].plot_file
        assert (plot_file is None) == (not tagged), factor_id
        if plot_file is None:
            continue
        tables.append(plot_file)
        table = rows(plot_file)
        assert {row.split(",")[1] for row in table} == tagged
        assert not results.intersection(table), plot_file
    assert sorted(p.name for p in tmp_path.glob("plot_*")) == sorted(tables)


def test_a_growth_rate_that_overflows_is_named(default_scenario):
    # A tiny positive first-year net gain and a huge last one: their ratio
    # overflows, and summary.json used to print the growth rate as Infinity.
    years = default_scenario.horizon_years
    means = [1e-300] + [1e10] * (len(years) - 1)
    annual = [
        AnnualResult(year, {"BF8": BandValue(mean, mean, mean)}, 0.0, 0.0)
        for year, mean in zip(years, means)
    ]
    with pytest.raises(ScenarioError, match="npi growth rate over 2022-2032 is not"):
        _summary(default_scenario, ("BF8",), annual, {}, [])


def test_write_outputs_are_byte_identical(default_evaluation, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    written_first = write_outputs(default_evaluation, first)
    written_second = write_outputs(default_evaluation, second)
    for a, b in zip(sorted(written_first), sorted(written_second)):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes(), a.name


def test_summary_json_content(default_evaluation, tmp_path):
    write_outputs(default_evaluation, tmp_path)
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["scenario"] == "ohio-baseline"
    assert "seed" not in payload
    assert payload["factors"] == list(FACTOR_IDS)
    assert payload["horizon"] == {"start": 2022, "end": 2032}
    assert set(payload["forecasts"]) == set(default_evaluation.forecasts)
    mhi_info = payload["forecasts"]["mhi"]
    assert mhi_info["adequate"] is True
    assert mhi_info["tests"][0]["name"].startswith("adf")
    ledger = payload["ledger"]
    assert ledger["first_year"] == 2022
    assert ledger["last_year"] == 2032
    assert set(ledger["benefit_totals_mean"]) == set(FACTOR_IDS)


def test_cli_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--factors", "BF8"]) == 0
    assert "factors: BF8\n" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["npi.csv", "results.csv", "summary.json"]
    assert json.loads((out / "summary.json").read_text())["factors"] == ["BF8"]


def test_cli_run_applies_toggles(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--out", str(out), "--factors", "BF6"]
    assert main(argv + ["--toggle", "bf6_incremental=true"]) == 0
    assert "uplifted harvest" not in capsys.readouterr().err
    warnings = json.loads((out / "summary.json").read_text())["warnings"]
    assert not any("uplifted harvest" in w for w in warnings)
