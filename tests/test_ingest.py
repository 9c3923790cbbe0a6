"""Scenario documents, series parsing, and validation."""
from __future__ import annotations

import pytest
import yaml

from aamcba.engine import evaluate, validate_scenario
from aamcba.factors import FACTOR_IDS
from aamcba.ingest import (
    Scenario,
    ScenarioError,
    TimeSeries,
    check_horizon_domain,
    default_scenario_path,
    load_scenario,
    load_series,
    read_yaml,
    scenario_from_dict,
)


def _replace(s: Scenario, **changes) -> Scenario:
    """A copy of scenario ``s`` built by its constructor, with ``changes``."""
    fields = {name: getattr(s, name) for name in Scenario.__slots__}
    return Scenario(**{**fields, **changes})


def test_bundled_scenario_loads_clean(default_scenario):
    s = default_scenario
    assert default_scenario_path().is_file()
    assert s.name == "ohio-baseline"
    assert s.horizon_years == tuple(range(2022, 2033))
    # the income anchor must equal the historical series at its base year
    assert s.constant("MHI_2015") == s.historical_series["mhi"].value_at(2015)
    assert validate_scenario(s) == []


def test_yaml_loader_reads_bundled_scenario_like_safe_load():
    text = default_scenario_path().read_text(encoding="utf-8")
    assert read_yaml(text) == yaml.safe_load(text)


def test_time_series_invariants():
    ts = TimeSeries("x", (2000, 2001, 2002), (1.0, 2.0, 3.0))
    assert ts.first_year == 2000
    assert ts.last_year == 2002
    assert ts.value_at(2001) == 2.0
    assert ts.values == (1.0, 2.0, 3.0)
    with pytest.raises(ScenarioError, match="is empty"):
        TimeSeries("x", (), ())
    with pytest.raises(ScenarioError, match="has 2 years but 3 values"):
        TimeSeries("x", (2000, 2001), (1.0, 2.0, 3.0))
    with pytest.raises(ScenarioError, match="years must step by 1"):
        TimeSeries("x", (2000, 2002), (1.0, 2.0))
    with pytest.raises(ScenarioError, match="'x' value for 2001 must be finite, got inf"):
        TimeSeries("x", (2000, 2001), (1.0, float("inf")))
    with pytest.raises(ScenarioError, match="'x' value for 2001 must be a number, got True"):
        TimeSeries("x", (2000, 2001), (1.0, True))
    with pytest.raises(ScenarioError, match="no value for year 1999"):
        ts.value_at(1999)


def test_load_series_happy_path(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(
        "# annual demand\n"
        "year,riders\n"
        "2000,10.5\n"
        "2001,11\n"
        "2002,12.25\n"
    )
    ts = load_series(path)
    assert ts.name == "demand"
    assert ts.years == (2000, 2001, 2002)
    assert ts.values == (10.5, 11.0, 12.25)


def test_load_series_plain_header_has_no_unit(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("year,value\n2000,1\n2001,2\n")
    assert load_series(path).values == (1.0, 2.0)


def test_load_series_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(ScenarioError, match="series file not found"):
        load_series(missing)

    def write(content):
        p = tmp_path / "bad.csv"
        p.write_text(content)
        return p

    with pytest.raises(ScenarioError, match="expected 2 columns"):
        load_series(write("2000,1,9\n"))
    with pytest.raises(ScenarioError,
                       match="series 'bad' value for 2001 must be a number, got 'abc'"):
        load_series(write("2000,1\n2001,abc\n"))
    with pytest.raises(ScenarioError, match="years must step by 1, got 2000 followed by 2000"):
        load_series(write("2000,1\n2000,2\n"))
    with pytest.raises(ScenarioError, match="years must step by 1, got 2000 followed by 2002"):
        load_series(write("2000,1\n2002,2\n"))
    with pytest.raises(ScenarioError, match="no data rows"):
        load_series(write("year,value\n"))
    with pytest.raises(ScenarioError, match="bad.csv:2: year must be an integer, got 2001.5"):
        load_series(write("2000,1\n2001.5,2\n"))
    with pytest.raises(ScenarioError, match="bad.csv:2: year must be finite, got '1e400'"):
        load_series(write("2000,1\n1e400,2\n"))
    # only the first row may be a header: a typo'd year after it is named
    with pytest.raises(ScenarioError, match="bad.csv:2: year must be a number, got 'year two'"):
        load_series(write("year,value\nyear two,7\n20O1,5\n2002,6\n"))
    assert load_series(write("2000.0,1\n2001,2\n")).years == (2000, 2001)


def _minimal_doc() -> dict:
    return {
        "name": "mini",
        "horizon": {"start": 2022, "end": 2024},
        "series": {
            "exogenous": {
                "capex": {"start": 2022, "values": [3.0, 2.0, 1.0]},
                "opex": {2022: 1.0, 2023: 1.5, 2024: 2.0},
            },
        },
    }


def test_scenario_from_dict_series_forms(tmp_path):
    csv_path = tmp_path / "pax.csv"
    csv_path.write_text("2022,5\n2023,6\n2024,7\n")
    doc = _minimal_doc()
    doc["series"]["exogenous"]["passenger_trips"] = {
        "file": "pax.csv", "unit": "trips/yr",
    }
    s = scenario_from_dict(doc, base_dir=tmp_path)
    assert s.input_series["capex"].values == (3.0, 2.0, 1.0)
    assert s.input_series["opex"].years == (2022, 2023, 2024)
    pax = s.input_series["passenger_trips"]
    assert pax.values == (5.0, 6.0, 7.0)
    # a JSON object's keys are strings, so a year key may be one
    doc["series"]["exogenous"]["opex"] = {"2023": 1.5, "2022": 1.0, "2024": 2.0}
    opex = scenario_from_dict(doc, base_dir=tmp_path).input_series["opex"]
    assert (opex.years, opex.values) == ((2022, 2023, 2024), (1.0, 1.5, 2.0))


def test_scenario_from_dict_errors():
    with pytest.raises(ScenarioError, match="scenario needs horizon"):
        scenario_from_dict({"name": "x"})
    doc = _minimal_doc()
    doc["series"]["extra"] = {}
    with pytest.raises(ScenarioError, match="subsections must be"):
        scenario_from_dict(doc)
    doc = _minimal_doc()
    doc["series"]["exogenous"]["bad"] = {"values": [1.0, 2.0]}
    with pytest.raises(ScenarioError, match="with 'values' needs 'start'"):
        scenario_from_dict(doc)
    doc = _minimal_doc()
    doc["series"]["exogenous"]["bad"] = {"kind": "mystery"}
    with pytest.raises(ScenarioError, match="must map years to numbers"):
        scenario_from_dict(doc)
    doc = _minimal_doc()
    doc["series"]["exogenous"]["opex"] = {2022.5: 1.0, 2023: 1.5, 2024: 2.0}
    with pytest.raises(ScenarioError, match="series 'opex' must map years to numbers"):
        scenario_from_dict(doc)
    doc["series"]["exogenous"]["opex"] = {"2022.5": 1.0, "2023": 1.5}
    with pytest.raises(ScenarioError, match="series 'opex' must map years to numbers"):
        scenario_from_dict(doc)
    doc = _minimal_doc()
    doc["orders"] = {"mhi": [1, 2]}
    with pytest.raises(ScenarioError, match=r"must be a \[p, d, q\] triple"):
        scenario_from_dict(doc)


def test_scenario_construction_guards():
    with pytest.raises(ScenarioError, match="horizon end 2020 precedes start"):
        Scenario(name="x", horizon_start=2022, horizon_end=2020)
    with pytest.raises(ScenarioError, match=(
        r"^unknown toggles: \['definitely_not_a_toggle'\]; "
        "valid: amortize_capex_years, bf2_use_trip_miles, "
    )):
        Scenario(
            name="x", horizon_start=2022, horizon_end=2023,
            toggles={"definitely_not_a_toggle": True},
        )
    # the constructor reads what a loaded scenario's document would give it
    with pytest.raises(ScenarioError, match=r"^horizon start must be an integer, got '2022'$"):
        Scenario(name="x", horizon_start="2022", horizon_end=2023)
    with pytest.raises(
        ScenarioError, match=r"^constant 'co2_share_of_ghg' must be in \(0, 1\], got 2\.0$"
    ):
        Scenario(name="x", horizon_start=2022, horizon_end=2023,
                 constants={"co2_share_of_ghg": 2.0})
    with pytest.raises(ScenarioError, match=r"^scenario constant 'VTTS_2105' is unknown$"):
        Scenario(name="x", horizon_start=2022, horizon_end=2023,
                 constants={"VTTS_2015": 17.25, "VTTS_2105": 17.25})
    with pytest.raises(ScenarioError, match=r"^unknown toggles: \['VTTS_2015'\]; "):
        Scenario(name="x", horizon_start=2022, horizon_end=2023,
                 toggles={"VTTS_2015": 17.25})
    with pytest.raises(
        ScenarioError, match=r"^toggle bf7_case must be a positive integer, got 'banana'$"
    ):
        Scenario(name="x", horizon_start=2022, horizon_end=2023,
                 toggles={"bf7_case": "banana"})


def test_scenario_accessors(default_scenario):
    s = default_scenario
    with pytest.raises(ScenarioError, match="constant 'no_such' is missing"):
        s.constant("no_such")
    assert s.toggle("bf7_case") == 5  # default applies when unset


def test_with_overrides_is_a_copy(default_scenario):
    s = default_scenario
    changed = s.with_overrides(
        constants={"VTTS_2015": 20.0}, toggles={"bf7_case": 3}
    )
    assert changed.constant("VTTS_2015") == 20.0
    assert changed.toggle("bf7_case") == 3
    assert s.constant("VTTS_2015") != 20.0
    assert s.toggle("bf7_case") == 5
    with pytest.raises(ScenarioError, match=r"^constant 'co2_share_of_ghg' must be in \(0, 1\]"):
        s.with_overrides(constants={"co2_share_of_ghg": 2.0})


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError, match="scenario file not found"):
        load_scenario(tmp_path / "nope.yaml")
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="must be a mapping"):
        load_scenario(listy)


@pytest.mark.parametrize("key, value", [
    ("VTTS_2015", float("nan")),
    ("market_cagr", float("inf")),
    ("DSN", [0.0, 50.0, float("-inf")]),
])
def test_non_finite_constant_is_rejected(key, value):
    doc = yaml.safe_load(default_scenario_path().read_text(encoding="utf-8"))
    doc["constants"][key] = value
    with pytest.raises(ScenarioError, match=f"constant '{key}' must be finite"):
        scenario_from_dict(doc)


def test_validate_missing_constant(default_scenario):
    s = default_scenario
    trimmed = _replace(
        s, constants={k: v for k, v in s.constants.items() if k != "VTTS_2015"}
    )
    with pytest.raises(
        ScenarioError, match="^scenario constant 'VTTS_2015' is missing$"
    ):
        evaluate(trimmed, ("BF1",))


def test_horizon_domain_check_reads_the_horizon_years(default_scenario):
    # A forecast band starts the year after its series ends, which may lie
    # before the horizon; only the horizon years are checked.
    years = tuple(range(2020, 2033))
    values = (-1.0, -1.0) + (1.0,) * 10 + (0.0,)
    check_horizon_domain(default_scenario, "passenger_trips", years, values, "no domain")
    with pytest.raises(
        ScenarioError, match=r"^'vmt_us' in 2032 must be greater than 0, got 0\.0$"
    ):
        check_horizon_domain(default_scenario, "vmt_us", years, values, "'vmt_us'")


def test_validate_exogenous_coverage(default_scenario):
    stretched = _replace(default_scenario, horizon_end=2040)
    with pytest.raises(ScenarioError, match="does not cover year 2033"):
        validate_scenario(stretched, ("BF1",))


def test_validate_missing_series(default_scenario):
    s = default_scenario
    for kind, name, factor, needed_by in (
        ("exogenous", "passenger_trips", "BF1", "BF1"),
        ("exogenous", "capex", "BF8", "costs"),
        ("historical", "mhi", "BF1", "BF1"),
    ):
        section = "input_series" if kind == "exogenous" else "historical_series"
        kept = {k: v for k, v in getattr(s, section).items() if k != name}
        with pytest.raises(ScenarioError, match=(
            f"^{kind} series '{name}' is required by {needed_by} but missing$"
        )):
            validate_scenario(_replace(s, **{section: kept}), (factor,))


def test_validate_historical_reaches_into_horizon(default_scenario):
    s = default_scenario
    overlong = TimeSeries(
        "mhi", tuple(range(2010, 2023)), tuple(float(v) for v in range(13))
    )
    crossed = _replace(
        s, historical_series={**s.historical_series, "mhi": overlong}
    )
    with pytest.raises(
        ScenarioError, match="extends to 2022, into the forecast horizon"
    ):
        validate_scenario(crossed, ("BF1",))


def test_validate_historical_too_short(default_scenario):
    s = default_scenario
    stub = TimeSeries("mhi", tuple(range(2015, 2022)), tuple(range(7)))
    shortened = _replace(
        s, historical_series={**s.historical_series, "mhi": stub}
    )
    with pytest.raises(ScenarioError, match="has 7 points; at least 8"):
        validate_scenario(shortened, ("BF1",))


def test_validate_unknown_factor(default_scenario):
    with pytest.raises(ScenarioError, match=r"unknown benefit factors: \['BF77'\]"):
        validate_scenario(default_scenario, ("BF77",))


def test_validate_medical_ladder(default_scenario):
    s = default_scenario
    with pytest.raises(ScenarioError, match="lengths differ"):
        validate_scenario(
            s.with_overrides(constants={"DSN": (0.0, 50.0)}), ("BF7",)
        )
    with pytest.raises(ScenarioError, match="at least 2 entries"):
        validate_scenario(
            s.with_overrides(
                constants={
                    "DSN": (0.0,), "survival_rates": (0.1,), "CAS": (0.0,),
                }
            ),
            ("BF7",),
        )
    with pytest.raises(ScenarioError, match="DSN must start at 0"):
        validate_scenario(
            s.with_overrides(
                constants={
                    "DSN": (5.0, 50.0, 200.0, 500.0, 750.0, 1015.0),
                }
            ),
            ("BF7",),
        )
    with pytest.raises(ScenarioError, match="bf7_case must be an integer in 1..5"):
        validate_scenario(s.with_overrides(toggles={"bf7_case": 9}), ("BF7",))


def test_validate_toggle_values(default_scenario):
    s = default_scenario
    with pytest.raises(ScenarioError, match="bf4_ci_sign must be"):
        validate_scenario(s.with_overrides(toggles={"bf4_ci_sign": "upside"}))
    with pytest.raises(ScenarioError, match="amortize_capex_years"):
        validate_scenario(
            s.with_overrides(toggles={"amortize_capex_years": 0})
        )
    # a positive integer is fine
    assert validate_scenario(
        s.with_overrides(toggles={"amortize_capex_years": 4})
    ) == []


def test_validate_warnings(default_scenario):
    s = default_scenario
    crossed = s.with_overrides(constants={"air_fatality_per_100m_miles": 0.7})
    warnings = validate_scenario(crossed, ("BF2",))
    assert any("is not below ground rate" in w for w in warnings)

    ladder = s.with_overrides(constants={
        "DSN": (0.0, 50.0, 200.0, 150.0, 750.0, 1015.0),
        "survival_rates": (0.123, 0.129, 0.133, 0.138, 0.130, 0.144),
    })
    assert validate_scenario(ladder, ("BF7",)) == [
        "survival_rates are not non-decreasing across DSN cases",
        "DSN station counts are not non-decreasing",
    ]

    dubious = s.with_overrides(constants={"mpg_fleet": 1.0})
    warnings = validate_scenario(dubious, ("BF9",))
    assert any("outside the expected range" in w for w in warnings)

    negative = _replace(
        s,
        input_series={
            **s.input_series,
            "capex": TimeSeries(
                "capex", tuple(range(2022, 2033)), tuple([-1.0] * 11)
            ),
        },
    )
    warnings = validate_scenario(negative, ("BF8",))
    assert any("'capex' has negative entries" in w for w in warnings)


def test_factor_ids_are_canonical():
    assert FACTOR_IDS == tuple(f"BF{i}" for i in range(1, 10))
