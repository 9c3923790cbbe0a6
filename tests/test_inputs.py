"""The input table, ``ingest.INPUTS``, describes exactly the bundled inputs.

Its constant rows are the constants that the nine factors read on the
bundled scenario, over every combination of the toggles other than drift;
its series rows are the bundled series, with the units of their ``unit:``
keys; each toggle's default is one of its allowed values; and validation
warns of the brackets in the table's order.
"""
from __future__ import annotations

import itertools

import pytest

from aamcba.engine import _ReadLog, _values_for_year, validate_scenario
from aamcba.factors import FACTORS, no_record
from aamcba.ingest import (
    INPUTS,
    Scenario,
    ScenarioError,
    default_scenario_path,
    input_names,
    read_yaml,
    scenario_from_dict,
)

#: The values of each toggle that a factor reads; bf7_case indexes the
#: bundled DSN's five network cases.
TOGGLE_VALUES = {
    "bf2_use_trip_miles": (False, True),
    "bf3_single_ratio": (False, True),
    "bf4_ci_sign": ("as_printed", "positive_extra_cost"),
    "bf6_incremental": (False, True),
    "bf6_matching_area": (True, False),
    "bf7_case": (1, 2, 3, 4, 5),
    "amortize_capex_years": (None, 5),
}


def _bundled_doc() -> dict:
    return read_yaml(default_scenario_path().read_text(encoding="utf-8"))


def test_constant_rows_are_the_constants_the_factors_read(default_scenario,
                                                          default_evaluation):
    assert set(TOGGLE_VALUES) == set(input_names("toggle")) - {
        "include_mean_when_differenced"}
    exogenous = sorted({"capex", "opex", *(n for f in FACTORS.values()
                                           for n in f.exogenous)})
    year = default_scenario.horizon_start
    values = _values_for_year(
        default_scenario, default_evaluation.forecasts, exogenous, year
    )["mean"]
    combinations = list(itertools.product(*TOGGLE_VALUES.values()))
    assert len(combinations) == 320
    read: set[str] = set()
    for combination in combinations:
        log = _ReadLog(default_scenario.with_overrides(
            toggles=dict(zip(TOGGLE_VALUES, combination))
        ))
        for factor in FACTORS.values():
            factor.evaluate(log, values, year, no_record)
        read |= set(log.read)
    rows = set(input_names("number")) | set(input_names("vector"))
    assert read == rows == set(default_scenario.constants)
    assert len(rows) == 70


def test_series_and_vector_rows_are_the_bundled_ones():
    doc = _bundled_doc()
    for kind in ("exogenous", "historical"):
        assert {name: spec["unit"] for name, spec in doc["series"][kind].items()} == {
            name: INPUTS[name].unit for name in input_names(kind)
        }
    vectors = {key for key, value in doc["constants"].items() if isinstance(value, list)}
    assert vectors == set(input_names("vector"))
    assert len(INPUTS) == 98


@pytest.mark.parametrize("key", input_names("toggle"))
def test_toggle_default_is_allowed(key):
    row = INPUTS[key]
    assert row.allows(row.default)
    assert Scenario("x", 2022, 2023, toggles={key: row.default}).toggle(key) == row.default


def test_series_unit_key_must_match_its_row():
    doc = {
        "horizon": {"start": 2022, "end": 2023},
        "series": {"exogenous": {
            "capex": {"start": 2022, "values": [1.0, 2.0], "unit": "USD/yr"},
            "opex": {"start": 2022, "values": [1.0, 2.0], "unit": "EUR/yr"},
        }},
    }
    with pytest.raises(
        ScenarioError, match=r"^series 'opex' unit must be 'USD/yr', got 'EUR/yr'$"
    ):
        scenario_from_dict(doc)
    doc["series"]["exogenous"]["opex"]["unit"] = "USD/yr"
    assert scenario_from_dict(doc).input_series["opex"].values == (1.0, 2.0)
    # a series that the table does not name is rejected, whatever its unit
    doc["series"]["exogenous"]["rides"] = {"start": 2022, "values": [1.0, 2.0],
                                           "unit": "rides"}
    with pytest.raises(ScenarioError, match=r"^scenario exogenous series 'rides' is unknown$"):
        scenario_from_dict(doc)


def test_magnitude_warnings_follow_the_table(default_scenario):
    outside = {
        "VTTS_2015": 150.0, "market_cagr": 2.0, "parcel_fraction": 1.5,
        "mpg_fleet": 200.0, "co2_share_of_ghg": 0.5, "evtol_cost_share": 1.5,
        "core_hours_share": 1.5, "reserve_fraction": 1.5,
    }
    assert [key for key, row in INPUTS.items() if row.bracket] == list(outside)
    scenario = default_scenario.with_overrides(constants=dict(reversed(outside.items())))
    warnings = [w for w in validate_scenario(scenario, ("BF8",)) if "expected range" in w]
    assert [w.split("'")[1] for w in warnings] == list(outside)
    assert warnings[0] == (
        "constant 'VTTS_2015'=150.0 is outside the expected range [2.0, 100.0]"
    )
