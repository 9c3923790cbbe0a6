"""The factor table declares exactly the inputs each factor reads, and each
factor's arithmetic runs on any number type.

For every factor, at default toggles and with each toggle it reads flipped
in turn, the bundled scenario is cut down to the factor's declared
constants and series. ``evaluate`` must succeed on what is left, and one
evaluation of the factor must read every declared input.
"""
from __future__ import annotations

import numpy as np
import pytest

from aamcba.engine import _values_for_year, evaluate
from aamcba.factors import FACTORS, no_record
from aamcba.ingest import Scenario

#: A non-default value for every toggle a factor may read.
FLIPPED = {
    "bf2_use_trip_miles": True,
    "bf3_single_ratio": True,
    "bf4_ci_sign": "positive_extra_cost",
    "bf6_incremental": True,
    "bf6_matching_area": False,
    "bf7_case": 3,
    "amortize_capex_years": 5,
}


def _replace(s: Scenario, **changes) -> Scenario:
    """A copy of scenario ``s`` built by its constructor, with ``changes``."""
    fields = {name: getattr(s, name) for name in Scenario.__slots__}
    return Scenario(**{**fields, **changes})


class _ReadLog:
    """A scenario stand-in that logs the constants and toggles read."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.horizon_start = scenario.horizon_start
        self.constants_read: set[str] = set()
        self.toggles_read: set[str] = set()

    def constant(self, key):
        self.constants_read.add(key)
        return self.scenario.constant(key)

    def toggle(self, key):
        self.toggles_read.add(key)
        return self.scenario.toggle(key)


class _ValueLog(dict):
    def __init__(self, values):
        super().__init__(values)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _reads(default_scenario, factor, toggles):
    """Evaluate ``factor`` on the declared inputs alone; return what one
    evaluation read and the toggles it consulted."""
    full = default_scenario.with_overrides(toggles=toggles)
    constants = factor.required_constants(full)
    exogenous = (*factor.exogenous, "capex", "opex")
    cut = _replace(
        full,
        constants={k: full.constants[k] for k in constants},
        input_series={k: full.input_series[k] for k in exogenous},
        historical_series={k: full.historical_series[k] for k in factor.historical},
        orders={},
    )
    result = evaluate(cut, (factor.id,))
    year = cut.horizon_start
    log = _ReadLog(cut)
    values = _ValueLog(
        _values_for_year(cut, result.forecasts, exogenous, year)["mean"]
    )
    factor.evaluate(log, values, year, no_record)
    assert log.constants_read == set(constants)
    assert values.read == set(factor.exogenous) | set(factor.historical)
    return log.toggles_read


@pytest.mark.parametrize("factor_id", list(FACTORS))
def test_declared_inputs_are_what_the_factor_reads(default_scenario, factor_id):
    factor = FACTORS[factor_id]
    read = _reads(default_scenario, factor, {})
    for toggle in sorted(read):
        assert _reads(default_scenario, factor, {toggle: FLIPPED[toggle]}) == read


@pytest.mark.parametrize("toggles", [{}, FLIPPED], ids=["default", "flipped"])
def test_factors_evaluate_the_channels_as_one_array(default_scenario, toggles):
    # Each input as a numpy array of its lower, mean and upper channel
    # values: one evaluation gives, bit for bit, the three per-channel
    # float evaluations.
    scenario = default_scenario.with_overrides(toggles=toggles)
    result = evaluate(scenario)
    exogenous = sorted({"capex", "opex", *(n for f in FACTORS.values()
                                           for n in f.exogenous)})
    for year in scenario.horizon_years:
        channels = _values_for_year(scenario, result.forecasts, exogenous, year)
        arrays = {
            name: np.array([values[name] for values in channels.values()])
            for name in channels["mean"]
        }
        for factor in FACTORS.values():
            got = factor.evaluate(scenario, arrays, year, no_record)
            want = [
                factor.evaluate(scenario, values, year, no_record)
                for values in channels.values()
            ]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], (
                factor.id, year,
            )
