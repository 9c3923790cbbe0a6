"""Shared fixtures: the bundled scenario, one evaluation of it, and a
single-factor evaluation on hand-set inputs."""
from __future__ import annotations

import pytest

from aamcba.engine import evaluate
from aamcba.factors import FACTORS
from aamcba.ingest import INPUTS, default_scenario_path, load_scenario


@pytest.fixture(scope="session")
def default_scenario():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def default_evaluation(default_scenario):
    return evaluate(default_scenario)


class _HandSet:
    """The part of a scenario that a factor's evaluation reads, unchecked, so
    that a test can probe the arithmetic outside the inputs' domains."""

    horizon_start = 2022

    def __init__(self, constants, toggles):
        self.constants, self.toggles = constants, toggles

    def constant(self, key):
        return self.constants[key]

    def toggle(self, key):
        return self.toggles.get(key, INPUTS[key].default)


@pytest.fixture(scope="session")
def factor_value():
    """Evaluate one factor in ``year`` (by default 2022, the first horizon
    year) on hand-set constants and series values. ``trace`` collects every
    recorded step by the label ``explain`` prints, ``items`` the tagged
    entries by item name."""

    def value(factor_id, constants, values, toggles=None, items=None,
              trace=None, year=2022):
        scenario = _HandSet(constants, toggles or {})

        def rec(label, entry, item=None):
            if trace is not None:
                trace[label] = entry
            if item is not None and items is not None:
                items[item] = entry
            return entry

        return FACTORS[factor_id].evaluate(scenario, values, year, rec)

    return value
