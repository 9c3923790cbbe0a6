"""Shared fixtures: the bundled scenario, one evaluation of it, and a
single-factor evaluation on hand-set inputs."""
from __future__ import annotations

import pytest

from aamcba.engine import evaluate
from aamcba.factors import FACTORS
from aamcba.ingest import Scenario, default_scenario_path, load_scenario


@pytest.fixture(scope="session")
def default_scenario():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def default_evaluation(default_scenario):
    return evaluate(default_scenario)


@pytest.fixture(scope="session")
def factor_value():
    """Evaluate one factor in ``year`` (by default 2022, the first horizon
    year) on hand-set constants and series values. ``trace`` collects every
    recorded step by the label ``explain`` prints, ``items`` the tagged
    entries by item name."""

    def value(factor_id, constants, values, toggles=None, items=None,
              trace=None, year=2022):
        scenario = Scenario("hand-set", 2022, max(year, 2022),
                            constants=constants, toggles=toggles or {})

        def rec(label, entry, item=None):
            if trace is not None:
                trace[label] = entry
            if item is not None and items is not None:
                items[item] = entry
            return entry

        return FACTORS[factor_id].evaluate(scenario, values, year, rec)

    return value
