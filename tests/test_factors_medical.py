"""Drone-delivered AED network valuation (BF7)."""
from __future__ import annotations

import numpy as np
import pytest

from aamcba.factors.medical import (
    additional_survivors,
    life_saving_value_all_cases,
    ohca_count,
    survivors,
)

SURVIVAL_RATES = (0.123, 0.129, 0.133, 0.138, 0.140, 0.144)
COST_PER_SURVIVOR = (0.0, 14752.0, 31905.0, 55792.0, 73160.0, 76495.0)

ALL_CASES_REFERENCE = [
    0.0,
    150389141.76000005,
    250280637.75000054,
    374652392.4000008,
    423972720.6000004,
    523580782.7250002,
]


def test_ohca_count():
    assert ohca_count(3.9e6, 55.0) == pytest.approx(2145.0, rel=1e-15)


def test_survivor_ladder():
    counts = survivors(2145.0, SURVIVAL_RATES)
    assert counts[0] == pytest.approx(2145.0 * 0.123, rel=1e-15)
    added = additional_survivors(2145.0, SURVIVAL_RATES)
    assert added[0] == 0.0
    assert added[1] == pytest.approx(2145.0 * 0.006, rel=1e-9)
    assert np.all(np.diff(added) > 0)


def test_all_cases_reference_values():
    got = life_saving_value_all_cases(
        ohca_count(3.9e6, 55.0), 1.17e7, SURVIVAL_RATES, COST_PER_SURVIVOR
    )
    assert np.allclose(got, ALL_CASES_REFERENCE, rtol=1e-12, atol=0)


def _case_value(factor_value, case):
    constants = {
        "ohca_per_100k": 55.0,
        "DSN": [0, 10, 20, 30, 40, 50],
        "survival_rates": list(SURVIVAL_RATES),
        "CAS": list(COST_PER_SURVIVOR),
    }
    values = {"population": 3.9e6, "vsl": 1.17e7}
    return factor_value("BF7", constants, values, toggles={"bf7_case": case})


def test_baseline_case_is_worth_nothing(factor_value):
    assert _case_value(factor_value, 0) == 0.0


def test_single_case_selection(factor_value):
    got = _case_value(factor_value, 5)
    assert got == pytest.approx(ALL_CASES_REFERENCE[5], rel=1e-12)
