"""Drone-delivered AED network valuation (BF7)."""
from __future__ import annotations

import numpy as np
import pytest

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


def _case_value(factor_value, case, vsl=1.17e7, cost=COST_PER_SURVIVOR,
                trace=None, items=None):
    constants = {
        "ohca_per_100k": 55.0,
        "DSN": [0, 10, 20, 30, 40, 50],
        "survival_rates": list(SURVIVAL_RATES),
        "CAS": list(cost),
    }
    values = {"population": 3.9e6, "vsl": vsl}
    return factor_value("BF7", constants, values, {"bf7_case": case},
                        items, trace)


def test_ohca_count(factor_value):
    trace = {}
    _case_value(factor_value, 5, trace=trace)
    assert trace["cardiac arrests expected"] == pytest.approx(2145.0, rel=1e-15)


def test_survivor_ladder(factor_value):
    # at a net value of $1 per survivor, each case's value is its survivors
    # beyond the no-drone baseline
    items = {}
    baseline = _case_value(factor_value, 0, vsl=1.0, cost=[0.0] * 6, items=items)
    assert baseline == 0.0
    added = [items[f"stations_{count}"] for count in (10, 20, 30, 40, 50)]
    assert added[0] == pytest.approx(2145.0 * 0.006, rel=1e-9)
    assert np.all(np.diff([baseline, *added]) > 0)


def test_all_cases_reference_values(factor_value):
    items = {}
    got = [_case_value(factor_value, 0, items=items)]
    got += [items[f"stations_{count}"] for count in (10, 20, 30, 40, 50)]
    assert np.allclose(got, ALL_CASES_REFERENCE, rtol=1e-12, atol=0)


def test_baseline_case_is_worth_nothing(factor_value):
    assert _case_value(factor_value, 0) == 0.0


def test_single_case_selection(factor_value):
    got = _case_value(factor_value, 5)
    assert got == pytest.approx(ALL_CASES_REFERENCE[5], rel=1e-12)
