"""Bridge-inspection delay and cost arithmetic, checked against the exact
rational-number oracle in oracles.py."""
from __future__ import annotations

import pytest

from aamcba.factors.inspection import (
    DRONE_PAYROLL,
    SNOOPER_PAYROLL,
    blended_inspection_cost,
    delay_hours_saved,
    delay_time_value,
    drone_rate_core,
    inspection_cost_savings,
    snooper_rate_core,
    vehicles_delayed,
)

from oracles import inspection_costs_exact


def test_core_rates():
    assert snooper_rate_core() == 3143.0
    assert drone_rate_core() == 522.0


# The published crew lines: (crew, hours, hourly rate, fringe, printed total).
SNOOPER_LABOR = ((3, 8.0, 37.0, 0.45, 854.0), (3, 8.0, 21.0, 0.45, 727.0))
DRONE_LABOR = ((2, 4.0, 37.0, 0.45, 427.0),)


def test_source_table_inconsistency_is_preserved():
    # The published labor lines do not reproduce their own printed totals,
    # and the printed totals do not sum to the printed payroll either. The
    # payroll subtotal is canonical; this test pins the discrepancy so a
    # well-meaning "fix" cannot silently change every downstream figure.
    assert (SNOOPER_PAYROLL, DRONE_PAYROLL) == (2018.0, 427.0)
    printed = sum(line[-1] for line in SNOOPER_LABOR)
    assert printed == 1581.0
    assert printed != SNOOPER_PAYROLL
    for crew, hours, rate, fringe, printed_total in SNOOPER_LABOR + DRONE_LABOR:
        assert crew * hours * rate * (1.0 + fringe) != printed_total


def test_vehicles_delayed_and_delay_hours():
    assert vehicles_delayed(400.0, 8.0, 1200.0) == 3_840_000.0
    assert vehicles_delayed(400.0, 4.0, 1200.0) == 1_920_000.0
    hours = delay_hours_saved(3_840_000.0, 1_920_000.0, 10.0)
    assert hours == pytest.approx(320_000.0, rel=1e-12)


def test_delay_time_value_prices_the_hours():
    value = delay_time_value(320_000.0, vtts=20.0)
    assert value == pytest.approx(320_000.0 * 20.0, rel=1e-12)
    doubled = delay_time_value(320_000.0, vtts=20.0, occupants_per_vehicle=2.0)
    assert doubled == pytest.approx(2.0 * value, rel=1e-12)


def test_blended_cost():
    assert blended_inspection_cost(100.0, 0.8, 10.0, 20.0) == pytest.approx(
        1200.0, rel=1e-15
    )


def test_cost_savings_match_the_exact_oracle():
    c1, c2, c3, cs = inspection_costs_exact()
    got = inspection_cost_savings(400.0, 200.0, 0.8)
    assert got.all_snooper == float(c1) == 1_337_920.0
    assert got.drone_share == float(c2) == 112_920.0
    assert got.snooper_share == float(c3) == 668_960.0
    assert got.savings == float(cs) == 556_040.0


def test_cost_savings_scale_with_the_drone_share():
    none = inspection_cost_savings(400.0, 0.0, 0.8)
    assert none.savings == pytest.approx(0.0, abs=1e-9)
    everything = inspection_cost_savings(400.0, 400.0, 0.8)
    partial = inspection_cost_savings(400.0, 200.0, 0.8)
    assert everything.savings == pytest.approx(2.0 * partial.savings, rel=1e-12)
