"""Bridge-inspection delay and cost arithmetic (BF5), checked against the
exact rational-number oracle in oracles.py."""
from __future__ import annotations

import pytest

from oracles import inspection_costs_exact

ALL_SNOOPER = "cost, all inspections by snooper truck ($)"
BY_DRONE = "cost, drone-capable share by drone ($)"
REMAINDER = "cost, remainder by snooper truck ($)"
SAVINGS = "inspection cost savings ($)"


def inspection_trace(factor_value, inspections=400.0, capable=200.0,
                     core_share=0.8):
    """BF5's trace by label, with 8- and 4-hour closures on 1200 vehicles
    per lane-hour, 10 minutes of delay each, priced at $20/h."""
    constants = {
        "VTTS_2015": 20.0, "MHI_2015": 30000.0,
        "heavy_inspections_per_year": inspections,
        "drone_capable_inspections": capable, "core_hours_share": core_share,
        "lane_closure_hours_traditional": 8.0, "lane_closure_hours_drone": 4.0,
        "traffic_per_lane_hour": 1200.0, "delay_min_per_vehicle": 10.0,
    }
    trace = {}
    factor_value("BF5", constants, {"mhi": 30000.0}, trace=trace)
    return trace


def test_core_rates(factor_value):
    trace = inspection_trace(factor_value, 1.0, 1.0, core_share=1.0)
    assert trace[ALL_SNOOPER] == 3143.0
    assert trace[BY_DRONE] == 522.0


# The published crew lines: (crew, hours, hourly rate, fringe, printed total).
SNOOPER_LABOR = ((3, 8.0, 37.0, 0.45, 854.0), (3, 8.0, 21.0, 0.45, 727.0))
DRONE_LABOR = ((2, 4.0, 37.0, 0.45, 427.0),)
SNOOPER_PAYROLL, SNOOPER_EQUIPMENT = 2018.0, 1125.0
DRONE_PAYROLL, DRONE_EQUIPMENT = 427.0, 95.0


def test_source_table_inconsistency_is_preserved(factor_value):
    # The published labor lines do not reproduce their own printed totals,
    # and the printed totals do not sum to the printed payroll either. The
    # payroll subtotal is canonical; this test pins the discrepancy so a
    # well-meaning "fix" cannot silently change every downstream figure.
    trace = inspection_trace(factor_value, 1.0, 1.0, core_share=1.0)
    assert trace[ALL_SNOOPER] == SNOOPER_PAYROLL + SNOOPER_EQUIPMENT
    assert trace[BY_DRONE] == DRONE_PAYROLL + DRONE_EQUIPMENT
    printed = sum(line[-1] for line in SNOOPER_LABOR)
    assert printed == 1581.0
    assert printed != SNOOPER_PAYROLL
    assert trace[ALL_SNOOPER] != printed + SNOOPER_EQUIPMENT
    for crew, hours, rate, fringe, printed_total in SNOOPER_LABOR + DRONE_LABOR:
        assert crew * hours * rate * (1.0 + fringe) != printed_total


def test_vehicles_delayed_and_delay_hours(factor_value):
    trace = inspection_trace(factor_value)
    assert trace["vehicles delayed, traditional closures"] == 3_840_000.0
    assert trace["vehicles delayed, drone-assisted closures"] == 1_920_000.0
    assert trace["vehicle delay hours avoided"] == pytest.approx(320_000.0, rel=1e-12)


def test_delay_time_value_prices_the_hours(factor_value):
    trace = inspection_trace(factor_value)
    assert trace["value of travel time ($/h)"] == 20.0
    assert trace["delay cost avoided ($)"] == pytest.approx(
        320_000.0 * 20.0, rel=1e-12
    )


def test_blended_cost(factor_value):
    # 80 inspections at the core rate, 20 at the off-hours rate
    trace = inspection_trace(factor_value, 100.0, 0.0)
    assert trace[ALL_SNOOPER] == pytest.approx(
        80.0 * 3143.0 + 20.0 * 4152.0, rel=1e-15
    )
    assert trace[BY_DRONE] == 0.0


def test_cost_savings_match_the_exact_oracle(factor_value):
    c1, c2, c3, cs = inspection_costs_exact()
    got = inspection_trace(factor_value)
    assert got[ALL_SNOOPER] == float(c1) == 1_337_920.0
    assert got[BY_DRONE] == float(c2) == 112_920.0
    assert got[REMAINDER] == float(c3) == 668_960.0
    assert got[SAVINGS] == float(cs) == 556_040.0


def test_cost_savings_scale_with_the_drone_share(factor_value):
    none = inspection_trace(factor_value, capable=0.0)
    assert none[SAVINGS] == pytest.approx(0.0, abs=1e-9)
    everything = inspection_trace(factor_value, capable=400.0)
    partial = inspection_trace(factor_value, capable=200.0)
    assert everything[SAVINGS] == pytest.approx(2.0 * partial[SAVINGS], rel=1e-12)
