"""Passenger time value (BF1) and safety cost reduction (BF2)."""
from __future__ import annotations

import pytest

PASSENGER_CONSTANTS = {
    "MHI_2015": 30000.0, "VTTS_2015": 17.25, "trip_time_saved_min": 50.0,
}


def test_vtts_scales_with_income(factor_value):
    vtts = "value of travel time, income-scaled ($/h)"
    richer = {}
    factor_value("BF1", PASSENGER_CONSTANTS,
                 {"mhi": 60000.0, "passenger_trips": 1.0}, trace=richer)
    assert richer[vtts] == pytest.approx(34.5, rel=1e-15)
    same = {}
    factor_value("BF1", PASSENGER_CONSTANTS,
                 {"mhi": 30000.0, "passenger_trips": 1.0}, trace=same)
    assert same[vtts] == 17.25


def test_passenger_time_value(factor_value):
    trace = {}
    factor_value("BF1", PASSENGER_CONSTANTS,
                 {"mhi": 30000.0, "passenger_trips": 120.0}, trace=trace)
    assert trace["passenger hours saved"] == pytest.approx(100.0, rel=1e-15)
    # one million trips, 50 minutes each, $20/h
    constants = {"MHI_2015": 30000.0, "VTTS_2015": 20.0, "trip_time_saved_min": 50.0}
    values = {"mhi": 30000.0, "passenger_trips": 1e6}
    assert factor_value("BF1", constants, values) == pytest.approx(
        1e6 * 50.0 / 60.0 * 20.0, rel=1e-15
    )


SAFETY_CONSTANTS = {
    "trip_distance_miles": 50.0,
    "ground_fatality_per_100m_miles": 0.6,
    "air_fatality_per_100m_miles": 0.3,
}


def _safety_values(**overrides):
    values = dict(
        passenger_trips=1e6, vmt_us=3.2e12, us_population=3.33e8,
        population=3.9e6, vsl=1.17e7,
    )
    values.update(overrides)
    return values


def test_vmt_attribution(factor_value):
    trace = {}
    factor_value("BF2", SAFETY_CONSTANTS,
                 _safety_values(us_population=3.2e8, population=4.0e6), trace=trace)
    assert trace["local road miles, population-scaled (mi)"] == pytest.approx(
        4.0e10, rel=1e-15
    )


def test_safety_value_closed_form(factor_value):
    # the local-VMT term cancels: value = trips*miles*(g-a)*VSL / 1e8
    got = factor_value("BF2", SAFETY_CONSTANTS, _safety_values())
    assert got == pytest.approx(1_755_000.0, rel=1e-9)


def test_safety_value_is_invariant_to_the_vmt_inputs(factor_value):
    a = factor_value("BF2", SAFETY_CONSTANTS,
                     _safety_values(passenger_trips=2.5e5, vmt_us=3.2e12))
    b = factor_value("BF2", SAFETY_CONSTANTS,
                     _safety_values(passenger_trips=2.5e5, vmt_us=9.9e12))
    assert a == pytest.approx(b, rel=1e-12)


def test_safety_value_trip_count_mode_divides_by_seats(factor_value):
    passengers = factor_value("BF2", SAFETY_CONSTANTS, _safety_values())
    vehicles = factor_value(
        "BF2", {**SAFETY_CONSTANTS, "seats_per_evtol": 4.0}, _safety_values(),
        toggles={"bf2_use_trip_miles": True},
    )
    assert vehicles == pytest.approx(passengers / 4.0, rel=1e-12)


def test_component_errors(factor_value):
    trace = {}
    factor_value("BF2", SAFETY_CONSTANTS,
                 _safety_values(vmt_us=1e8, us_population=1.0, population=1.0),
                 trace=trace)
    assert trace["fatalities avoided at full substitution"] == pytest.approx(
        0.3, rel=1e-15
    )
    with pytest.raises(ValueError, match="local VMT must be positive"):
        factor_value("BF2", SAFETY_CONSTANTS, _safety_values(vmt_us=0.0))
