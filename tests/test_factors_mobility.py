"""Passenger time value (BF1) and safety cost reduction (BF2)."""
from __future__ import annotations

import pytest

from aamcba.factors.mobility import (
    air_miles_share,
    avoided_fatalities,
    hours_saved,
    vmt_local,
    vtts_scaled,
)


def test_vtts_scales_with_income():
    assert vtts_scaled(60000.0, 30000.0, 17.25) == pytest.approx(34.5, rel=1e-15)
    assert vtts_scaled(30000.0, 30000.0, 17.25) == 17.25


def test_passenger_time_value(factor_value):
    assert hours_saved(120.0, 50.0) == pytest.approx(100.0, rel=1e-15)
    # one million trips, 50 minutes each, $20/h
    constants = {"MHI_2015": 30000.0, "VTTS_2015": 20.0, "trip_time_saved_min": 50.0}
    values = {"mhi": 30000.0, "passenger_trips": 1e6}
    assert factor_value("BF1", constants, values) == pytest.approx(
        1e6 * 50.0 / 60.0 * 20.0, rel=1e-15
    )


def test_vmt_attribution():
    assert vmt_local(3.2e12, 3.2e8, 4.0e6) == pytest.approx(4.0e10, rel=1e-15)


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


def test_component_errors():
    assert avoided_fatalities(1e8, 0.6, 0.3) == pytest.approx(0.3, rel=1e-15)
    with pytest.raises(ValueError, match="local VMT must be positive"):
        air_miles_share(1e6, 50.0, 0.0)
