"""Passenger travel-time value (BF-1) and safety cost reduction (BF-2).

The safety chain multiplies the share of local road miles replaced by air
trips with the avoided-fatality count, so the local VMT forecast cancels
algebraically; it is still computed stepwise so each link can be reported.
"""
from __future__ import annotations


def vtts_scaled(mhi: float, mhi_base: float, vtts_base: float) -> float:
    """Travel-time value re-scaled by median household income growth."""
    return mhi / mhi_base * vtts_base


def hours_saved(passenger_trips: float, minutes_saved_per_trip: float) -> float:
    """Total passenger-hours saved in a year."""
    return passenger_trips * minutes_saved_per_trip / 60.0


def vmt_local(vmt_us: float, us_population: float, population: float) -> float:
    """Local vehicle miles traveled, scaled from the national figure by population."""
    return vmt_us / us_population * population


def evtol_trips(passenger_trips: float, seats_per_vehicle: float) -> float:
    """Vehicle trips implied by passenger counts at full occupancy."""
    return passenger_trips / seats_per_vehicle


def avoided_fatalities(
    vmt: float, ground_rate_per_100m: float, air_rate_per_100m: float
) -> float:
    """Fatalities avoided if all local road miles moved to air transport."""
    return vmt / 1e8 * (ground_rate_per_100m - air_rate_per_100m)


def air_miles_share(trips: float, trip_miles: float, vmt: float) -> float:
    """Ratio of miles flown to local road miles."""
    if vmt <= 0:
        raise ValueError(f"local VMT must be positive, got {vmt}")
    return trips * trip_miles / vmt


def fatality_reduction(share: float, fatalities: float) -> float:
    """Expected fatality reduction given the realized air-travel share."""
    return share * fatalities
