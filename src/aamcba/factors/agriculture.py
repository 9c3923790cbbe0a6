"""Drones in crop and livestock farming (BF-6).

Values are damped by the adoption share: the fraction of farms with the
revenue base to take the technology on. The printed production equation
values the whole uplifted harvest, not just the increment; the incremental
reading is available behind a flag and is roughly forty times smaller.
"""
from __future__ import annotations


def adoption_share(farms_adopting: float, farms_total: float) -> float:
    return farms_adopting / farms_total


def crop_production_value(
    yield_per_acre: float,
    uplift: float,
    area_acres: float,
    price: float,
    share: float,
    incremental_only: bool = False,
) -> float:
    """Value of the (uplifted) production of one crop.

    As printed: (yield + yield*uplift) * area * price * share. With
    ``incremental_only`` the base harvest drops out and only the extra
    bushels are valued.
    """
    if incremental_only:
        production = yield_per_acre * uplift * area_acres
    else:
        production = (yield_per_acre + yield_per_acre * uplift) * area_acres
    return production * price * share


def crop_cost_savings(
    area_acres: float, savings_per_acre: float, share: float
) -> float:
    """Input-cost savings from drone spraying/scouting on one crop's area."""
    return area_acres * savings_per_acre * share


def livestock_savings_per_head(
    hours_saved_hill: float,
    hours_saved_grassland: float,
    labor_rate: float,
    herd_size: float,
) -> float:
    """Per-animal labor savings from the published monitoring case study."""
    return (hours_saved_hill + hours_saved_grassland) * labor_rate / herd_size


def livestock_savings(per_head: float, livestock_count: float, share: float) -> float:
    """BF-6 livestock branch: per-head savings across the adopted herd."""
    return per_head * livestock_count * share
