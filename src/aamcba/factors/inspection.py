"""Bridge inspection by drone (BF-5): traffic delay savings and cost savings.

The per-inspection cost rates come from a published operational breakdown.
Its per-line labor figures do not reproduce their own printed subtotals
(the source table is internally inconsistent), so the printed payroll and
equipment subtotals are canonical here; the raw line items live only in the
tests, which pin the discrepancy.
"""
from __future__ import annotations

from dataclasses import dataclass

SNOOPER_PAYROLL = 2018.0
SNOOPER_EQUIPMENT = 1125.0
SNOOPER_RATE_OFFHOURS = 4152.0
DRONE_PAYROLL = 427.0
DRONE_EQUIPMENT = 95.0
DRONE_RATE_OFFHOURS = 735.0


def core_rate(payroll: float, equipment: float) -> float:
    """Core-hours cost rate per inspection: payroll plus equipment."""
    return payroll + equipment


def snooper_rate_core() -> float:
    return core_rate(SNOOPER_PAYROLL, SNOOPER_EQUIPMENT)


def drone_rate_core() -> float:
    return core_rate(DRONE_PAYROLL, DRONE_EQUIPMENT)


def vehicles_delayed(
    inspections: float, closure_hours: float, traffic_per_lane_hour: float
) -> float:
    """Vehicles caught by lane closures across a year of inspections."""
    return inspections * closure_hours * traffic_per_lane_hour


def delay_hours_saved(
    vehicles_traditional: float, vehicles_drone: float, delay_min_per_vehicle: float
) -> float:
    """Hours of traffic delay avoided by the shorter drone closures."""
    return (vehicles_traditional - vehicles_drone) * delay_min_per_vehicle / 60.0


def delay_time_value(
    hours: float, vtts: float, occupants_per_vehicle: float = 1.0
) -> float:
    """BF-5 delay branch: avoided delay hours priced at the travel-time value."""
    return hours * occupants_per_vehicle * vtts


def blended_inspection_cost(
    count: float, core_share: float, rate_core: float, rate_offhours: float
) -> float:
    """Annual cost of ``count`` inspections split across core and off hours."""
    core_count = count * core_share
    return core_count * rate_core + (count - core_count) * rate_offhours


@dataclass(frozen=True)
class InspectionCostSavings:
    """The three annual cost lines and the savings they net to."""

    all_snooper: float        # every inspection by snooper truck
    drone_share: float        # the drone-capable half done by drone
    snooper_share: float      # the remaining half still by snooper
    savings: float


def inspection_cost_savings(
    inspections: float,
    drone_capable: float,
    core_share: float,
    snooper_core: float | None = None,
    snooper_offhours: float | None = None,
    drone_core: float | None = None,
    drone_offhours: float | None = None,
) -> InspectionCostSavings:
    """BF-5 cost branch: status-quo cost minus the mixed drone/snooper cost."""
    sc = snooper_rate_core() if snooper_core is None else snooper_core
    so = SNOOPER_RATE_OFFHOURS if snooper_offhours is None else snooper_offhours
    dc = drone_rate_core() if drone_core is None else drone_core
    do = DRONE_RATE_OFFHOURS if drone_offhours is None else drone_offhours
    all_snooper = blended_inspection_cost(inspections, core_share, sc, so)
    by_drone = blended_inspection_cost(drone_capable, core_share, dc, do)
    remaining = blended_inspection_cost(inspections - drone_capable, core_share, sc, so)
    return InspectionCostSavings(
        all_snooper=all_snooper,
        drone_share=by_drone,
        snooper_share=remaining,
        savings=all_snooper - (by_drone + remaining),
    )
