"""Drone-delivered AED response to cardiac arrest (BF-7).

A ladder of network build-outs (station counts) maps to published survival
rates and per-survivor network costs. Case 0 is the no-drone baseline, so
its incremental value is zero by construction; the operative case is chosen
per scenario.
"""
from __future__ import annotations


def ohca_count(population: float, rate_per_100k: float) -> float:
    """Expected out-of-hospital cardiac arrests for the service population."""
    return rate_per_100k / 1e5 * population


def survivors(ohca: float, survival_rates) -> list[float]:
    """Survivor counts for each network case."""
    return [ohca * float(rate) for rate in survival_rates]


def additional_survivors(ohca: float, survival_rates) -> list[float]:
    """Survivors beyond the no-drone baseline, per case."""
    counts = survivors(ohca, survival_rates)
    return [count - counts[0] for count in counts]


def value_per_survivor(vsl: float, cost_per_survivor) -> list[float]:
    """Statistical-life value net of the network's cost per added survivor."""
    return [vsl - float(cost) for cost in cost_per_survivor]


def life_saving_value_all_cases(
    ohca: float, vsl: float, survival_rates, cost_per_survivor
) -> list[float]:
    """Net value of added survivors for every network case, given the
    expected cardiac-arrest count."""
    return [
        value * added
        for value, added in zip(
            value_per_survivor(vsl, cost_per_survivor),
            additional_survivors(ohca, survival_rates),
        )
    ]
