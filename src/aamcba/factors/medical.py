"""Drone-delivered AED response to cardiac arrest (BF-7).

A ladder of network build-outs (station counts) maps to published survival
rates and per-survivor network costs. Case 0 is the no-drone baseline, so
its incremental value is zero by construction; the operative case is chosen
per scenario.
"""
from __future__ import annotations

import numpy as np


def ohca_count(population: float, rate_per_100k: float) -> float:
    """Expected out-of-hospital cardiac arrests for the service population."""
    return rate_per_100k / 1e5 * population


def survivors(ohca: float, survival_rates) -> np.ndarray:
    """Survivor counts for each network case."""
    return ohca * np.asarray(survival_rates, dtype=float)


def additional_survivors(ohca: float, survival_rates) -> np.ndarray:
    """Survivors beyond the no-drone baseline, per case."""
    counts = survivors(ohca, survival_rates)
    return counts - counts[0]


def value_per_survivor(vsl: float, cost_per_survivor) -> np.ndarray:
    """Statistical-life value net of the network's cost per added survivor."""
    return vsl - np.asarray(cost_per_survivor, dtype=float)


def life_saving_value_all_cases(
    ohca: float, vsl: float, survival_rates, cost_per_survivor
) -> np.ndarray:
    """Net value of added survivors for every network case, given the
    expected cardiac-arrest count."""
    rates = np.asarray(survival_rates, dtype=float)
    costs = np.asarray(cost_per_survivor, dtype=float)
    if rates.shape != costs.shape:
        raise ValueError(
            "survival rates and per-survivor costs must align, got "
            f"{rates.shape} and {costs.shape}"
        )
    return value_per_survivor(vsl, costs) * additional_survivors(ohca, rates)
