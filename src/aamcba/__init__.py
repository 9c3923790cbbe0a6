"""Scenario-driven cost-benefit analysis for advanced air mobility.

The package forecasts a scenario's historical input series, evaluates nine
benefit factors on the forecast bands, and nets them against capital and
operating costs into a yearly net-positive-gain estimate, banded by the
comonotone envelope of the forecasts.
"""
from .engine import evaluate
from .ingest import default_scenario_path, load_scenario

__version__ = "0.1.0"

__all__ = ["default_scenario_path", "evaluate", "load_scenario"]
