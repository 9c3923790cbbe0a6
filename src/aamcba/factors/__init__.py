"""Benefit-factor arithmetic: one module per activity area, composed into
the nine factors by ``table``.

Every function here is pure scalar arithmetic on explicit inputs; forecast
bands are handled by evaluating the same formulas channel by channel (all
of them are monotone in the banded inputs). The scenario inputs are
validated upstream, by ``ingest.validate_scenario`` and each factor's
``check``, so the arithmetic does not guard them; it checks only a few
values derived from forecasts.
"""
from . import agriculture, environment, inspection, logistics, medical, mobility

__all__ = [
    "agriculture",
    "environment",
    "inspection",
    "logistics",
    "medical",
    "mobility",
]
