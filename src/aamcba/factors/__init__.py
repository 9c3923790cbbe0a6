"""Benefit-factor arithmetic: one module per activity area, composed into
the nine factors by ``table``.

Every function here is pure scalar arithmetic on explicit inputs; forecast
bands are handled by evaluating the same formulas channel by channel (all
of them are monotone in the banded inputs).
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
