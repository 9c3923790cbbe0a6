"""Shared forecast-layer constants and errors."""
from __future__ import annotations

import math
import operator


class ForecastError(RuntimeError):
    """A numerical step failed: degenerate input, no convergence, bad order."""


#: Normal quantile used for 95% interval half-widths.
CI_Z = 1.96

#: Minimum observations before a series may be forecast.
MIN_OBS = 8


def dot(u, v) -> float:
    """Correctly rounded dot product: the exact sum of the rounded products,
    rounded once, so it depends on neither summation order nor BLAS."""
    return math.fsum(map(operator.mul, u, v))
