"""Shared forecast-layer constants and errors."""
from __future__ import annotations

import math
import operator


class ForecastError(RuntimeError):
    """A numerical step failed: degenerate input, no convergence, bad order."""


#: Normal quantile of the interval half-widths: nominal 95%, normal-theory.
#: The bands cover less (ROADMAP item 3): about 0.90 on simulated paths,
#: and 109 of 140 held-out points of the bundled series.
CI_Z = 1.96

#: Minimum observations before a series may be forecast.
MIN_OBS = 8


def dot(u, v) -> float:
    """Correctly rounded dot product: the exact sum of the rounded products,
    rounded once, so it depends on neither summation order nor BLAS."""
    return math.fsum(map(operator.mul, u, v))
