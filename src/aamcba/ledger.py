"""Yearly benefit/cost ledger and net-positive-gain arithmetic.

Benefit factors arrive as three-channel bands (lower, mean, upper): the
comonotone envelope of the forecast bands, with every forecast at its
lower, mean or upper limit together, not a joint 95% interval. Costs are
point values. A year's net positive gain is, channel by channel, the sum
of its benefit factors less that year's capital and operating spend. Every
band is built from sorted channels or is such a sum, and IEEE rounding is
monotone, so each stays ordered. The horizon roll-up checks each total it
adds, so a sum that overflows raises ScenarioError naming it.
"""
from __future__ import annotations

from math import isfinite
from pathlib import Path
from typing import Iterable, Sequence

from .ingest import ScenarioError

#: The order of a band's channels, and of every per-channel sequence.
CHANNELS = ("lower", "mean", "upper")


def _total(values: Iterable[float]) -> float:
    """``values`` added left to right. ``sum()`` compensates its float
    additions from Python 3.12 on, so its last bits depend on the version."""
    total = 0.0
    for value in values:
        total += value
    return total


class BandValue:
    """A value with its band: lower bound, mean, upper bound."""

    __slots__ = CHANNELS

    def __init__(self, lower: float, mean: float, upper: float) -> None:
        for channel in (lower, mean, upper):
            if not isfinite(channel):
                raise ValueError(f"band channels must be finite, got {channel}")
        if not lower <= mean <= upper:
            raise ValueError(
                "band channels out of order: "
                f"lower={lower}, mean={mean}, upper={upper}"
            )
        self.lower = lower
        self.mean = mean
        self.upper = upper


class AnnualResult:
    """One horizon year: per-factor benefit bands, the cost lines, and the
    net positive gain. ValueError if that gain is not finite."""

    __slots__ = ("year", "benefits", "capex", "opex", "npi")

    def __init__(
        self, year: int, benefits: dict[str, BandValue], capex: float, opex: float
    ) -> None:
        self.year = year
        self.benefits = benefits
        self.capex = capex
        self.opex = opex
        cost = capex + opex
        self.npi = BandValue(*(
            _total(getattr(band, channel) for band in benefits.values()) - cost
            for channel in CHANNELS
        ))


def cagr(first: float, last: float, periods: int) -> float:
    """Compound annual growth rate over the given number of year steps."""
    if periods <= 0:
        raise ValueError(f"periods must be positive, got {periods}")
    if first <= 0 or last <= 0:
        raise ValueError(
            f"growth rate needs positive endpoints, got {first} and {last}"
        )
    return (last / first) ** (1.0 / periods) - 1.0


def _fmt(value: float) -> str:
    """A CSV cell that parses back to the exact double."""
    return repr(float(value))


def _write_csv(path: Path, lines: list[str]) -> None:
    """Write a rendered table in one call, each line ended by CRLF as
    ``csv.writer`` would. Cells are numbers and program-defined names, so
    none needs quoting."""
    lines.append("")
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join(lines))


def results_rows(results: Sequence[AnnualResult]) -> list[tuple]:
    """Long-form (year, item, lower, mean, upper) rows, costs as points;
    the factors in the order of each result's ``benefits``."""
    rows: list[tuple] = []
    for result in results:
        for factor_id, band in result.benefits.items():
            rows.append((result.year, factor_id, band.lower, band.mean, band.upper))
        rows.append((result.year, "capex", result.capex, result.capex, result.capex))
        rows.append((result.year, "opex", result.opex, result.opex, result.opex))
        npi = result.npi
        rows.append((result.year, "npi", npi.lower, npi.mean, npi.upper))
    return rows


def write_item_csv(path: Path, rows: Iterable[tuple]) -> None:
    """A year,item,lower,mean,upper table from rows in that order."""
    lines = ["year,item,lower,mean,upper"]
    lines += [
        f"{year},{item},{_fmt(lower)},{_fmt(mean)},{_fmt(upper)}"
        for year, item, lower, mean, upper in rows
    ]
    _write_csv(path, lines)


def write_results_csv(path: Path, results: Sequence[AnnualResult]) -> None:
    write_item_csv(path, results_rows(results))


def write_channels_csv(
    path: Path,
    years: Sequence[int],
    lower: Sequence[float],
    mean: Sequence[float],
    upper: Sequence[float],
) -> None:
    """A year,lower,mean,upper table from its columns, as a forecast band
    holds them."""
    lines = ["year,lower,mean,upper"]
    lines += [
        f"{year},{_fmt(lo)},{_fmt(mid)},{_fmt(up)}"
        for year, lo, mid, up in zip(years, lower, mean, upper)
    ]
    _write_csv(path, lines)


def write_npi_csv(path: Path, results: Sequence[AnnualResult]) -> None:
    npi = [r.npi for r in results]
    write_channels_csv(
        path,
        [r.year for r in results],
        [band.lower for band in npi],
        [band.mean for band in npi],
        [band.upper for band in npi],
    )


def summary_dict(results: Sequence[AnnualResult]) -> dict:
    """Horizon roll-up: totals per factor, cost totals, NPI trajectory.
    Every result holds the same factors. ScenarioError if a total or the
    growth rate is not a finite number."""
    if not results:
        raise ValueError("no annual results to summarize")
    years = [r.year for r in results]

    def checked(name: str, value: float) -> float:
        if not isfinite(value):
            raise ScenarioError(
                f"{name} over {years[0]}-{years[-1]} is not a finite number"
            )
        return value

    factor_totals = {
        factor_id: checked(
            f"{factor_id} total", _total(r.benefits[factor_id].mean for r in results)
        )
        for factor_id in results[0].benefits
    }
    npi_means = [r.npi.mean for r in results]
    summary = {
        "first_year": years[0],
        "last_year": years[-1],
        "benefit_totals_mean": factor_totals,
        "capex_total": checked("capex total", _total(r.capex for r in results)),
        "opex_total": checked("opex total", _total(r.opex for r in results)),
        "npi_mean_by_year": dict(zip(map(str, years), npi_means)),
        "npi_total_mean": checked("npi total", _total(npi_means)),
    }
    if len(years) > 1 and npi_means[0] > 0 and npi_means[-1] > 0:
        summary["npi_mean_cagr"] = checked("npi growth rate", cagr(
            npi_means[0], npi_means[-1], years[-1] - years[0]
        ))
    return summary
