"""Bands, the annual ledger, and its serialization.

The randomized block drives a few hundred ledgers through the additivity,
ordering, permutation, and determinism properties end to end, and checks
each year's net gain bit for bit against the band arithmetic in
``oracles``.
"""
from __future__ import annotations

import numpy as np
import pytest

from aamcba.factors import FACTOR_IDS
from aamcba.ingest import ScenarioError
from aamcba.ledger import (
    AnnualResult,
    BandValue,
    cagr,
    results_rows,
    summary_dict,
    write_npi_csv,
    write_results_csv,
)

from oracles import band_sum, npi_band


def _point(value: float) -> BandValue:
    return BandValue(value, value, value)


def _channels(band: BandValue) -> tuple[float, float, float]:
    return band.lower, band.mean, band.upper


def test_band_ordering_and_normalization():
    band = BandValue(1.0, 2.0, 3.0)
    assert (band.lower, band.mean, band.upper) == (1.0, 2.0, 3.0)

    # channels are taken as given: an inversion, however small, is an error
    eps = 1e-12
    with pytest.raises(ValueError, match="out of order"):
        BandValue(2.0 + eps, 2.0, 2.0)
    with pytest.raises(ValueError, match="out of order"):
        BandValue(3.0, 2.0, 4.0)
    with pytest.raises(ValueError, match="must be finite"):
        BandValue(0.0, float("nan"), 1.0)


def test_compute_npi_subtracts_cost_from_every_channel():
    benefits = {"BF1": BandValue(10.0, 20.0, 30.0), "BF8": _point(5.0)}
    npi = AnnualResult(2022, benefits, capex=4.0, opex=1.0).npi
    assert _channels(npi) == (10.0, 20.0, 30.0)
    with pytest.raises(ValueError, match="must be finite"):
        AnnualResult(2022, benefits, capex=1e308, opex=1e308)


def test_annual_result_validation_and_views():
    result = AnnualResult(
        year=2022,
        benefits={"BF1": BandValue(1.0, 2.0, 3.0), "BF8": _point(4.0)},
        capex=1.5,
        opex=0.5,
    )
    assert result.npi.mean == 4.0


def test_cagr():
    assert cagr(100.0, 121.0, 2) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError, match="periods must be positive"):
        cagr(100.0, 121.0, 0)
    with pytest.raises(ValueError, match="positive endpoints"):
        cagr(-1.0, 121.0, 2)


def _tiny_results() -> list[AnnualResult]:
    return [
        AnnualResult(
            year=2022,
            benefits={"BF1": BandValue(1.0, 2.0, 3.0), "BF8": _point(1.0)},
            capex=1.0, opex=0.5,
        ),
        AnnualResult(
            year=2023,
            benefits={"BF1": BandValue(2.0, 4.0, 6.0), "BF8": _point(1.0)},
            capex=0.5, opex=0.5,
        ),
    ]


def test_results_rows_order_and_content():
    rows = results_rows(_tiny_results())
    items_2022 = [r[1] for r in rows if r[0] == 2022]
    assert items_2022 == ["BF1", "BF8", "capex", "opex", "npi"]
    npi_row = [r for r in rows if r[0] == 2022 and r[1] == "npi"][0]
    assert npi_row[2:] == (0.5, 1.5, 2.5)
    capex_row = [r for r in rows if r[0] == 2022 and r[1] == "capex"][0]
    assert capex_row[2] == capex_row[3] == capex_row[4] == 1.0


def test_csv_writers(tmp_path):
    results = _tiny_results()
    results_path = tmp_path / "results.csv"
    write_results_csv(results_path, results)
    lines = results_path.read_text().splitlines()
    assert lines[0] == "year,item,lower,mean,upper"
    assert lines[1] == "2022,BF1,1.0,2.0,3.0"

    npi_path = tmp_path / "npi.csv"
    write_npi_csv(npi_path, results)
    npi_lines = npi_path.read_text().splitlines()
    assert npi_lines[0] == "year,lower,mean,upper"
    assert npi_lines[1] == "2022,0.5,1.5,2.5"
    assert npi_lines[2] == "2023,2.0,4.0,6.0"


def test_float_formatting_round_trips():
    results = [
        AnnualResult(
            year=2022,
            benefits={"BF1": BandValue(0.1, 0.2, 1.0 / 3.0)},
            capex=0.0, opex=0.0,
        )
    ]
    rows = results_rows(results)
    # repr() formatting means the CSV cell parses back to the exact double
    assert float(repr(rows[0][4])) == 1.0 / 3.0


def test_summary_dict_contents():
    summary = summary_dict(_tiny_results())
    assert summary["first_year"] == 2022
    assert summary["last_year"] == 2023
    assert summary["benefit_totals_mean"] == {"BF1": 6.0, "BF8": 2.0}
    assert summary["capex_total"] == 1.5
    assert summary["opex_total"] == 1.0
    assert summary["npi_mean_by_year"] == {"2022": 1.5, "2023": 4.0}
    assert summary["npi_total_mean"] == 5.5
    assert summary["npi_mean_cagr"] == pytest.approx(4.0 / 1.5 - 1.0, rel=1e-12)


def test_summary_cagr_omitted_when_undefined():
    losing = [
        AnnualResult(
            year=2022, benefits={"BF1": BandValue(-3.0, -2.0, -1.0)},
            capex=0.0, opex=0.0,
        ),
        AnnualResult(
            year=2023, benefits={"BF1": BandValue(1.0, 2.0, 3.0)},
            capex=0.0, opex=0.0,
        ),
    ]
    assert "npi_mean_cagr" not in summary_dict(losing)
    with pytest.raises(ValueError, match="no annual results"):
        summary_dict([])


def test_summary_totals_add_left_to_right():
    # npi means -1e16, -1.0, 1e16: left to right the 1.0 is absorbed and the
    # totals are 0.0; the compensated sum() of Python 3.12 on gives -1.0
    # (npi) and 1.0 (capex, opex)
    results = [
        AnnualResult(
            year=2022 + i, benefits={"BF1": _point(v)}, capex=v, opex=v
        )
        for i, v in enumerate([1e16, 1.0, -1e16])
    ]
    assert [r.npi.mean for r in results] == [-1e16, -1.0, 1e16]
    summary = summary_dict(results)
    assert summary["npi_total_mean"] == 0.0
    assert summary["capex_total"] == 0.0
    assert summary["opex_total"] == 0.0
    # each year's spend is finite, their sum is not
    huge = [AnnualResult(year, {}, 1e308, 0.0) for year in (2022, 2023)]
    with pytest.raises(ScenarioError, match="capex total over 2022-2023 is not"):
        summary_dict(huge)


def _random_ledger(rng: np.random.Generator) -> list[AnnualResult]:
    factors = rng.choice(FACTOR_IDS, size=rng.integers(1, 10), replace=False)
    years = range(2022, 2022 + int(rng.integers(2, 6)))
    results = []
    for year in years:
        benefits = {}
        for factor_id in factors:
            mean = float(rng.normal(0.0, 1e6))
            spread = abs(float(rng.normal(0.0, 1e5)))
            benefits[factor_id] = BandValue(mean - spread, mean, mean + spread)
        results.append(
            AnnualResult(
                year=year,
                benefits=benefits,
                capex=float(rng.uniform(0.0, 1e6)),
                opex=float(rng.uniform(0.0, 1e5)),
            )
        )
    return results


def test_randomized_ledger_properties():
    rng = np.random.default_rng(20260818)
    for _ in range(200):
        results = _random_ledger(rng)
        for result in results:
            npi = result.npi
            # the net gain is band arithmetic's, bit for bit
            want = npi_band(result.benefits, result.capex, result.opex)
            assert _channels(npi) == want
            # additivity: NPI mean is the benefit means less the cost
            cost = result.capex + result.opex
            want = sum(b.mean for b in result.benefits.values()) - cost
            assert npi.mean == pytest.approx(want, rel=1e-9, abs=1e-6)
            # ordering survives the arithmetic
            assert npi.lower <= npi.mean <= npi.upper
            # dropping one factor moves the NPI by exactly that band
            if len(result.benefits) > 1:
                dropped_id = sorted(result.benefits)[0]
                kept = {
                    k: v for k, v in result.benefits.items() if k != dropped_id
                }
                reduced = AnnualResult(result.year, kept, result.capex, result.opex).npi
                delta = result.benefits[dropped_id]
                assert npi.mean - reduced.mean == pytest.approx(
                    delta.mean, rel=1e-9, abs=1e-6
                )
                assert npi.lower - reduced.lower == pytest.approx(
                    delta.lower, rel=1e-9, abs=1e-6
                )
            # permutation invariance: summation order cannot matter
            forward = band_sum([result.benefits[k] for k in sorted(result.benefits)])
            backward = band_sum(
                [result.benefits[k] for k in sorted(result.benefits, reverse=True)]
            )
            assert forward == pytest.approx(backward, rel=1e-12)


def test_randomized_ledger_serialization_is_deterministic(tmp_path):
    rng = np.random.default_rng(20260818)
    results = _random_ledger(rng)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_results_csv(first, results)
    write_results_csv(second, results)
    assert first.read_bytes() == second.read_bytes()
