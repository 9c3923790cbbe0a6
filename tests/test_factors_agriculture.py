"""Crop and livestock farming arithmetic (BF6)."""
from __future__ import annotations

import pytest

from aamcba.factors.agriculture import (
    adoption_share,
    crop_cost_savings,
    crop_production_value,
    livestock_savings,
    livestock_savings_per_head,
)


def test_adoption_share_anchor():
    assert adoption_share(13893.0, 77805.0) == pytest.approx(
        0.17856178908810488, rel=1e-12
    )


def test_crop_production_modes():
    printed = crop_production_value(50.0, 0.025, 1000.0, 9.5, 0.5)
    assert printed == pytest.approx(50.0 * 1.025 * 1000.0 * 9.5 * 0.5, rel=1e-15)
    increment = crop_production_value(
        50.0, 0.025, 1000.0, 9.5, 0.5, incremental_only=True
    )
    assert increment == pytest.approx(50.0 * 0.025 * 1000.0 * 9.5 * 0.5, rel=1e-15)
    # the printed form values the whole uplifted harvest: 41x the increment here
    assert printed / increment == pytest.approx(1.025 / 0.025, rel=1e-12)


def test_crop_cost_savings():
    assert crop_cost_savings(1000.0, 2.28, 0.5) == pytest.approx(1140.0, rel=1e-15)


def test_livestock_per_head_anchor():
    per_head = livestock_savings_per_head(26.0, 104.0, 13.93, 980.0)
    assert per_head == pytest.approx(1.8478571428571426, rel=1e-12)
    assert livestock_savings(per_head, 1.45e6, 0.2) == pytest.approx(
        per_head * 1.45e6 * 0.2, rel=1e-15
    )


NO_CROP = dict(area=0.0, yield_=0.0, price=0.0, uplift=0.0, savings=0.0)


def _farming(factor_value, crops, livestock, share, toggles=None):
    """BF6's tagged items for the given crops (absent crops grow nothing)
    at an adoption share of ``share``, with the case-study livestock
    figures."""
    constants = {
        "farms_adopting": share * 1000.0, "farms_total": 1000.0,
        "livestock_hours_saved_hill": 26.0,
        "livestock_hours_saved_grassland": 104.0,
        "farm_labor_rate": 13.93, "herd_size_case_study": 980.0,
    }
    values = {"livestock": livestock}
    for name in ("soybean", "corn", "wheat"):
        crop = crops.get(name, NO_CROP)
        constants[f"{name}_yield_uplift"] = crop["uplift"]
        constants[f"cost_savings_per_acre_{name}"] = crop["savings"]
        values[f"{name}_area"] = crop["area"]
        values[f"{name}_yield"] = crop["yield_"]
        values[f"{name}_price"] = crop["price"]
    items = {}
    total = factor_value("BF6", constants, values, toggles, items)
    assert total == (
        items["crop_production"] + items["crop_cost_savings"]
        + items["livestock_savings"]
    )
    return items


SOY = dict(area=1000.0, yield_=50.0, price=9.5, uplift=0.025, savings=2.28)
WHEAT = dict(area=500.0, yield_=70.0, price=6.0, uplift=0.033, savings=2.57)


def test_cost_area_override_redirects_the_cost_line(factor_value):
    # without bf6_matching_area the corn cost line runs on the soybean acreage
    corn = dict(area=3.3e6, yield_=170.0, price=5.0, uplift=0.025, savings=11.58)
    soy_area = dict(NO_CROP, area=4.8e6)
    items = _farming(
        factor_value, {"soybean": soy_area, "corn": corn}, livestock=0.0,
        share=1.0, toggles={"bf6_matching_area": False},
    )
    # production runs on the corn acreage, the cost line on the override
    assert items["crop_production"] == pytest.approx(
        170.0 * 1.025 * 3.3e6 * 5.0, rel=1e-12
    )
    assert items["crop_cost_savings"] == pytest.approx(4.8e6 * 11.58, rel=1e-12)


def test_agriculture_value_sums_crops(factor_value):
    items = _farming(
        factor_value, {"soybean": SOY, "wheat": WHEAT}, livestock=1000.0,
        share=0.5,
    )
    want_production = (
        crop_production_value(50.0, 0.025, 1000.0, 9.5, 0.5)
        + crop_production_value(70.0, 0.033, 500.0, 6.0, 0.5)
    )
    want_cost = crop_cost_savings(1000.0, 2.28, 0.5) + crop_cost_savings(
        500.0, 2.57, 0.5
    )
    assert items["crop_production"] == pytest.approx(want_production, rel=1e-12)
    assert items["crop_cost_savings"] == pytest.approx(want_cost, rel=1e-12)
    assert items["livestock_savings"] == pytest.approx(
        livestock_savings_per_head(26.0, 104.0, 13.93, 980.0) * 1000.0 * 0.5,
        rel=1e-12,
    )


def test_incremental_flag_shrinks_production_only(factor_value):
    printed = _farming(factor_value, {"soybean": SOY}, livestock=100.0, share=0.5)
    lean = _farming(
        factor_value, {"soybean": SOY}, livestock=100.0, share=0.5,
        toggles={"bf6_incremental": True},
    )
    assert lean["crop_production"] < printed["crop_production"] / 40.0
    assert lean["crop_cost_savings"] == printed["crop_cost_savings"]
    assert lean["livestock_savings"] == printed["livestock_savings"]
