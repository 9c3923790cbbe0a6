"""Crop and livestock farming arithmetic (BF6)."""
from __future__ import annotations

import pytest

PRINTED = "whole uplifted harvest, ~40x the increment"
NO_CROP = dict(area=0.0, yield_=0.0, price=0.0, uplift=0.0, savings=0.0)
SOY = dict(area=1000.0, yield_=50.0, price=9.5, uplift=0.025, savings=2.28)
WHEAT = dict(area=500.0, yield_=70.0, price=6.0, uplift=0.033, savings=2.57)


def farming_items(factor_value, crops, livestock, share=0.5, toggles=None,
                  farms=None, trace=None):
    """BF6's tagged items for the given crops (absent crops grow nothing)
    at an adoption share of ``share``, with the case-study livestock
    figures; ``farms`` (adopting, total) overrides the share, and ``trace``
    collects the steps by label."""
    adopting, total = farms or (share * 1000.0, 1000.0)
    constants = {
        "farms_adopting": adopting, "farms_total": total,
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
    value = factor_value("BF6", constants, values, toggles, items, trace)
    assert value == (
        items["crop_production"] + items["crop_cost_savings"]
        + items["livestock_savings"]
    )
    return items


def test_adoption_share_anchor(factor_value):
    trace = {}
    farming_items(factor_value, {}, 0.0, farms=(13893.0, 77805.0), trace=trace)
    assert trace["adopting-farm share"] == pytest.approx(
        0.17856178908810488, rel=1e-12
    )


def test_crop_production_modes(factor_value):
    printed, increment = {}, {}
    farming_items(factor_value, {"soybean": SOY}, 0.0, trace=printed)
    farming_items(factor_value, {"soybean": SOY}, 0.0, trace=increment,
                  toggles={"bf6_incremental": True})
    printed = printed[f"soybean production value ($, {PRINTED})"]
    increment = increment["soybean production value ($, increment only)"]
    assert printed == pytest.approx(50.0 * 1.025 * 1000.0 * 9.5 * 0.5, rel=1e-15)
    assert increment == pytest.approx(50.0 * 0.025 * 1000.0 * 9.5 * 0.5, rel=1e-15)
    # the printed form values the whole uplifted harvest: 41x the increment here
    assert printed / increment == pytest.approx(1.025 / 0.025, rel=1e-12)


def test_crop_cost_savings(factor_value):
    items = farming_items(factor_value, {"soybean": SOY}, 0.0)
    assert items["crop_cost_savings"] == pytest.approx(1140.0, rel=1e-15)


def test_livestock_per_head_anchor(factor_value):
    # every farm adopts and there is one animal: the value is the per-head
    # savings of the case study
    per_head = farming_items(factor_value, {}, 1.0, share=1.0)["livestock_savings"]
    assert per_head == pytest.approx(1.8478571428571426, rel=1e-12)
    herd = farming_items(factor_value, {}, 1.45e6, share=0.2)
    assert herd["livestock_savings"] == pytest.approx(
        per_head * 1.45e6 * 0.2, rel=1e-15
    )


def test_cost_area_override_redirects_the_cost_line(factor_value):
    # without bf6_matching_area the corn cost line runs on the soybean acreage
    corn = dict(area=3.3e6, yield_=170.0, price=5.0, uplift=0.025, savings=11.58)
    soy_area = dict(NO_CROP, area=4.8e6)
    items = farming_items(
        factor_value, {"soybean": soy_area, "corn": corn}, livestock=0.0,
        share=1.0, toggles={"bf6_matching_area": False},
    )
    # production runs on the corn acreage, the cost line on the override
    assert items["crop_production"] == pytest.approx(
        170.0 * 1.025 * 3.3e6 * 5.0, rel=1e-12
    )
    assert items["crop_cost_savings"] == pytest.approx(4.8e6 * 11.58, rel=1e-12)


def test_agriculture_value_sums_crops(factor_value):
    items = farming_items(
        factor_value, {"soybean": SOY, "wheat": WHEAT}, livestock=1000.0,
        share=0.5,
    )
    want_production = (
        (50.0 + 50.0 * 0.025) * 1000.0 * 9.5 * 0.5
        + (70.0 + 70.0 * 0.033) * 500.0 * 6.0 * 0.5
    )
    want_cost = 1000.0 * 2.28 * 0.5 + 500.0 * 2.57 * 0.5
    assert items["crop_production"] == pytest.approx(want_production, rel=1e-12)
    assert items["crop_cost_savings"] == pytest.approx(want_cost, rel=1e-12)
    assert items["livestock_savings"] == pytest.approx(
        (26.0 + 104.0) * 13.93 / 980.0 * 1000.0 * 0.5, rel=1e-12,
    )


def test_incremental_flag_shrinks_production_only(factor_value):
    printed = farming_items(
        factor_value, {"soybean": SOY}, livestock=100.0, share=0.5
    )
    lean = farming_items(
        factor_value, {"soybean": SOY}, livestock=100.0, share=0.5,
        toggles={"bf6_incremental": True},
    )
    assert lean["crop_production"] < printed["crop_production"] / 40.0
    assert lean["crop_cost_savings"] == printed["crop_cost_savings"]
    assert lean["livestock_savings"] == printed["livestock_savings"]
