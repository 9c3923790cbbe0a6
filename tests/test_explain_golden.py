"""Golden ``explain`` traces: the sha256 of ``explain(result, factor, year)``
for every factor in the first and last horizon years of the bundled
scenario, with default toggles, with the golden run's two toggles
flipped, and with the two toggles no golden run flips.

``tests/test_golden.py`` pins the files ``aamcba run`` writes; this pins
the derivation text, which no output file carries. A change to any label,
intermediate value or its formatting fails here.
"""
from __future__ import annotations

import hashlib

import pytest

from aamcba.engine import evaluate, explain

DEFAULT_TRACES = {
    ("BF1", 2022):
        "2916c47afecf25a33208a769b38cfc443a411348dd4d2c1550f834631aea0089",
    ("BF1", 2032):
        "b4028f977facd564074a87d21e6013ea05410978e20a41769d315368e81dc86a",
    ("BF2", 2022):
        "d8e64ca320bdda2297ef9d09ce1e4e9b2e29387cc10f3c845c3edb9c4f24d9f5",
    ("BF2", 2032):
        "0577024f277ff5a4e55cc81be543c8ad8976c817cb6c907f35ffad5514ed0883",
    ("BF3", 2022):
        "c81531b8ccb19afd90e35c68db1ef4b889d8a0839dc943b443079a4c1e4f7808",
    ("BF3", 2032):
        "dff05981c03df596d7cf890fda276b944a54f34af442c4ecbcafb09d486a822f",
    ("BF4", 2022):
        "68c46d3e978de64059e9ab350740daee34b12549dce95bef7cd68b41316c502f",
    ("BF4", 2032):
        "109ea9899b5d99be359d7c3e5e544a13d4f752e5d0e70946232d6dcb5b7273f8",
    ("BF5", 2022):
        "b4e9062e46a673fd45e2beb0ad6b664a84e4f4593356007a1f3f17d9fd8df577",
    ("BF5", 2032):
        "eede779ecf8c7c1d263bce2d0fd2aa2223273cf0aa4614ed3434ea6c4a4fecdb",
    ("BF6", 2022):
        "1a064284aa5d16c2c4c8bdc0f3ebb454a0a149068658b6096555a4f2d05014ec",
    ("BF6", 2032):
        "06cfa2969f3925ae4c57e166eed6a59456b7f6f8abd099c340c6398bd5afcf7f",
    ("BF7", 2022):
        "91493b4e517a1a0bd8819be1331f6f385116fe88c84e4fd88e72f801b8961582",
    ("BF7", 2032):
        "e0c7777fda962de4cce1c5902037405d7470e297ebea75097b8456c06448bf2a",
    ("BF8", 2022):
        "3dc41a6bfeecf3452b89ab9d8d6925b1ccbf9718d4b33fa8d58cf7e120648ff8",
    ("BF8", 2032):
        "f0603a00bd4d142c0b333203148d78d58b8c9115310422ef5d7a249b4c21f3ea",
    ("BF9", 2022):
        "1c02338577aaae35eaa0a34e9b003cc4461f3889ac7f57c93f22a0fa21191367",
    ("BF9", 2032):
        "20e2e6767676e3062ea48e9e7bc04225873eb63a44a62bb6e2af7aa58a8c46d4",
}

TOGGLED_TRACES = {
    **DEFAULT_TRACES,
    ("BF6", 2022):
        "25c11094a137dba59430328574e61f11879455bc8aefd7d5bd33ab3f66a2739c",
    ("BF6", 2032):
        "484bb747be7ac40031238ac167e7f2eddd6bc5c6620f002f6edba09ab676c9d7",
    ("BF7", 2022):
        "a6dbb1f2a2c14af87c5ad7641cffc81606c8d7f4b030c5b40f72db74e416564b",
    ("BF7", 2032):
        "c65e6b098fb85f37ead26310d615abc0c0461e3dc89a69b96aa8e9f4f14fba47",
}

# bf3_single_ratio changes the package count that BF3 and BF9 read;
# bf6_matching_area moves the corn cost line onto the corn acreage.
RATIO_AREA_TRACES = {
    **DEFAULT_TRACES,
    ("BF3", 2022):
        "b879043d15998d06808d675519fb51ea7ce9ae082c16f2ba6d2bc1cc7866b641",
    ("BF3", 2032):
        "81b5a586ae3f2795338ee01b8675a7a2df39505b43e236817353a2dd6c090c05",
    ("BF6", 2022):
        "5d81431c774de454ec69cfb2aba088bbcc93ef4c332d4bda487fe4191d5587b3",
    ("BF6", 2032):
        "05ec5904349b788b6d2cbccf0388589c507070d46cc14c3978f0a092ada6558f",
    ("BF9", 2022):
        "3333dafe16080d05de23a44747d2d5a85adf5489898dff6028ee406eddf69bc1",
    ("BF9", 2032):
        "2c3a0e1dd920be286e04355bb881ecf1102a2c5cbe885dcc2dad123aa23290c9",
}


# bf6_incremental changes the farming trace, bf7_case the medical one.
@pytest.mark.parametrize("toggles, expected", [
    ({}, DEFAULT_TRACES),
    ({"bf6_incremental": True, "bf7_case": 3}, TOGGLED_TRACES),
    ({"bf3_single_ratio": True, "bf6_matching_area": False}, RATIO_AREA_TRACES),
], ids=["default", "bf6_incremental-bf7_case3",
        "bf3_single_ratio-bf6_matching_area_off"])
def test_explain_traces_match_golden_hashes(default_scenario, toggles, expected):
    scenario = default_scenario.with_overrides(toggles=toggles)
    result = evaluate(scenario)
    years = (scenario.horizon_start, scenario.horizon_end)
    got = {
        (factor, year): hashlib.sha256(
            explain(result, factor, year).encode()
        ).hexdigest()
        for factor in result.factors
        for year in years
    }
    assert sorted(got) == sorted(expected)
    changed = sorted(key for key in expected if got[key] != expected[key])
    assert not changed, f"explain traces differ from the golden hashes: {changed}"
