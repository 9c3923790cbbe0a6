"""Golden ``explain`` traces: ``explain(result, factor, year)`` for every
factor in the first and last horizon years of the bundled scenario, with
default toggles, with the golden run's two toggles flipped, and with the
two toggles no golden run flips, equals its committed copy under
``tests/golden/explain/`` byte for byte.

``tests/test_golden.py`` pins the files ``aamcba run`` writes; this pins
the derivation text, which no output file carries. A change to any label,
intermediate value or its formatting fails here.
"""
from __future__ import annotations

import pytest

from golden_files import EXPLAIN_CASES, GOLDEN, assert_matches_golden, explain_traces


@pytest.mark.parametrize(
    "case", list(EXPLAIN_CASES),
    ids=["default", "bf6_incremental-bf7_case3",
         "bf3_single_ratio-bf6_matching_area_off"],
)
def test_explain_traces_match_golden_hashes(default_scenario, case):
    got = explain_traces(default_scenario, EXPLAIN_CASES[case])
    assert_matches_golden(GOLDEN / "explain" / case, got)
