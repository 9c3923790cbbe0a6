"""Golden outputs as committed text, under ``tests/golden/``.

``run/<case>/`` holds every file ``aamcba run`` writes for the bundled
scenario in each case of ``RUN_CASES``; ``explain/<case>/<factor>-<year>.txt``
holds ``explain(result, factor, year)`` for every factor in the first and
last horizon years, in each case of ``EXPLAIN_CASES``. ``tests/test_golden.py``
and ``tests/test_explain_golden.py`` compare them byte for byte.

When a change is meant to alter outputs, regenerate the files in the same
commit, so that ``git diff`` shows every line that moved, and say which
files changed and why:

    PYTHONPATH=src python tests/golden_files.py
"""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from aamcba.cli import main as cli_main
from aamcba.engine import evaluate, explain
from aamcba.ingest import Scenario, default_scenario_path, load_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"

# Four factors and four toggles: the capex is amortized, the
# BF4 cost-increase sign and BF2's trip-mile basis are flipped, and the
# d=1 series are fitted with a mean, so their forecasts drift.
SUBSET_RUN_ARGS = [
    "--factors", "BF2,BF4,BF6,BF7",
    "--toggle", "amortize_capex_years=5",
    "--toggle", "bf4_ci_sign=positive_extra_cost",
    "--toggle", "include_mean_when_differenced=true",
    "--toggle", "bf2_use_trip_miles=true",
]

#: directory under golden/run -> the ``aamcba run`` arguments besides --out.
#: bf6_incremental changes the farming factor, bf7_case the medical one.
RUN_CASES = {
    "default": [],
    "toggled": ["--toggle", "bf6_incremental=true", "--toggle", "bf7_case=3"],
    "subset": SUBSET_RUN_ARGS,
}

#: directory under golden/explain -> the toggle overrides. bf6_incremental
#: changes the farming trace, bf7_case the medical one; bf3_single_ratio
#: changes the package count that BF3 and BF9 read, and bf6_matching_area
#: off moves the corn cost line onto the corn acreage.
EXPLAIN_CASES = {
    "default": {},
    "toggled": {"bf6_incremental": True, "bf7_case": 3},
    "ratio_area": {"bf3_single_ratio": True, "bf6_matching_area": False},
}


def read_tree(directory: Path) -> dict[str, bytes]:
    """File name -> bytes, for every file in ``directory``."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def run_outputs(args: list[str], out: Path) -> dict[str, bytes]:
    """Run ``aamcba run --out out *args`` in-process; the files it wrote."""
    if cli_main(["run", "--out", str(out), *args]) != 0:
        raise AssertionError(f"aamcba run {' '.join(args)} did not exit 0")
    return read_tree(out)


def explain_traces(scenario: Scenario, toggles: dict) -> dict[str, bytes]:
    """``<factor>-<year>.txt`` -> the ``explain`` text, for every factor in
    the first and last horizon years."""
    scenario = scenario.with_overrides(toggles=toggles)
    result = evaluate(scenario)
    return {
        f"{factor}-{year}.txt": explain(result, factor, year).encode()
        for factor in result.factors
        for year in (scenario.horizon_start, scenario.horizon_end)
    }


def _first_difference(want: bytes, got: bytes) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for number, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {number}: golden {w!r}, got {g!r}"
    if len(want_lines) != len(got_lines):
        return f"golden has {len(want_lines)} lines, got {len(got_lines)}"
    return "the line endings differ"


def assert_matches_golden(directory: Path, got: dict[str, bytes]) -> None:
    """Every file of ``directory`` equals its namesake in ``got`` byte for
    byte, and neither side has a file the other lacks."""
    want = read_tree(directory)
    assert sorted(got) == sorted(want), (
        f"{directory}: missing {sorted(set(want) - set(got))}, "
        f"unexpected {sorted(set(got) - set(want))}"
    )
    changed = [
        f"{name}: {_first_difference(want[name], got[name])}"
        for name in want
        if got[name] != want[name]
    ]
    assert not changed, f"{directory} differs:\n" + "\n".join(changed)


def _write_tree(directory: Path, files: dict[str, bytes]) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def regenerate() -> None:
    """Rewrite every golden file from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        for case, args in RUN_CASES.items():
            _write_tree(GOLDEN / "run" / case, run_outputs(args, Path(tmp) / case))
    scenario = load_scenario(default_scenario_path())
    for case, toggles in EXPLAIN_CASES.items():
        _write_tree(GOLDEN / "explain" / case, explain_traces(scenario, toggles))


if __name__ == "__main__":
    regenerate()
