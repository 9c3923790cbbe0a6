"""CLI argument handling, exit codes, and output wiring."""
from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import aamcba

from aamcba.cli import _parse_factors, _parse_toggles, find_scenario, main
from aamcba.factors import FACTOR_IDS
from aamcba.ingest import ScenarioError, default_scenario_path, load_scenario


def test_find_scenario_default_and_literal(tmp_path):
    assert find_scenario(None) == default_scenario_path()
    assert find_scenario("default") == default_scenario_path()
    literal = tmp_path / "case.yaml"
    literal.write_text("name: case\n")
    assert find_scenario(str(literal)) == literal
    with pytest.raises(ScenarioError, match="scenario file not found"):
        load_scenario(find_scenario("no-such-scenario"))


def test_parse_factors():
    assert _parse_factors(None) == FACTOR_IDS
    assert _parse_factors("bf9, bf1") == ("BF1", "BF9")
    assert _parse_factors("BF2 BF3") == ("BF2", "BF3")
    with pytest.raises(ScenarioError, match="unknown benefit factors"):
        _parse_factors("BF1,BFZ")
    with pytest.raises(ScenarioError, match="no benefit factors enabled"):
        _parse_factors("  ,  ")


def test_parse_toggles():
    got = _parse_toggles(["bf7_case=3", "bf6_incremental=true",
                          "amortize_capex_years=null"])
    assert got == {
        "bf7_case": 3,
        "bf6_incremental": True,
        "amortize_capex_years": None,
    }
    assert _parse_toggles(None) == {}
    with pytest.raises(ScenarioError, match="needs key=value"):
        _parse_toggles(["bf7_case"])
    with pytest.raises(ScenarioError, match="--toggle bf7_case: not a YAML value"):
        _parse_toggles(["bf7_case=["])


def test_run_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "scenario: ohio-baseline" in captured.out
    assert "net positive gain, 2022:" in captured.out
    assert "net positive gain, 2032:" in captured.out
    assert f"outputs written to {out}" in captured.out
    assert "warning:" in captured.err  # the farming published-form note
    assert (out / "summary.json").is_file()
    assert (out / "results.csv").is_file()


def test_run_plotdata_of_factors_without_items_writes_no_file(tmp_path, capsys):
    # BF1 and BF8 tag no plot items; their values are in results.csv alone.
    out = tmp_path / "plots"
    code = main(["run", "--out", str(out), "--factors", "BF1,BF8"])
    capsys.readouterr()
    assert code == 0
    assert list(out.glob("plot_*")) == []


def test_run_reruns_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", "--out", str(first), "--factors", "BF8,BF9"]) == 0
    assert main(["run", "--out", str(second), "--factors", "BF8,BF9"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_run_missing_scenario_exits_2(capsys):
    assert main(["run", "--scenario", "missing-file.yaml"]) == 2
    assert "scenario file not found" in capsys.readouterr().err


def test_run_pinned_orders_exit_2_without_best_effort(tmp_path, capsys):
    # the bundled data is synthetic, so the published pins cannot all pass;
    # the whiteness check fails because of the input series, so it exits 2
    code = main(["run", "--out", str(tmp_path / "x"), "--pin-orders"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: no residual-whiteness-passing model found for '" in captured.err
    assert "enable --best-effort" in captured.err
    assert "numerical failure" not in captured.err
    assert not (tmp_path / "x").exists()


def test_validate_takes_the_options_of_run(tmp_path, capsys):
    # validate evaluates with run's options, so the pins that make run exit 2
    # make validate exit 2 too, and --best-effort lets both pass.
    assert main(["validate", "--pin-orders"]) == 2
    err = capsys.readouterr().err
    assert "no residual-whiteness-passing model" in err
    assert main(["validate", "--pin-orders", "--best-effort"]) == 0
    assert "kept order" in capsys.readouterr().err
    assert main(["validate", "--factors", "BF6", "--toggle", "bf6_incremental=true"]) == 0
    assert "uplifted harvest" not in capsys.readouterr().err
    assert main(["validate", "--toggle", "bf7_case=9"]) == 2


def test_run_pinned_orders_with_best_effort(tmp_path, capsys):
    code = main([
        "run", "--out", str(tmp_path / "x"), "--pin-orders", "--best-effort",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "kept order" in captured.err


def test_run_toggle_flows_through(tmp_path, capsys):
    code = main([
        "run", "--out", str(tmp_path / "x"), "--factors", "BF6",
        "--toggle", "bf6_incremental=true",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "uplifted harvest" not in captured.err


def test_explain_command(capsys):
    code = main(["explain", "bf5", "2022"])
    captured = capsys.readouterr()
    assert code == 0
    assert "BF5 (bridge inspection savings), year 2022" in captured.out
    assert "inspection cost savings ($): 556,040" in captured.out


def test_explain_bad_year_exits_2(capsys):
    assert main(["explain", "BF5", "2050"]) == 2
    assert "outside horizon" in capsys.readouterr().err


def test_explain_factor_outside_selection_exits_2(capsys):
    assert main(["explain", "BF5", "2022", "--factors", "BF1"]) == 2
    assert "factor 'BF5' was not part of this run (enabled: BF1)" in capsys.readouterr().err


def test_run_to_an_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    # Path.mkdir used to end this run in a FileExistsError traceback.
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["run", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"File exists: '{taken}'" in captured.err
    assert captured.out == ""
    assert taken.read_text() == "not a directory\n"


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    assert "scenario 'ohio-baseline' is valid" in capsys.readouterr().out


def test_validate_reports_bad_factor(capsys):
    assert main(["validate", "--factors", "BF77"]) == 2
    assert "unknown benefit factors" in capsys.readouterr().err


def test_validate_and_run_reject_nan_constant(tmp_path, capsys):
    text = default_scenario_path().read_text(encoding="utf-8")
    assert "  VTTS_2015: 17.25\n" in text
    bad = tmp_path / "nan.yaml"
    bad.write_text(text.replace("  VTTS_2015: 17.25\n", "  VTTS_2015: .nan\n"))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "constant 'VTTS_2015' must be finite" in capsys.readouterr().err
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "constant 'VTTS_2015' must be finite" in capsys.readouterr().err


def test_import_and_closed_form_run_load_no_scipy(tmp_path):
    # numpy serves only iterative (p+q>0) fits, in aamcba.forecast.css;
    # every bundled series fits a closed-form (0,d,0) model, so neither the
    # import, nor validate, nor the run loads that module or numpy. No fit
    # needs scipy, an iterative one included.
    # PyYAML reads only YAML outside the line reader's subset, and the
    # bundled scenario is inside it. The records are plain classes, so
    # dataclasses, and the inspect module it imports, stay unloaded too.
    script = (
        "import json, sys\n"
        "def loaded(*names):\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m in names or m.lstrip('_').partition('.')[0] in names)\n"
        "SHUNNED = ('numpy', 'scipy', 'yaml', 'dataclasses', 'inspect',\n"
        "           'aamcba.forecast.css')\n"
        "import aamcba\n"
        "after_import = loaded(*SHUNNED)\n"
        "from aamcba.cli import main\n"
        "validated = main(['validate'])\n"
        "after_validate = loaded(*SHUNNED)\n"
        "code = main(['run', '--out', sys.argv[1]])\n"
        "after_run = loaded(*SHUNNED)\n"
        "from aamcba.forecast.arima import ArimaOrder, fit_arima\n"
        "fit_arima([(i * 7919 % 101) / 10.0 for i in range(60)], ArimaOrder(1, 0, 1))\n"
        "print(json.dumps([after_import, validated, after_validate, code, after_run,\n"
        "                  loaded('scipy')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(aamcba.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    after_import, validated, after_validate, code, after_run, after_fit = json.loads(
        proc.stdout.splitlines()[-1]
    )
    assert after_import == []
    assert validated == 0
    assert after_validate == []
    assert code == 0
    assert after_run == []
    assert after_fit == []


def test_only_the_css_module_imports_numpy():
    package = Path(aamcba.__file__).parent
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"forecast/css.py"}


def _bundled_doc() -> dict:
    import yaml

    return yaml.safe_load(default_scenario_path().read_text(encoding="utf-8"))


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


@pytest.mark.parametrize("name, text, where", [
    ("cut.yaml", "name: x\nhorizon: {start: 2022,\n  end: 2032\nconstants: [\n",
     ":4: invalid YAML"),
    ("cut.json", '{"name": "x",\n "horizon": {"start": 2022,\n', ":3: invalid JSON"),
    ("latin1.yaml", "name: caf\xe9\n", ": not UTF-8 text"),
])
def test_parse_errors_exit_2_naming_file_and_line(tmp_path, capsys, name, text, where):
    bad = tmp_path / name
    bad.write_bytes(text.encode("latin-1"))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}{where}" in err
        assert "numerical failure" not in err


def test_invalid_timestamp_exits_2_naming_file_or_toggle(tmp_path, capsys):
    # YAML 1.1 resolves 2001-13-45 as a timestamp, and PyYAML's constructor
    # then raises a ValueError that is no YAMLError; it used to exit 3.
    text = default_scenario_path().read_text(encoding="utf-8")
    assert "\nname: ohio-baseline\n" in text
    bad = tmp_path / "date.yaml"
    bad.write_text(text.replace("\nname: ohio-baseline\n", "\nname: 2001-13-45\n"))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: invalid YAML: month must be in 1..12" in err
        assert "numerical failure" not in err
    assert main(["run", "--out", str(tmp_path / "y"), "--toggle", "bf7_case=2001-13-45"]) == 2
    err = capsys.readouterr().err
    assert "--toggle bf7_case: not a YAML value: '2001-13-45'" in err
    assert "numerical failure" not in err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


@pytest.mark.parametrize("year, data, message", [
    ("2023", "# caf\xe9\n".encode("latin-1"), ": not UTF-8 text"),
    ("1e400", b"", ":3: year must be finite, got '1e400'"),
    ("2023.5", b"", ":3: year must be an integer, got 2023.5"),
], ids=["latin-1", "infinite-year", "fractional-year"])
def test_malformed_series_file_exits_2_naming_the_file(
    tmp_path, capsys, year, data, message
):
    doc = _bundled_doc()
    capex = doc["series"]["exogenous"]["capex"]
    rows = [f"{capex['start'] + i},{v}" for i, v in enumerate(capex["values"])]
    rows[1] = f"{year},{capex['values'][1]}"
    csv = tmp_path / "capex.csv"
    csv.write_bytes(data + ("year,value\n" + "\n".join(rows) + "\n").encode())
    doc["series"]["exogenous"]["capex"] = {"file": csv.name}
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{csv}{message}" in err
        assert "numerical failure" not in err


def _set(*path_and_value):
    """An edit that sets doc[k1]...[kn] = value."""
    *path, key, value = path_and_value

    def edit(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value
    return edit


def _drop(key):
    """An edit that deletes constant ``key``."""

    def edit(doc):
        del doc["constants"][key]
    return edit


def _cut_mhi(n: int):
    """An edit that keeps the last ``n`` points of ``mhi``."""

    def edit(doc):
        mhi = doc["series"]["historical"]["mhi"]
        mhi["start"] += len(mhi["values"]) - n
        mhi["values"] = mhi["values"][-n:]
    return edit


#: BF5's per-inspection rates, which the bundled scenario sets.
RATES = ("snooper_rate_core", "snooper_rate_offhours", "drone_rate_core",
         "drone_rate_offhours")

#: A constant set outside its domain. Validation must reject each one,
#: because the factor arithmetic does not guard it.
DOMAIN_CASES = [
    ("mpg_fleet", 0, "greater than 0, got 0.0"),
    ("farms_total", 0, "greater than 0, got 0.0"),
    ("seats_per_evtol", 0, "greater than 0, got 0.0"),
    ("co2_share_of_ghg", 0, "in (0, 1], got 0.0"),
    ("co2_share_of_ghg", 1.2, "in (0, 1], got 1.2"),
    ("market_cagr", -1.0, "greater than -1, got -1.0"),
    *((key, 0, "greater than 0, got 0.0") for key in (
        "MHI_2015", "herd_size_case_study", "market_value_2019",
        "us_market_2019", "round_trip_min", "operational_days",
        "packages_per_driver_day", "warehouse_area_per_worker_sf",
        "truck_payload_lb", "evtol_payload_lb", "annual_parcels",
        "parcel_fraction", "us_annual_trips", *RATES,
    )),
]


@pytest.mark.parametrize("edit, message", [
    (_set("constants", [1, 2]), "'constants' must be a mapping"),
    (_set("constants", "DSN", 3), "constant 'DSN' must be a list of numbers"),
    (_set("constants", "VTTS_2015", "abc"), "constant 'VTTS_2015' must be a number"),
    (_set("horizon", "start", "soon"), "horizon start must be an integer"),
    (_set("horizon", "start", 2022.5), "horizon start must be an integer"),
    (_set("horizon", "start", "2022"), "horizon start must be an integer, got '2022'"),
    (_set("horizon", "end", float("inf")), "horizon end must be an integer"),
    (_set("horizon", "end", 10**18),
     "exogenous series 'passenger_trips' does not cover year 2033 (covers 2022-2032)"),
    (_set("horizon", "end", 10**19),
     "exogenous series 'passenger_trips' does not cover year 2033 (covers 2022-2032)"),
    (_set("orders", "vmt_us", [1.5, 0, 1.9]),
     "order for 'vmt_us': p must be an integer, got 1.5"),
    (_set("orders", "vmt_us", [True, 1, False]),
     "order for 'vmt_us': p must be an integer, got True"),
    (_set("orders", "vmt_us", ["1", "0", "1"]),
     "order for 'vmt_us': p must be an integer, got '1'"),
    (_set("series", "historical", "mhi", "start", "1990"),
     "series 'mhi' start must be an integer, got '1990'"),
    (_set("series", "historical", "mhi", "values", 3),
     "series 'mhi' values must be a list"),
    (_set("series", "historical", "mhi", "values", [1.0] * 20 + ["x"]),
     "series 'mhi' value for 2011 must be a number, got 'x'"),
    (_set("constants", "VTTS_2015", True), "constant 'VTTS_2015' must be a number, got True"),
    (_set("constants", "DSN", 1, True), "constant 'DSN' must be a number, got True"),
    (_set("series", "historical", "mhi", "values", 20, True),
     "series 'mhi' value for 2011 must be a number, got True"),
    (_set("series", "exogenous", "capex",
          {str(year): True if year == 2025 else 1.0 for year in range(2022, 2033)}),
     "series 'capex' value for 2025 must be a number, got True"),
    (_set("series", "exogenous", [1]), "'exogenous' must be a mapping"),
    (_set("toggles", "all"), "'toggles' must be a mapping"),
    *((_set("constants", key, value), f"constant '{key}' must be {rule}")
      for key, value, rule in DOMAIN_CASES),
    (_set("series", "exogenous", "us_population", "values", 3, 0),
     "exogenous series 'us_population' in 2025 must be greater than 0, got 0.0"),
    (_set("constants", "drone_capable_inspections", 500.0),
     "constant 'drone_capable_inspections' (500.0) exceeds "
     "'heavy_inspections_per_year' (400.0)"),
    *((_drop(key), f"scenario constant '{key}' is missing") for key in RATES),
    (_set("constants", "VTTS_2105", 17.25), "scenario constant 'VTTS_2105' is unknown"),
    (_set("constants", "mhi", 1.0), "scenario constant 'mhi' is unknown"),
    (_set("series", "historical", "mhi", "unit", "USD"),
     "series 'mhi' unit must be 'USD/yr', got 'USD'"),
    (_set("series", "exogenous", "rides", {"start": 2022, "values": [1.0] * 11}),
     "scenario exogenous series 'rides' is unknown"),
    (_set("series", "exogenous", "mhi", {"start": 2022, "values": [1.0] * 11}),
     "scenario exogenous series 'mhi' is unknown"),
    (_set("orders", "mhii", [0, 1, 0]), "order for 'mhii' names no historical series"),
    # validate used to accept 8 points or more, and run exited 2 on 10
    # with "too few for order (0,2,0)" or "too short for an ADF test"
    (_cut_mhi(10), "historical series 'mhi' cannot be forecast: series 'mhi' "
     "has 10 observations; forecasting needs at least 12"),
], ids=["constants-list", "DSN-scalar", "constant-string", "horizon-string",
        "horizon-fraction", "horizon-quoted", "horizon-infinite",
        "horizon-end-1e18", "horizon-end-1e19", "order-fraction",
        "order-boolean", "order-quoted", "start-quoted", "values-scalar",
        "value-string", "constant-true", "DSN-true", "value-true", "year-value-true",
        "exogenous-list", "toggles-string",
        *(f"{key}={value}" for key, value, _ in DOMAIN_CASES),
        "us_population-2025=0", "drone_capable_inspections-above-total",
        *(f"{key}-missing" for key in RATES), "constant-misspelt",
        "constant-named-as-a-series", "unit-mismatch", "series-unknown",
        "series-of-the-other-kind", "order-unknown", "mhi-under-the-floor"])
def test_malformed_values_exit_2_naming_the_key(tmp_path, capsys, edit, message):
    doc = _bundled_doc()
    edit(doc)
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "numerical failure" not in err


@pytest.mark.parametrize("key, value", [
    ("market_cagr", 1.0e200),
    ("scghg_discount", 1.0e200),
    ("scghg_base_year", -1.0e300),
    ("market_base_year", -1.0e300),
])
def test_overflowing_growth_exits_2_naming_the_constant(tmp_path, capsys, key, value):
    # Each value lies inside its constant's domain, but compounding it over
    # the horizon overflows a float; validation compounds it once.
    doc = _bundled_doc()
    doc["constants"][key] = value
    big = _write_json(tmp_path / "big.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(big)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' ({value!r})" in err
        assert "is not a finite number" in err
        assert "numerical failure" not in err


def test_complex_growth_exits_2_naming_the_constant(tmp_path, capsys):
    # A rate below -1 compounded over a fractional number of years is
    # complex; the run used to end in a TypeError traceback.
    doc = _bundled_doc()
    doc["constants"].update(scghg_discount=-2.0, scghg_base_year=2020.5)
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "'scghg_discount' (-2.0)" in err
        assert "'scghg_base_year' (2020.5)" in err


@pytest.mark.parametrize("values", [
    {"market_value_2019": 1.0e307, "us_market_2019": 1.0e307},
    {"us_market_2019": 1.0e307},
    {"scc_2020": 1.0e307},
    {"scm_2020": 1.0e308},
])
def test_huge_base_values_exit_2_naming_the_constants(tmp_path, capsys, values):
    # Each growth factor is finite, but the package-market level or a social
    # cost, or its product with the tons emitted, overflows: validate used to
    # pass and run then ended in a non-finite band.
    doc = _bundled_doc()
    doc["constants"].update(values)
    big = _write_json(tmp_path / "big.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(big)]) == 2
        err = capsys.readouterr().err
        for key, value in values.items():
            assert f"'{key}' ({value!r})" in err
        assert "is not a finite number" in err
        assert "numerical failure" not in err


@pytest.mark.parametrize("key", ["annual_parcels", "parcel_fraction", "co2_tons_per_gallon"])
def test_validated_huge_constant_runs_or_exits_2_naming_it(tmp_path, capsys, key):
    # validate used to pass each of these, and run then ended in a
    # non-finite band (exit 3): if validate exits 0, run must too, and a
    # rejection by either command exits 2 naming the constant.
    doc = _bundled_doc()
    doc["constants"][key] = 1.0e307
    big = _write_json(tmp_path / "big.json", doc)
    codes = []
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        codes.append(main(argv + ["--scenario", str(big)]))
        err = capsys.readouterr().err
        assert codes[-1] == 0 or (codes[-1] == 2 and f"'{key}'" in err), err
    assert codes[0] != 0 or codes[1] == 0, codes


def test_forecast_subpackage_imports_in_a_fresh_interpreter():
    # The package namespace once re-exported the function ``forecast``,
    # which shadowed the subpackage of that name.
    env = {**os.environ, "PYTHONPATH": str(Path(aamcba.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import aamcba.forecast.arima as m; print(m.__name__)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "aamcba.forecast.arima\n"


def _assert_both_reject_mhi(tmp_path, capsys, values, *options):
    # A series that makes the ADF regression singular, or numerically so:
    # both commands exit 2 naming it, not 3 with a numerical failure.
    doc = _bundled_doc()
    mhi = doc["series"]["historical"]["mhi"]
    mhi["values"] = values(len(mhi["values"]))
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad), *options]) == 2
        err = capsys.readouterr().err
        assert "historical series 'mhi'" in err
        assert "numerical failure" not in err
    return mhi["values"]


def test_validate_rejects_out_of_range_pin_and_constant_series(tmp_path, capsys):
    doc = _bundled_doc()
    doc["orders"]["mhi"] = [9, 0, 0]
    pinned = _write_json(tmp_path / "pinned.json", doc)
    assert main(["validate", "--scenario", str(pinned)]) == 2
    assert "order for 'mhi': p must be in 0..5, got 9" in capsys.readouterr().err
    out = str(tmp_path / "x")
    assert main(["run", "--scenario", str(pinned), "--pin-orders", "--out", out]) == 2
    capsys.readouterr()

    _assert_both_reject_mhi(tmp_path, capsys, lambda n: [40000.0] * n)


def test_validate_and_run_reject_exactly_linear_series(tmp_path, capsys):
    # Equal first differences make the ADF regression singular; this used
    # to pass validate and make run exit 3 with "Singular matrix".
    _assert_both_reject_mhi(
        tmp_path, capsys, lambda n: [30000.0 + 100.0 * i for i in range(n)]
    )


def test_validate_and_run_reject_series_linear_up_to_rounding(tmp_path, capsys):
    # First differences equal but for the last bit: validate used to pass
    # it, and run took the NaN ADF statistic of the differenced series for
    # a unit root, fitted (5,2,5) and exited 3.
    values = _assert_both_reject_mhi(
        tmp_path, capsys, lambda n: [30000.1 + 0.1 * i for i in range(n)]
    )
    assert len(values) == 31
    steps = {b - a for a, b in zip(values, values[1:])}
    assert len(steps) > 1


def test_a_pin_over_its_series_floor_exits_2_naming_series_and_order(
    tmp_path, capsys
):
    # (3,1,2) needs 16 points and mhi keeps 14; selection fits those 14.
    options = ["--factors", "BF1", "--best-effort"]
    doc = _bundled_doc()
    _cut_mhi(14)(doc)
    doc["orders"]["mhi"] = [3, 1, 2]
    cut = _write_json(tmp_path / "cut.json", doc)
    assert main(["validate", "--scenario", str(cut), *options]) == 0
    capsys.readouterr()
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(cut), "--pin-orders", *options]) == 2
        assert capsys.readouterr().err == (
            "error: historical series 'mhi' cannot be forecast: 13 differenced "
            "observations are too few for order (3,1,2); need 15\n"
        )


def _noisy_linear(n: int) -> list[float]:
    import numpy as np

    noise = np.random.default_rng(1).normal(0.0, 1e-5, n)
    return [30000.0 + 1000.0 * i + float(e) for i, e in enumerate(noise)]


@pytest.mark.parametrize("values, options", [
    (lambda n: [1000.0 + 3.0 * i * i for i in range(n)], ()),
    (_noisy_linear, ()),
    # Fitted at its pinned order, the Ljung-Box sums of the residuals
    # overflow, and math.fsum raises ValueError.
    (lambda n: [float(v) * 1e241 for v in
                _bundled_doc()["series"]["historical"]["mhi"]["values"]],
     ("--factors", "BF1", "--pin-orders")),
], ids=["quadratic", "noisy-linear", "pinned-overflow"])
def test_validate_and_run_reject_a_series_they_cannot_forecast(
    tmp_path, capsys, values, options
):
    # validate used to pass the first two, and run exited 3; both commands
    # exited 3 on the third.
    _assert_both_reject_mhi(tmp_path, capsys, values, *options)


def test_a_series_whose_spread_overflows_exits_2_naming_the_overflow(
    tmp_path, capsys
):
    # population x 1e221 at its pinned (0,2,1): the iterative fit's
    # standardizing scale squares the differenced values, which overflows.
    # numpy used to warn about it, and the fit ended in "sigma2 must be
    # positive, got nan".
    edited = tmp_path / "big.json"
    doc = _bundled_doc()
    _scale("historical", "population", 1e221)(doc)
    _write_json(edited, doc)
    options = ["--scenario", str(edited), "--factors", "BF9", "--pin-orders"]
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + options) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: historical series 'population' cannot be forecast: "
            "the series' spread overflows float64 when squared\n"
        )
    assert not (tmp_path / "x").exists()


def _scale(section: str, name: str, factor: float):
    """An edit that multiplies a constant, or a series' values, by ``factor``.
    (YAML 1.1 reads a number such as 6.5e9 as a string, which the loader
    converts.)"""

    def edit(doc):
        if section == "constants":
            holder, key = doc["constants"], name
        else:
            holder, key = doc["series"][section][name], "values"
        value = holder[key]
        if isinstance(value, list):
            holder[key] = [float(v) * factor for v in value]
        else:
            holder[key] = float(value) * factor
    return edit


NEGATIVE_FORECAST = (
    "forecast of historical series '{}' (lower channel) in 2022 "
    "must be greater than 0, got -"
)


@pytest.mark.parametrize("edit, factors, message", [
    (_scale("historical", "population", -1.0), [],
     NEGATIVE_FORECAST.format("population")),
    (_scale("historical", "vmt_us", -1.0), [], NEGATIVE_FORECAST.format("vmt_us")),
    (_scale("constants", "us_market_2019", 1e-300), [],
     "'us_market_2019' (2.11553e-298)"),
    (_scale("historical", "population", -1.0), ["--factors", "BF7"],
     NEGATIVE_FORECAST.format("population")),
    *((_scale("historical", name, -1.0), [], NEGATIVE_FORECAST.format(name))
      for name in ("mhi", "vsl", "livestock", "soybean_area")),
], ids=["negated-population", "negated-vmt_us", "tiny-us_market_2019",
        "BF7-negated-population", "negated-mhi", "negated-vsl", "negated-livestock",
        "negated-soybean_area"])
def test_forecast_derived_guards_exit_2(tmp_path, capsys, edit, factors, message):
    # Each forecast is checked against its series' domain as it is made, so
    # the factor arithmetic carries no guards; package trips that underflow
    # to 0 divide by zero, which names the constants read. BF7 alone used
    # to exit 0 on a negated population, with negative medical values.
    doc = _bundled_doc()
    edit(doc)
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + factors + ["--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "numerical failure" not in err
    assert not (tmp_path / "x").exists()


def _edits(*edits):
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


@pytest.mark.parametrize("edit, factor, message", [
    (_scale("exogenous", "tax_income", 3e299), "BF8",
     "BF8 total over 2022-2032 is not a finite number"),
    (_set("constants", "CAS", [0.0, -1.7e308, 0.0, 0.0, 0.0, 0.0]), "BF7",
     "BF7 plot item 'stations_50' in 2022 is not a finite number"),
    (_scale("exogenous", "capex", 3e299), "BF8",
     "capex total over 2022-2032 is not a finite number"),
    (_edits(_scale("exogenous", "capex", 3e299), _scale("exogenous", "opex", 2e300)),
     "BF8",
     "npi in 2022: the factor values less capex and opex are not a finite number"),
], ids=["tax_income-horizon-total", "CAS-unselected-network", "capex-horizon-total",
        "capex-opex-yearly-npi"])
def test_validate_fails_where_the_writers_would(
    tmp_path, capsys, edit, factor, message
):
    # Every factor value is finite, but a horizon total overflows, or the
    # value of a BF7 network that bf7_case does not select, which only the
    # plot table lists, or a year's net gain: validate used to exit 0 or 3,
    # and run exited 3 or wrote an Infinity into summary.json. evaluate
    # derives every reported number, so validate, run and explain of one
    # factor all exit 2 naming the sum, and run writes nothing.
    doc = _bundled_doc()
    edit(doc)
    bad = _write_json(tmp_path / "bad.json", doc)
    run = ["run", "--out", str(tmp_path / "x")]
    commands = [["validate"], run, ["explain", factor, "2022"]]
    for argv in commands:
        assert main(argv + ["--scenario", str(bad)]) == 2, argv
        err = capsys.readouterr().err
        assert message in err, argv
        assert "numerical failure" not in err
    assert not (tmp_path / "x").exists()


#: --toggle flags the fuzz test draws: valid values, then invalid ones.
FUZZ_TOGGLES = (
    "bf2_use_trip_miles=true", "bf3_single_ratio=true",
    "bf4_ci_sign=positive_extra_cost", "bf6_incremental=true",
    "bf6_matching_area=false", "bf7_case=3", "amortize_capex_years=10",
    "include_mean_when_differenced=true",
    "bf7_case=9", "bf6_incremental=maybe", "amortize_capex_years=0",
    "bf4_ci_sign=sideways", "no_such=1",
)


def test_fuzzed_scenario_that_validates_runs(tmp_path, capsys, monkeypatch):
    # One input of the bundled scenario scaled by 10^k, set to zero or
    # negated, with a factor subset, toggles valid and invalid, pins and
    # --best-effort drawn too: validate and run exit alike, never with 3,
    # and validate writes no file.
    base = _bundled_doc()
    inputs = [("constants", key) for key in base["constants"]]
    inputs += [(section, name) for section in ("exogenous", "historical")
               for name in base["series"][section]]
    base = json.dumps(base)
    rng = random.Random(3)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = str(tmp_path / "out")
    for _ in range(60):
        section, name = rng.choice(inputs)
        factor = rng.choice((0.0, -1.0, 10.0 ** rng.randint(-308, 308)))
        doc = json.loads(base)
        _scale(section, name, factor)(doc)
        path = str(_write_json(tmp_path / "case.json", doc))
        options = ["--scenario", path]
        if rng.random() < 0.5:
            options += ["--factors", ",".join(rng.sample(FACTOR_IDS, rng.randint(1, 9)))]
        for toggle in rng.sample(FUZZ_TOGGLES, rng.choice((0, 0, 1, 2))):
            options += ["--toggle", toggle]
        options += [flag for flag in ("--pin-orders", "--best-effort")
                    if rng.random() < 0.4]
        codes = []
        for argv in (["validate"], ["run", "--out", out]):
            codes.append(main(argv + options))
            err = capsys.readouterr().err
            assert codes[-1] in (0, 2), (section, name, factor, options, err)
            assert not any(cwd.iterdir())
        assert codes[0] == codes[1], (section, name, factor, options, codes)


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(aamcba.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "aamcba.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def test_module_entry_point_matches_in_process_main(tmp_path, capsys):
    # ``python -m aamcba.cli`` goes through ``entry()``, the console
    # script's path, which exits the interpreter with main()'s code.
    proc = _run_module("run", "--out", str(tmp_path / "sub"))
    assert proc.returncode == 0, proc.stderr
    assert main(["run", "--out", str(tmp_path / "inproc")]) == 0
    captured = capsys.readouterr()
    assert proc.stderr == captured.err

    def body(stdout: str) -> list[str]:
        return [ln for ln in stdout.splitlines()
                if not ln.startswith("outputs written to")]

    assert body(proc.stdout) == body(captured.out)
    assert proc.stdout.splitlines()[-1] == f"outputs written to {tmp_path / 'sub'}"
    sub = sorted((tmp_path / "sub").iterdir())
    inproc = sorted((tmp_path / "inproc").iterdir())
    assert [p.name for p in sub] == [p.name for p in inproc]
    for a, b in zip(sub, inproc):
        assert a.read_bytes() == b.read_bytes(), a.name

    proc = _run_module("validate", "--scenario", str(tmp_path / "missing.yaml"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: scenario file not found" in proc.stderr


@pytest.mark.parametrize("toggle, message", [
    ("bf6_incremental=maybe", "toggle bf6_incremental must be true or false, got 'maybe'"),
    ("bf2_use_trip_miles=1", "toggle bf2_use_trip_miles must be true or false, got 1"),
    ("include_mean_when_differenced=null",
     "toggle include_mean_when_differenced must be true or false, got None"),
    ("bf7_case=true", "toggle bf7_case must be a positive integer, got True"),
    ("amortize_capex_years=true",
     "toggle amortize_capex_years must be a positive integer or null, got True"),
    ("no_such=1",
     "unknown toggles: ['no_such']; valid: amortize_capex_years, bf2_use_trip_miles, "
     "bf3_single_ratio, bf4_ci_sign, bf6_incremental, bf6_matching_area, bf7_case, "
     "include_mean_when_differenced"),
], ids=["bool-string", "bool-int", "bool-null", "int-bool", "int-or-null-bool",
        "unknown-name"])
def test_toggle_flag_of_the_wrong_type_exits_2(tmp_path, capsys, toggle, message):
    for argv in (["run", "--out", str(tmp_path / "x")], ["explain", "BF7", "2022"]):
        assert main(argv + ["--toggle", toggle]) == 2
        err = capsys.readouterr().err
        assert message in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("edit, toggle, message", [
    (_set("constants", "co2_share_of_ghg", 2.0), [],
     "constant 'co2_share_of_ghg' must be in (0, 1], got 2.0"),
    (None, ["--toggle", "bf7_case=banana"],
     "toggle bf7_case must be a positive integer, got 'banana'"),
    (lambda doc: doc.setdefault("toggles", {}).update(bf7_case="banana"),
     ["--toggle", "bf7_case=3"],
     "toggle bf7_case must be a positive integer, got 'banana'"),
], ids=["co2_share_of_ghg=2", "bf7_case=banana", "file-bf7_case=banana-overridden"])
def test_inputs_no_enabled_factor_reads_are_checked(tmp_path, capsys, edit, toggle,
                                                     message):
    # Only BF9 reads co2_share_of_ghg and only BF7 reads bf7_case, but every
    # constant's domain and every toggle value is checked whatever the factors,
    # and a toggle value in the file even when --toggle overrides it.
    doc = _bundled_doc()
    if edit:
        edit(doc)
    bad = _write_json(tmp_path / "bad.json", doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--factors", "BF1", "--scenario", str(bad), *toggle]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_validate_rejects_string_boolean_toggle_in_json(tmp_path, capsys):
    doc = _bundled_doc()
    doc.setdefault("toggles", {})["bf6_incremental"] = "no"
    bad = _write_json(tmp_path / "bad.json", doc)
    message = "toggle bf6_incremental must be true or false, got 'no'"
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x")]):
        assert main(argv + ["--scenario", str(bad)]) == 2
        assert message in capsys.readouterr().err
