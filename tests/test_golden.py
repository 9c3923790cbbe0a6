"""Golden outputs: the sha256 of every file ``aamcba run`` writes for the
bundled scenario: with default toggles, with two toggles flipped, and with
a factor subset under four other toggles.

A change that shifts any written number, however little, fails here. When
a change is meant to alter outputs, update the hashes in the same commit
and say which files changed and why.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aamcba
from aamcba.cli import main

DEFAULT_RUN = {
    "forecast_corn_area.csv":
        "2b625fdb690b5304dc636d4dd74f9d8099ae17293b03c1d60d8c07c48fd3c43e",
    "forecast_corn_price.csv":
        "c24211b693fad208181932a33376b31de5ff03964dce65df15e7762626b95a25",
    "forecast_corn_yield.csv":
        "8fcebeab673baa9e246a8376f20338112b9a594b294243c775f49a27a24cfca9",
    "forecast_livestock.csv":
        "caa562e19ed3bf62a456477b749aaa788b2436b7b9171a8466e482fc5d9b3953",
    "forecast_mhi.csv":
        "c172d7a476400a27ce0e9025fd5ad9f3eb652bd28965222e322620001b103698",
    "forecast_population.csv":
        "be9303c0c79927ece9d9cad693cf7f5da199bb772389dbd0086786e221694476",
    "forecast_soybean_area.csv":
        "58e2f8037133c34afc49671c418b5e4216da14e8dbd6935036c168b28e51847d",
    "forecast_soybean_price.csv":
        "052fa4fa336a08d0491dfe30902e48ff3cf92138a8ca87d24bb37a7c1778ed2d",
    "forecast_soybean_yield.csv":
        "b54c5922f17fa9c0fac194b36fb7ce14eff9ccae1b953c30fdf47059c5095693",
    "forecast_vmt_us.csv":
        "06b75acb09ed308c0714a6e84cbcf39ee8680ef9ee41e1cd34be203ca05f2f47",
    "forecast_vsl.csv":
        "3ea8997547195054933b422a543197d3fad21768853fc7c0d2216fcbf4247d8a",
    "forecast_wheat_area.csv":
        "2c638aa4b854599df91c9128503c21d2e584c7ca5627811278c74ccd385f03ce",
    "forecast_wheat_price.csv":
        "880e279015961c19a6d9b63796d909dc707f0ab009e0673d8cb0785f21608048",
    "forecast_wheat_yield.csv":
        "462dde6bf1c7c45d43b9fcfcbfdac96102f4b8a34a649dd40dac1d950b70fc1c",
    "npi.csv":
        "0d8d20531a58046201cfffed4237ee459d285b37472f69b0f350f493fad1970e",
    "plot_farming_components.csv":
        "532c8f43a226886bb57e37aa60819898c5a0f9faf66d3a81218a2b4db5497703",
    "plot_medical_cases.csv":
        "6b6071ee83ad324a17772748a6982b5d3cfd2e016b234dfa9c4b34fd1db0ed96",
    "results.csv":
        "d64a68dc5944f2d938c651a804b2e46ec81e3a144f0393411b0b01a5e987909d",
    "summary.json":
        "26910fa57a4b376b0343c4afaadd3648e8a8588255601a466d1b61a4fb3200d9",
}

# bf6_incremental changes the farming factor, bf7_case the medical one;
# npi, results and summary follow from both.
TOGGLED_RUN = {
    **DEFAULT_RUN,
    "npi.csv":
        "30b92d56c93b9a2e9b9d0ac135d64d2db272610c292dfd7c6e4f0a81bddc9ef9",
    "plot_farming_components.csv":
        "3232f22e17c7d2a587215b108263f0216458f1e30bafc5e6aa3e7282bddde7af",
    "results.csv":
        "b6d9d54e0f4a43cdc78f77f6ab8efd02e56bea40074bb51a0ec908195ce4c0d7",
    "summary.json":
        "8fe3d19b8462bfa422e39b278575ef86fe9da69d6a291cdfca3a42902121a4b9",
}



# Four factors, a seed and four toggles: the capex is amortized, the
# BF4 cost-increase sign and BF2's trip-mile basis are flipped, and the
# d=1 series are fitted with a mean, so their forecasts drift.
SUBSET_RUN_ARGS = [
    "--factors", "BF2,BF4,BF6,BF7", "--seed", "7",
    "--toggle", "amortize_capex_years=5",
    "--toggle", "bf4_ci_sign=positive_extra_cost",
    "--toggle", "include_mean_when_differenced=true",
    "--toggle", "bf2_use_trip_miles=true",
]
SUBSET_RUN = {
    "forecast_corn_area.csv":
        "2b625fdb690b5304dc636d4dd74f9d8099ae17293b03c1d60d8c07c48fd3c43e",
    "forecast_corn_price.csv":
        "c24211b693fad208181932a33376b31de5ff03964dce65df15e7762626b95a25",
    "forecast_corn_yield.csv":
        "6d62ef01b590a16b316534b6ac0fef8df4e336aa46f1c369f40a5ec8038566d6",
    "forecast_livestock.csv":
        "686bd5259b589e503ca1b123205d64ec44feebf33b2f8a59f2d5964c362f0f1e",
    "forecast_population.csv":
        "281467daed36736599088ab308ba473816d571c23676418273ebe171e94f12de",
    "forecast_soybean_area.csv":
        "58e2f8037133c34afc49671c418b5e4216da14e8dbd6935036c168b28e51847d",
    "forecast_soybean_price.csv":
        "052fa4fa336a08d0491dfe30902e48ff3cf92138a8ca87d24bb37a7c1778ed2d",
    "forecast_soybean_yield.csv":
        "22c57fcff3b9aefe577fadba6111d2acf1176e32ec49d66aba0ed9c4e5009c6b",
    "forecast_vmt_us.csv":
        "5754abfcb40afec1180552525ec2adc02e8573f5515fc2a92b69dee25b8a554d",
    "forecast_vsl.csv":
        "92d0695aaa90f9b3c3254876cb2cc12b659cd58b469e13b4a2ae5f62402105be",
    "forecast_wheat_area.csv":
        "2c638aa4b854599df91c9128503c21d2e584c7ca5627811278c74ccd385f03ce",
    "forecast_wheat_price.csv":
        "880e279015961c19a6d9b63796d909dc707f0ab009e0673d8cb0785f21608048",
    "forecast_wheat_yield.csv":
        "ae12b7c8a464407725986afd00eb50128285688a72c34a0d484255077359a222",
    "npi.csv":
        "c9eb723fcf07167f70c98ff40bd422dcd96804175534d07ccad9f40fab2a22da",
    "plot_farming_components.csv":
        "614fff8dce49d9bdd310c3f963c608af6f54e4fd14c88f3ad7128d0a4cbf835e",
    "plot_medical_cases.csv":
        "36c155cf0cb572db4bddd87bba391f498ce752a3cea48d6de92c5e5803d97e0e",
    "results.csv":
        "d0fc1dc9e43c0be9cf60d096001f46642714696b0a383d41c2a686ac10ad1d38",
    "summary.json":
        "1d1e67b6fa9c7c13b00631b087d14896c76e8f5e8c98135caa8216524a51ef8c",
}


@pytest.mark.parametrize("args, expected", [
    ([], DEFAULT_RUN),
    (["--toggle", "bf6_incremental=true", "--toggle", "bf7_case=3"], TOGGLED_RUN),
    (SUBSET_RUN_ARGS, SUBSET_RUN),
], ids=["default", "bf6_incremental-bf7_case3", "subset-seed7-four-toggles"])
def test_run_outputs_match_golden_hashes(tmp_path, capsys, args, expected):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), *args]) == 0
    capsys.readouterr()
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"outputs differ from the golden hashes: {changed}"


def test_subset_run_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU family; OPENBLAS_CORETYPE forces one.
    # A closed-form run sums with math.fsum and never loads numpy, so every
    # kernel choice must write the same bytes.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(aamcba.__file__).resolve().parents[1])
    trees = []
    for coretype in (None, "Prescott", "Haswell"):
        out = tmp_path / (coretype or "unset")
        run_env = env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype}
        subprocess.run(
            [sys.executable, "-m", "aamcba.cli", "run", "--out", str(out),
             *SUBSET_RUN_ARGS],
            capture_output=True, env=run_env, check=True,
        )
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(trees[0]) == sorted(SUBSET_RUN)
    for tree in trees[1:]:
        assert tree == trees[0]
