"""Golden outputs: the sha256 of every file ``aamcba run`` writes for the
bundled scenario: with default toggles, with two toggles flipped, and with
a factor subset under four other toggles.

A change that shifts any written number, however little, fails here. When
a change is meant to alter outputs, update the hashes in the same commit
and say which files changed and why.
"""
from __future__ import annotations

import hashlib

import pytest

from aamcba.cli import main

DEFAULT_RUN = {
    "air_cargo.csv":
        "1303de99db76f50a2c0b9457fc2735c72a093e68294002c232f3d28a7c8b22d4",
    "bridge_inspection.csv":
        "89abde664d3b934b8dd28c721724196e18478d1c46bc253d5152e17166056bb8",
    "farming.csv":
        "e1c73994825be75bcfb115d8cac2b71876fbae558ddaef0345d103236fc6fccc",
    "forecast_corn_area.csv":
        "2b625fdb690b5304dc636d4dd74f9d8099ae17293b03c1d60d8c07c48fd3c43e",
    "forecast_corn_price.csv":
        "077f8b5bf4b7667b0546be54a2e8b4f9180f8cb240b13a42af3d1da779e76397",
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
        "2885d943f3165e071b6434369d02b0f431ef3b246f78fc5fb727b8f0056bb0f4",
    "forecast_soybean_yield.csv":
        "b54c5922f17fa9c0fac194b36fb7ce14eff9ccae1b953c30fdf47059c5095693",
    "forecast_vmt_us.csv":
        "25fffcda2ab2d33090b17ed878b2a022298db0594756efd11349f4b41d98a386",
    "forecast_vsl.csv":
        "3ea8997547195054933b422a543197d3fad21768853fc7c0d2216fcbf4247d8a",
    "forecast_wheat_area.csv":
        "2c638aa4b854599df91c9128503c21d2e584c7ca5627811278c74ccd385f03ce",
    "forecast_wheat_price.csv":
        "880e279015961c19a6d9b63796d909dc707f0ab009e0673d8cb0785f21608048",
    "forecast_wheat_yield.csv":
        "462dde6bf1c7c45d43b9fcfcbfdac96102f4b8a34a649dd40dac1d950b70fc1c",
    "ghg_reduction.csv":
        "8bfbc55e96754c0206e13e68f4a39f3fe96601b45208d04aa2819aa3a07c5101",
    "medical_response.csv":
        "336d3c387fc30254f8ab6c3a9a0400c71d20d214c1e45dbfab5d82ced5621f70",
    "npi.csv":
        "66992b8c6a00711ee9486273987f1098f48782bb6e4411231c47d5eb558c8423",
    "package_delivery.csv":
        "ee40ee13ede5951558a8c7db3c202401bf4bbd107caade66b3db98d525964e90",
    "passenger_time_savings.csv":
        "155e4d3ae39310b089f172d1be7dbbfb5b8f5567bc4ae9f56ac79d466c18c296",
    "plot_delivery_savings.csv":
        "618bc627dda7d906bb07240aaa9b0961f910fe3320aeae5618c13831f752681a",
    "plot_farming_components.csv":
        "7880fd379dc79902b1e5a03408ebaf60326e7dab4e7e8d7c2d11c5abf50b4e51",
    "plot_medical_cases.csv":
        "6b6071ee83ad324a17772748a6982b5d3cfd2e016b234dfa9c4b34fd1db0ed96",
    "plot_npi_band.csv":
        "66992b8c6a00711ee9486273987f1098f48782bb6e4411231c47d5eb558c8423",
    "plot_tax_ghg.csv":
        "2b95167914721728a10a47cd737ec7145198846a3d1534959e32d16f10dfb6db",
    "plot_time_safety_inspection.csv":
        "4fea4e09d0e82ebcaa67f507a4c81ac4ba987bd279263069c9c830b6952ebaf0",
    "results.csv":
        "f46c89fa70ff3b136ff12da3ba538546fdce43650234deab7b3134817e38577e",
    "summary.json":
        "19b79d6ae98b5005b4169a04f20eefe2ada5168483bdc951953625b00f714de8",
    "tax_revenue.csv":
        "51ffa8f57a589cc637ae598890fd1e9041f9c4f7a62c61af67b96e287ddd0867",
    "traffic_safety.csv":
        "ee5a54b4e5fb30074a7d4af6aa5cddd854d827f1b93c23f58bb2a1b02e02a827",
}

# bf6_incremental changes the farming factor, bf7_case the medical one;
# npi, results and summary follow from both.
TOGGLED_RUN = {
    **DEFAULT_RUN,
    "farming.csv":
        "41405e7f5a130672e38c38f29c950d44ffd8e872cfb7add85b5bac6b23d10b09",
    "medical_response.csv":
        "b396a23c59a13f655cbadb567c495e97609529d6b9242ac1948871c04a0ae89e",
    "npi.csv":
        "30b92d56c93b9a2e9b9d0ac135d64d2db272610c292dfd7c6e4f0a81bddc9ef9",
    "plot_farming_components.csv":
        "b70ce298dfb62c7c86e2f1b06ab1c1605b561ee963617ecb56ccf6669f65c2e0",
    "plot_npi_band.csv":
        "30b92d56c93b9a2e9b9d0ac135d64d2db272610c292dfd7c6e4f0a81bddc9ef9",
    "results.csv":
        "3b004ce936d1ab6ecf88e835948ead229b072655eff45b4f601a17b6ec02dd33",
    "summary.json":
        "daa19b94a2d80fb97480776a3eb97cc22f36eceb19bc320e11a04e19a07e56e0",
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
    "air_cargo.csv":
        "6ddfd38b5fb75b232522f14509495b7b86bbeaa5a8f3aeadef89b1136a6da24f",
    "farming.csv":
        "eb2464a55d9738f6b658e186eef61a89da3a05c9fd029254a9794e037a875d7f",
    "forecast_corn_area.csv":
        "2b625fdb690b5304dc636d4dd74f9d8099ae17293b03c1d60d8c07c48fd3c43e",
    "forecast_corn_price.csv":
        "077f8b5bf4b7667b0546be54a2e8b4f9180f8cb240b13a42af3d1da779e76397",
    "forecast_corn_yield.csv":
        "6d62ef01b590a16b316534b6ac0fef8df4e336aa46f1c369f40a5ec8038566d6",
    "forecast_livestock.csv":
        "686bd5259b589e503ca1b123205d64ec44feebf33b2f8a59f2d5964c362f0f1e",
    "forecast_population.csv":
        "281467daed36736599088ab308ba473816d571c23676418273ebe171e94f12de",
    "forecast_soybean_area.csv":
        "58e2f8037133c34afc49671c418b5e4216da14e8dbd6935036c168b28e51847d",
    "forecast_soybean_price.csv":
        "2885d943f3165e071b6434369d02b0f431ef3b246f78fc5fb727b8f0056bb0f4",
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
    "medical_response.csv":
        "01e0ef1ea24bcf44bbf1d6e25280d2aa5a234dd9cd667f0e813fc52b020eeb3e",
    "npi.csv":
        "cf28a17245448a22260066edf33a1b9832887b3267bbdae57760c47490399b06",
    "plot_delivery_savings.csv":
        "d963e5ae74891b3f9e9e70bbcc378b91fbdaf1489e4050069f6014807bb42f1d",
    "plot_farming_components.csv":
        "91c3b9a2034576d29ad63ff2bea9a734fcad558d7e847390739d7c1c0f5b8b13",
    "plot_medical_cases.csv":
        "36c155cf0cb572db4bddd87bba391f498ce752a3cea48d6de92c5e5803d97e0e",
    "plot_npi_band.csv":
        "cf28a17245448a22260066edf33a1b9832887b3267bbdae57760c47490399b06",
    "plot_time_safety_inspection.csv":
        "f69eaa5955afcf0235ac8da4b1c402b98a6823a2f222c6a80c74570a6d21a466",
    "results.csv":
        "df9aab965eb2cd49a76ca4a40b2fda5169c1890b264ac34b80eaf7fdca6d5da7",
    "summary.json":
        "9266921c7c9622de1266c969c4c0c7e6dec6c546a81e7a390b0093aef96cc618",
    "traffic_safety.csv":
        "0a192ee5a6081e6140d242a5ff966f44ee360bdc5702e6413e3336380b7f2eb7",
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
