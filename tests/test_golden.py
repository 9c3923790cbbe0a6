"""Golden outputs: the sha256 of every file ``aamcba run`` writes for the
bundled scenario, with default toggles and with two toggles flipped.

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


@pytest.mark.parametrize("toggles, expected", [
    ([], DEFAULT_RUN),
    (["--toggle", "bf6_incremental=true", "--toggle", "bf7_case=3"], TOGGLED_RUN),
], ids=["default", "bf6_incremental-bf7_case3"])
def test_run_outputs_match_golden_hashes(tmp_path, capsys, toggles, expected):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), *toggles]) == 0
    capsys.readouterr()
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"outputs differ from the golden hashes: {changed}"
