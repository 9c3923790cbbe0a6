"""Run the bundled scenario end to end and write every output file.

The script loads the packaged statewide scenario, forecasts its
historical inputs, evaluates all nine benefit factors against the
capital and operating cost schedule, prints the yearly net-gain table
with its comonotone envelope, and writes every output file.

Run with: python3 demos/run_default_scenario.py [output_dir]
"""
from __future__ import annotations

import sys
from pathlib import Path

from aamcba.engine import evaluate, write_outputs
from aamcba.ingest import default_scenario_path, load_scenario


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")

    scenario = load_scenario(default_scenario_path())
    print(f"scenario: {scenario.name}")
    print(f"horizon:  {scenario.horizon_start}-{scenario.horizon_end}")
    print(f"series:   {len(scenario.historical_series)} historical inputs to forecast")
    print()

    result = evaluate(scenario)
    for message in result.warnings:
        print(f"warning: {message}")

    adequate = sum(1 for f in result.forecasts.values() if f.adequate)
    print(f"forecasts: {adequate}/{len(result.forecasts)} passed residual checks")
    print()

    print("net positive gain by year ($, comonotone envelope)")
    print(f"{'year':>6} {'lower':>18} {'mean':>18} {'upper':>18}")
    for row in result.annual:
        print(
            f"{row.year:>6} {row.npi.lower:>18,.0f} "
            f"{row.npi.mean:>18,.0f} {row.npi.upper:>18,.0f}"
        )
    print()

    first, last = result.annual[0], result.annual[-1]
    growth = last.npi.mean / first.npi.mean
    print(
        f"mean net gain grows {growth:.1f}x between "
        f"{first.year} and {last.year}"
    )

    written = write_outputs(result, out_dir)
    print(f"wrote {len(written)} files to {out_dir}/")
    for path in written[:5]:
        print(f"  {path.name}")
    print(f"  ... and {len(written) - 5} more")


if __name__ == "__main__":
    main()
