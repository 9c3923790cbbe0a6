"""Tour a few benefit factors with their intermediate quantities visible.

Runs the bundled scenario on package delivery (BF3), bridge inspection
(BF5) and greenhouse-gas reduction (BF9), and prints each factor's
derivation trace, as ``aamcba explain`` does, for the first and last
horizon years. Every step is computed once, by the same code that
produces the factor's value, so the arithmetic can be followed by hand.

Run with: python3 demos/factor_tour.py
"""
from __future__ import annotations

from aamcba.engine import evaluate, explain
from aamcba.ingest import default_scenario_path, load_scenario

TOUR = (
    ("BF3", "sizing the drone logistics market, its fleet and its savings"),
    ("BF5", "infrastructure inspection, truck vs drone"),
    ("BF9", "carbon pricing the replaced ground trips"),
)


def main() -> None:
    scenario = load_scenario(default_scenario_path())
    result = evaluate(scenario, factors=tuple(factor for factor, _ in TOUR))
    for factor, title in TOUR:
        print(f"== {title} ==")
        for year in (scenario.horizon_start, scenario.horizon_end):
            print(explain(result, factor, year))
        print()


if __name__ == "__main__":
    main()
