"""Command-line interface: run a scenario, explain a factor, or validate.

Exit codes: 0 success, 2 scenario/validation error or a file that cannot
be read or written, 3 numerical failure.
``--scenario`` takes a file path; ``default`` or no ``--scenario`` at all
uses the bundled scenario. Every ``run`` writes the full output set.
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

# Called as module attributes, not bound by name, so that a tracer which
# replaces engine.load_scenario, evaluate or write_outputs sees these calls.
from . import engine
from .factors import FACTOR_IDS, normalize_factors
from .forecast import ForecastError
from .ingest import (
    InvalidYAML,
    ScenarioError,
    default_scenario_path,
    input_names,
    read_yaml,
)


def find_scenario(spec: str | None) -> Path:
    """The bundled scenario for ``None`` or ``default``, else ``spec`` as a
    path; ``load_scenario`` reports a file that is not there."""
    if spec is None or spec == "default":
        return default_scenario_path()
    return Path(spec)


def _parse_factors(text: str | None) -> tuple[str, ...]:
    if text is None:
        return FACTOR_IDS
    return normalize_factors(name.upper() for name in text.replace(",", " ").split())


def _parse_toggles(pairs: list[str] | None) -> dict:
    toggles: dict = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ScenarioError(f"--toggle needs key=value, got {pair!r}")
        key = key.strip()
        try:
            toggles[key] = read_yaml(raw.strip())
        except InvalidYAML:
            raise ScenarioError(f"--toggle {key}: not a YAML value: {raw!r}") from None
    return toggles


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default=None,
        help="scenario file (YAML/JSON); 'default' or omitted = bundled scenario",
    )
    parser.add_argument(
        "--factors",
        default=None,
        help="comma-separated subset of BF1..BF9 (default: all)",
    )
    parser.add_argument(
        "--pin-orders",
        action="store_true",
        help="use the scenario's pinned (p,d,q) orders where given "
        "instead of automatic identification",
    )
    parser.add_argument(
        "--best-effort",
        action="store_true",
        help="keep forecasts whose residuals fail whiteness checks "
        "(warn instead of abort)",
    )
    parser.add_argument(
        "--toggle",
        action="append",
        metavar="KEY=VALUE",
        help="override a policy toggle (repeatable); "
        f"toggles: {', '.join(input_names('toggle'))}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aamcba",
        description="Scenario-driven cost-benefit analysis for advanced air mobility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="evaluate a scenario and write reports"
    )
    _add_scenario_options(run_parser)
    run_parser.add_argument(
        "--out", default="aamcba_out", help="output directory (default: aamcba_out)"
    )

    explain_parser = sub.add_parser(
        "explain", help="print the derivation of one factor in one year"
    )
    explain_parser.add_argument("factor", help="factor id, e.g. BF5")
    explain_parser.add_argument("year", type=int, help="horizon year, e.g. 2022")
    _add_scenario_options(explain_parser)

    validate_parser = sub.add_parser(
        "validate", help="evaluate a scenario as run does, without writing anything"
    )
    _add_scenario_options(validate_parser)
    return parser


def _evaluate(args: argparse.Namespace):
    """Find the scenario, parse ``--factors`` and ``--toggle``, load the
    scenario, apply the toggle overrides and evaluate. ``Scenario`` checks
    the toggles, those in the file and those overridden, and ``evaluate``
    what the factors need."""
    path = find_scenario(args.scenario)
    factors, toggles = _parse_factors(args.factors), _parse_toggles(args.toggle)
    scenario = engine.load_scenario(path)
    if toggles:
        scenario = scenario.with_overrides(toggles=toggles)
    return engine.evaluate(
        scenario, factors, pin_orders=args.pin_orders, best_effort=args.best_effort
    )


def _cmd_run(args: argparse.Namespace) -> int:
    result = _evaluate(args)
    engine.write_outputs(result, args.out)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"scenario: {result.scenario.name}")
    print(f"factors: {', '.join(result.factors)}")
    for row in (result.annual[0], result.annual[-1]):
        print(
            f"net positive gain, {row.year}: {row.npi.mean:,.0f} "
            f"[{row.npi.lower:,.0f} .. {row.npi.upper:,.0f}]"
        )
    print(f"outputs written to {Path(args.out)}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    factor = args.factor.strip().upper()
    if args.factors is None:
        args.factors = factor  # evaluate the explained factor alone
    result = _evaluate(args)
    print(engine.explain(result, factor, args.year))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    result = _evaluate(args)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"scenario '{result.scenario.name}' is valid")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "explain": _cmd_explain, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ScenarioError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ForecastError, ArithmeticError, ValueError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    code = main()
    # The process ends here, and the OS frees its memory anyway: frozen
    # objects are left out of the full collection at interpreter shutdown,
    # which would otherwise walk every numpy, PyYAML and aamcba object.
    # Not in main(), which tests and library callers run many times in one
    # process; and no hard exit, which would skip atexit handlers.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
