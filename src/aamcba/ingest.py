"""Scenario and series ingestion for the cost-benefit engine.

Input series are two-column (year, value) CSV files or inline entries in a
scenario document. Scenario documents are YAML or JSON with four sections:
``constants``, ``series`` (split into ``exogenous`` and ``historical``),
``orders``, and ``toggles``.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

import yaml
from yaml.events import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode

from .factors.table import FACTOR_IDS, FACTORS
from .forecast import ArimaOrder, ForecastError


class ScenarioError(ValueError):
    """A series or scenario document failed validation."""


#: libyaml's parser when PyYAML was built with it (about 6x faster on the
#: bundled scenario), else the pure-Python one; both build the same objects.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Plain scalars that YAML 1.1 resolves to float or int and that Python's
# float()/int() read to the same value as PyYAML's constructors. Subsets of
# the resolver's own patterns: no underscores, octal, hex or sexagesimal.
_PLAIN_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?")
_PLAIN_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_STR_TAG = "tag:yaml.org,2002:str"
# A plain "<<" or "=": a merge key, or a key that SafeConstructor reads as
# a string while it rejects the same scalar as a value.
_COMPOSER_TAGS = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")


class _NeedsComposer(Exception):
    """The document uses a feature the event reader leaves to yaml.load."""


def read_yaml(text: str, Loader=YAML_LOADER) -> Any:
    """``yaml.load(text, Loader=Loader)``, built from the parser's events.

    Skips PyYAML's node graph: plain decimal floats and ints are converted
    directly, other plain scalars go through the loader's resolver and
    constructors, anchors and aliases are kept here. Explicit tags, merge
    keys, non-scalar keys, undefined or duplicate anchors, anything but
    exactly one document, and syntax errors make it re-read the text with
    ``yaml.load``, the reference this reader is tested against, so errors
    are yaml.load's own.
    """
    loader = Loader(text)
    try:
        # Every event first, then the document: building while parsing
        # interleaves the short-lived events with the document's objects
        # and fragments the heap (a warm process grew 0.6 MB more over
        # 1200 scenario loads).
        events = list(iter(loader.get_event, None))
        return _EventReader(loader, events).document()
    except (_NeedsComposer, yaml.YAMLError):
        return yaml.load(text, Loader=Loader)
    finally:
        loader.dispose()


class _EventReader:
    def __init__(self, loader, events: list) -> None:
        self.loader = loader
        self.next_event = iter(events).__next__
        self.anchors: dict[str, Any] = {}

    def document(self) -> Any:
        self.next_event()  # stream start
        if type(self.next_event()) is not DocumentStartEvent:
            raise _NeedsComposer  # empty stream
        data = self.node(self.next_event())
        self.next_event()  # document end
        if type(self.next_event()) is not StreamEndEvent:
            raise _NeedsComposer  # more than one document
        return data

    def node(self, event) -> Any:
        kind = type(event)
        if kind is AliasEvent:
            if event.anchor not in self.anchors:
                raise _NeedsComposer  # undefined, or a node that holds itself
            return self.anchors[event.anchor]
        if event.tag is not None:
            raise _NeedsComposer
        if kind is ScalarEvent:
            data = self.scalar(event)
        elif kind is SequenceStartEvent:
            data = []
            item = self.next_event()
            while type(item) is not SequenceEndEvent:
                data.append(self.node(item))
                item = self.next_event()
        else:
            data = {}
            key = self.next_event()
            while type(key) is not MappingEndEvent:
                if type(key) is not ScalarEvent:
                    raise _NeedsComposer
                data[self.node(key)] = self.node(self.next_event())
                key = self.next_event()
        if event.anchor is not None:
            if event.anchor in self.anchors:
                raise _NeedsComposer  # duplicate anchor
            self.anchors[event.anchor] = data
        return data

    def scalar(self, event: ScalarEvent) -> Any:
        value = event.value
        if not event.implicit[0]:
            return value  # quoted or block scalar: always a string
        if _PLAIN_FLOAT.fullmatch(value):
            return float(value)
        if _PLAIN_INT.fullmatch(value):
            return int(value)
        tag = self.loader.resolve(ScalarNode, value, event.implicit)
        if tag == _STR_TAG:
            return value
        if tag in _COMPOSER_TAGS:
            raise _NeedsComposer
        return self.loader.construct_object(
            ScalarNode(tag, value, event.start_mark, event.end_mark, event.style)
        )


#: Constants stored as vectors rather than scalars.
VECTOR_CONSTANTS = ("DSN", "survival_rates", "CAS")

#: Toggle defaults. Every toggle is scenario-overridable; unknown toggle
#: names are rejected so typos do not silently fall back to defaults.
TOGGLE_DEFAULTS: dict[str, Any] = {
    "bf2_use_trip_miles": False,
    "bf3_single_ratio": False,
    "bf4_ci_sign": "as_printed",
    "bf6_incremental": False,
    "bf6_matching_area": True,
    "bf7_case": 5,
    "amortize_capex_years": None,
    "include_mean_when_differenced": False,
}

#: The toggles that take true or false and nothing else.
_BOOLEAN_TOGGLES = tuple(
    key for key, default in TOGGLE_DEFAULTS.items() if isinstance(default, bool)
)

#: First differences that spread by at most this fraction of the series'
#: largest magnitude are equal up to rounding: the series is linear (or
#: constant), and its ADF regression is singular or numerically so. Measured
#: on a 31-point series stepping 0.1 from 30000.1, the regression broke down
#: at spreads up to 1.8e-12 of the magnitude and not from 2.2e-12 on.
LINEAR_RTOL = 1e-11

#: Sanity brackets for warnings only; values outside are suspicious, not fatal.
_MAGNITUDE_BRACKETS: dict[str, tuple[float, float]] = {
    "VTTS_2015": (2.0, 100.0),
    "market_cagr": (0.0, 1.5),
    "parcel_fraction": (0.0, 1.0),
    "mpg_fleet": (5.0, 100.0),
    "co2_share_of_ghg": (0.9, 1.0),
    "evtol_cost_share": (0.0, 1.0),
    "core_hours_share": (0.0, 1.0),
    "reserve_fraction": (0.0, 1.0),
}


@dataclass(frozen=True)
class TimeSeries:
    """A named annual series: consecutive integer years, finite values."""

    name: str
    years: tuple[int, ...]
    values: tuple[float, ...]
    unit: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "years", tuple(map(int, self.years)))
        try:
            values = tuple(map(float, self.values))
        except (TypeError, ValueError, OverflowError):
            bad = next(v for v in self.values if not _is_number(v))
            raise ScenarioError(
                f"series '{self.name}' has a non-numeric value {bad!r}"
            ) from None
        object.__setattr__(self, "values", values)
        if not self.years:
            raise ScenarioError(f"series '{self.name}' is empty")
        if len(self.years) != len(self.values):
            raise ScenarioError(
                f"series '{self.name}' has {len(self.years)} years "
                f"but {len(self.values)} values"
            )
        for a, b in zip(self.years, self.years[1:]):
            if b != a + 1:
                raise ScenarioError(
                    f"series '{self.name}' years must step by 1, "
                    f"got {a} followed by {b}"
                )
        if not all(map(math.isfinite, values)):
            y = next(y for y, v in zip(self.years, values) if not math.isfinite(v))
            raise ScenarioError(
                f"series '{self.name}' has non-finite value at year {y}"
            )

    @property
    def first_year(self) -> int:
        return self.years[0]

    @property
    def last_year(self) -> int:
        return self.years[-1]

    def value_at(self, year: int) -> float:
        try:
            return self.values[self.years.index(year)]
        except ValueError:
            raise ScenarioError(
                f"series '{self.name}' has no value for year {year} "
                f"(covers {self.first_year}-{self.last_year})"
            ) from None


@dataclass(frozen=True)
class Scenario:
    """A complete analysis setup: constants, series, pinned orders, toggles."""

    name: str
    horizon_start: int
    horizon_end: int
    constants: dict[str, Any] = field(default_factory=dict)
    input_series: dict[str, TimeSeries] = field(default_factory=dict)
    historical_series: dict[str, TimeSeries] = field(default_factory=dict)
    orders: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    toggles: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.horizon_end < self.horizon_start:
            raise ScenarioError(
                f"horizon end {self.horizon_end} precedes start {self.horizon_start}"
            )
        unknown = set(self.toggles) - set(TOGGLE_DEFAULTS)
        if unknown:
            raise ScenarioError(f"unknown toggles: {sorted(unknown)}")

    @property
    def horizon_years(self) -> tuple[int, ...]:
        return tuple(range(self.horizon_start, self.horizon_end + 1))

    def constant(self, key: str) -> Any:
        if key not in self.constants:
            raise ScenarioError(f"scenario constant '{key}' is missing")
        return self.constants[key]

    def toggle(self, key: str) -> Any:
        if key not in TOGGLE_DEFAULTS:
            raise ScenarioError(f"unknown toggle '{key}'")
        return self.toggles.get(key, TOGGLE_DEFAULTS[key])

    def exogenous(self, name: str) -> TimeSeries:
        if name not in self.input_series:
            raise ScenarioError(f"exogenous series '{name}' is missing")
        return self.input_series[name]

    def historical(self, name: str) -> TimeSeries:
        if name not in self.historical_series:
            raise ScenarioError(f"historical series '{name}' is missing")
        return self.historical_series[name]

    def with_overrides(
        self,
        constants: Mapping[str, Any] | None = None,
        toggles: Mapping[str, Any] | None = None,
    ) -> "Scenario":
        """A copy with constants/toggles overridden (used by CLI flags)."""
        new_constants = dict(self.constants)
        new_constants.update(constants or {})
        new_toggles = dict(self.toggles)
        new_toggles.update(toggles or {})
        return replace(self, constants=new_constants, toggles=new_toggles)


def load_series(path: str | Path, name: str | None = None) -> TimeSeries:
    """Read a two-column (year, value) CSV into a TimeSeries.

    A non-numeric first row is treated as a header; its second cell becomes
    the unit unless it is just 'value'. Duplicate years and year gaps are
    rejected with row-level messages.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"series file not found: {path}")
    label = name or path.stem
    years: list[int] = []
    values: list[float] = []
    unit = ""
    lines = path.read_text(encoding="utf-8").splitlines()
    for row_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ScenarioError(
                f"{path}:{row_no}: expected 2 columns, got {len(cells)}"
            )
        if not years and not _is_number(cells[0]):
            if cells[1].lower() not in ("value", "values", ""):
                unit = cells[1]
            continue
        if not _is_number(cells[0]) or not _is_number(cells[1]):
            raise ScenarioError(
                f"{path}:{row_no}: non-numeric cell in row {cells!r}"
            )
        year = int(float(cells[0]))
        if year in years:
            raise ScenarioError(f"{path}:{row_no}: duplicate year {year}")
        if years and year != years[-1] + 1:
            raise ScenarioError(
                f"{path}:{row_no}: year gap between {years[-1]} and {year}"
            )
        years.append(year)
        values.append(float(cells[1]))
    if not years:
        raise ScenarioError(f"{path}: no data rows")
    return TimeSeries(name=label, years=tuple(years), values=tuple(values), unit=unit)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _series_from_spec(name: str, spec: Any, base_dir: Path) -> TimeSeries:
    """Build a TimeSeries from one of the three inline forms.

    Accepted forms: a {year: value} mapping, {start, values[, unit]},
    or {file[, unit]} pointing at a CSV relative to the scenario file.
    """
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"series '{name}' must be a mapping, got {type(spec).__name__}")
    if "file" in spec:
        ts = load_series(base_dir / str(spec["file"]), name=name)
        if spec.get("unit"):
            ts = replace(ts, unit=str(spec["unit"]))
        return ts
    if "values" in spec:
        if "start" not in spec:
            raise ScenarioError(f"series '{name}' with 'values' needs 'start'")
        start = _integer(spec["start"], f"series '{name}' start")
        vals = spec["values"]
        if not isinstance(vals, (list, tuple)):
            raise ScenarioError(f"series '{name}' values must be a list, got {vals!r}")
        years = tuple(range(start, start + len(vals)))
        return TimeSeries(name, years, vals, unit=str(spec.get("unit", "")))
    # {year: value} mapping
    try:
        items = sorted((int(k), v) for k, v in spec.items())
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(
            f"series '{name}' must map years to numbers, "
            f"use 'start'/'values', or reference a 'file'"
        ) from None
    return TimeSeries(name, tuple(y for y, _ in items), tuple(v for _, v in items))


def load_scenario(path: str | Path) -> Scenario:
    """Parse a YAML or JSON scenario document.

    A file that is not valid UTF-8, JSON or YAML raises ScenarioError naming
    the file and, for a syntax error, its line.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".json":
            doc = json.loads(text)
        else:
            doc = read_yaml(text)
    except UnicodeDecodeError as err:
        raise ScenarioError(f"{path}: not UTF-8 text ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from None
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        problem = getattr(err, "problem", None) or err
        raise ScenarioError(f"{where}: invalid YAML: {problem}") from None
    if not isinstance(doc, Mapping):
        raise ScenarioError(f"{path}: scenario document must be a mapping")
    return scenario_from_dict(doc, base_dir=path.parent,
                              fallback_name=path.stem)


def _section(doc: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """The mapping under ``key``; an absent or empty section is empty."""
    value = doc.get(key) or {}
    if not isinstance(value, Mapping):
        raise ScenarioError(f"'{key}' must be a mapping, got {value!r}")
    return value


def _number(value: Any, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return number


def _integer(value: Any, what: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or (
        isinstance(value, float) and value != number
    ):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return number


def scenario_from_dict(
    doc: Mapping[str, Any],
    base_dir: str | Path = ".",
    fallback_name: str = "scenario",
) -> Scenario:
    base_dir = Path(base_dir)
    horizon = doc.get("horizon")
    if not isinstance(horizon, Mapping) or "start" not in horizon or "end" not in horizon:
        raise ScenarioError("scenario needs horizon: {start: <year>, end: <year>}")

    constants: dict[str, Any] = {}
    for key, val in _section(doc, "constants").items():
        what = f"constant '{key}'"
        if key in VECTOR_CONSTANTS:
            if not isinstance(val, (list, tuple)):
                raise ScenarioError(f"{what} must be a list of numbers, got {val!r}")
            constants[key] = tuple(_number(v, what) for v in val)
        else:
            constants[key] = _number(val, what)

    series = _section(doc, "series")
    extra = set(series) - {"exogenous", "historical"}
    if extra:
        raise ScenarioError(
            f"'series' subsections must be 'exogenous'/'historical', got {sorted(extra)}"
        )
    input_series = {
        str(k): _series_from_spec(str(k), v, base_dir)
        for k, v in _section(series, "exogenous").items()
    }
    historical_series = {
        str(k): _series_from_spec(str(k), v, base_dir)
        for k, v in _section(series, "historical").items()
    }

    orders: dict[str, tuple[int, int, int]] = {}
    for key, val in _section(doc, "orders").items():
        try:
            p, d, q = (int(v) for v in val)
        except (TypeError, ValueError, OverflowError):
            raise ScenarioError(f"order for '{key}' must be a [p, d, q] triple") from None
        try:
            ArimaOrder(p, d, q)
        except ForecastError as err:
            raise ScenarioError(f"order for '{key}': {err}") from None
        orders[str(key)] = (p, d, q)

    return Scenario(
        name=str(doc.get("name", fallback_name)),
        horizon_start=_integer(horizon["start"], "horizon start"),
        horizon_end=_integer(horizon["end"], "horizon end"),
        constants=constants,
        input_series=input_series,
        historical_series=historical_series,
        orders=orders,
        toggles=dict(_section(doc, "toggles")),
    )


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_dict; series in start/values form."""

    def dump_series(ts: TimeSeries) -> dict[str, Any]:
        out: dict[str, Any] = {"start": ts.first_year, "values": list(ts.values)}
        if ts.unit:
            out["unit"] = ts.unit
        return out

    return {
        "name": s.name,
        "horizon": {"start": s.horizon_start, "end": s.horizon_end},
        "constants": {
            k: (list(v) if k in VECTOR_CONSTANTS else v)
            for k, v in s.constants.items()
        },
        "series": {
            "exogenous": {k: dump_series(v) for k, v in s.input_series.items()},
            "historical": {k: dump_series(v) for k, v in s.historical_series.items()},
        },
        "orders": {k: list(v) for k, v in s.orders.items()},
        "toggles": dict(s.toggles),
    }


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write a scenario back out; load_scenario(save) round-trips equal."""
    path = Path(path)
    doc = scenario_to_dict(s)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n",
                        encoding="utf-8")
    else:
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def validate_scenario(
    s: Scenario, factors: Iterable[str] | None = None
) -> list[str]:
    """Check a scenario against the requirements of the enabled factors.

    Hard failures raise ScenarioError naming the offending key, series, or
    year. Suspicious-but-legal values come back as warning strings.
    """
    enabled = normalize_factors(factors)
    used = [FACTORS[f] for f in enabled]
    horizon = s.horizon_years
    warnings: list[str] = []

    for factor in used:
        for key in factor.required_constants(s):
            if key not in s.constants:
                raise ScenarioError(
                    f"scenario constant '{key}' is required by {factor.id} but missing"
                )
    # the cost ledger always runs
    needed_exo = [(f.id, name) for f in used for name in f.exogenous]
    needed_exo += [("costs", "capex"), ("costs", "opex")]
    for f, name in needed_exo:
        if name not in s.input_series:
            raise ScenarioError(
                f"exogenous series '{name}' is required by {f} but missing"
            )
        ts = s.input_series[name]
        missing = [y for y in horizon if not ts.first_year <= y <= ts.last_year]
        if missing:
            raise ScenarioError(
                f"exogenous series '{name}' does not cover year {missing[0]} "
                f"(covers {ts.first_year}-{ts.last_year})"
            )
    needed_hist: dict[str, str] = {}
    for factor in used:
        for name in factor.historical:
            needed_hist.setdefault(name, factor.id)
    for name, f in needed_hist.items():
        if name not in s.historical_series:
            raise ScenarioError(
                f"historical series '{name}' is required by {f} but missing"
            )
        ts = s.historical_series[name]
        if ts.last_year >= s.horizon_start:
            raise ScenarioError(
                f"historical series '{name}' extends to {ts.last_year}, "
                f"into the forecast horizon starting {s.horizon_start}"
            )
        if len(ts.values) < 8:
            raise ScenarioError(
                f"historical series '{name}' has {len(ts.values)} points; "
                f"at least 8 are needed for forecasting"
            )
        steps = [b - a for a, b in zip(ts.values, ts.values[1:])]
        spread = max(steps) - min(steps)
        if spread <= LINEAR_RTOL * max(map(abs, ts.values)):
            if spread:
                shape = "linear up to rounding"
            else:
                shape = "constant" if steps[0] == 0.0 else "exactly linear"
            raise ScenarioError(
                f"historical series '{name}' is {shape}; it cannot be forecast"
            )

    if "BF7" in enabled:
        dsn = s.constant("DSN")
        surv = s.constant("survival_rates")
        cas = s.constant("CAS")
        if not (len(dsn) == len(surv) == len(cas)):
            raise ScenarioError(
                f"DSN/survival_rates/CAS lengths differ: "
                f"{len(dsn)}/{len(surv)}/{len(cas)}"
            )
        if len(dsn) < 2:
            raise ScenarioError("DSN/survival_rates/CAS need at least 2 entries")
        if dsn[0] != 0:
            raise ScenarioError(f"DSN must start at 0 (no-drone case), got {dsn[0]}")
        case = s.toggle("bf7_case")
        # type(), not isinstance(): true and false are ints to isinstance
        if type(case) is not int or not 1 <= case <= len(dsn) - 1:
            raise ScenarioError(
                f"bf7_case must be an integer in 1..{len(dsn) - 1}, got {case!r}"
            )
        if any(b < a for a, b in zip(surv, surv[1:])):
            warnings.append("survival_rates are not non-decreasing across DSN cases")
        if any(b < a for a, b in zip(dsn, dsn[1:])):
            warnings.append("DSN station counts are not non-decreasing")

    for key in _BOOLEAN_TOGGLES:
        if not isinstance(s.toggle(key), bool):
            raise ScenarioError(
                f"toggle {key} must be true or false, got {s.toggle(key)!r}"
            )
    if s.toggle("bf4_ci_sign") not in ("as_printed", "positive_extra_cost"):
        raise ScenarioError(
            "toggle bf4_ci_sign must be 'as_printed' or 'positive_extra_cost', "
            f"got {s.toggle('bf4_ci_sign')!r}"
        )
    amortize = s.toggle("amortize_capex_years")
    if amortize is not None and (type(amortize) is not int or amortize < 1):
        raise ScenarioError(
            f"toggle amortize_capex_years must be a positive integer or null, "
            f"got {amortize!r}"
        )

    if "BF2" in enabled:
        a_g = s.constant("ground_fatality_per_100m_miles")
        a_a = s.constant("air_fatality_per_100m_miles")
        if a_a >= a_g:
            warnings.append(
                f"air fatality rate ({a_a}) is not below ground rate ({a_g}); "
                "safety benefit will be non-positive"
            )
    for name in ("capex", "opex"):
        ts = s.input_series.get(name)
        if ts and any(v < 0 for v in ts.values):
            warnings.append(f"'{name}' has negative entries")
    for key, (lo, hi) in _MAGNITUDE_BRACKETS.items():
        if key in s.constants:
            v = s.constants[key]
            if not lo <= v <= hi:
                warnings.append(
                    f"constant '{key}'={v} is outside the expected range [{lo}, {hi}]"
                )
    return warnings


def normalize_factors(factors: Iterable[str] | None = None) -> tuple[str, ...]:
    """Check factor ids and put them in canonical BF1..BF9 order; None is all."""
    if factors is None:
        return FACTOR_IDS
    requested = set(factors)
    unknown = requested - FACTORS.keys()
    if unknown:
        raise ScenarioError(
            f"unknown benefit factors: {sorted(unknown)}; "
            f"valid: {', '.join(FACTOR_IDS)}"
        )
    if not requested:
        raise ScenarioError("no benefit factors enabled")
    return tuple(f for f in FACTOR_IDS if f in requested)


def required_inputs(
    factors: Iterable[str] | None = None,
) -> tuple[set[str], set[str], set[str]]:
    """Constant, exogenous, and historical names the given factors need
    under any toggles (``validate_scenario`` adds toggle-bound constants)."""
    constants: set[str] = set()
    exogenous: set[str] = {"capex", "opex"}
    historical: set[str] = set()
    for f in normalize_factors(factors):
        constants.update(FACTORS[f].constants)
        exogenous.update(FACTORS[f].exogenous)
        historical.update(FACTORS[f].historical)
    return constants, exogenous, historical


def cargo_trips_from_tonnage(
    total_tons: float,
    payload_lb: float,
    shares: Iterable[float],
    start_year: int,
    name: str = "cargo_trips",
    lb_per_ton: float = 2000.0,
) -> TimeSeries:
    """Spread a multi-year cargo tonnage forecast into annual trip counts.

    Total tonnage is converted to pounds, divided by the per-trip payload,
    and distributed across consecutive years by the share vector (which must
    sum to 1).
    """
    shares = [float(x) for x in shares]
    if not shares:
        raise ScenarioError("share vector is empty")
    if any(x < 0 for x in shares):
        raise ScenarioError("share vector has negative entries")
    total_share = sum(shares)
    if abs(total_share - 1.0) > 1e-9:
        raise ScenarioError(f"share vector sums to {total_share}, expected 1")
    if payload_lb <= 0:
        raise ScenarioError(f"payload must be positive, got {payload_lb}")
    total_trips = total_tons * lb_per_ton / payload_lb
    years = tuple(range(start_year, start_year + len(shares)))
    return TimeSeries(name, years, tuple(total_trips * x for x in shares),
                      unit="trips")


def default_scenario_path() -> Path:
    """Path of the bundled default scenario."""
    return Path(__file__).parent / "data" / "default_scenario.yaml"
