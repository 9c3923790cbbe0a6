"""Scenario and series ingestion for the cost-benefit engine.

Input series are two-column (year, value) CSV files or inline entries in a
scenario document. Scenario documents are YAML or JSON with four sections:
``constants``, ``series`` (split into ``exogenous`` and ``historical``),
``orders``, and ``toggles``.

Each input is checked once. Loading checks the form of every value: numbers,
series years and orders; ``Scenario`` checks the toggle names.
``validate_scenario`` checks what the enabled factors need: their constants
and domains, the coverage and length of their series, and the toggle values.
Code that runs after it reads the scenario's mappings directly.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ScenarioError
from .factors import FACTOR_IDS, FACTORS
from .forecast import ArimaOrder, ForecastError
from .forecast.common import MIN_OBS


class InvalidYAML(ValueError):
    """yaml.load rejected a text; args are (line or None, problem)."""


# Plain scalars that YAML 1.1 resolves to float or int and that Python's
# float()/int() read to the same value as PyYAML's constructors. Subsets of
# the resolver's own patterns: no underscores, octal, hex or sexagesimal.
_PLAIN_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?")
_PLAIN_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
# A number whose exponent has no sign (6.5e9) matches no YAML 1.1 resolver.
_PLAIN_STR_NUMBER = re.compile(r"[-+]?[0-9]+(?:\.[0-9]*)?[eE][0-9]+")
# The plain words YAML 1.1 reads as null or a boolean, in every spelling.
_PLAIN_WORDS = {
    spelling: value
    for word, value in (("~", None), ("null", None), ("yes", True), ("true", True),
                        ("on", True), ("no", False), ("false", False), ("off", False))
    for spelling in (word, word.title(), word.upper())
}
# A scalar on one line: quoted without escapes, or plain without indicators,
# ':', '#', ',' or brackets. (Of plain scalars led by "-", only numbers are
# read, so "- x" is never taken for a string.)
_SCALAR = re.compile(
    r"'[^'\n]*'|\"[^\"\\\n]*\"|[\w.+/~()$-](?:[\w.+/~()$ -]*[\w.+/~()$-])?"
)
# Printable ASCII and newlines: a tab, a CR or any other byte leaves the subset.
_SUBSET_BYTES = bytes(range(32, 127)) + b"\n"
# The indent and content of each line that is not blank or a comment.
_LINE = re.compile(r"^( *)([^ #\n](?:[^\n]*[^ \n])?)", re.M)


class _OutsideSubset(Exception):
    """The text uses YAML that the line reader leaves to yaml.load."""


def read_yaml(text: str) -> Any:
    """The document ``yaml.load`` reads from ``text``, with a safe loader.

    A text in this subset of YAML is read line by line, without PyYAML:
    block mappings and sequences (a sequence may sit at its key's indent),
    flow sequences of scalars over any number of lines, ``{}``, plain
    scalars resolved as YAML 1.1 does, quoted scalars without escapes, and
    comments. Any other text (anchors, tags, block scalars, flow mappings,
    duplicate keys, multi-line plain scalars, octal or sexagesimal numbers,
    several documents, syntax errors) is read by ``yaml.load``, with
    libyaml's safe loader if PyYAML has it; its errors become InvalidYAML.
    """
    try:
        return _read_subset(text)
    except _OutsideSubset:
        pass
    import yaml

    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        problem = getattr(err, "problem", None) or err
        raise InvalidYAML(mark and mark.line + 1, problem) from err
    except ValueError as err:
        # a constructor's error, such as a timestamp that is no valid date
        raise InvalidYAML(None, err) from err


def _scalar(token: str) -> Any:
    """The value of a scalar token, resolved as PyYAML's SafeLoader does."""
    if token in _PLAIN_WORDS:
        return _PLAIN_WORDS[token]
    if _PLAIN_FLOAT.fullmatch(token):
        return float(token)
    if _PLAIN_INT.fullmatch(token):
        return int(token)
    if _SCALAR.fullmatch(token):
        if token[0] in "'\"":
            return token[1:-1]
        if token[0].isalpha() or _PLAIN_STR_NUMBER.fullmatch(token):
            return token
    raise _OutsideSubset


def _value_token(text: str) -> Any:
    """The scalar or ``{}`` that starts ``text``, before a comment."""
    token = text.partition(" #")[0].rstrip(" ")
    return {} if token == "{}" else _scalar(token)


def _entry(body: str) -> tuple[str | None, str] | None:
    """(key, value text) of "key: value", (None, value text) of "- value"."""
    if body == "-" or body[:2] == "- ":
        return None, body[2:]
    key, colon, rest = body.partition(": ")
    if colon:
        return key, rest
    return (body[:-1], "") if body[-1] == ":" else None


def _read_subset(text: str) -> Any:
    """The document of a text in the subset; else raises _OutsideSubset."""
    if not text.isascii() or text.encode().translate(None, _SUBSET_BYTES):
        raise _OutsideSubset
    # Indents stay strings of spaces, which compare as their lengths do.
    lines = _LINE.findall(text)
    if not lines:
        raise _OutsideSubset
    indent, body = lines[0]
    if _entry(body) is None:
        doc, end = _value(lines, 0, body, indent, in_mapping=False)
    else:
        doc, end = _block(lines, 0, indent)
    if end != len(lines):
        raise _OutsideSubset
    return doc


# The readers below are plain functions that take the lines, not closures
# over them: closures that call each other form a reference cycle, which
# would keep each text's lines alive until the cyclic collector ran.
def _block(lines: list, i: int, indent: str) -> tuple[Any, int]:
    """The mapping or sequence whose entries start at ``indent``.

    It ends at the first line at another indent or of the other kind; a
    caller that cannot take that line finds it at the wrong indent, and the
    document's end check rejects what nobody took.
    """
    data: Any = None
    while i < len(lines) and lines[i][0] == indent:
        entry = _entry(lines[i][1])
        if entry is None:
            raise _OutsideSubset
        key, rest = entry
        if data is None:
            data = [] if key is None else {}
        elif (key is None) != (type(data) is list):
            break  # a key after a sequence at its key's indent
        if rest and rest[0] not in " #[":  # a scalar: the common case
            item = _value_token(rest)
            i += 1
        else:
            item, i = _value(lines, i, rest, indent, in_mapping=key is not None)
        if key is None:
            data.append(item)
        elif len(key) > 1024 or (key := _scalar(key)) in data:
            raise _OutsideSubset  # too long for a simple key, or a duplicate
        else:
            data[key] = item
    return data, i


def _value(lines: list, i: int, rest: str, indent: str,
           in_mapping: bool) -> tuple[Any, int]:
    """The node that ``rest`` of line ``i`` holds; the next line's index."""
    rest = rest.lstrip(" ")
    if rest[:1] == "[":
        return _flow_sequence(lines, i, rest)
    if rest and rest[0] != "#":
        return _value_token(rest), i + 1
    i += 1
    if i < len(lines):
        at, body = lines[i]
        if at > indent:
            return _block(lines, i, at)
        if in_mapping and at == indent and (body == "-" or body[:2] == "- "):
            return _block(lines, i, at)  # a sequence at its key's indent
    return None, i


def _flow_sequence(lines: list, i: int, text: str) -> tuple[list, int]:
    """The scalars of the flow sequence that ``text`` opens."""
    while "]" not in text:  # it spans lines, at any indent
        i += 1
        if i == len(lines):
            raise _OutsideSubset
        text += "\n" + lines[i][1]
    inner, _, after = text[1:].partition("]")
    if after.lstrip(" ")[:1] not in ("", "#"):
        raise _OutsideSubset
    if not inner.strip():
        return [], i + 1
    return [_scalar(item.strip()) for item in inner.split(",")], i + 1


#: Constants stored as vectors rather than scalars.
VECTOR_CONSTANTS = ("DSN", "survival_rates", "CAS")

#: Toggle defaults. Every toggle is scenario-overridable; ``Scenario``
#: rejects unknown toggle names, so typos do not silently fall back to
#: defaults.
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

#: The exogenous series the cost ledger reads, whatever the factors.
COST_SERIES = ("capex", "opex")

#: Domains lo < value <= hi of the inputs the factor arithmetic divides by
#: or compounds with, keyed by constant or series name; a series is checked
#: over the horizon, a historical one in its forecast's lower and upper
#: channels. Only the enabled factors' inputs are checked.
_DOMAINS: dict[str, tuple[float, float]] = {
    **dict.fromkeys((
        "MHI_2015", "seats_per_evtol", "mpg_fleet", "farms_total",
        "herd_size_case_study", "market_value_2019", "us_market_2019",
        "round_trip_min", "operational_days", "packages_per_driver_day",
        "warehouse_area_per_worker_sf", "truck_payload_lb", "evtol_payload_lb",
        "annual_parcels", "parcel_fraction", "us_annual_trips",
        "snooper_rate_core", "snooper_rate_offhours", "drone_rate_core",
        "drone_rate_offhours", "us_population", "population", "vmt_us",
    ), (0.0, math.inf)),
    "co2_share_of_ghg": (0.0, 1.0),
    "market_cagr": (-1.0, math.inf),
}

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


class TimeSeries:
    """A named annual series: consecutive integer years, finite values."""

    __slots__ = ("name", "years", "values")

    def __init__(
        self,
        name: str,
        years: tuple[int, ...],
        values: tuple[float, ...],
    ) -> None:
        self.name = name
        self.years = years = tuple(map(int, years))
        try:
            self.values = values = tuple(map(float, values))
        except (TypeError, ValueError, OverflowError):
            bad = next(v for v in values if not _is_number(v))
            raise ScenarioError(
                f"series '{name}' has a non-numeric value {bad!r}"
            ) from None
        if not years:
            raise ScenarioError(f"series '{name}' is empty")
        if len(years) != len(values):
            raise ScenarioError(
                f"series '{name}' has {len(years)} years "
                f"but {len(values)} values"
            )
        for a, b in zip(years, years[1:]):
            if b != a + 1:
                raise ScenarioError(
                    f"series '{name}' years must step by 1, "
                    f"got {a} followed by {b}"
                )
        if not all(map(math.isfinite, values)):
            y = next(y for y, v in zip(years, values) if not math.isfinite(v))
            raise ScenarioError(
                f"series '{name}' has non-finite value at year {y}"
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


class Scenario:
    """A complete analysis setup: constants, series, pinned orders, toggles.

    Each mapping left out starts empty. An unknown toggle name raises
    ScenarioError; ``validate_scenario`` checks the rest.
    """

    __slots__ = (
        "name", "horizon_start", "horizon_end", "constants", "input_series",
        "historical_series", "orders", "toggles",
    )

    def __init__(
        self,
        name: str,
        horizon_start: int,
        horizon_end: int,
        constants: dict[str, Any] | None = None,
        input_series: dict[str, TimeSeries] | None = None,
        historical_series: dict[str, TimeSeries] | None = None,
        orders: dict[str, tuple[int, int, int]] | None = None,
        toggles: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.horizon_start = horizon_start
        self.horizon_end = horizon_end
        self.constants = {} if constants is None else constants
        self.input_series = {} if input_series is None else input_series
        self.historical_series = {} if historical_series is None else historical_series
        self.orders = {} if orders is None else orders
        self.toggles = {} if toggles is None else toggles
        if horizon_end < horizon_start:
            raise ScenarioError(
                f"horizon end {horizon_end} precedes start {horizon_start}"
            )
        unknown = set(self.toggles) - set(TOGGLE_DEFAULTS)
        if unknown:
            raise ScenarioError(
                f"unknown toggles: {sorted(unknown)}; "
                f"valid: {', '.join(sorted(TOGGLE_DEFAULTS))}"
            )

    @property
    def horizon_years(self) -> tuple[int, ...]:
        return tuple(range(self.horizon_start, self.horizon_end + 1))

    def constant(self, key: str) -> Any:
        if key not in self.constants:
            raise ScenarioError(f"scenario constant '{key}' is missing")
        return self.constants[key]

    def toggle(self, key: str) -> Any:
        return self.toggles.get(key, TOGGLE_DEFAULTS[key])

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
        return Scenario(
            self.name, self.horizon_start, self.horizon_end, new_constants,
            self.input_series, self.historical_series, self.orders, new_toggles,
        )


def load_series(path: str | Path, name: str | None = None) -> TimeSeries:
    """Read a two-column (year, value) CSV into a TimeSeries.

    A non-numeric first row is treated as a header and skipped. Duplicate
    years and year gaps are rejected with row-level messages.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"series file not found: {path}")
    label = name or path.stem
    years: list[int] = []
    values: list[float] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ScenarioError(f"{path}: not UTF-8 text ({err.reason})") from None
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
            continue
        if not _is_number(cells[0]) or not _is_number(cells[1]):
            raise ScenarioError(
                f"{path}:{row_no}: non-numeric cell in row {cells!r}"
            )
        what = f"{path}:{row_no}: year"
        year = _integer(_number(cells[0], what), what)
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
    return TimeSeries(name=label, years=tuple(years), values=tuple(values))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _series_from_spec(name: str, spec: Any, base_dir: Path) -> TimeSeries:
    """Build a TimeSeries from one of the three inline forms.

    Accepted forms: a {year: value} mapping, {start, values[, unit]},
    or {file[, unit]} pointing at a CSV relative to the scenario file. A
    ``unit`` key documents the series and is not read.
    """
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"series '{name}' must be a mapping, got {type(spec).__name__}")
    if "file" in spec:
        return load_series(base_dir / str(spec["file"]), name=name)
    if "values" in spec:
        if "start" not in spec:
            raise ScenarioError(f"series '{name}' with 'values' needs 'start'")
        start = _integer(spec["start"], f"series '{name}' start")
        vals = spec["values"]
        if not isinstance(vals, (list, tuple)):
            raise ScenarioError(f"series '{name}' values must be a list, got {vals!r}")
        years = tuple(range(start, start + len(vals)))
        return TimeSeries(name, years, vals)
    # {year: value} mapping; a JSON object's keys are always strings
    try:
        items = sorted((_integer(int(k) if isinstance(k, str) else k, "year"), v)
                       for k, v in spec.items())
    except (ScenarioError, TypeError, ValueError):
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
    except InvalidYAML as err:
        line, problem = err.args
        where = f"{path}:{line}" if line else str(path)
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
    if number is None or isinstance(value, (str, bool)) or (
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
        if not isinstance(val, (list, tuple)) or len(val) != 3:
            raise ScenarioError(f"order for '{key}' must be a [p, d, q] triple")
        p, d, q = (
            _integer(v, f"order for '{key}': {term}") for term, v in zip("pdq", val)
        )
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


def _outside_domain(key: str, value: float) -> str | None:
    """How ``value`` misses ``key``'s domain; None if it lies inside."""
    lo, hi = _DOMAINS[key]
    if lo < value <= hi:
        return None
    bounds = f"greater than {lo:g}" if hi == math.inf else f"in ({lo:g}, {hi:g}]"
    return f"must be {bounds}, got {value!r}"


def check_horizon_domain(s: Scenario, name: str, years, values, what: str) -> None:
    """Raise ScenarioError naming ``what`` and the year if a horizon value lies
    outside ``name``'s domain; a name without one passes."""
    for year, value in zip(years, values):
        if name in _DOMAINS and s.horizon_start <= year <= s.horizon_end and (
                problem := _outside_domain(name, value)):
            raise ScenarioError(f"{what} in {year} {problem}")


def validate_scenario(
    s: Scenario, factors: Iterable[str] | None = None
) -> list[str]:
    """Check a scenario against the requirements of the enabled factors and
    the cost ledger, and check every toggle value.

    This is the one place these are checked. Hard failures raise
    ScenarioError naming the offending key, series, or year.
    Suspicious-but-legal values come back as warning strings.
    """
    enabled = normalize_factors(factors)
    used = [FACTORS[f] for f in enabled]
    warnings: list[str] = []

    for factor in used:
        for key in factor.required_constants(s):
            if key not in s.constants:
                raise ScenarioError(
                    f"scenario constant '{key}' is required by {factor.id} but missing"
                )
            if key in _DOMAINS and (problem := _outside_domain(key, s.constants[key])):
                raise ScenarioError(f"constant '{key}' {problem}")
        if factor.check:
            warnings += factor.check(s)
    # the cost ledger always runs
    needed_exo = [(f.id, name) for f in used for name in f.exogenous]
    needed_exo += [("costs", name) for name in COST_SERIES]
    for f, name in needed_exo:
        if name not in s.input_series:
            raise ScenarioError(
                f"exogenous series '{name}' is required by {f} but missing"
            )
        ts = s.input_series[name]
        if not ts.first_year <= s.horizon_start <= s.horizon_end <= ts.last_year:
            starts_inside = ts.first_year <= s.horizon_start <= ts.last_year
            raise ScenarioError(
                f"exogenous series '{name}' does not cover year "
                f"{ts.last_year + 1 if starts_inside else s.horizon_start} "
                f"(covers {ts.first_year}-{ts.last_year})"
            )
        check_horizon_domain(s, name, ts.years, ts.values, f"exogenous series '{name}'")
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
        if len(ts.values) < MIN_OBS:
            raise ScenarioError(
                f"historical series '{name}' has {len(ts.values)} points; "
                f"at least {MIN_OBS} are needed for forecasting"
            )

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

    for name in COST_SERIES:
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


def default_scenario_path() -> Path:
    """Path of the bundled default scenario."""
    return Path(__file__).parent / "data" / "default_scenario.yaml"
