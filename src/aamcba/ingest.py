"""Scenario and series ingestion for the cost-benefit engine.

Input series are two-column (year, value) CSV files or inline entries in a
scenario document. Scenario documents are YAML or JSON with four sections:
``constants``, ``series`` (split into ``exogenous`` and ``historical``),
``orders``, and ``toggles``.

``INPUTS`` is where an input's kind, unit, domain and warning bracket
live, and a toggle's default and allowed values. Each input is checked
once, and no check here depends on the benefit factors. ``_number`` and
``_integer`` read every number, years and order terms included, and take
no boolean; ``TimeSeries`` checks each series' shape (consecutive years,
one finite number per year), and the loader each series' and pinned
order's name, and a series' ``unit:`` key, against the table; the
``Scenario`` constructor reads the horizon years and each constant
(``_constant``: a constant of the table, in its domain, whichever factors
run), and checks each toggle's name and value, whether the scenario is
loaded, overridden or built directly. ``engine.validate_scenario`` checks
what the enabled factors need: their series' coverage and domains, and
each factor's ``check``; the forecast layer alone states how many points
a series needs. A constant that an enabled factor reads and the scenario
lacks is named by ``Scenario.constant`` as it is read. Code that runs
after them reads the scenario's mappings directly.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Mapping

from .forecast import ArimaOrder, ForecastError


class ScenarioError(ValueError):
    """A series or scenario document failed validation."""


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


class Input:
    """What one scenario input is. ``kind`` is "number" or "vector" (a
    constant), "exogenous" or "historical" (a series) or "toggle"; ``unit``
    is a plain string in the bundled scenario's style, "1" for a share.
    ``domain`` is (lo, hi) for lo < value <= hi, or None: a constant's is
    checked when the scenario is built, a series' over the horizon (a
    historical one's in its forecast's lower and upper channels) if an
    enabled factor reads it. Validation warns of a constant outside its
    ``bracket``, [lo, hi]. A toggle also has a ``default`` and its
    ``allowed`` values, where ``int`` stands for any positive integer."""

    __slots__ = ("kind", "unit", "domain", "bracket", "default", "allowed")

    def __init__(self, kind: str, unit: str | None, domain=None, bracket=None,
                 default: Any = None, allowed: tuple = ()) -> None:
        self.kind, self.unit, self.domain, self.bracket = kind, unit, domain, bracket
        self.default, self.allowed = default, allowed

    def allows(self, value: Any) -> bool:
        """Whether toggle ``value`` is one of the allowed values, of its type."""
        return any(type(value) is int and value > 0 if choice is int
                   else type(value) is type(choice) and value == choice
                   for choice in self.allowed)


_POSITIVE = (0.0, math.inf)
_BOOLEAN = (True, False)

#: Every input a scenario may hold, by name: what it is, as ``Input`` says.
#: Validation warns of the brackets in row order.
INPUTS: dict[str, Input] = {
    # travel-time value and its income scaling (BF1, BF5)
    "VTTS_2015": Input("number", "USD/h", bracket=(2.0, 100.0)),
    "MHI_2015": Input("number", "USD/yr", _POSITIVE),
    "trip_time_saved_min": Input("number", "min"),
    # passenger air trips vs road safety (BF2)
    "trip_distance_miles": Input("number", "miles"),
    "ground_fatality_per_100m_miles": Input("number", "deaths/1e8 miles"),
    "air_fatality_per_100m_miles": Input("number", "deaths/1e8 miles"),
    "seats_per_evtol": Input("number", "seats", _POSITIVE),
    # package delivery market (BF3, BF9)
    "market_value_2019": Input("number", "1e6 USD", _POSITIVE),
    "us_market_2019": Input("number", "1e6 USD", _POSITIVE),
    "market_cagr": Input("number", "1", (-1.0, math.inf), (0.0, 1.5)),
    "market_base_year": Input("number", "year"),
    "annual_parcels": Input("number", "parcels/yr", _POSITIVE),
    "parcel_fraction": Input("number", "1", _POSITIVE, (0.0, 1.0)),
    # greenhouse gas social costs and fleet emissions (BF9)
    "scc_2020": Input("number", "USD/ton"),
    "scm_2020": Input("number", "USD/ton"),
    "scn_2020": Input("number", "USD/ton"),
    "scghg_discount": Input("number", "1"),
    "scghg_base_year": Input("number", "year"),
    "mpg_fleet": Input("number", "miles/gal", _POSITIVE, (5.0, 100.0)),
    "co2_share_of_ghg": Input("number", "1", (0.0, 1.0), (0.9, 1.0)),
    "co2_tons_per_gallon": Input("number", "ton/gal"),
    "evtol_emission_ratio": Input("number", "1"),
    "us_annual_trips": Input("number", "trips/yr", _POSITIVE),
    # cargo shift to eVTOLs (BF4)
    "warehouse_rent_psf_month": Input("number", "USD/sf/month"),
    "warehouse_nnn_psf_month": Input("number", "USD/sf/month"),
    "warehouse_size_sf": Input("number", "sf"),
    "warehouse_wage_year": Input("number", "USD/yr"),
    "warehouse_area_per_worker_sf": Input("number", "sf", _POSITIVE),
    "truck_cost_per_mile": Input("number", "USD/mile"),
    "truck_payload_lb": Input("number", "lb", _POSITIVE),
    "evtol_cost_per_mile": Input("number", "USD/mile"),
    "evtol_payload_lb": Input("number", "lb", _POSITIVE),
    "evtol_cost_share": Input("number", "1", bracket=(0.0, 1.0)),
    # bridge inspections (BF5)
    "heavy_inspections_per_year": Input("number", "inspections/yr"),
    "drone_capable_inspections": Input("number", "inspections/yr"),
    "core_hours_share": Input("number", "1", bracket=(0.0, 1.0)),
    "lane_closure_hours_traditional": Input("number", "h"),
    "lane_closure_hours_drone": Input("number", "h"),
    "traffic_per_lane_hour": Input("number", "vehicles/h"),
    "delay_min_per_vehicle": Input("number", "min"),
    "snooper_rate_core": Input("number", "USD/inspection", _POSITIVE),
    "snooper_rate_offhours": Input("number", "USD/inspection", _POSITIVE),
    "drone_rate_core": Input("number", "USD/inspection", _POSITIVE),
    "drone_rate_offhours": Input("number", "USD/inspection", _POSITIVE),
    # drone fleet economics (BF3; VDTS also BF4)
    "operational_days": Input("number", "days/yr", _POSITIVE),
    "round_trip_min": Input("number", "min", _POSITIVE),
    "reserve_fraction": Input("number", "1", bracket=(0.0, 1.0)),
    "driver_hours_per_day": Input("number", "h/day"),
    "packages_per_driver_day": Input("number", "parcels/day", _POSITIVE),
    "truck_cost_per_hour": Input("number", "USD/h"),
    "drone_capital_cost": Input("number", "USD/drone"),
    "drone_operating_cost": Input("number", "USD/drone/yr"),
    "ATS_min": Input("number", "min"),
    "VDTS": Input("number", "USD/day"),
    # farming (BF6)
    "farms_total": Input("number", "farms", _POSITIVE),
    "farms_adopting": Input("number", "farms"),
    "soybean_yield_uplift": Input("number", "1"),
    "corn_yield_uplift": Input("number", "1"),
    "wheat_yield_uplift": Input("number", "1"),
    "cost_savings_per_acre_soybean": Input("number", "USD/acre"),
    "cost_savings_per_acre_corn": Input("number", "USD/acre"),
    "cost_savings_per_acre_wheat": Input("number", "USD/acre"),
    "livestock_hours_saved_hill": Input("number", "h/yr"),
    "livestock_hours_saved_grassland": Input("number", "h/yr"),
    "farm_labor_rate": Input("number", "USD/h"),
    "herd_size_case_study": Input("number", "head", _POSITIVE),
    # drone-delivered AED response (BF7)
    "ohca_per_100k": Input("number", "arrests/1e5 people/yr"),
    "DSN": Input("vector", "stations"),
    "survival_rates": Input("vector", "1"),
    "CAS": Input("vector", "USD"),
    # series known over the horizon
    "passenger_trips": Input("exogenous", "trips/yr"),
    "cargo_trips": Input("exogenous", "trips/yr"),
    "us_population": Input("exogenous", "people", _POSITIVE),
    "tax_income": Input("exogenous", "USD/yr"),
    "capex": Input("exogenous", "USD/yr"),
    "opex": Input("exogenous", "USD/yr"),
    # series to forecast
    "mhi": Input("historical", "USD/yr", _POSITIVE),
    "vmt_us": Input("historical", "miles/yr", _POSITIVE),
    "population": Input("historical", "people", _POSITIVE),
    "vsl": Input("historical", "USD", _POSITIVE),
    "soybean_area": Input("historical", "acres", _POSITIVE),
    "corn_area": Input("historical", "acres", _POSITIVE),
    "wheat_area": Input("historical", "acres", _POSITIVE),
    "soybean_yield": Input("historical", "bu/acre", _POSITIVE),
    "corn_yield": Input("historical", "bu/acre", _POSITIVE),
    "wheat_yield": Input("historical", "bu/acre", _POSITIVE),
    "soybean_price": Input("historical", "USD/bu", _POSITIVE),
    "corn_price": Input("historical", "USD/bu", _POSITIVE),
    "wheat_price": Input("historical", "USD/bu", _POSITIVE),
    "livestock": Input("historical", "head", _POSITIVE),
    # policy toggles; int allows any positive integer
    "bf2_use_trip_miles": Input("toggle", None, default=False, allowed=_BOOLEAN),
    "bf3_single_ratio": Input("toggle", None, default=False, allowed=_BOOLEAN),
    "bf4_ci_sign": Input("toggle", None, default="as_printed",
                         allowed=("as_printed", "positive_extra_cost")),
    "bf6_incremental": Input("toggle", None, default=False, allowed=_BOOLEAN),
    "bf6_matching_area": Input("toggle", None, default=True, allowed=_BOOLEAN),
    "bf7_case": Input("toggle", None, default=5, allowed=(int,)),
    "amortize_capex_years": Input("toggle", "yr", default=None, allowed=(int, None)),
    "include_mean_when_differenced": Input("toggle", None, default=False,
                                           allowed=_BOOLEAN),
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
        try:
            self.values = tuple(map(float, values))
            clean = (bool not in map(type, values)
                     and all(map(math.isfinite, self.values)))
        except (TypeError, ValueError, OverflowError):
            clean = False
        if not clean:  # name the first value that _number rejects
            for year, value in zip(years, values):
                _number(value, f"series '{name}' value for {year}")

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

    Each mapping left out starts empty. The constructor reads the horizon
    years and every constant, and checks every toggle's name and value; a
    failure raises ScenarioError. ``engine.validate_scenario`` checks what
    the enabled factors need.
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
        constants: Mapping[str, Any] | None = None,
        input_series: dict[str, TimeSeries] | None = None,
        historical_series: dict[str, TimeSeries] | None = None,
        orders: dict[str, ArimaOrder] | None = None,
        toggles: Mapping[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.horizon_start = horizon_start = _integer(horizon_start, "horizon start")
        self.horizon_end = horizon_end = _integer(horizon_end, "horizon end")
        self.constants = {key: _constant(key, value)
                          for key, value in (constants or {}).items()}
        self.input_series = {} if input_series is None else input_series
        self.historical_series = {} if historical_series is None else historical_series
        self.orders = {} if orders is None else orders
        self.toggles = dict(toggles or {})
        if horizon_end < horizon_start:
            raise ScenarioError(
                f"horizon end {horizon_end} precedes start {horizon_start}"
            )
        unknown = {key for key in self.toggles
                   if key not in INPUTS or INPUTS[key].kind != "toggle"}
        if unknown:
            raise ScenarioError(
                f"unknown toggles: {sorted(unknown)}; "
                f"valid: {', '.join(input_names('toggle'))}"
            )
        for key, value in self.toggles.items():
            if not INPUTS[key].allows(value):
                choices = " or ".join(
                    "a positive integer" if choice is int
                    else repr(choice) if isinstance(choice, str) else json.dumps(choice)
                    for choice in INPUTS[key].allowed
                )
                raise ScenarioError(f"toggle {key} must be {choices}, got {value!r}")

    @property
    def horizon_years(self) -> tuple[int, ...]:
        return tuple(range(self.horizon_start, self.horizon_end + 1))

    def constant(self, key: str) -> Any:
        if key not in self.constants:
            raise ScenarioError(f"scenario constant '{key}' is missing")
        return self.constants[key]

    def toggle(self, key: str) -> Any:
        return self.toggles.get(key, INPUTS[key].default)

    def with_overrides(
        self,
        constants: Mapping[str, Any] | None = None,
        toggles: Mapping[str, Any] | None = None,
    ) -> "Scenario":
        """A copy with constants and toggles overridden (used by CLI flags),
        checked by the constructor as a loaded scenario is."""
        return Scenario(
            self.name, self.horizon_start, self.horizon_end,
            {**self.constants, **(constants or {})},
            self.input_series, self.historical_series, self.orders,
            {**self.toggles, **(toggles or {})},
        )


def load_series(path: str | Path, name: str | None = None) -> TimeSeries:
    """Read a two-column (year, value) CSV into a TimeSeries.

    A first row whose year cell is not a number is taken for a header and
    skipped; any later year cell is checked in its row. ``TimeSeries``
    checks the years' steps and the value cells.
    """
    path = Path(path)
    years: list[int] = []
    values: list[str] = []
    header_allowed = True
    for row_no, line in enumerate(_read_text(path, "series").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ScenarioError(
                f"{path}:{row_no}: expected 2 columns, got {len(cells)}"
            )
        if header_allowed:
            header_allowed = False
            if not _is_number(cells[0]):
                continue
        what = f"{path}:{row_no}: year"
        years.append(_integer(_number(cells[0], what), what))
        values.append(cells[1])
    if not years:
        raise ScenarioError(f"{path}: no data rows")
    return TimeSeries(name or path.stem, tuple(years), tuple(values))


def _read_text(path: Path, kind: str) -> str:
    """The text of the ``kind`` file at ``path``, read as UTF-8."""
    if not path.is_file():
        raise ScenarioError(f"{kind} file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ScenarioError(f"{path}: not UTF-8 text ({err.reason})") from None


def _is_number(text: str) -> bool:
    """Whether a CSV cell reads as a number; a first row that does not is a header."""
    try:
        float(text)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _series_from_spec(kind: str, name: str, spec: Any, base_dir: Path) -> TimeSeries:
    """Build the ``kind`` series ``name`` from one of the three inline forms.

    Accepted forms: a {year: value} mapping, {start, values[, unit]},
    or {file[, unit]} pointing at a CSV relative to the scenario file. The
    name must be a ``kind`` row of ``INPUTS``, and a ``unit`` key must
    equal that row's unit.
    """
    row = INPUTS.get(name)
    if row is None or row.kind != kind:
        raise ScenarioError(f"scenario {kind} series '{name}' is unknown")
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"series '{name}' must be a mapping, got {type(spec).__name__}")
    if "unit" in spec and spec["unit"] != row.unit:
        raise ScenarioError(f"series '{name}' unit must be {row.unit!r}, got {spec['unit']!r}")
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
    text = _read_text(path, "scenario")
    try:
        doc = json.loads(text) if path.suffix.lower() == ".json" else read_yaml(text)
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
        number = None
    if number is None or isinstance(value, bool):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return number


def _constant(key: Any, value: Any) -> float | tuple[float, ...]:
    """Constant ``key``'s ``value`` as read: a number, or a tuple of numbers
    for a vector constant, inside the constant's domain if it has one."""
    what = f"constant '{key}'"
    row = INPUTS.get(key)
    if row is None or row.kind not in ("number", "vector"):
        raise ScenarioError(f"scenario {what} is unknown")
    if row.kind == "vector":
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{what} must be a list of numbers, got {value!r}")
        return tuple(_number(v, what) for v in value)
    number = _number(value, what)
    if problem := _outside_domain(row.domain, number):
        raise ScenarioError(f"{what} {problem}")
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

    series = _section(doc, "series")
    extra = set(series) - {"exogenous", "historical"}
    if extra:
        raise ScenarioError(
            f"'series' subsections must be 'exogenous'/'historical', got {sorted(extra)}"
        )
    input_series, historical_series = (
        {str(k): _series_from_spec(kind, str(k), v, base_dir)
         for k, v in _section(series, kind).items()}
        for kind in ("exogenous", "historical")
    )

    orders: dict[str, ArimaOrder] = {}
    for key, val in _section(doc, "orders").items():
        if key not in INPUTS or INPUTS[key].kind != "historical":
            raise ScenarioError(f"order for '{key}' names no historical series")
        if not isinstance(val, (list, tuple)) or len(val) != 3:
            raise ScenarioError(f"order for '{key}' must be a [p, d, q] triple")
        p, d, q = (
            _integer(v, f"order for '{key}': {term}") for term, v in zip("pdq", val)
        )
        try:
            orders[str(key)] = ArimaOrder(p, d, q)
        except ForecastError as err:
            raise ScenarioError(f"order for '{key}': {err}") from None

    return Scenario(
        name=str(doc.get("name", fallback_name)),
        horizon_start=horizon["start"],
        horizon_end=horizon["end"],
        constants=_section(doc, "constants"),
        input_series=input_series,
        historical_series=historical_series,
        orders=orders,
        toggles=_section(doc, "toggles"),
    )


def input_names(kind: str) -> list[str]:
    """The names of the inputs of ``kind``, sorted."""
    return sorted(key for key, row in INPUTS.items() if row.kind == kind)


def _outside_domain(domain: tuple[float, float] | None, value: float) -> str | None:
    """How ``value`` misses ``domain``; None if it lies inside or there is none."""
    if domain is None or domain[0] < value <= domain[1]:
        return None
    lo, hi = domain
    bounds = f"greater than {lo:g}" if hi == math.inf else f"in ({lo:g}, {hi:g}]"
    return f"must be {bounds}, got {value!r}"


def check_horizon_domain(s: Scenario, name: str, years, values, what: str) -> None:
    """Raise ScenarioError naming ``what`` and the year if a horizon value lies
    outside ``name``'s domain; a name without one passes."""
    domain = INPUTS[name].domain
    for year, value in zip(years, values):
        if s.horizon_start <= year <= s.horizon_end and (
                problem := _outside_domain(domain, value)):
            raise ScenarioError(f"{what} in {year} {problem}")


def default_scenario_path() -> Path:
    """Path of the bundled default scenario."""
    return Path(__file__).parent / "data" / "default_scenario.yaml"
