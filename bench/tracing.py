"""Spans around calls into aamcba's layers, recorded from outside.

``install`` replaces public functions with timing wrappers at the module
attributes their callers look them up through (for example
``aamcba.engine.auto_pipeline``, which ``evaluate`` calls). Nothing under
``src/`` changes. Spans live in memory until ``Tracer.dump``.

Single-threaded by design: the benchmark drives one op at a time, so
spans nest strictly and a span's children never overlap.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name). One function can be bound in several
#: modules; every binding gets the same span name.
WRAP_POINTS = (
    ("aamcba.engine", "load_scenario", "ingest.load"),
    ("aamcba.engine", "evaluate", "engine.evaluate"),
    ("aamcba.engine", "write_outputs", "engine.write"),
    ("aamcba.engine", "explain", "engine.explain"),
    ("aamcba.engine", "auto_pipeline", "pipeline.auto"),
    ("aamcba.forecast.pipeline", "auto_pipeline", "pipeline.auto"),
    ("aamcba.forecast.pipeline", "fit_arima", "arima.fit"),
    ("aamcba.forecast.pipeline", "forecast", "arima.forecast"),
    ("aamcba.forecast.pipeline", "adf_test", "stattests.adf"),
    ("aamcba.forecast.pipeline", "ljung_box", "stattests.ljung_box"),
    ("aamcba.forecast.pipeline", "acf", "correlation.acf"),
    ("aamcba.forecast.pipeline", "pacf", "correlation.pacf"),
    ("aamcba.forecast.stattests", "acf", "correlation.acf"),
    # pacf calls acf through its own module, and fit_arima imports pacf
    # from there at call time.
    ("aamcba.forecast.correlation", "acf", "correlation.acf"),
    ("aamcba.forecast.correlation", "pacf", "correlation.pacf"),
)


class Tracer:
    """Collects spans: name, start, end, parent index, op id, attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    def begin(self, name: str, **attrs) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            **attrs,
        })
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            # Attributes are gathered outside the span, so they cost it nothing.
            attrs = _call_attrs(name, args, kwargs)
            index = tracer.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.end(index)
                tracer.spans[index]["error"] = type(err).__name__
                raise
            tracer.end(index)
            tracer.spans[index].update(_result_attrs(name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _call_attrs(name: str, args, kwargs) -> dict:
    if name == "ingest.load":
        path = Path(args[0] if args else kwargs["path"])
        return {"format": "json" if path.suffix.lower() == ".json" else "yaml",
                "bytes": path.stat().st_size}
    if name == "arima.fit":
        order = args[1] if len(args) > 1 else kwargs["order"]
        return {"closed_form": order.p == 0 and order.q == 0}
    return {}


def _result_attrs(name: str, result) -> dict:
    if name == "engine.write":
        return {"files": len(result),
                "bytes": sum(Path(p).stat().st_size for p in result)}
    return {}


def install(tracer: Tracer) -> None:
    """Wrap every WRAP_POINTS binding; importing aamcba must be done."""
    import importlib

    wrapped: dict[int, object] = {}
    for module_name, attr, span_name in WRAP_POINTS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        key = id(original)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(original, span_name)
        setattr(module, attr, wrapped[key])


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, call count, and summed attributes."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        if name == "ingest.load":
            name = f"ingest.load_{span['format']}"
            totals["ingest.load"]["calls"] += 1
            totals["ingest.load"]["bytes"] += span["bytes"]
        entry = totals[name]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["errors"] += "error" in span
        for key in ("files", "bytes"):
            entry[key] += span.get(key, 0)
        entry["closed_form"] += bool(span.get("closed_form"))
    return totals
