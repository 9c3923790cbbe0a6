"""The aamcba benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload cold_default --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: the program is imported from
./src, never from an installed copy. One process drives one op at a time
(a closed loop with one client) with BLAS pinned to one thread. The fixed
op set of the workload is repeated as whole passes until --seconds have
elapsed, with a fixed calibration task interleaved; times are reported
in reference seconds, scaled by the calibration (see calibration.py).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics from a separate
traced pass. Every run checks the program's outputs; a failed
check exits 1. A detailed record of the run goes to
.bench_work/results/. See bench/README.md for the definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, Calibration

BENCH_DIR = Path(__file__).resolve().parent
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
OP_TIMEOUT_S = 120

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "ratio"),
    ("adequate_share", "ratio"),
)
PER_LAYER = (
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("interp.startup_s", "s"),
    ("ingest.load_yaml.self_s", "s"),
    ("ingest.load_json.self_s", "s"),
    ("ingest.load.calls", "count"),
    ("ingest.bytes_parsed", "bytes"),
    ("engine.evaluate.self_s", "s"),
    ("engine.write.self_s", "s"),
    ("engine.write.files", "count"),
    ("engine.write.bytes", "bytes"),
    ("engine.explain.self_s", "s"),
    ("engine.explain.calls", "count"),
    ("pipeline.auto.self_s", "s"),
    ("pipeline.auto.calls", "count"),
    ("pipeline.fit_yield", "ratio"),
    ("arima.fit.self_s", "s"),
    ("arima.fit.calls", "count"),
    ("arima.fit.failed", "count"),
    ("arima.fit.closed_form_share", "ratio"),
    ("arima.fit.nesting_violations", "count"),
    ("arima.forecast.self_s", "s"),
    ("arima.forecast.calls", "count"),
    ("stattests.adf.self_s", "s"),
    ("stattests.adf.calls", "count"),
    ("stattests.ljung_box.self_s", "s"),
    ("stattests.ljung_box.calls", "count"),
    ("correlation.acf.self_s", "s"),
    ("correlation.acf.calls", "count"),
    ("correlation.pacf.self_s", "s"),
    ("correlation.pacf.calls", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def sha256_files(directory: Path) -> str:
    """Digest of every file under ``directory``, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env(root: Path) -> dict[str, str]:
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.total_s: cumulative time of the top-level aamcba imports;
    import.scipy_s: summed self time of every scipy module."""
    total_us = 0
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own, cumulative, raw_name = int(parts[0]), int(parts[1]), parts[2]
        name = raw_name.strip()
        depth = len(raw_name) - len(raw_name.lstrip(" "))
        if depth <= 1 and (name == "aamcba" or name.startswith("aamcba.")):
            total_us += cumulative
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += own
    return {"import.total_s": total_us / 1e6, "import.scipy_s": scipy_us / 1e6}


def traced_cli_command(root: Path, spans: Path, importtime: bool,
                       cli_args: list[str]) -> list[str]:
    """Command line for traced_cli.py, stamped with the spawn time."""
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, str(BENCH_DIR / "traced_cli.py"),
            str(root / "src"), str(spans), repr(time.monotonic()), *cli_args]


def run_import_probe(root: Path, work: Path, importtime: bool) -> dict[str, float]:
    """Start a fresh interpreter that only imports aamcba; returns its
    ``import_s`` and ``startup_s``, plus the importtime split if asked."""
    spans = work / "probe.spans.jsonl"
    proc = subprocess.run(
        traced_cli_command(root, spans, importtime, []),
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr[-2000:]}")
    process = json.loads(spans.with_suffix(".process.json").read_text())
    return {**process, **(parse_importtime(proc.stderr) if importtime else {})}


# -- workloads ---------------------------------------------------------------


class Workload:
    """A fixed op set plus its set-up and checks.

    ``run_op`` returns a record: ``time`` (seconds spent in the program),
    ``status`` ("ok", "refused" when the program raised its documented
    ForecastError, or "failed" when a check failed or anything else went
    wrong), ``problems``, ``digest``, and pipeline counts ``calls`` and
    ``adequate``.
    """

    name = ""
    in_process = True

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.calibration: Calibration | None = None

    def setup(self) -> float:
        """Prepare the op set and start ``self.calibration``; returns the
        set-up time in measured seconds."""
        raise NotImplementedError

    def run_op(self, op: dict, traced: bool = False) -> dict:
        raise NotImplementedError

    def finish(self, passes: list[list[dict]]) -> dict:
        """Run-level checks after all passes; returns extra facts."""
        return {}

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss / 1024.0


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


class ColdDefault(Workload):
    """Each op: a fresh ``python -m aamcba.cli run --out DIR``."""

    name = "cold_default"
    in_process = False
    OPS_PER_PASS = 4

    def setup(self) -> float:
        self.ops = [{"name": f"cold_{i}"} for i in range(self.OPS_PER_PASS)]
        self.reference: str | None = None
        self._count = 0
        self.calibration = Calibration()
        times = []
        for i in range(SETUP_REPEATS):
            self.calibration.sample()
            # Warm-up runs: write aamcba's bytecode and fill the page cache.
            record = self.run_op({"name": f"warmup_{i}"})
            self.problems += record["problems"]
            times.append(record["time"])
        return statistics.median(times)

    def run_op(self, op: dict, traced: bool = False) -> dict:
        self._count += 1
        out = self.work / "out" / f"run_{self._count}"
        out.parent.mkdir(parents=True, exist_ok=True)
        cli_args = ["run", "--out", str(out)]
        if not traced:
            cmd = [sys.executable, "-m", "aamcba.cli", *cli_args]
        else:
            spans_file = self.work / f"cold_{self._count}.spans.jsonl"
            cmd = traced_cli_command(self.root, spans_file, True, cli_args)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=child_env(self.root),
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        record = {"time": elapsed, "status": "ok", "problems": [],
                  "calls": 0, "adequate": 0}
        if traced and spans_file.is_file():
            record["spans"] = [json.loads(line) for line in
                               spans_file.read_text().splitlines()]
            record["process"] = {
                **parse_importtime(proc.stderr),
                **json.loads(spans_file.with_suffix(".process.json").read_text()),
            }
        if proc.returncode != 0:
            record["status"] = "failed"
            record["problems"].append(
                f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            self._check_cold(out, proc.stdout, record)
        if out.exists():
            shutil.rmtree(out)
        return record

    def _check_cold(self, out: Path, stdout: str, record: dict) -> None:
        lines = [ln for ln in stdout.splitlines()
                 if not ln.startswith("outputs written to")]
        digest = hashlib.sha256(sha256_files(out).encode())
        digest.update("\n".join(lines).encode())
        record["digest"] = digest.hexdigest()
        if self.reference is None:
            self.reference = record["digest"]
        elif record["digest"] != self.reference:
            record["problems"].append("outputs differ from the first run")
        npi = {}
        with open(out / "npi.csv") as handle:
            next(handle)
            for row in handle:
                year, lower, mean, upper = row.strip().split(",")
                npi[int(year)] = (
                    f"{float(mean):,.0f} [{float(lower):,.0f} .. {float(upper):,.0f}]"
                )
        printed = [ln for ln in lines if ln.startswith("net positive gain, ")]
        if not printed:
            record["problems"].append("no net positive gain line in stdout")
        for line in printed:
            year_text, _, value = line[len("net positive gain, "):].partition(": ")
            if npi.get(int(year_text)) != value:
                record["problems"].append(
                    f"stdout NPI for {year_text} is {value!r}, npi.csv says "
                    f"{npi.get(int(year_text))!r}")
        summary = json.loads((out / "summary.json").read_text())
        flags = [f["adequate"] for f in summary["forecasts"].values()]
        record["calls"] = len(flags)
        record["adequate"] = sum(bool(f) for f in flags)
        if record["problems"]:
            record["status"] = "failed"


class _InProcess(Workload):
    """Shared set-up for the warm workloads: import, then generate inputs.

    The import is timed here and in two fresh interpreters; set-up time
    is the median import plus the median of three input generations.
    """

    def setup(self) -> float:
        start = time.perf_counter()
        sys.path.insert(0, str(self.root / "src"))
        import aamcba  # noqa: F401

        import_times = [time.perf_counter() - start] + [
            run_import_probe(self.root, self.work, importtime=False)["import_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        located = Path(aamcba.__file__).resolve()
        if not located.is_relative_to((self.root / "src").resolve()):
            raise BenchError(f"imported aamcba from {located}, not ./src")
        # Started after the timed import: the calibration imports numpy.
        self.calibration = Calibration()
        times, digests = [], set()
        for r in range(SETUP_REPEATS):
            self.calibration.sample()
            target = _fresh(self.work / f"inputs_{r}")
            start = time.perf_counter()
            self.ops = self.generate(target)
            times.append(time.perf_counter() - start)
            digests.add(sha256_files(target))
        if len(digests) > 1:
            self.problems.append("the same seed generated different inputs")
        self.inputs = self.work / "inputs_0"
        return statistics.median(import_times) + statistics.median(times)

    def generate(self, target: Path) -> list[dict]:
        raise NotImplementedError


class ScenarioSweep(_InProcess):
    """Each op: load a variant, evaluate, write outputs, explain."""

    name = "scenario_sweep"

    def generate(self, target: Path) -> list[dict]:
        import workloads

        return workloads.write_sweep_inputs(self.root, self.seed, target)

    def setup(self) -> float:
        setup_s = super().setup()
        self.first_digest: dict[str, str] = {}
        self._count = 0
        return setup_s

    def run_op(self, op: dict, traced: bool = False) -> dict:
        # Looked up per call, so the tracer's wrappers are used when installed.
        engine = importlib.import_module("aamcba.engine")

        self._count += 1
        out = self.work / "out" / f"op_{self._count}"
        path = self.inputs / op["path"]
        record = {"status": "ok", "problems": [], "calls": 0, "adequate": 0}
        start = time.perf_counter()
        try:
            scenario = engine.load_scenario(path)
            result = engine.evaluate(scenario, op["factors"], best_effort=True)
            engine.write_outputs(result, out)
            first, last = result.annual[0].year, result.annual[-1].year
            texts = [engine.explain(result, f, year)
                     for f in result.factors for year in (first, last)]
        except Exception as err:  # any raise on a valid variant is a failure
            record["time"] = time.perf_counter() - start
            record["status"] = "failed"
            record["problems"].append(f"{op['name']}: {type(err).__name__}: {err}")
            return record
        record["time"] = time.perf_counter() - start
        record["calls"] = len(result.forecasts)
        record["adequate"] = sum(f.adequate for f in result.forecasts.values())
        record["problems"] += [f"{op['name']}: {p}" for p in check_results_csv(out / "results.csv")]
        digest = hashlib.sha256(sha256_files(out).encode())
        digest.update("\n".join(texts).encode())
        record["digest"] = digest.hexdigest()
        previous = self.first_digest.setdefault(op["name"], record["digest"])
        if previous != record["digest"]:
            record["problems"].append(f"{op['name']}: repeated op wrote different bytes")
        if record["problems"]:
            record["status"] = "failed"
        shutil.rmtree(out)
        return record

    def finish(self, passes: list[list[dict]]) -> dict:
        if len(passes) == 1:
            # A single pass repeated nothing: repeat the first op once.
            record = self.run_op(self.ops[0])
            if record["status"] != "ok":
                self.problems += record["problems"] or ["repeat of op 0 failed"]
        return {}


def check_results_csv(path: Path) -> list[str]:
    """NPI = benefits - capex - opex per year and channel, to 1e-9 of the
    summed magnitudes; lower <= mean <= upper on every row."""
    problems = []
    by_year: dict[int, dict[str, tuple[float, float, float]]] = {}
    with open(path) as handle:
        next(handle)
        for row in handle:
            year, item, lower, mean, upper = row.strip().split(",")
            band = (float(lower), float(mean), float(upper))
            if not band[0] <= band[1] <= band[2]:
                problems.append(f"{item} {year}: band out of order {band}")
            by_year.setdefault(int(year), {})[item] = band
    for year, items in by_year.items():
        capex, opex, npi = items["capex"][1], items["opex"][1], items["npi"]
        factors = [v for k, v in items.items() if k.startswith("BF")]
        for ch in range(3):
            benefits = sum(band[ch] for band in factors)
            expected = benefits - capex - opex
            scale = sum(abs(band[ch]) for band in factors) + abs(capex) + abs(opex)
            if abs(npi[ch] - expected) > 1e-9 * max(scale, 1.0):
                problems.append(
                    f"npi {year} channel {ch}: {npi[ch]!r} != {expected!r}")
    return problems


class ForecastGeneral(_InProcess):
    """Each op: ``auto_pipeline`` on one corpus series, pinned for the
    micro-suite."""

    name = "forecast_general"

    def generate(self, target: Path) -> list[dict]:
        import workloads

        return workloads.write_forecast_inputs(self.seed, target)

    def setup(self) -> float:
        import numpy as np

        setup_s = super().setup()
        for op in self.ops:
            op["array"] = np.asarray(op["values"], dtype=float)
        return setup_s

    def run_op(self, op: dict, traced: bool = False) -> dict:
        import numpy as np

        from aamcba.forecast import ArimaOrder, ForecastError

        import workloads

        # Looked up per call, so the tracer's wrapper is used when installed.
        pipeline = importlib.import_module("aamcba.forecast.pipeline")
        pinned = ArimaOrder(*op["order"]) if op["kind"] == "micro" else None
        record = {"status": "ok", "problems": [], "calls": 1, "adequate": 0}
        start = time.perf_counter()
        try:
            result = pipeline.auto_pipeline(
                op["array"], workloads.FORECAST_STEPS, pinned=pinned)
        except ForecastError as err:
            record["time"] = time.perf_counter() - start
            record["status"] = "refused"
            record["error"] = str(err)
            record["digest"] = hashlib.sha256(str(err).encode()).hexdigest()
            return record
        except Exception as err:
            record["time"] = time.perf_counter() - start
            record["status"] = "failed"
            record["problems"].append(f"{op['name']}: {type(err).__name__}: {err}")
            return record
        record["time"] = time.perf_counter() - start
        fit, band = result.fit, result.band
        css = -fit.loglik_proxy
        record["css"] = css
        record["order"] = [fit.order.p, fit.order.d, fit.order.q]
        record["adequate"] = int(result.adequate)
        lower, mean, upper = (np.asarray(c) for c in (band.lower, band.mean, band.upper))
        if not (np.isfinite(css) and css > 0):
            record["problems"].append(f"{op['name']}: CSS {css!r} is not finite and positive")
        if not (lower.size == workloads.FORECAST_STEPS
                and np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
                and np.all(lower <= mean) and np.all(mean <= upper)):
            record["problems"].append(f"{op['name']}: forecast band is not finite and ordered")
        record["digest"] = hashlib.sha256(repr(
            (record["order"], css, band.lower, band.mean, band.upper)).encode()
        ).hexdigest()
        if record["problems"]:
            record["status"] = "failed"
        return record

    def finish(self, passes: list[list[dict]]) -> dict:
        return {"nesting_violations": nesting_violations(self.ops, passes[0])}


def nesting_violations(ops: list[dict], records: list[dict]) -> int:
    """Micro-suite cases whose CSS(k,0,k) exceeds CSS(k',0,k') for some
    k' < k on the same series."""
    css: dict[str, dict[int, float]] = {}
    for op, record in zip(ops, records):
        if op["kind"] == "micro" and "css" in record:
            css.setdefault(op["series"], {})[op["order"][0]] = record["css"]
    return sum(
        1
        for fits in css.values()
        for k, value in fits.items()
        if any(value > other for k2, other in fits.items() if k2 < k)
    )


WORKLOADS = {cls.name: cls for cls in (ColdDefault, ScenarioSweep, ForecastGeneral)}


# -- measurement -------------------------------------------------------------


def wall(passes: list[list[dict]], key: str = "time") -> float:
    """Median time to complete the op set, over passes."""
    return statistics.median(sum(r[key] for r in p) for p in passes)


def run_passes(workload: Workload, seconds: float, tracer=None,
               limit_ops: int | None = None) -> list[list[dict]]:
    """Repeat the op set as whole passes while the next pass fits the budget."""
    ops = workload.ops[:limit_ops] if limit_ops else workload.ops
    passes: list[list[dict]] = []
    started = time.perf_counter()
    while True:
        records = []
        for op in ops:
            workload.calibration.sample_if_due()
            op_start = time.perf_counter()
            if tracer is not None and workload.in_process:
                tracer.op_id = f"{len(passes)}:{op['name']}"
                root = tracer.begin("op")
                record = workload.run_op(op)
                tracer.end(root)
            else:
                record = workload.run_op(op, traced=tracer is not None)
            record["op"] = op["name"]
            record["start"] = op_start
            records.append(record)
        passes.append(records)
        elapsed = time.perf_counter() - started
        if elapsed + wall(passes) > seconds:
            return passes


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with the weights a
    Beta(p(n+1), (1-p)(n+1)) distribution puts on each 1/n slice of
    [0, 1]. Op times on a shared machine vary by a third from one call of
    the same work to the next; a single order statistic then jumps between
    neighbouring ops of different cost, and this estimate does not.
    """
    import numpy as np

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n samples above it,
    but never below the median (under 20 samples, none above p50 has)."""
    return max(50.0, 100.0 * (n - 10) / n)


def end_to_end(workload: Workload, setup_s: float,
               passes: list[list[dict]]) -> tuple[dict, dict]:
    """Metrics and the run's facts. Each op time is scaled to reference
    seconds by the calibration around it; set-up, by the whole run's."""
    records = [r for p in passes for r in p]
    for r in records:
        r["ref_time"] = r["time"] * workload.calibration.scale_at(r["start"])
    samples = [r["ref_time"] for r in records]
    attempted = len(records)
    refused = sum(r["status"] == "refused" for r in records)
    failed = sum(r["status"] == "failed" for r in records)
    calls = sum(r["calls"] for r in records)
    adequate = sum(r["adequate"] for r in records)
    inadequate = sum(r["calls"] - r["adequate"] for r in records
                     if r["status"] == "ok")
    tail_pct = tail_percentile(attempted)
    metrics = {
        "setup_s": setup_s * workload.calibration.scale(),
        "wall_s": wall(passes, "ref_time"),
        "op_p50_s": quantile(samples, 0.5),
        "op_tail_s": quantile(samples, tail_pct / 100.0),
        "peak_rss_mb": workload.peak_rss_mb(),
        "completed_share": (attempted - refused - failed) / attempted,
        "adequate_share": adequate / calls if calls else 1.0,
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "passes": len(passes),
        "ops_per_pass": len(passes[0]),
        "op_tail_percentile": tail_pct,
        "failed_ratio": (refused + failed) / attempted,
        "inadequate_ratio": inadequate / attempted,
        "pipeline_calls": calls,
        "calibration_samples": len(workload.calibration.samples),
        "calibration_median_s": workload.calibration.median_s(),
        "measured_setup_s": setup_s,
        "measured_wall_s": wall(passes),
        "digest": hashlib.sha256(
            "".join(r.get("digest", r["status"]) for r in passes[0]).encode()
        ).hexdigest(),
    }
    return metrics, facts


def per_layer(traced: list[list[dict]], spans: list[dict], untraced_wall: float,
              traced_wall: float, process: dict, nesting: int,
              scale: float) -> dict:
    """Per-layer metrics; every ``*_s`` time is scaled to reference seconds."""
    import tracing

    n_passes = len(traced)
    totals = tracing.layer_totals(spans)

    def total(name: str, key: str) -> float:
        return totals[name][key] / n_passes if name in totals else 0.0

    fit_calls = total("arima.fit", "calls")
    auto_ok = total("pipeline.auto", "calls") - total("pipeline.auto", "errors")
    metrics = {
        **process,
        "ingest.load_yaml.self_s": total("ingest.load_yaml", "self_s"),
        "ingest.load_json.self_s": total("ingest.load_json", "self_s"),
        "ingest.load.calls": total("ingest.load", "calls"),
        "ingest.bytes_parsed": total("ingest.load", "bytes"),
        "engine.evaluate.self_s": total("engine.evaluate", "self_s"),
        "engine.write.self_s": total("engine.write", "self_s"),
        "engine.write.files": total("engine.write", "files"),
        "engine.write.bytes": total("engine.write", "bytes"),
        "engine.explain.self_s": total("engine.explain", "self_s"),
        "engine.explain.calls": total("engine.explain", "calls"),
        "pipeline.auto.self_s": total("pipeline.auto", "self_s"),
        "pipeline.auto.calls": total("pipeline.auto", "calls"),
        "pipeline.fit_yield": auto_ok / fit_calls if fit_calls else 0.0,
        "arima.fit.self_s": total("arima.fit", "self_s"),
        "arima.fit.calls": fit_calls,
        "arima.fit.failed": total("arima.fit", "errors"),
        "arima.fit.closed_form_share":
            total("arima.fit", "closed_form") / fit_calls if fit_calls else 0.0,
        "arima.fit.nesting_violations": float(nesting),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for layer in ("arima.forecast", "stattests.adf", "stattests.ljung_box",
                  "correlation.acf", "correlation.pacf"):
        metrics[f"{layer}.self_s"] = total(layer, "self_s")
        metrics[f"{layer}.calls"] = total(layer, "calls")
    return {name: value * scale if name.endswith("_s") else value
            for name, value in metrics.items()}


def traced_run(workload: Workload, seconds: float, limit_ops: int | None):
    """Untraced passes for half the budget, then traced passes."""
    import tracing

    untraced = run_passes(workload, seconds / 2, limit_ops=limit_ops)
    tracer = tracing.Tracer()
    if workload.in_process:
        tracing.install(tracer)
        probe = run_import_probe(workload.root, workload.work, importtime=True)
        process = {"import.total_s": probe["import.total_s"],
                   "import.scipy_s": probe["import.scipy_s"],
                   "interp.startup_s": probe["startup_s"]}
    traced = run_passes(workload, seconds / 2, tracer, limit_ops)
    spans = tracer.spans
    if not workload.in_process:
        # Each cold op traced itself in its own process; re-base the spans.
        spans = []
        for p_index, p in enumerate(traced):
            for record in p:
                offset = len(spans)
                for span in record.get("spans", []):
                    span = dict(span)
                    span["op"] = f"{p_index}:{record['op']}"
                    if span["parent"] is not None:
                        span["parent"] += offset
                    spans.append(span)
        procs = [r["process"] for p in traced for r in p if "process" in r]
        process = {
            "import.total_s": statistics.median(p["import.total_s"] for p in procs),
            "import.scipy_s": statistics.median(p["import.scipy_s"] for p in procs),
            "interp.startup_s": statistics.median(p["startup_s"] for p in procs),
        }
    return untraced, traced, spans, process


def run(args: argparse.Namespace, root: Path) -> int:
    src = root / "src"
    if not (src / "aamcba" / "__init__.py").is_file():
        raise BenchError(f"no aamcba source tree under {src}")
    os.environ.update(BLAS_ENV)
    base = root / ".bench_work"
    work = _fresh(base / f"run_{args.workload}_{os.getpid()}")
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](root, work, args.seed)
        setup_s = workload.setup()
        report: dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
        if args.trace:
            untraced, traced, spans, process = traced_run(
                workload, args.seconds, args.limit_ops)
            passes = untraced + traced
            facts_extra = workload.finish(passes)
            metrics = per_layer(traced, spans, wall(untraced),
                                wall(traced), process,
                                facts_extra.get("nesting_violations", 0),
                                workload.calibration.scale())
            units = dict(PER_LAYER)
            spans_path = results_dir / f"{stem}.spans.jsonl"
            with open(spans_path, "w") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")
            report["spans"] = spans_path.name
            _, facts = end_to_end(workload, setup_s, passes)
        else:
            passes = run_passes(workload, args.seconds, limit_ops=args.limit_ops)
            facts_extra = workload.finish(passes)
            metrics, facts = end_to_end(workload, setup_s, passes)
            units = dict(END_TO_END)
        facts.update(facts_extra)
        problems = workload.problems + [
            p for record in (r for ps in passes for r in ps)
            for p in record["problems"]
        ]
        correct = not problems and facts["failed"] == 0
        report.update({
            "correct": correct,
            "facts": facts,
            "problems": problems[:50],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "ops": [
                {k: r[k] for k in ("op", "time", "status", "order", "adequate", "error")
                 if k in r}
                for r in passes[0]
            ],
            # (perf_counter start, measured seconds) of every op and every
            # calibration sample, to study the calibration.
            "timeline": {
                "ops": [[r["start"], r["time"]] for ps in passes for r in ps],
                "calibration": list(zip(workload.calibration.starts,
                                        workload.calibration.samples)),
            },
        })
        record_path = results_dir / f"{stem}.json"
        record_path.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {facts['passes']} passes of "
          f"{facts['ops_per_pass']} ops, {facts['attempted']} ops attempted")
    print(f"failed_ratio = {facts['failed_ratio']:.4f} (ops that raised or exited "
          f"non-zero), inadequate_ratio = {facts['inadequate_ratio']:.4f}")
    if not args.trace:
        print(f"op_tail_s is the p{facts['op_tail_percentile']:.1f} of "
              f"{facts['attempted']} op times")
    print(f"calibration: median {facts['calibration_median_s']:.5f} s over "
          f"{facts['calibration_samples']} samples; the times below are in "
          f"reference seconds of {REFERENCE_S} s of calibration each")
    for name, entry in report["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"output digest {facts['digest']}")
    print(f"record written to {record_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit-ops", type=int, default=None,
                        help="run only the first N ops of each pass (smoke tests)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args, Path.cwd())
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
