"""Smoke tests of the benchmark itself (about a minute).

    python3 -m pytest bench/smoke.py -q

Not collected by the package's test suite (the file name does not match
``test_*.py``); pass it to pytest explicitly.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """Run a tiny op count; returns (result line, detailed record)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--limit-ops", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    record_line = next(ln for ln in lines if ln.startswith("record written to "))
    record = json.loads((ROOT / record_line[len("record written to "):]).read_text())
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("write", [
    lambda seed, out: workloads.write_sweep_inputs(ROOT, seed, out),
    lambda seed, out: workloads.write_forecast_inputs(seed, out),
], ids=["scenario_sweep", "forecast_general"])
def test_same_seed_same_bytes(write):
    out = ROOT / ".bench_work" / "smoke_inputs"
    shutil.rmtree(out, ignore_errors=True)
    write(7, out / "a")
    write(7, out / "b")
    write(8, out / "c")
    assert _tree(out / "a") == _tree(out / "b")
    assert _tree(out / "a") != _tree(out / "c")
    shutil.rmtree(out)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_child_self_times_fit_in_the_op(workload):
    _, record = bench(workload, trace=1)
    spans_file = ROOT / ".bench_work" / "results" / record["spans"]
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    own = tracing.self_times(spans)
    roots = {i: s for i, s in enumerate(spans) if s["name"] == "op"}
    assert roots
    for index, root in roots.items():
        children = [own[i] for i, s in enumerate(spans)
                    if s["op"] == root["op"] and i != index]
        assert children
        assert all(t >= -1e-9 for t in children)
        assert sum(children) <= root["end"] - root["start"] + 1e-9
