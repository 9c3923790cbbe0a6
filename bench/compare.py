"""Summarize one result set, or compare a parent's and a change's.

    python3 bench/compare.py RESULTS                 # medians and spreads
    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

A result set is a directory of run records (.bench_work/results/) or
a JSON-lines file of them (bench/baseline/results.jsonl). For each (metric,
workload) row the comparison reports both sides' medians and quartiles
and then a verdict:

- "regressed": the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- "unresolved": either side's spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
- "gain": the change wins at least 9 of every 10 seed-matched pairs
  (ties count for neither) and the medians differ by more than the
  parent's quartile distance;
- "held" otherwise.

Per-layer metrics (traced runs) have no bound and get medians only.
Output digests that differ between the sides are listed, not gated.
Exit status 1 when any row regressed.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> list[dict]:
    if path.is_dir():
        files = sorted(p for p in path.glob("*.json"))
        return [json.loads(p.read_text()) for p in files]
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def by_row(records: list[dict]) -> dict[tuple[str, str, int], dict[int, float]]:
    """(metric, workload, trace) -> {seed: value}."""
    rows: dict[tuple[str, str, int], dict[int, float]] = defaultdict(dict)
    for record in records:
        for name, entry in record["metrics"].items():
            key = (name, record["workload"], int(record["trace"]))
            rows[key][int(record["seed"])] = float(entry["value"])
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: dict[int, float], change: dict[int, float],
            bound: float, lower_better: bool) -> tuple[str, str]:
    a, b = list(parent.values()), list(change.values())
    sign = 1.0 if lower_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    win_text = f"{wins}/{len(pairs)} pair wins"
    q1, _, q3 = quartiles(a)
    noisy = max(spread(a), spread(b)) > bound
    if noisy and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved", win_text
    if worse > bound:
        return "regressed", win_text
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "gain", win_text
    return "held", win_text


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    sets = [load_records(Path(p)) for p in argv]
    rows = [by_row(s) for s in sets]
    regressed = False
    if len(sets) == 1:
        print(f"{'metric':34} {'workload':17} {'n':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}")
        for key in sorted(rows[0]):
            name, workload, _ = key
            values = list(rows[0][key].values())
            q1, q2, q3 = quartiles(values)
            bound = bounds.get(name, (None, True))[0]
            print(f"{name:34} {workload:17} {len(values):3d} {q2:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread(values):7.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}")
        return 0
    print(f"{'metric':34} {'workload':17} {'parent median [q1..q3]':>34} "
          f"{'change median [q1..q3]':>34}  verdict")
    for key in sorted(set(rows[0]) & set(rows[1])):
        name, workload, _ = key
        a, b = rows[0][key], rows[1][key]
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        text = (f"{name:34} {workload:17} "
                f"{qa[1]:12.6g} [{qa[0]:.4g}..{qa[2]:.4g}]".ljust(88)
                + f"{qb[1]:12.6g} [{qb[0]:.4g}..{qb[2]:.4g}]".rjust(34))
        if name in bounds:
            bound, lower_better = bounds[name]
            result, wins = verdict(a, b, bound, lower_better)
            regressed |= result == "regressed"
            text += f"  {result} (bound {bound:.2f}; {wins})"
        print(text)
    digests = [{(r["workload"], r["seed"]): r.get("facts", {}).get("digest")
                for r in s if int(r["trace"]) == 0} for s in sets]
    changed = sorted(k for k in set(digests[0]) & set(digests[1])
                     if digests[0][k] != digests[1][k])
    for workload, seed in changed:
        print(f"output digest differs: {workload} seed {seed}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
