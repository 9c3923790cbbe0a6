"""Seeded input generation for the benchmark workloads.

Nothing here imports aamcba: the generated inputs are plain files
(scenario documents, a JSON list of series) that the program under test
receives as they are. The same seed always writes the same bytes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml

#: Seed of the fixed forecast corpus. Per-run seeds only rescale and
#: shift it (see ``forecast_inputs``).
CORPUS_SEED = 20231215

#: Forecast horizon of every ``forecast_general`` op, as in the bundled
#: scenario (2022-2032).
FORECAST_STEPS = 11

#: Indices into the auto-series stream that make up the ``forecast_general``
#: corpus: the first 48 entries whose auto_pipeline took under 1 s at the
#: baseline commit, and entry 151, the cheapest that comes back inadequate.
#: See README.md, "The forecast corpus".
AUTO_PICKS = (
    0, 1, 3, 5, 8, 9, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 25, 26, 27, 28,
    29, 30, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 44, 45, 46, 48, 49, 50, 51,
    54, 55, 56, 57, 58, 59, 60, 61, 65, 151,
)

#: The micro-suite: (k, 0, k) pinned fits, as (series name, length, stream
#: tag, k values). The fits of one series share its data, so CSS nesting
#: across k can be checked. See README.md for why these cases.
MICRO_SUITE = (
    ("n30", 30, 0, (1, 2, 3)),
    ("n60a", 60, 16, (1, 2)),
    ("n60b", 60, 11, (1, 2, 3)),
    ("n200", 200, 0, (1, 2, 3, 5)),
)

SWEEP_VARIANTS = 24
SWEEP_DESIGN_SEED = 20231216

_TOGGLE_CHOICES = {
    "bf2_use_trip_miles": (False, True),
    "bf3_single_ratio": (False, True),
    "bf4_ci_sign": ("as_printed", "positive_extra_cost"),
    "bf6_incremental": (False, True),
    "bf6_matching_area": (True, False),
    "bf7_case": (1, 2, 3, 4, 5),
    "amortize_capex_years": (None, 5, 10),
    "include_mean_when_differenced": (False, True),
}
_FACTOR_IDS = ("BF1", "BF2", "BF3", "BF4", "BF5", "BF6", "BF7", "BF8", "BF9")
# Years and station counts are labels, not measured quantities.
_UNJITTERED = ("market_base_year", "scghg_base_year", "DSN")


def bundled_scenario(root: Path) -> Path:
    return root / "src" / "aamcba" / "data" / "default_scenario.yaml"


# -- scenario_sweep ---------------------------------------------------------


def _jitter(value, rng: np.random.Generator) -> float:
    """Scale by up to 5% either way; shares in (0, 1] stay at most 1.

    YAML 1.1 reads exponent literals such as 6.5e9 as strings, which the
    program accepts; they are numbers here too.
    """
    value = float(value)
    jittered = value * rng.uniform(0.95, 1.05)
    return min(jittered, 1.0) if 0.0 < value <= 1.0 else jittered


def _variant(doc: dict, rng: np.random.Generator,
             design: np.random.Generator) -> tuple[dict, list[str]]:
    """One variant: values drawn from ``rng``, structure from ``design``."""
    doc = json.loads(json.dumps(doc))  # deep copy of plain data
    for spec in doc["series"]["historical"].values():
        factor = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        spec["values"] = [float(v) * factor for v in spec["values"]]
    constants = doc["constants"]
    for key, value in constants.items():
        if key in _UNJITTERED:
            continue
        if isinstance(value, list):
            constants[key] = [_jitter(v, rng) for v in value]
        else:
            constants[key] = _jitter(value, rng)
    doc["horizon"]["end"] = int(design.integers(2026, 2033))
    doc["toggles"] = {
        key: choices[int(design.integers(len(choices)))]
        for key, choices in _TOGGLE_CHOICES.items()
    }
    factors = [f for f in _FACTOR_IDS if design.random() < 0.7]
    if not factors:
        factors = [_FACTOR_IDS[int(design.integers(len(_FACTOR_IDS)))]]
    return doc, factors


def write_sweep_inputs(root: Path, seed: int, out_dir: Path) -> list[dict]:
    """Write the seeded scenario variants; returns one op spec per variant.

    Each variant scales every historical series by a positive factor (the
    order-selection tests are scale-invariant, so every series keeps its
    (0, d, 0) order) and jitters the constants by up to 5%, drawn from the
    run seed. Its structure (horizon end in 2026-2032, toggles, enabled
    factors, YAML or JSON) is drawn once from ``SWEEP_DESIGN_SEED``: a
    variant's cost depends on its structure, and a structure drawn per
    seed adds the mix of variants to the run-to-run noise. Two of
    every three variants are YAML, the third JSON: a YAML load costs about
    30 JSON loads, and with an even split the median op would fall in the
    gap between the two formats.
    """
    base = yaml.safe_load(bundled_scenario(root).read_text(encoding="utf-8"))
    rng = np.random.default_rng(seed)
    design = np.random.default_rng(SWEEP_DESIGN_SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for j in range(SWEEP_VARIANTS):
        doc, factors = _variant(base, rng, design)
        doc["name"] = f"sweep-{seed}-{j:02d}"
        if j % 3 != 2:
            path = out_dir / f"variant_{j:02d}.yaml"
            path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        else:
            path = out_dir / f"variant_{j:02d}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        ops.append({"name": path.stem, "path": path.name, "factors": factors})
    (out_dir / "ops.json").write_text(json.dumps(ops, indent=1) + "\n")
    return ops


# -- forecast_general -------------------------------------------------------


def _stationary_coeffs(rng: np.random.Generator, k: int) -> np.ndarray:
    """Coefficients with all roots outside the unit circle, built from
    partial autocorrelations in (-0.8, 0.8) by the Levinson recursion."""
    a = np.empty(0)
    for r in rng.uniform(-0.8, 0.8, k):
        a = np.concatenate([a - r * a[::-1], [r]])
    return a


def arima_path(
    rng: np.random.Generator, p: int, d: int, q: int, n: int, burn: int = 50
) -> np.ndarray:
    """One ARIMA(p, d, q) sample path of length n with unit innovations."""
    phi = _stationary_coeffs(rng, p)
    theta = _stationary_coeffs(rng, q)
    e = rng.standard_normal(n + burn)
    w = np.zeros(n + burn)
    for t in range(n + burn):
        v = e[t]
        for i in range(1, min(p, t) + 1):
            v += phi[i - 1] * w[t - i]
        for j in range(1, min(q, t) + 1):
            v += theta[j - 1] * e[t - j]
        w[t] = v
    x = w[burn:]
    for _ in range(d):
        x = np.cumsum(x)
    return x


def auto_stream_series(index: int) -> tuple[tuple[int, int, int], np.ndarray]:
    """Entry ``index`` of the fixed auto-series stream: true order and path.

    Orders have p, q in 0..2 and d in 0..2; lengths are 31-71 points, the
    range of the bundled scenario's historical series.
    """
    rng = np.random.default_rng([CORPUS_SEED, index])
    p, d, q = (int(v) for v in rng.integers(0, 3, size=3))
    n = int(rng.integers(31, 72))
    return (p, d, q), arima_path(rng, p, d, q, n)


def micro_series(n: int, tag: int) -> np.ndarray:
    """White noise of length n from stream ``tag``."""
    rng = np.random.default_rng([CORPUS_SEED, 1_000_000 + 1000 * tag + n])
    return rng.standard_normal(n)


def forecast_ops(seed: int) -> list[dict]:
    """The forecast corpus in the seed's units.

    Each series x becomes sign * 2**k * x with a seeded sign and k in
    -20..20. Scaling by a power of two and flipping the sign are exact in
    floating point, and order selection (ADF, ACF/PACF, Ljung-Box) and the
    CSS fit are scale-invariant, so the seed changes every input byte but
    not the work each op does. (A general affine map would perturb the
    last bits, and Nelder-Mead amplifies those into run-to-run cost swings
    of 25% and more.)
    """
    rng = np.random.default_rng(seed)

    def transform(x: np.ndarray) -> list[float]:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return [float(v) for v in sign * np.ldexp(x, int(rng.integers(-20, 21)))]

    micro = []
    for series, n, tag, ks in MICRO_SUITE:
        values = transform(micro_series(n, tag))
        for k in ks:
            micro.append({
                "name": f"micro_{series}_k{k}", "kind": "micro", "series": series,
                "order": [k, 0, k], "values": values,
            })
    auto = []
    for index in AUTO_PICKS:
        order, x = auto_stream_series(index)
        auto.append({
            "name": f"auto_{index:03d}", "kind": "auto",
            "true_order": list(order), "values": transform(x),
        })
    return _interleave(auto, micro)


def _interleave(*groups: list[dict]) -> list[dict]:
    """Merge the groups with each one spread evenly over the pass.

    The machine's speed drifts over tens of seconds; spreading the short
    fits across the whole pass makes the op-time median and tail sample
    the whole pass, not the few seconds at its end.
    """
    placed = [((i + 0.5) / len(g), gi, op)
              for gi, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def write_forecast_inputs(seed: int, out_dir: Path) -> list[dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = forecast_ops(seed)
    (out_dir / "series.json").write_text(json.dumps(ops) + "\n")
    return ops
