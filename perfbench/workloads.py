"""Scenario documents for each benchmark workload, made from a seed.

Every document is a scenario config in the format `ScenarioSpec.from_json`
reads. Seed 0 gives the pinned catalog configs exactly; other seeds draw a
new alternating-rotation angle and new tabulated-maps tables. Nothing here
imports the program: the documents are the only input it receives.
"""

from __future__ import annotations

import math
import random

GOLDEN_ALPHA = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0

#: denominators up to this are the "small" rationals make_builtin_family warns about
RATIONAL_DEN = 64
#: a drawn angle/(2pi) stays at least this far (times 1/q^2) from every p/q, q <= RATIONAL_DEN
RATIONAL_MARGIN = 0.2

#: the twelve properties every report holds, in report order
PROPERTIES = (
    "equicontinuity", "minimality", "transitivity", "weak_mixing", "topological_mixing",
    "sensitivity", "cofinite_sensitivity", "periodic_points", "dense_periodicity",
    "proximal_cell_density", "proximal_pairs_density", "li_yorke_cell_density",
)

#: tabulated-maps make-up: table size, number of perturbed steps and their amplitude
TABLE_SIZE = 244
TABLE_STEPS = 3
TABLE_NOISE = 0.05


def _check(horizon, grid, balls, eps, delta, tail, max_period, reps) -> dict:
    return {
        "horizon": horizon, "grid_resolution": grid, "ball_count": balls,
        "eps": eps, "delta": delta, "tol": 1e-9, "tail_window": tail,
        "max_period": max_period, "repetitions": reps,
    }


def _builtin(name: str, check: dict, params: dict | None = None) -> dict:
    family = {"builtin": name}
    if params is not None:
        family["params"] = params
    return {"family": family, "check": check, "properties": "all", "label": name, "seed": 0}


def rotation_angle(seed: int) -> float:
    """Alternating-rotation angle: the golden angle for seed 0, else a drawn
    angle whose turn fraction keeps clear of small-denominator rationals."""
    if seed == 0:
        return GOLDEN_ALPHA
    rng = random.Random(f"alternating-rotation/{seed}")
    while True:
        u = rng.uniform(0.05, 0.95)
        near = min(abs(u - round(u * q) / q) * q * q for q in range(1, RATIONAL_DEN + 1))
        if near > RATIONAL_MARGIN:
            return 2.0 * math.pi * u


def rotation_docs(seed: int) -> list[dict]:
    return [
        _builtin(
            "alternating-rotation",
            _check(5000, 20, 9, 0.05, 0.25, 2000, 8, 3),
            {"alpha": rotation_angle(seed)},
        ),
        _builtin("inverse-square-rotation", _check(2000, 20, 9, 0.1, 0.3, 500, 100, 5)),
    ]


def expanding_docs(seed: int) -> list[dict]:
    return [
        _builtin("perturbed-doubling", _check(500, 20, 9, 0.2, 0.25, 200, 10, 3)),
        _builtin("plateau-tent", _check(500, 20, 9, 0.1, 0.25, 200, 8, 3)),
    ]


def odometer_docs(seed: int) -> list[dict]:
    return [
        _builtin(
            "odometer-deletion",
            _check(200, 6, 5, 0.2, 0.5, 100, 8, 2),
            {"word_length": 24},
        ),
    ]


def tent_table(size: int) -> list[float]:
    xs = [i / (size - 1) for i in range(size)]
    return [2.0 * x if x <= 0.5 else 2.0 - 2.0 * x for x in xs]


def tabulated_docs(seed: int) -> list[dict]:
    """Perturbed tent tables f_1..f_K, then the tent table as the limit;
    every map is a nearest-rule lookup, so no step has an exact region image."""
    rng = random.Random(f"tabulated-maps/{seed}")
    tent = tent_table(TABLE_SIZE)
    steps = []
    for j in range(1, TABLE_STEPS + 1):
        amp = TABLE_NOISE / j
        values = [min(1.0, max(0.0, v + amp * rng.uniform(-1.0, 1.0))) for v in tent]
        steps.append({"type": "lookup", "rule": "nearest", "values": values})
    return [
        {
            "space": {"kind": "unit_interval"},
            "family": {
                "custom": {
                    "steps": steps,
                    "limit": {"type": "lookup", "rule": "nearest", "values": tent},
                    "label": "tabulated-tent",
                }
            },
            "check": _check(300, 12, 9, 0.1, 0.25, 200, 8, 3),
            "properties": "all",
            "label": "tabulated-maps",
            "seed": seed,
        }
    ]


WORKLOADS = {
    "catalog-rotations": rotation_docs,
    "catalog-expanding": expanding_docs,
    "catalog-odometer": odometer_docs,
    "tabulated-maps": tabulated_docs,
}
