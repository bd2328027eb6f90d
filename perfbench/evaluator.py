"""Plain-Python evaluator of the benchmark's maps, written apart from the program.

It reads the same scenario documents the program gets and evaluates each map
from its closed form, one point at a time, so the checks can replay orbits
without calling into the library under test. The float operations follow the
maps' definitions in the same order (a sum reduced mod 2pi, 2x and 2 - 2x on
the interval, rounding to the nearest table entry), so replayed values agree
with the program's to the last bit when the program is right.

Points are floats on the circle (radians in [0, 2pi)) and the unit interval,
and (bits, effective_length) pairs in binary sequence space.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
#: binary grids enumerate words of at most this many coordinates
MAX_ENUM_BITS = 12


def reduce_angle(theta: float) -> float:
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        r -= TWO_PI
    return r


def circle_distance(a: float, b: float) -> float:
    d = abs(a - b)
    return TWO_PI - d if d > math.pi else d


def word_distance(x: tuple, y: tuple) -> float:
    """1/k for the first differing trusted coordinate k; 1/n when the words
    agree on all n shared trusted coordinates but are not identical."""
    (bx, ex), (by, ey) = x, y
    n = min(ex, ey)
    for i in range(n):
        if bx[i] != by[i]:
            return 1.0 / (i + 1)
    if bx == by and ex == ey:
        return 0.0
    return 1.0 / n


def tent(x: float) -> float:
    return 2.0 * x if x <= 0.5 else 2.0 - 2.0 * x


def plateau_head(x: float) -> float:
    return 1.0 if x <= 0.5 else 2.0 - 2.0 * x


def rotation(amount: float):
    a = reduce_angle(amount)
    return lambda t: reduce_angle(t + a)


def doubling(offset: float):
    c = reduce_angle(offset)
    return lambda t: reduce_angle(2 * t + c)


def odometer(w: tuple) -> tuple:
    bits, eff = w
    out = list(bits)
    for i in range(len(out)):
        if out[i] == 0:
            out[i] = 1
            break
        out[i] = 0
    return tuple(out), eff


def delete(index: int):
    def f(w: tuple) -> tuple:
        bits, eff = w
        if index > eff:
            return w
        if eff <= 1:
            raise ValueError(f"cannot delete coordinate {index} at effective length {eff}")
        return bits[: index - 1] + bits[index:], eff - 1

    return f


def nearest_lookup(values: list[float]):
    vals = [float(v) for v in values]
    n = len(vals)
    return lambda x: vals[min(max(int(round(x * (n - 1))), 0), n - 1)]


def _descriptor(doc: dict):
    if doc["type"] != "lookup" or doc.get("rule", "linear") != "nearest":
        raise ValueError(f"the evaluator reads nearest-rule lookup tables only, not {doc!r:.60}")
    return nearest_lookup(doc["values"])


class Model:
    """One system of a scenario: the time-varying family (mode "F") or its
    limit (mode "f"), with its metric, grids and closed-form sup terms."""

    def __init__(self, doc: dict, mode: str):
        if mode not in ("F", "f"):
            raise ValueError(f"mode must be 'F' or 'f', got {mode!r}")
        self.mode = mode
        self.check = doc["check"]
        fam = doc["family"]
        self.builtin = fam.get("builtin")
        params = fam.get("params", {})
        self.custom_steps = None
        #: rotation amount of step n (0 for the limit), for rotation families
        self.amount = None
        #: bound on the rotation still to come after step n, when the family has one
        self.tail_bound = None
        if self.builtin == "alternating-rotation":
            alpha = float(params["alpha"])
            self.kind = "circle"
            self.amount = lambda n: alpha + 2.0 / (n + 1) if n % 2 else alpha - 2.0 / n
            self.limit_amount = alpha
            self.term = lambda n: 2.0 / (n + 1) if n % 2 else 2.0 / n
        elif self.builtin == "inverse-square-rotation":
            self.kind = "circle"
            self.amount = lambda n: 1.0 / (n * n)
            self.limit_amount = 0.0
            self.term = lambda n: 1.0 / (n * n)
            self.tail_bound = lambda n: 1.0 / n
        elif self.builtin == "perturbed-doubling":
            self.kind = "circle"
            self._limit = doubling(0.0)
            self._member = lambda n: doubling(1.0 / n)
            self.term = lambda n: 1.0 / n
        elif self.builtin == "plateau-tent":
            self.kind = "interval"
            self._limit = tent
            self._member = lambda n: plateau_head if n == 1 else tent
            self.term = lambda n: 1.0 if n == 1 else 0.0
        elif self.builtin == "odometer-deletion":
            self.kind = "binary"
            self.word_length = int(params["word_length"])
            self._limit = odometer
            self._member = lambda n: (lambda w, d=delete(n): odometer(d(w)))
            self.term = lambda n: 1.0 / n
        elif self.builtin is None:
            custom = fam["custom"]
            space = doc.get("space", fam.get("space"))
            if space["kind"] != "unit_interval":
                raise ValueError("the evaluator reads custom families on the unit interval only")
            self.kind = "interval"
            steps = [_descriptor(d) for d in custom["steps"]]
            self._limit = _descriptor(custom["limit"])
            self._member = lambda n: steps[n - 1] if n <= len(steps) else self._limit
            self.custom_steps = len(steps)
            self.term = self._grid_term
        else:
            raise ValueError(f"unknown builtin family {self.builtin!r}")
        if self.amount is not None:
            self._limit = rotation(self.limit_amount)
            self._member = lambda n: rotation(self.amount(n))
        self._maps: list = []

    # -- maps and orbits -------------------------------------------------

    def step_map(self, n: int):
        if self.mode == "f":
            return self._limit
        while len(self._maps) < n:
            self._maps.append(self._member(len(self._maps) + 1))
        return self._maps[n - 1]

    def limit(self, p):
        return self._limit(p)

    def orbit(self, p, horizon: int) -> list:
        states = [p]
        for n in range(1, horizon + 1):
            states.append(self.step_map(n)(states[-1]))
        return states

    # -- metric and points -----------------------------------------------

    def dist(self, a, b) -> float:
        if self.kind == "circle":
            return circle_distance(a, b)
        if self.kind == "interval":
            return abs(a - b)
        return word_distance(a, b)

    def point(self, doc: dict):
        if self.kind == "circle":
            return reduce_angle(float(doc["theta"]))
        if self.kind == "interval":
            return float(doc["x"])
        bits = tuple(int(c) for c in doc["bits"])
        return bits, int(doc["effective_length"])

    def grid(self) -> list:
        """Checker grid: the uniform grid, binary words padded with zeros."""
        res = int(self.check["grid_resolution"])
        if self.kind == "circle":
            return [reduce_angle(TWO_PI * i / res) for i in range(res)]
        if self.kind == "interval":
            return [i / (res - 1) for i in range(res)]
        length = min(res, MAX_ENUM_BITS)
        L = self.word_length
        return [
            (tuple((v >> (length - 1 - j)) & 1 for j in range(length)) + (0,) * (L - length), L)
            for v in range(1 << length)
        ]

    def _grid_term(self, n: int) -> float:
        """sup over the 256-point grid of |f_n(x) - f(x)|, 0 once f_n is the limit."""
        if n > self.custom_steps:
            return 0.0
        f_n = self._member(n)
        return max(abs(f_n(j / 255) - self._limit(j / 255)) for j in range(256))

    @property
    def terms_exact(self) -> bool:
        return self.builtin is not None

    def constant_from(self) -> int | None:
        """Step index from which every step map is the limit, when known."""
        if self.mode == "f":
            return 1
        if self.builtin == "plateau-tent":
            return 2
        if self.custom_steps is not None:
            return self.custom_steps + 1
        return None

    def step_amounts(self, horizon: int) -> list[float]:
        """Reduced rotation amounts of steps 1..horizon (rotation families)."""
        if self.mode == "f":
            return [reduce_angle(self.limit_amount)] * horizon
        return [reduce_angle(self.amount(n)) for n in range(1, horizon + 1)]
