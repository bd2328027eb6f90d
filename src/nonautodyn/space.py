"""Compact phase spaces: the circle, the unit interval, and binary sequence space.

Samplers return coordinate arrays (``grid_coords``, ``ball_coords``): a float
per continuum point, a packed record per binary word. Points, immutable
tagged values, exist at the one-point API and in the JSON (``coord_point``).
The circle uses radians in [0, 2pi) with the geodesic metric (diameter pi).
Binary sequence space is horizon-bounded: a word carries an effective length
L and resolves distances only down to 1/L, so metric results at that floor
are flagged rather than silently trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Union

import numpy as np

TWO_PI = 2.0 * math.pi

#: cap on exhaustive word enumeration, keeps grids at desk scale
MAX_ENUM_BITS = 12


class SpaceError(ValueError):
    """Domain or type error raised by space operations."""


class ResolutionError(SpaceError):
    """A binary-sequence operation needs finer resolution than the word carries."""


def json_object(value, field: str) -> dict:
    """value, when it is a JSON object: a config field of another shape is a
    config error that names the field."""
    if not isinstance(value, dict):
        raise SpaceError(f"{field} must be an object, got {value!r}")
    return value


def json_number(value, field: str, real: bool = False):
    """value, when it is an integer, or any finite real number when real: a
    bool, an infinite or NaN float, or a value of another type is a config
    error that names the field."""
    kinds = (int, float) if real else int
    infinite = isinstance(value, float) and not math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, kinds) or infinite:
        what = "a real number" if real else "an integer"
        raise SpaceError(f"{field} must be {what}, got {value!r}")
    return value


class SpaceKind(str, Enum):
    CIRCLE = "circle"
    UNIT_INTERVAL = "unit_interval"
    BINARY_SEQ = "binary_seq"


def reduce_angle(theta: float) -> float:
    """Reduce a radian value into [0, 2pi); a NaN or infinite angle is refused."""
    if not math.isfinite(theta):
        raise SpaceError(f"angle must be finite, got {theta!r}")
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # guards fmod returning exactly 2pi after the shift
        r -= TWO_PI
    return r


def reduce_angles(t: np.ndarray) -> np.ndarray:
    """Angles reduced into [0, 2pi) as reduce_angle reduces each one."""
    r = np.fmod(t, TWO_PI)
    if (r < 0.0).any():  # |fmod| < 2pi, so only a corrected angle can reach 2pi
        np.add(r, TWO_PI, out=r, where=r < 0.0)
        np.subtract(r, TWO_PI, out=r, where=r >= TWO_PI)
    return r


def canonical_coord(c: float, kind: SpaceKind) -> float:
    """The continuum coordinate that coord_point(c, kind) stores, for c
    within 1e-12 of the space: an angle reduced into [0, 2pi), an interval
    value snapped onto [0, 1]."""
    c = float(c)
    return reduce_angle(c) if kind is SpaceKind.CIRCLE else min(max(c, 0.0), 1.0)


@dataclass(frozen=True)
class CircleAngle:
    """A point on the circle, stored reduced into [0, 2pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", reduce_angle(float(self.theta)))

    @property
    def kind(self) -> SpaceKind:
        return SpaceKind.CIRCLE


@dataclass(frozen=True)
class IntervalPoint:
    """A point of [0, 1]. Values within 1e-12 of the endpoints are snapped."""

    x: float

    def __post_init__(self):
        v = float(self.x)
        if not (-1e-12 <= v <= 1.0 + 1e-12):
            raise SpaceError(f"interval point out of range: {v}")
        object.__setattr__(self, "x", canonical_coord(v, SpaceKind.UNIT_INTERVAL))

    @property
    def kind(self) -> SpaceKind:
        return SpaceKind.UNIT_INTERVAL


@dataclass(frozen=True)
class BinaryWord:
    """A finite 0/1 word standing in for a one-sided binary sequence.

    ``effective_length`` counts the leading coordinates that are trusted;
    anything beyond is bookkeeping only. Invariant: len(bits) >= effective
    length >= 1.
    """

    bits: tuple[int, ...]
    effective_length: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise SpaceError("empty binary word")
        if any(b not in (0, 1) for b in bits):
            raise SpaceError(f"non-binary digits in word: {bits}")
        eff = int(self.effective_length)
        if not (1 <= eff <= len(bits)):
            raise SpaceError(
                f"effective length {eff} outside [1, {len(bits)}]"
            )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "effective_length", eff)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @property
    def kind(self) -> SpaceKind:
        return SpaceKind.BINARY_SEQ


Point = Union[CircleAngle, IntervalPoint, BinaryWord]


@dataclass(frozen=True)
class PhaseSpace:
    """A compact metric space, whose kind and word length fix its diameter and
    its resolution floor: the finest trustworthy distance, 1/word_length for
    binary sequence space and effectively zero for the continuum spaces."""

    kind: SpaceKind
    word_length: int | None = None

    @property
    def diameter(self) -> float:
        return math.pi if self.kind is SpaceKind.CIRCLE else 1.0

    @property
    def resolution_floor(self) -> float:
        return 1.0 / self.word_length if self.kind is SpaceKind.BINARY_SEQ else 1e-12

    @classmethod
    def circle(cls) -> "PhaseSpace":
        return cls(SpaceKind.CIRCLE)

    @classmethod
    def unit_interval(cls) -> "PhaseSpace":
        return cls(SpaceKind.UNIT_INTERVAL)

    @classmethod
    def binary_seq(cls, word_length: int = 24) -> "PhaseSpace":
        if json_number(word_length, "word_length") < 1:
            raise SpaceError("word_length must be >= 1")
        return cls(SpaceKind.BINARY_SEQ, word_length)

    def require(self, *points: Point) -> None:
        for p in points:
            if p.kind != self.kind:
                raise SpaceError(
                    f"point of kind {p.kind.value} does not belong to {self.kind.value} space"
                )

    def to_json(self) -> dict:
        out = {"kind": self.kind.value}
        if self.word_length is not None:
            out["word_length"] = self.word_length
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "PhaseSpace":
        kind = json_object(doc, "space")["kind"]
        if kind == SpaceKind.CIRCLE.value:
            return cls.circle()
        if kind == SpaceKind.UNIT_INTERVAL.value:
            return cls.unit_interval()
        if kind == SpaceKind.BINARY_SEQ.value:
            return cls.binary_seq(doc.get("word_length", 24))
        raise SpaceError(f"unknown space kind: {kind!r}")


class DistanceInfo(NamedTuple):
    """Metric value plus a flag for binary words that agree to full resolution."""

    value: float
    at_resolution_floor: bool


def distance_info(space: PhaseSpace, x: Point, y: Point) -> DistanceInfo:
    """Metric with resolution accounting, from ``coord_distances`` on the two
    points; binary words agreeing on every shared trusted coordinate without
    being identical are flagged. See ``distance`` for the plain value."""
    space.require(x, y)
    a, b = point_coords([x], space.kind), point_coords([y], space.kind)
    value = float(coord_distances(space.kind, a, b)[0])
    if space.kind is not SpaceKind.BINARY_SEQ or value == 0.0:
        return DistanceInfo(value, False)
    return DistanceInfo(value, bool(_first_difference(a, b)[0] > min(a["eff"][0], b["eff"][0])))


def distance(space: PhaseSpace, x: Point, y: Point) -> float:
    return distance_info(space, x, y).value


def grid_size(space: PhaseSpace, resolution: int) -> int:
    """The number of points of grid_coords(space, resolution)."""
    binary = space.kind is SpaceKind.BINARY_SEQ
    return 1 << min(resolution, MAX_ENUM_BITS, space.word_length) if binary else resolution


def grid_coords(space: PhaseSpace, resolution: int, step: int = 1) -> np.ndarray:
    """Deterministic uniform grid, or every step-th point of it, as coordinates.

    Circle: {2pi*i/resolution}. Interval: {i/(resolution-1)}. Binary sequence
    space: all words of length min(resolution, 12, word_length), enumerated
    in counting order with the first coordinate most significant (the cap
    keeps the enumeration at desk scale, and no word longer than the space's).
    """
    if resolution < 2:
        raise SpaceError("resolution must be >= 2")
    i = np.arange(0, grid_size(space, resolution), step)
    if space.kind is SpaceKind.CIRCLE:
        return TWO_PI * i / resolution
    if space.kind is SpaceKind.UNIT_INTERVAL:
        return i / (resolution - 1)
    length = min(resolution, MAX_ENUM_BITS, space.word_length)
    words = np.zeros(i.size, dtype=WORD_DTYPE)
    # coordinate j+1 of word i is bit length-1-j of i, packed at bit j
    for j in range(length):
        words["value"] |= ((i >> (length - 1 - j)) & 1) << j
    words["length"] = words["eff"] = length
    return words


def grid_window(space: PhaseSpace, resolution: int, coords: np.ndarray, eps: float) -> np.ndarray:
    """Indices into grid_coords(space, resolution), one row of W per
    coordinate, shape coords.shape + (W,), that hold every grid point within
    eps of it, whatever the grid's word lengths: a superset, which
    coord_distances then decides.

    Binary words: the 2**(g-q) grid words that agree with the word on its
    first q = min(g, floor(1/eps) - 1) coordinates, for a grid of g-coordinate
    words, since a distance below eps needs agreement on the first
    floor(1/eps) (one less is a margin for the rounding of 1/eps). Continuum
    spaces: the indices within eps plus one index of slack on each side,
    cyclic on the circle and shifted inside the grid on the interval.
    """
    G = grid_size(space, resolution)
    if space.kind is SpaceKind.BINARY_SEQ:
        g = G.bit_length() - 1
        q = max(min(g, math.floor(1.0 / eps) - 1), 0)
        start = np.zeros(coords.shape, dtype=np.int64)
        for j in range(q):  # coordinate j+1 is bit j of a word, bit g-1-j of its index
            start |= ((coords["value"] >> j) & 1) << (g - 1 - j)
        return start[..., None] + np.arange(1 << (g - q))
    scale = resolution / TWO_PI if space.kind is SpaceKind.CIRCLE else resolution - 1.0
    W = min(G, math.floor(2.0 * eps * scale) + 4)
    start = np.floor((coords - eps) * scale).astype(np.int64) - 1
    if space.kind is SpaceKind.CIRCLE:
        return (start[..., None] + np.arange(W)) % G
    return np.minimum(np.maximum(start, 0), G - W)[..., None] + np.arange(W)


def ball_coords(space: PhaseSpace, centers: np.ndarray, radius: float, count: int) -> list[np.ndarray]:
    """Deterministic samples inside the open ball of one radius around each
    center coordinate, one array per ball, each starting with its center.

    Continuum spaces alternate center -+ i*h with h = radius/(floor(count/2)+1),
    so all offsets stay strictly inside the ball, reduce angles, clamp
    interval values, and keep the first copy of each value (0.0 equals -0.0).
    Binary sequence space flips trusted coordinates the radius cannot see:
    sample v is value ^ (v << prefix) for v < min(count, 2**free), with free
    the trusted coordinates past the prefix, at most MAX_ENUM_BITS of them.
    """
    if radius <= 0:
        raise SpaceError("radius must be positive")
    if radius > space.diameter:
        raise SpaceError("radius exceeds space diameter")
    if count < 1:
        raise SpaceError("count must be >= 1")

    if space.kind is SpaceKind.BINARY_SEQ:
        eff = centers["eff"].astype(np.int64)
        if radius <= space.resolution_floor or (radius <= 1.0 / eff).any():
            raise ResolutionError(
                f"ball of radius {radius} not resolvable at effective length "
                f"{eff.min(initial=space.word_length)}"
            )
        prefix = np.minimum(math.floor(1.0 / radius + 1e-12), eff)
        free = np.minimum(eff - prefix, MAX_ENUM_BITS)
        v = np.arange(min(count, 1 << MAX_ENUM_BITS))
        samples = np.repeat(centers[:, None], v.size, axis=1)
        samples["value"] ^= v << prefix[:, None]
        return [s[: 1 << f] for s, f in zip(samples, free.tolist())]

    h = radius / (count // 2 + 1)
    i = (np.arange(count) + 1) // 2
    offsets = np.where(np.arange(count) % 2 == 1, -i * h, i * h)
    v = centers[:, None] + offsets
    if space.kind is SpaceKind.CIRCLE:
        v = reduce_angles(v)
    else:
        # min(1.0, max(0.0, v)), which sends -0.0 to 0.0
        v = np.where(v < 1.0, np.where(v > 0.0, v, 0.0), 1.0)
    # a stable sort puts each value's first copy first among its equals
    order = np.argsort(v, axis=1, kind="stable")
    s = np.take_along_axis(v, order, axis=1)
    first = np.ones(v.shape, dtype=bool)
    np.put_along_axis(first, order[:, 1:], s[:, 1:] != s[:, :-1], axis=1)
    return [row[keep] for row, keep in zip(v, first)]


# Coordinate arrays: one float per continuum point, one packed record per
# binary word. A packed word holds coordinate j at bit j-1 of ``value``, with
# ``length`` = len(bits) and ``eff`` = effective_length, so every coordinate
# of a word up to MAX_WORD_BITS long is exact. Distinct records are at 1/k, k the
# first differing coordinate capped at the smaller eff: the unsigned popcount of
# x ^ (x - 1), x the values' xor (64 at x = 0). The cap makes it an ultrametric.
MAX_WORD_BITS = 63
WORD_DTYPE = np.dtype([("value", "<i8"), ("length", "<i2"), ("eff", "<i2")])
_LOW_BITS = np.int64(2**MAX_WORD_BITS - 1)


def low_bits(n):
    """Mask of the n low bits, for 0 <= n <= MAX_WORD_BITS (arrays too)."""
    return _LOW_BITS >> (MAX_WORD_BITS - n)


def _pack(w: BinaryWord) -> tuple[int, int, int]:
    if len(w.bits) > MAX_WORD_BITS:
        raise SpaceError(f"words longer than {MAX_WORD_BITS} coordinates cannot be packed")
    return sum(b << j for j, b in enumerate(w.bits)), len(w.bits), w.effective_length


def _first_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise first differing coordinate of packed words, 64 for equal
    values: x - 1 is -1 at x = 0, whose 64 bits only an unsigned popcount counts."""
    x = a["value"] ^ b["value"]
    return np.bitwise_count((x ^ (x - 1)).view(np.uint64))


def point_coords(points: Iterable[Point], kind: SpaceKind) -> np.ndarray:
    """1-D coordinate array of points: angles, interval values, or packed words."""
    if kind is SpaceKind.CIRCLE:
        return np.array([p.theta for p in points], dtype=float)
    if kind is SpaceKind.UNIT_INTERVAL:
        return np.array([p.x for p in points], dtype=float)
    return np.array([_pack(p) for p in points], dtype=WORD_DTYPE)


def coord_point(c, kind: SpaceKind) -> Point:
    """The point that one element of a coordinate array stands for."""
    if kind is SpaceKind.CIRCLE:
        return CircleAngle(float(c))
    if kind is SpaceKind.UNIT_INTERVAL:
        return IntervalPoint(float(c))
    value = int(c["value"])
    return BinaryWord(tuple((value >> j) & 1 for j in range(int(c["length"]))), int(c["eff"]))


def coord_distances(kind: SpaceKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise distances between broadcastable coordinate arrays: the
    metric of each space, which ``distance`` reads for two points."""
    if kind is SpaceKind.BINARY_SEQ:
        first = _first_difference(a, b)
        d = 1.0 / np.minimum(first, np.minimum(a["eff"], b["eff"]))
        same = first == 64
        if same.any():  # equal values: identical records are at 0
            d *= ~same | (a["length"] != b["length"]) | (a["eff"] != b["eff"])
        return d
    d = np.abs(a - b)
    if kind is SpaceKind.CIRCLE:
        return np.minimum(d, TWO_PI - d)
    return d


def point_to_json(p: Point) -> dict:
    if isinstance(p, CircleAngle):
        return {"space": "circle", "theta": p.theta}
    if isinstance(p, IntervalPoint):
        return {"space": "unit_interval", "x": p.x}
    if isinstance(p, BinaryWord):
        return {
            "space": "binary_seq",
            "bits": str(p),
            "effective_length": p.effective_length,
        }
    raise SpaceError(f"not a point: {p!r}")


def coord_to_json(c, kind: SpaceKind) -> dict:
    """point_to_json of the point one coordinate stands for."""
    return point_to_json(coord_point(c, kind))
