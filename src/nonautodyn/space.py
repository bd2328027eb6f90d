"""Compact phase spaces: the circle, the unit interval, and binary sequence space.

Points are immutable tagged values. The circle uses radians in [0, 2pi) with
the geodesic metric (diameter pi). Binary sequence space is horizon-bounded:
a word carries an effective length L and resolves distances only down to 1/L,
so metric results at that floor are flagged rather than silently trusted.
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


class SpaceKind(str, Enum):
    CIRCLE = "circle"
    UNIT_INTERVAL = "unit_interval"
    BINARY_SEQ = "binary_seq"


def reduce_angle(theta: float) -> float:
    """Reduce a radian value into [0, 2pi)."""
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # guards fmod returning exactly 2pi after the shift
        r -= TWO_PI
    return r


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
        if v < 0.0:
            if v < -1e-12:
                raise SpaceError(f"interval point out of range: {v}")
            v = 0.0
        elif v > 1.0:
            if v > 1.0 + 1e-12:
                raise SpaceError(f"interval point out of range: {v}")
            v = 1.0
        object.__setattr__(self, "x", v)

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
    """A compact metric space with a diameter and a resolution floor.

    ``resolution_floor`` is the finest trustworthy distance: 1/word_length
    for binary sequence space, effectively zero for the continuum spaces.
    """

    kind: SpaceKind
    diameter: float
    resolution_floor: float
    word_length: int | None = None

    @classmethod
    def circle(cls) -> "PhaseSpace":
        return cls(SpaceKind.CIRCLE, math.pi, 1e-12)

    @classmethod
    def unit_interval(cls) -> "PhaseSpace":
        return cls(SpaceKind.UNIT_INTERVAL, 1.0, 1e-12)

    @classmethod
    def binary_seq(cls, word_length: int = 24) -> "PhaseSpace":
        if word_length < 1:
            raise SpaceError("word_length must be >= 1")
        return cls(SpaceKind.BINARY_SEQ, 1.0, 1.0 / word_length, word_length)

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
        kind = doc["kind"]
        if kind == SpaceKind.CIRCLE.value:
            return cls.circle()
        if kind == SpaceKind.UNIT_INTERVAL.value:
            return cls.unit_interval()
        if kind == SpaceKind.BINARY_SEQ.value:
            return cls.binary_seq(int(doc.get("word_length", 24)))
        raise SpaceError(f"unknown space kind: {kind!r}")


@dataclass(frozen=True)
class PointCloud:
    """A finite, ordered, nonempty set of points from one space."""

    points: tuple[Point, ...]
    source_kind: SpaceKind

    def __post_init__(self):
        if not self.points:
            raise SpaceError("empty point cloud")
        for p in self.points:
            if p.kind != self.source_kind:
                raise SpaceError("cloud contains a point from another space")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class DistanceInfo(NamedTuple):
    """Metric value plus a flag for binary words that agree to full resolution."""

    value: float
    at_resolution_floor: bool


def circle_distance(a: float, b: float) -> float:
    """Geodesic arc distance between two reduced angles."""
    d = abs(a - b)
    if d > math.pi:
        d = TWO_PI - d
    return d


def first_difference(x: BinaryWord, y: BinaryWord) -> int | None:
    """1-based index of the first differing trusted coordinate, or None."""
    n = min(x.effective_length, y.effective_length)
    for i in range(n):
        if x.bits[i] != y.bits[i]:
            return i + 1
    return None


def distance_info(space: PhaseSpace, x: Point, y: Point) -> DistanceInfo:
    """Metric with resolution accounting. See ``distance`` for the plain value."""
    space.require(x, y)
    if space.kind is SpaceKind.CIRCLE:
        return DistanceInfo(circle_distance(x.theta, y.theta), False)
    if space.kind is SpaceKind.UNIT_INTERVAL:
        return DistanceInfo(abs(x.x - y.x), False)
    # binary sequence space: d(x, y) = 1/k, k the first differing coordinate
    if x.effective_length < 1 or y.effective_length < 1:
        raise SpaceError("binary word without trusted coordinates")
    k = first_difference(x, y)
    if k is not None:
        return DistanceInfo(1.0 / k, False)
    n = min(x.effective_length, y.effective_length)
    if x.bits == y.bits and x.effective_length == y.effective_length:
        return DistanceInfo(0.0, False)
    # agreement to full shared resolution: report the upper bound, flagged
    return DistanceInfo(1.0 / n, True)


def distance(space: PhaseSpace, x: Point, y: Point) -> float:
    return distance_info(space, x, y).value


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """max(sup_{x in a} inf_{y in b} d, sup_{y in b} inf_{x in a} d), brute force."""
    if a.source_kind != b.source_kind:
        raise SpaceError("clouds from different spaces")
    if a.source_kind is SpaceKind.CIRCLE:
        space = PhaseSpace.circle()
    elif a.source_kind is SpaceKind.UNIT_INTERVAL:
        space = PhaseSpace.unit_interval()
    else:
        max_eff = max(p.effective_length for p in list(a) + list(b))
        space = PhaseSpace.binary_seq(max_eff)

    def one_sided(src: PointCloud, dst: PointCloud) -> float:
        worst = 0.0
        for p in src:
            best = min(distance(space, p, q) for q in dst)
            if best > worst:
                worst = best
        return worst

    return max(one_sided(a, b), one_sided(b, a))


def sample_grid(space: PhaseSpace, resolution: int) -> PointCloud:
    """Deterministic uniform grid.

    Circle: {2pi*i/resolution}. Interval: {i/(resolution-1)}. Binary sequence
    space: all words of length min(resolution, 12), enumerated in counting
    order (the cap keeps the enumeration at desk scale).
    """
    if resolution < 2:
        raise SpaceError("resolution must be >= 2")
    if space.kind is SpaceKind.CIRCLE:
        pts = tuple(CircleAngle(TWO_PI * i / resolution) for i in range(resolution))
    elif space.kind is SpaceKind.UNIT_INTERVAL:
        pts = tuple(IntervalPoint(i / (resolution - 1)) for i in range(resolution))
    else:
        length = min(resolution, MAX_ENUM_BITS)
        pts = tuple(
            BinaryWord(tuple((v >> (length - 1 - j)) & 1 for j in range(length)), length)
            for v in range(1 << length)
        )
    return PointCloud(pts, space.kind)


def _dedupe(points: Iterable[Point]) -> tuple[Point, ...]:
    seen = []
    for p in points:
        if p not in seen:
            seen.append(p)
    return tuple(seen)


def ball_sample(space: PhaseSpace, center: Point, radius: float, count: int) -> PointCloud:
    """Deterministic points inside the open ball around ``center``.

    Continuum spaces place the center first, then alternate center -+ i*h
    with h = radius/(floor(count/2)+1), so all offsets stay strictly inside
    the ball. Binary sequence space enumerates words that agree with the
    center on every coordinate the radius can see.
    """
    space.require(center)
    if radius <= 0:
        raise SpaceError("radius must be positive")
    if radius > space.diameter:
        raise SpaceError("radius exceeds space diameter")
    if count < 1:
        raise SpaceError("count must be >= 1")

    if space.kind is SpaceKind.BINARY_SEQ:
        if radius <= space.resolution_floor or radius <= 1.0 / center.effective_length:
            raise ResolutionError(
                f"ball of radius {radius} not resolvable at effective length "
                f"{center.effective_length}"
            )
        prefix_len = int(math.floor(1.0 / radius + 1e-12))
        prefix_len = min(prefix_len, center.effective_length)
        free = list(range(prefix_len, center.effective_length))
        pts: list[Point] = [center]
        v = 1
        while len(pts) < count and free and v < (1 << min(len(free), MAX_ENUM_BITS)):
            bits = list(center.bits)
            for j, pos in enumerate(free):
                if j >= MAX_ENUM_BITS:
                    break
                if (v >> j) & 1:
                    bits[pos] ^= 1
            pts.append(BinaryWord(tuple(bits), center.effective_length))
            v += 1
        return PointCloud(_dedupe(pts), space.kind)

    h = radius / (count // 2 + 1)
    offsets = [0.0]
    i = 1
    while len(offsets) < count:
        offsets.append(-i * h)
        if len(offsets) < count:
            offsets.append(i * h)
        i += 1
    if space.kind is SpaceKind.CIRCLE:
        pts = [CircleAngle(center.theta + off) for off in offsets]
    else:
        pts = [IntervalPoint(min(1.0, max(0.0, center.x + off))) for off in offsets]
    return PointCloud(_dedupe(pts), space.kind)


# Coordinate arrays: one float per continuum point, one packed record per
# binary word. A packed word holds coordinate j at bit j-1 of ``value``, with
# ``length`` = len(bits) and ``eff`` = effective_length, so every coordinate
# of a word up to MAX_WORD_BITS long is exact.
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
    """Element-wise distances between broadcastable coordinate arrays, equal
    to ``distance`` on the points they stand for."""
    if kind is SpaceKind.BINARY_SEQ:
        cap = np.minimum(a["eff"], b["eff"])
        diff = (a["value"] ^ b["value"]) & low_bits(cap)
        # diff & -diff is 2**(k-1) for the first differing coordinate k,
        # and frexp reads k off it exactly
        k = np.where(diff != 0, np.frexp(diff & -diff)[1], cap)
        same = (
            (a["value"] == b["value"]) & (a["length"] == b["length"]) & (a["eff"] == b["eff"])
        )
        return np.where(same, 0.0, 1.0 / k)
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
