"""Evaluable map descriptors and their symbolic algebra.

The descriptor variants cover every concrete map this package simulates:
circle rotations and integer-slope affine circle maps, piecewise-linear
interval maps, the binary odometer (add 1 with carry), coordinate deletion
on binary words, lookup tables, and formal compositions.

Each map kind has one arithmetic, `apply_batch` on coordinate arrays (see
``space.point_coords``). Piecewise-linear maps and linear-rule lookups run
on `np.interp`, the lookup nodes at i/(n-1); it is monotone on each piece
and exact at the breakpoints, so a swept point of an interval lies in the
region image `pl_image_batch` computes for it. The one-point `apply`, the
composition nodes of `pl_compose` and the exact branches of `sup_metric`
call the same rules.

Symbolic-first policy: wherever two descriptors admit a closed form
(rotation offsets, equal-slope affine pairs, piecewise-linear node maxima)
the algebra computes it exactly and marks the result exact; grid estimates
are the fallback and are flagged approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .space import (
    TWO_PI,
    PhaseSpace,
    Point,
    ResolutionError,
    SpaceError,
    SpaceKind,
    coord_distances,
    coord_point,
    grid_coords,
    json_number,
    json_object,
    low_bits,
    point_coords,
    reduce_angle,
)


@dataclass(frozen=True)
class Rotation:
    """theta -> theta + amount (mod 2pi); amount stored in [0, 2pi), -0.0 as 0.0."""

    amount: float

    def __post_init__(self):
        object.__setattr__(self, "amount", reduce_angle(float(self.amount)) + 0.0)

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind.CIRCLE


@dataclass(frozen=True)
class AffineCircle:
    """theta -> slope*theta + offset (mod 2pi) with integer slope >= 1."""

    slope: int
    offset: float

    def __post_init__(self):
        if int(self.slope) != self.slope or self.slope < 1:
            raise SpaceError(f"affine circle slope must be an integer >= 1, got {self.slope}")
        object.__setattr__(self, "slope", int(self.slope))
        object.__setattr__(self, "offset", reduce_angle(float(self.offset)) + 0.0)

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind.CIRCLE


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear self map of [0, 1].

    Breakpoints are (x, y) pairs with strictly increasing x spanning [0, 1]
    and all y in [0, 1].
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(x), float(y)) for x, y in self.breakpoints)
        if len(bps) < 2:
            raise SpaceError("piecewise-linear map needs at least two breakpoints")
        xs = [x for x, _ in bps]
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise SpaceError("breakpoints must span [0, 1]")
        if any(not (x1 > x0) for x0, x1 in zip(xs, xs[1:])):
            raise SpaceError("breakpoint x values must be strictly increasing")
        if any(not (0.0 <= y <= 1.0) for _, y in bps):
            raise SpaceError("breakpoint y values must lie in [0, 1]")
        object.__setattr__(self, "breakpoints", bps)
        # derived once; plain attributes, so == and hash still see only fields
        xs_array, ys_array = np.array(xs), np.array([y for _, y in bps])
        object.__setattr__(self, "_xs", tuple(xs))
        object.__setattr__(self, "_xs_array", xs_array)
        object.__setattr__(self, "_ys_array", ys_array)
        # what the pieces reach: each breakpoint's value, then the value at
        # the float just below each breakpoint after the first
        below = np.interp(np.nextafter(xs_array[1:], -np.inf), xs_array, ys_array)
        object.__setattr__(self, "_piece_ends", np.concatenate([ys_array, below]))

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind.UNIT_INTERVAL

    @property
    def xs(self) -> tuple[float, ...]:
        return self._xs


@dataclass(frozen=True)
class Lookup:
    """Table of values on the uniform grid over [0, 1] with an interpolation rule."""

    values: tuple[float, ...]
    rule: str = "linear"

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise SpaceError("lookup table needs at least two values")
        if any(not (0.0 <= v <= 1.0) for v in vals):
            raise SpaceError("lookup values must lie in [0, 1]")
        if self.rule not in ("linear", "nearest"):
            raise SpaceError(f"unknown interpolation rule: {self.rule!r}")
        object.__setattr__(self, "values", vals)
        # plain attributes, so == and hash still see only the fields; the
        # nodes are i/(n-1), as lookup_to_pl places them
        object.__setattr__(self, "_values_array", np.array(vals))
        object.__setattr__(self, "_nodes", np.arange(len(vals)) / (len(vals) - 1))

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind.UNIT_INTERVAL


@dataclass(frozen=True)
class OdometerAdd:
    """Binary add-with-carry of 100...: flip leading 1s to 0, first 0 to 1."""

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind.BINARY_SEQ


@dataclass(frozen=True)
class Delete:
    """Drop the index-th coordinate of a binary word (1-based).

    Deleting beyond the trusted prefix leaves the word unchanged: the
    deletion happens entirely in coordinates the word never resolved.
    """

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise SpaceError("delete index must be >= 1")
        object.__setattr__(self, "index", int(self.index))

    @property
    def space_kind(self) -> SpaceKind:
        return SpaceKind.BINARY_SEQ


@dataclass(frozen=True)
class Compose:
    """outer after inner; both operands must act on the same space kind."""

    outer: "MapDescriptor"
    inner: "MapDescriptor"

    def __post_init__(self):
        if self.outer.space_kind != self.inner.space_kind:
            raise SpaceError("compose operands act on different space kinds")

    @property
    def space_kind(self) -> SpaceKind:
        return self.inner.space_kind


MapDescriptor = Union[Rotation, AffineCircle, PiecewiseLinear, Lookup, OdometerAdd, Delete, Compose]


# ---------------------------------------------------------------------------
# evaluation

def apply(m: MapDescriptor, x: Point) -> Point:
    """Evaluate a descriptor at a point: apply_batch on its coordinates, so
    binary words longer than ``space.MAX_WORD_BITS`` raise SpaceError."""
    kind = getattr(m, "space_kind", None)
    if kind is None:
        raise SpaceError(f"not a map descriptor: {m!r}")
    if getattr(x, "kind", None) is not kind:
        raise SpaceError(f"{type(m).__name__} map applied to a non-{kind.value} point")
    return coord_point(apply_batch(m, point_coords([x], kind), kind)[0], kind)


def apply_batch(m: MapDescriptor, arr: np.ndarray, kind: SpaceKind) -> np.ndarray:
    """Vectorized evaluation on a coordinate array (see ``space.point_coords``);
    circle sums are +0.0 or more, where fmod equals np.mod bit for bit."""
    if isinstance(m, Compose):
        return apply_batch(m.outer, apply_batch(m.inner, arr, kind), kind)
    if kind is SpaceKind.CIRCLE:
        if isinstance(m, Rotation):
            s = arr + m.amount
            return np.fmod(s, TWO_PI, out=s)
        if isinstance(m, AffineCircle):
            s = m.slope * arr + m.offset
            return np.fmod(s, TWO_PI, out=s)
        raise SpaceError(f"descriptor {type(m).__name__} is not a circle map")
    if kind is SpaceKind.UNIT_INTERVAL:
        if isinstance(m, PiecewiseLinear):
            return np.interp(arr, m._xs_array, m._ys_array)
        if isinstance(m, Lookup):
            values = m._values_array
            n = len(values)
            if m.rule == "linear":
                return np.interp(arr, m._nodes, values)
            return values.take(np.rint(arr * (n - 1)).astype(int), mode="clip")
        raise SpaceError(f"descriptor {type(m).__name__} is not an interval map")
    if isinstance(m, OdometerAdd):
        # add one with carry; the mask drops a carry out of the word's last coordinate
        out = arr.copy()
        out["value"] = (arr["value"] + 1) & low_bits(arr["length"])
        return out
    if isinstance(m, Delete):
        i = m.index
        hit = i <= arr["eff"]
        if not hit.any():
            return arr
        if i == 1 and (arr["eff"] <= 1).any():  # only i == 1 can hit a word of eff 1
            raise ResolutionError(
                f"cannot delete coordinate {i} of a word with effective length 1"
            )
        v = arr["value"]
        out = arr.copy()
        out["value"] = np.where(hit, (v & low_bits(i - 1)) | ((v >> i) << (i - 1)), v)
        out["length"] -= hit
        out["eff"] -= hit
        return out
    raise SpaceError(f"descriptor {type(m).__name__} is not a binary sequence map")


def repeat_end(steps: Sequence[MapDescriptor], j: int, stop: int) -> int:
    """The last index k < stop such that steps[j..k] are all the very object
    steps[j]. A step is a pure function of its map and its input, so a row
    that a step map leaves unchanged stays unchanged up to step k."""
    m = steps[j]
    for k in range(j + 1, stop):
        if steps[k] is not m:
            return k - 1
    return stop - 1


# ---------------------------------------------------------------------------
# canonical forms

def circle_canonical(m: MapDescriptor) -> tuple[int, float] | None:
    """(slope, offset) of a circle map, flattening compositions; None otherwise."""
    if isinstance(m, Rotation):
        return (1, m.amount)
    if isinstance(m, AffineCircle):
        return (m.slope, m.offset)
    if isinstance(m, Compose) and m.space_kind is SpaceKind.CIRCLE:
        outer = circle_canonical(m.outer)
        inner = circle_canonical(m.inner)
        if outer is None or inner is None:
            return None
        mo, co = outer
        mi, ci = inner
        return (mo * mi, reduce_angle(mo * ci + co))
    return None


def lookup_to_pl(m: Lookup) -> PiecewiseLinear | None:
    if m.rule != "linear":
        return None
    return PiecewiseLinear(tuple(zip(m._nodes.tolist(), m.values)))


def pl_compose(outer: PiecewiseLinear, inner: PiecewiseLinear) -> PiecewiseLinear:
    """Exact composition outer(inner(x)) as a piecewise-linear map.

    Nodes are inner's breakpoints plus the preimages (under each inner
    segment) of outer's breakpoints; the composite is linear between
    consecutive nodes.
    """
    nodes = set(inner.xs)
    oxs = outer.xs
    for (x0, y0), (x1, y1) in zip(inner.breakpoints, inner.breakpoints[1:]):
        if y1 == y0:
            continue
        lo, hi = min(y0, y1), max(y0, y1)
        for bx in oxs:
            if lo < bx < hi:
                t = (bx - y0) / (y1 - y0)
                nodes.add(x0 + t * (x1 - x0))
    xs = np.array(sorted(nodes))
    kind = SpaceKind.UNIT_INTERVAL
    ys = apply_batch(outer, apply_batch(inner, xs, kind), kind)
    return PiecewiseLinear(tuple(zip(xs.tolist(), ys.tolist())))


def as_piecewise_linear(m: MapDescriptor) -> PiecewiseLinear | None:
    """Flatten an interval descriptor to a single piecewise-linear map, if possible."""
    if isinstance(m, PiecewiseLinear):
        return m
    if isinstance(m, Lookup):
        return lookup_to_pl(m)
    if isinstance(m, Compose) and m.space_kind is SpaceKind.UNIT_INTERVAL:
        outer = as_piecewise_linear(m.outer)
        inner = as_piecewise_linear(m.inner)
        if outer is None or inner is None:
            return None
        return pl_compose(outer, inner)
    return None


def compose(outer: MapDescriptor, inner: MapDescriptor) -> MapDescriptor:
    """Compose two descriptors, canonicalizing when the algebra permits."""
    if outer.space_kind != inner.space_kind:
        raise SpaceError("compose operands act on different space kinds")
    if outer.space_kind is SpaceKind.CIRCLE:
        canon = circle_canonical(Compose(outer, inner))
        if canon is not None:
            slope, offset = canon
            return Rotation(offset) if slope == 1 else AffineCircle(slope, offset)
    if outer.space_kind is SpaceKind.UNIT_INTERVAL:
        pl = as_piecewise_linear(Compose(outer, inner))
        if pl is not None:
            return pl
    return Compose(outer, inner)


def zero_slope_pieces(pl: PiecewiseLinear) -> list[tuple[float, float]]:
    """Maximal intervals on which the map is constant."""
    flat: list[tuple[float, float]] = []
    for (x0, y0), (x1, y1) in zip(pl.breakpoints, pl.breakpoints[1:]):
        if y1 == y0:
            if flat and flat[-1][1] == x0:
                flat[-1] = (flat[-1][0], x1)
            else:
                flat.append((x0, x1))
    return flat


def _first_equal(vals: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row, the first entry equal to target: Python's min and max keep
    the first of tied values, which decides the sign of a zero."""
    first = np.argmax(vals == target[:, None], axis=1)
    return np.take_along_axis(vals, first[:, None], axis=1)[:, 0]


def pl_image_batch(
    pl: PiecewiseLinear, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Image intervals of [lo[i], hi[i]] under a continuous PL map: the least
    and greatest value its one rule takes on the floats of each interval.

    The rule is monotone on each piece, so each image spans the values at
    both ends, at the breakpoints strictly inside, and at the float just
    below each breakpoint inside or at the top end.
    """
    xs = pl._xs_array
    ends = np.interp(np.stack([lo, hi], axis=1), xs, pl._ys_array)
    reached = np.concatenate(
        [(lo[:, None] < xs) & (xs < hi[:, None]), (lo[:, None] < xs[1:]) & (xs[1:] <= hi[:, None])],
        axis=1,
    )
    lows = np.concatenate([ends, np.where(reached, pl._piece_ends, np.inf)], axis=1)
    highs = np.concatenate([ends, np.where(reached, pl._piece_ends, -np.inf)], axis=1)
    return _first_equal(lows, lows.min(axis=1)), _first_equal(highs, highs.max(axis=1))


def pl_image(pl: PiecewiseLinear, lo: float, hi: float) -> tuple[float, float]:
    """Image interval of [lo, hi] under a continuous PL map, as pl_image_batch."""
    lows, highs = pl_image_batch(pl, np.array([lo]), np.array([hi]))
    return (float(lows[0]), float(highs[0]))


def pl_fixed_points(pl: PiecewiseLinear) -> list[float]:
    """All x in [0, 1] with pl(x) = x, one representative per solution."""
    out: list[float] = []
    for (x0, y0), (x1, y1) in zip(pl.breakpoints, pl.breakpoints[1:]):
        s = (y1 - y0) / (x1 - x0)
        if s == 1.0:
            if y0 == x0:
                out.extend([x0, x1])
            continue
        x = (y0 - s * x0) / (1.0 - s)
        if x0 - 1e-12 <= x <= x1 + 1e-12:
            out.append(min(max(x, x0), x1))
    dedup: list[float] = []
    for x in sorted(out):
        if not dedup or x - dedup[-1] > 1e-12:
            dedup.append(x)
    return dedup


def circle_map_fixed_points(slope: int, offset: float) -> list[float] | None:
    """All theta with slope*theta + offset = theta (mod 2pi).

    Returns None for the identity map, whose fixed-point set is the whole
    circle.
    """
    if slope == 1:
        return None if reduce_angle(offset) == 0.0 else []
    n = slope - 1
    return sorted(reduce_angle((TWO_PI * j - offset) / n) for j in range(n))


def descriptor_to_json(m: MapDescriptor) -> dict:
    if isinstance(m, Rotation):
        return {"type": "rotation", "amount": m.amount}
    if isinstance(m, AffineCircle):
        return {"type": "affine_circle", "slope": m.slope, "offset": m.offset}
    if isinstance(m, PiecewiseLinear):
        return {"type": "piecewise_linear", "breakpoints": [list(p) for p in m.breakpoints]}
    if isinstance(m, Lookup):
        return {"type": "lookup", "values": list(m.values), "rule": m.rule}
    if isinstance(m, OdometerAdd):
        return {"type": "odometer_add"}
    if isinstance(m, Delete):
        return {"type": "delete", "index": m.index}
    if isinstance(m, Compose):
        return {
            "type": "compose",
            "outer": descriptor_to_json(m.outer),
            "inner": descriptor_to_json(m.inner),
        }
    raise SpaceError(f"not a map descriptor: {m!r}")


def descriptor_from_json(doc: dict, field: str = "a map descriptor") -> MapDescriptor:
    """The descriptor a document describes; a document that is not an object
    or has no type raises SpaceError naming its field, and a field missing or
    of the wrong type or shape one naming the descriptor type. Slopes and
    indices are integers, every other number a finite real (``space.json_number``)."""
    if "type" not in json_object(doc, field):
        raise SpaceError(f"{field} has no field 'type'")
    t = doc["type"]

    def number(value, name: str, real: bool = True):
        return json_number(value, f"malformed {t!r} descriptor: {name}", real)

    try:
        if t == "rotation":
            return Rotation(number(doc["amount"], "amount"))
        if t == "affine_circle":
            slope = number(doc["slope"], "slope", real=False)
            return AffineCircle(slope, number(doc["offset"], "offset"))
        if t == "piecewise_linear":
            pairs = doc["breakpoints"]
            return PiecewiseLinear(
                tuple((number(x, "breakpoint x"), number(y, "breakpoint y")) for x, y in pairs)
            )
        if t == "lookup":
            values = tuple(number(v, "value") for v in doc["values"])
            return Lookup(values, doc.get("rule", "linear"))
        if t == "odometer_add":
            return OdometerAdd()
        if t == "delete":
            return Delete(number(doc["index"], "index", real=False))
        if t == "compose":
            return Compose(descriptor_from_json(doc["outer"]), descriptor_from_json(doc["inner"]))
    except SpaceError:
        raise
    except KeyError as exc:
        raise SpaceError(f"malformed {t!r} descriptor: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise SpaceError(f"malformed {t!r} descriptor: {exc}") from exc
    raise SpaceError(f"unknown descriptor type: {t!r}")


# ---------------------------------------------------------------------------
# supremum metric

@dataclass(frozen=True)
class SupEstimate:
    """Supremum-metric value with an exactness flag.

    Grid results are maxima over a finite grid and therefore lower bounds
    of the true supremum; closed-form results are exact.
    """

    value: float
    exact: bool


def sup_metric(space: PhaseSpace, g: MapDescriptor, h: MapDescriptor, grid_resolution: int) -> SupEstimate:
    """Estimate sup_x d(g(x), h(x)), exactly where the descriptors permit."""
    if g.space_kind != h.space_kind or g.space_kind != space.kind:
        raise SpaceError("sup metric needs two maps on the given space")
    if grid_resolution < 2:
        raise SpaceError("grid resolution must be >= 2")
    if g == h:
        return SupEstimate(0.0, True)

    if space.kind is SpaceKind.CIRCLE:
        cg, ch = circle_canonical(g), circle_canonical(h)
        if cg is not None and ch is not None:
            if cg[0] == ch[0]:
                gap = coord_distances(space.kind, np.array(cg[1]), np.array(ch[1]))
                return SupEstimate(float(gap), True)
            # differing integer slopes: the pointwise gap sweeps the whole
            # circle, so the supremum is the diameter
            return SupEstimate(math.pi, True)
    elif space.kind is SpaceKind.UNIT_INTERVAL:
        pg, ph = as_piecewise_linear(g), as_piecewise_linear(h)
        if pg is not None and ph is not None:
            nodes = np.array(sorted(set(pg.xs) | set(ph.xs)))
            gaps = coord_distances(
                space.kind, apply_batch(pg, nodes, space.kind), apply_batch(ph, nodes, space.kind)
            )
            return SupEstimate(float(gaps.max()), True)

    grid = grid_coords(space, grid_resolution)
    gaps = coord_distances(
        space.kind, apply_batch(g, grid, space.kind), apply_batch(h, grid, space.kind)
    )
    return SupEstimate(float(gaps.max(initial=0.0)), False)
