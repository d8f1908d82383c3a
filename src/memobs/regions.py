"""Finite interval unions on a 1-D domain.

An observation region is a finite union of intervals inside [0, L].  Endpoints
are closed by default; each endpoint can be marked open so that unions such as
[0, L/2) u (L/2, L], whose complement is the single point L/2, are
representable.  Openness never changes a measure or an integral, only the
covering verdicts derived from set complements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, flag, obj, real


@dataclass(frozen=True)
class Interval:
    """One interval [a, b] with optional open endpoints."""

    a: float
    b: float
    closed_left: bool = True
    closed_right: bool = True

    def __post_init__(self) -> None:
        a = real(self.a, "a")
        b = real(self.b, "b")
        if not a < b:
            raise ValidationError(f"interval needs a < b, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        flag(self.closed_left, "closed_left")
        flag(self.closed_right, "closed_right")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, x: float) -> bool:
        x = real(x, "x")
        if self.a < x < self.b:
            return True
        if x == self.a:
            return self.closed_left
        if x == self.b:
            return self.closed_right
        return False


def _coerce_interval(item, path: str) -> Interval:
    """An Interval from [a, b], [a, b, closed_left, closed_right] or an
    object with those fields; ``path`` names the item in error messages."""
    if isinstance(item, Interval):
        return item
    if isinstance(item, dict):
        obj(item, path, {"a", "b"}, {"closed_left", "closed_right"})
        return Interval(
            real(item["a"], f"{path}.a"),
            real(item["b"], f"{path}.b"),
            flag(item.get("closed_left", True), f"{path}.closed_left"),
            flag(item.get("closed_right", True), f"{path}.closed_right"),
        )
    try:
        parts = list(item)
    except TypeError as exc:
        raise ValidationError(f"{path} is not an interval: {item!r}") from exc
    if len(parts) not in (2, 4):
        raise ValidationError(f"{path} needs 2 or 4 entries, got {len(parts)}")
    a, b = (real(x, f"{path}[{i}]") for i, x in enumerate(parts[:2]))
    flags = (flag(x, f"{path}[{i}]") for i, x in enumerate(parts[2:], 2))
    return Interval(a, b, *flags)


class ObservationRegion:
    """A normalized finite union of intervals.

    Overlapping or touching input intervals are merged; two intervals touching
    at a point where both sides are open stay separate, leaving that point
    uncovered.  The result is a sorted tuple of pairwise disjoint intervals.
    """

    def __init__(self, intervals=(), L: float | None = None):
        items = [_coerce_interval(it, f"region[{i}]") for i, it in enumerate(intervals)]
        if L is not None:
            L = real(L, "L", positive=True)
            for it in items:
                if it.a < -1e-12 or it.b > L + 1e-12:
                    raise ValidationError(
                        f"interval [{it.a}, {it.b}] not inside [0, {L}]"
                    )
        self.intervals: tuple[Interval, ...] = tuple(_normalize(items))

    @property
    def measure(self) -> float:
        return sum(it.length for it in self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        x = real(x, "x")
        return any(it.contains(x) for it in self.intervals)

    def union(self, other: "ObservationRegion") -> "ObservationRegion":
        return ObservationRegion(self.intervals + other.intervals)

    def as_pairs(self) -> list[tuple[float, float]]:
        return [(it.a, it.b) for it in self.intervals]

    def to_json(self):
        out = []
        for it in self.intervals:
            if it.closed_left and it.closed_right:
                out.append([it.a, it.b])
            else:
                out.append(
                    {
                        "a": it.a,
                        "b": it.b,
                        "closed_left": it.closed_left,
                        "closed_right": it.closed_right,
                    }
                )
        return out

    @classmethod
    def from_json(cls, data, L: float | None = None) -> "ObservationRegion":
        if not isinstance(data, list):
            raise ValidationError("region must be a list of intervals")
        return cls(data, L=L)

    def __eq__(self, other) -> bool:
        return isinstance(other, ObservationRegion) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        return f"ObservationRegion({[ (it.a, it.b) for it in self.intervals ]})"


def _normalize(items: list[Interval]) -> list[Interval]:
    if not items:
        return []
    items = sorted(items, key=lambda it: (it.a, not it.closed_left))
    merged = [items[0]]
    for nxt in items[1:]:
        cur = merged[-1]
        touches = nxt.a < cur.b or (
            nxt.a == cur.b and (cur.closed_right or nxt.closed_left)
        )
        if touches:
            if nxt.b > cur.b:
                b, cr = nxt.b, nxt.closed_right
            elif nxt.b == cur.b:
                b, cr = cur.b, cur.closed_right or nxt.closed_right
            else:
                b, cr = cur.b, cur.closed_right
            cl = cur.closed_left or (nxt.a == cur.a and nxt.closed_left)
            merged[-1] = Interval(cur.a, b, cl, cr)
        else:
            merged.append(nxt)
    return merged


@dataclass(frozen=True)
class UncoveredSet:
    """Complement of a region union within [0, L].

    ``intervals`` holds pieces of positive length as (lo, hi, lo_in, hi_in)
    where the flags say whether the endpoint itself is uncovered; ``points``
    holds isolated uncovered points.
    """

    intervals: tuple[tuple[float, float, bool, bool], ...]
    points: tuple[float, ...]

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    @property
    def has_measure(self) -> bool:
        return bool(self.intervals)


def complement(region: ObservationRegion, L: float) -> UncoveredSet:
    """Uncovered part of [0, L] relative to ``region``."""
    L = real(L, "L", positive=True)
    gaps: list[tuple[float, float, bool, bool]] = []
    points: list[float] = []
    cursor = 0.0
    cursor_uncovered = True
    for it in region.intervals:
        if it.a > L:
            break
        if it.a > cursor:
            gaps.append((cursor, it.a, cursor_uncovered, not it.closed_left))
        elif it.a == cursor and cursor_uncovered and not it.closed_left:
            points.append(cursor)
        if it.b >= cursor:
            cursor = it.b
            cursor_uncovered = not it.closed_right
    if cursor < L:
        gaps.append((cursor, L, cursor_uncovered, True))
    elif cursor == L and cursor_uncovered:
        points.append(L)
    return UncoveredSet(tuple(gaps), tuple(points))
