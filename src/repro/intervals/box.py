"""Named interval boxes (axis-aligned hyper-rectangles).

A :class:`Box` maps variable names to :class:`~repro.intervals.Interval`
values.  Boxes are the search states of the ICP branch-and-prune loop
(paper Section III-A) and the witnesses returned by delta-sat answers.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Mapping

from .interval import Interval

__all__ = ["Box"]


class Box(Mapping[str, Interval]):
    """An immutable mapping ``variable name -> Interval``.

    The box is *empty* if any of its component intervals is empty.
    """

    __slots__ = ("_ivs",)

    def __init__(self, ivs: Mapping[str, Interval] | Iterable[tuple[str, Interval]]):
        self._ivs: dict[str, Interval] = dict(ivs)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_bounds(bounds: Mapping[str, tuple[float, float]]) -> "Box":
        """Build a box from ``{name: (lo, hi)}``."""
        return Box({k: Interval.make(lo, hi) for k, (lo, hi) in bounds.items()})

    @staticmethod
    def from_point(point: Mapping[str, float]) -> "Box":
        """Degenerate box containing a single point."""
        return Box({k: Interval.point(v) for k, v in point.items()})

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Interval:
        return self._ivs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __contains__(self, name: object) -> bool:
        return name in self._ivs

    @property
    def names(self) -> list[str]:
        """The dimension names, in insertion order."""
        return list(self._ivs)

    # ------------------------------------------------------------------
    # Predicates and measures
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when any dimension is empty."""
        return any(iv.is_empty for iv in self._ivs.values())

    def max_width(self) -> float:
        """Width of the widest dimension (0 for point/empty boxes)."""
        if self.is_empty or not self._ivs:
            return 0.0
        return max(iv.width() for iv in self._ivs.values())

    def widest_dimension(self) -> str:
        """Name of the dimension with the largest width."""
        if not self._ivs:
            raise ValueError("widest_dimension of dimensionless box")
        return max(self._ivs, key=lambda k: self._ivs[k].width())

    def volume(self) -> float:
        """Product of widths (can overflow to inf for large boxes)."""
        if self.is_empty:
            return 0.0
        vol = 1.0
        for iv in self._ivs.values():
            vol *= iv.width()
        return vol

    def contains_point(self, point: Mapping[str, float]) -> bool:
        """True when every named coordinate of ``point`` lies in the box.

        Coordinates of the box that are missing from ``point`` are
        ignored; coordinates of ``point`` missing from the box raise.
        """
        return all(self._ivs[k].contains(v) for k, v in point.items())

    def contains_box(self, other: "Box") -> bool:
        """True when every dimension of ``other`` lies inside this box's."""
        return all(self._ivs[k].contains_interval(iv) for k, iv in other._ivs.items())

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def with_interval(self, name: str, iv: Interval) -> "Box":
        """New box with dimension ``name`` set to ``iv`` (added if new)."""
        new = dict(self._ivs)
        new[name] = iv
        return Box(new)

    def without(self, *names: str) -> "Box":
        """New box without the given dimensions."""
        return Box({k: v for k, v in self._ivs.items() if k not in names})

    def restrict(self, names: Iterable[str]) -> "Box":
        """New box with only the given dimensions (in this box's order)."""
        keep = set(names)
        return Box({k: v for k, v in self._ivs.items() if k in keep})

    def merged(self, other: "Box | Mapping[str, Interval]") -> "Box":
        """New box with ``other``'s dimensions added/overriding."""
        new = dict(self._ivs)
        new.update(dict(other))
        return Box(new)

    def intersect(self, other: "Box") -> "Box":
        """Componentwise intersection over shared names; unshared names kept."""
        new = dict(self._ivs)
        for k, iv in dict(other).items():
            new[k] = new[k].intersect(iv) if k in new else iv
        return Box(new)

    def hull(self, other: "Box") -> "Box":
        """Componentwise hull over shared names; unshared names kept."""
        new = dict(self._ivs)
        for k, iv in dict(other).items():
            new[k] = new[k].hull(iv) if k in new else iv
        return Box(new)

    def split(self, name: str | None = None) -> tuple["Box", "Box"]:
        """Bisect along ``name`` (default: widest dimension)."""
        if name is None:
            name = self.widest_dimension()
        left, right = self._ivs[name].split()
        return self.with_interval(name, left), self.with_interval(name, right)

    def midpoint(self) -> dict[str, float]:
        """The center point, one :meth:`Interval.midpoint` per dimension."""
        return {k: iv.midpoint() for k, iv in self._ivs.items()}

    def corners(self) -> list[dict[str, float]]:
        """All 2^n corner points (n = dimension); use only for small n."""
        names = self.names
        pts: list[dict[str, float]] = [{}]
        for name in names:
            iv = self._ivs[name]
            ends = [iv.lo] if iv.is_point else [iv.lo, iv.hi]
            pts = [dict(p, **{name: e}) for p in pts for e in ends]
        return pts

    def sample_random(self, rng: random.Random | None = None) -> dict[str, float]:
        """Uniform random point inside the box (requires bounded box)."""
        rng = rng or random.Random()
        pt = {}
        for k, iv in self._ivs.items():
            if iv.is_empty:
                raise ValueError(f"cannot sample empty dimension {k!r}")
            lo = iv.lo if math.isfinite(iv.lo) else -1e6
            hi = iv.hi if math.isfinite(iv.hi) else 1e6
            pt[k] = rng.uniform(lo, hi)
        return pt

    def sample_grid(self, per_dim: int) -> list[dict[str, float]]:
        """Cartesian grid of ``per_dim`` samples per dimension."""
        pts: list[dict[str, float]] = [{}]
        for k, iv in self._ivs.items():
            vals = iv.sample(per_dim)
            pts = [dict(p, **{k: v}) for p in pts for v in vals]
        return pts

    def inflate(self, eps: float) -> "Box":
        """New box with every dimension widened by ``eps`` on both sides."""
        return Box({k: iv.inflate(eps) for k, iv in self._ivs.items()})

    # ------------------------------------------------------------------
    # Dunder utilities
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, iv.lo, iv.hi) for k, iv in self._ivs.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}=[{iv.lo:.6g}, {iv.hi:.6g}]" for k, iv in self._ivs.items())
        return f"Box({inner})"
