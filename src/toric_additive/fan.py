"""Complete fans in a rank-2 lattice, reconstructed from their rays.

A complete 2D fan is determined by its rays: the maximal cones are exactly
the consecutive pairs in the angular (counterclockwise) order.  Sorting and
the completeness test use only integer sign computations: a vector is
classified into the upper or lower half plane, and vectors within a half
plane are compared by the sign of their determinant.  No angles are ever
computed in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

from .errors import (
    DuplicateRay,
    IndexOutOfRange,
    NotComplete,
    NotPrimitive,
    TooFewRays,
)
from .lattice import LatticeVec, det2, int_rays, is_primitive


def _half(v: LatticeVec) -> int:
    # 0 for the half plane swept counterclockwise from the positive x axis
    # (angle in [0, pi)), 1 for the rest.
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular_cmp(u: LatticeVec, v: LatticeVec) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = det2(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


@dataclass(frozen=True)
class Fan2:
    """A complete fan in Z^2, carrying rays in their original input order."""

    rays: tuple[LatticeVec, ...]
    cyclic_order: tuple[int, ...]
    maximal_cones: tuple[tuple[int, int], ...]
    _roots_by_ray: tuple | None = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def nrays(self) -> int:
        return len(self.rays)


def build_fan(rays) -> Fan2:
    """Validate rays and assemble the complete fan they generate.

    Raises TypeError or UnsupportedDimension (from int_rays), then
    TooFewRays when there are no rays, then NotPrimitive, DuplicateRay or
    NotComplete.  One or two rays always fail the completeness test (every
    angular gap strictly below half a turn) with NotComplete, as some gap
    is then at least half a turn.
    """
    rays = int_rays(rays)
    if not rays:
        raise TooFewRays(0)
    for i, r in enumerate(rays):
        if not is_primitive(r):
            raise NotPrimitive(i, r)
    seen: dict[LatticeVec, int] = {}
    for i, r in enumerate(rays):
        if r in seen:
            raise DuplicateRay(seen[r], i)
        seen[r] = i
    order = tuple(
        sorted(range(len(rays)), key=cmp_to_key(
            lambda i, j: _angular_cmp(rays[i], rays[j])))
    )
    m = len(rays)
    for k in range(m):
        i, j = order[k], order[(k + 1) % m]
        if det2(rays[i], rays[j]) <= 0:
            raise NotComplete(i, j)
    cones = tuple((order[k], order[(k + 1) % m]) for k in range(m))
    return Fan2(rays=rays, cyclic_order=order, maximal_cones=cones)


def adjacent(fan: Fan2, i: int, j: int) -> bool:
    """True when rays i and j span a maximal cone of the fan."""
    m = fan.nrays
    if not (0 <= i < m and 0 <= j < m):
        raise IndexOutOfRange(f"ray index out of range for a fan with {m} rays")
    if i == j:
        return False
    return (i, j) in fan.maximal_cones or (j, i) in fan.maximal_cones
