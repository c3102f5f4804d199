"""Demazure roots of a complete rank-2 fan.

A character e is a root attached to ray i when <p_i, e> = -1 and
<p_j, e> >= 0 for every other ray j, and additionally every ray j with
<p_j, e> = 0 spans a maximal cone together with ray i.

On a complete fan the two neighbours of p_i decide all of this.  Let prev
and nxt be the rays just before and after p_i counterclockwise, and let e
pair to -1 with p_i and to >= 0 with prev and nxt.  The directions v with
<v, e> >= 0 form a closed half turn H that misses p_i.  A walk once round
counterclockwise from p_i meets nxt first and prev last, and passes H in
one stretch whose two ends alone pair to 0 with e.  Every ray met between
nxt and prev lies strictly inside that stretch and pairs positively with
e, so the other inequalities and the cone condition are implied.  By
completeness, det(prev, p_i) > 0 and det(p_i, nxt) > 0: the neighbours
bound the parametrised line <p_i, e> = -1 from opposite sides, so the root
set is an integer interval read off without any search.

A positive system needs no search either.  Let p1, p2 be an admissible
basis with duals d1, d2 (<p_k, d_l> = 1 if k = l, else 0), so every other
ray is p = -a1*p1 - a2*p2 with a1, a2 >= 0.  A root of p1 is -d1 + k*d2
and a root of p2 is -d2 + k*d1, each with k >= 0.  A root e of another ray
pairs to x, y >= 0 with p1, p2 and -a1*x - a2*y = -1, so e is d1 or d2.
Hence e and -e are both roots only for e among +-d1, +-d2 and +-(d1 - d2).
Such p pairs to a2 - a1 with d1 - d2 and to a1 - a2 with d2 - d1, so both
are roots only when a1 = a2 for every other ray, that is, when the only
other ray is -p1 - p2 and the fan is an image of P^2.  A regular vector u
must pair negatively with d1 and d2 and, on an image of P^2, positively
with d1 - d2; that fixes the sign of every semisimple root, so any u
meeting these constraints cuts the same positive system.  u = -(p1 + p2)
pairs to -1, -1 and 0 with d1, d2 and d1 - d2, and u = -(p1 + 2*p2) to
-1, -2 and 1: the first serves every fan but the images of P^2, the
second serves those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInconsistency, NotRegular
from .fan import Fan2
from .lattice import (
    CharVec,
    LatticeVec,
    pairing,
    solve_pairing_line,
    vneg,
    vsub,
)


class DemazureRoot(NamedTuple):
    e: CharVec
    ray: int


@dataclass(frozen=True)
class RootSystem:
    """All roots of a fan, split into semisimple and unipotent parts.

    ``positive`` and ``regular_vector`` are populated only when the fan
    admits an additive action.  For the admissible basis p1, p2 in use,
    ``regular_vector`` is u = -(p1 + p2), or u = -(p1 + 2*p2) on an image
    of P^2 (see ``select_regular_vector``), and ``positive`` holds the
    unipotent roots and the semisimple roots e with <u, e> > 0.
    """

    per_ray: tuple[tuple[DemazureRoot, ...], ...]
    semisimple: tuple[CharVec, ...]
    unipotent: tuple[CharVec, ...]
    regular_vector: LatticeVec | None
    positive: tuple[CharVec, ...] | None

    def roots_of_ray(self, i: int) -> tuple[CharVec, ...]:
        return tuple(r.e for r in self.per_ray[i])


def root_interval(prev: LatticeVec, p: LatticeVec, nxt: LatticeVec
                  ) -> tuple[CharVec, CharVec, int, int]:
    """(e0, q, lo, hi): the roots of p are e0 + k*q for lo <= k <= hi.

    prev and nxt are p's counterclockwise neighbours (lo > hi: no roots).
    """
    e0, q = solve_pairing_line(p, -1)
    # each neighbour v needs <v, e0 + k*q> = a*k + b >= 0
    a, b = pairing(nxt, q), pairing(nxt, e0)
    c, d = pairing(prev, q), pairing(prev, e0)
    if a < 0:
        a, b, c, d = c, d, a, b
    if not a > 0 > c:
        raise InternalInconsistency(
            f"neighbours of ray {p} lie on one side of it; fan not complete?")
    return e0, q, -(b // a), d // -c


def enumerate_roots_at(fan: Fan2, i: int) -> tuple[DemazureRoot, ...]:
    """Roots attached to ray i, sorted lexicographically by character."""
    order = fan.cyclic_order
    pos = order.index(i)
    prev, nxt = order[pos - 1], order[(pos + 1) % len(order)]
    e0, q, lo, hi = root_interval(fan.rays[prev], fan.rays[i], fan.rays[nxt])
    # q leads with a positive coordinate, so ascending k is ascending e
    return tuple(DemazureRoot(e=(e0[0] + k * q[0], e0[1] + k * q[1]), ray=i)
                 for k in range(lo, hi + 1))


def roots_by_ray(fan: Fan2) -> tuple[tuple[DemazureRoot, ...], ...]:
    """Roots of every ray, enumerated on first use and kept on the fan."""
    if fan._roots_by_ray is None:
        object.__setattr__(fan, "_roots_by_ray", tuple(
            enumerate_roots_at(fan, i) for i in range(fan.nrays)))
    return fan._roots_by_ray


def split_semisimple(per_ray: Sequence[Sequence[DemazureRoot]]
                     ) -> tuple[tuple[CharVec, ...], tuple[CharVec, ...]]:
    """Split the union of all roots into semisimple and unipotent parts.

    A root is semisimple when its negative is also a root.
    """
    universe = {r.e for rs in per_ray for r in rs}
    semi = tuple(sorted(e for e in universe if vneg(e) in universe))
    unip = tuple(sorted(e for e in universe if vneg(e) not in universe))
    return semi, unip


def select_regular_vector(fan: Fan2, basis, semisimple: Iterable[CharVec]
                          ) -> LatticeVec:
    """The one parameter subgroup u that cuts the positive system.

    u pairs to nonzero with every semisimple root, negatively with both dual
    vectors d1, d2 of the admissible basis and, when d1 - d2 and its
    negative are both semisimple, positively with d1 - d2, so that the first
    basis ray keeps exactly one positive root.  By the lemma in the module
    docstring u = -(p1 + p2) meets this on every fan but the images of P^2,
    where u = -(p1 + 2*p2) does.
    """
    i1, i2 = basis.basis_indices
    p1, p2 = fan.rays[i1], fan.rays[i2]
    eplus = vsub(basis.duals[0], basis.duals[1])
    semi = set(semisimple)
    b = 2 if eplus in semi and vneg(eplus) in semi else 1
    return (-p1[0] - b * p2[0], -p1[1] - b * p2[1])


def positive_system(semisimple: Iterable[CharVec], u: LatticeVec,
                    unipotent: Iterable[CharVec]) -> tuple[CharVec, ...]:
    """Positive roots: unipotent ones plus semisimple ones with <u, e> > 0."""
    pos = list(unipotent)
    for e in semisimple:
        v = pairing(u, e)
        if v == 0:
            raise NotRegular(f"u = {u} pairs to zero with semisimple root {e}")
        if v > 0:
            pos.append(e)
    return tuple(sorted(pos))


def all_roots(fan: Fan2, basis=None) -> RootSystem:
    """Full root data of the fan.

    When ``basis`` is omitted an admissible basis is searched for; without
    one (fan admits no additive action) the positive system is left unset.
    """
    per_ray = roots_by_ray(fan)
    semi, unip = split_semisimple(per_ray)
    if basis is None:
        from .additive import find_admissible_basis
        basis = find_admissible_basis(fan.rays, validate=False)
    if basis is None:
        return RootSystem(per_ray=per_ray, semisimple=semi, unipotent=unip,
                          regular_vector=None, positive=None)
    u = select_regular_vector(fan, basis, semi)
    pos = positive_system(semi, u, unip)
    return RootSystem(per_ray=per_ray, semisimple=semi, unipotent=unip,
                      regular_vector=u, positive=pos)


# a side that no octant row bounds: a float above every int, so no quotient,
# however large, reads as it
NO_BOUND = math.inf


def bounded(*least: int | float) -> tuple[int, ...]:
    """least, unless a side is at NO_BOUND: the fan could not be complete."""
    if NO_BOUND in least:
        raise InternalInconsistency(
            "no octant row bounds the root interval; fan not complete?")
    return least


def octant_quotients(row: Sequence[int]) -> tuple[int | float, int | float]:
    """floor(a1 / a2) and floor(a2 / a1) for one octant row (a1, a2).

    A side whose denominator is 0 gets NO_BOUND: that row sets no bound on
    it.  The sweep's pair tables store these pairs as they are.
    """
    a1, a2 = row
    return (a1 // a2 if a2 else NO_BOUND, a2 // a1 if a1 else NO_BOUND)


def octant_root_counts(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Expected |R_1|, |R_2| for the basis rays from octant coordinates.

    Each row is (a_j1, a_j2) for one non-basis ray, as in
    ``AdmissibleBasis.alpha``.  |R_1| = floor(min_j a_j1 / a_j2) + 1 where
    rows with a_j2 = 0 impose no bound, and symmetrically for |R_2|.  floor
    is monotone, so the floor of the least ratio is the least floor, and
    |R_1| = 1 + min_j floor(a_j1 / a_j2): each row contributes its
    ``octant_quotients`` and no ratios are compared.  At least one row must
    bound each side; otherwise the fan could not be complete.
    """
    quotients = [octant_quotients(row) for row in rows]
    q1, q2 = bounded(*(min((q[side] for q in quotients), default=NO_BOUND)
                       for side in (0, 1)))
    return q1 + 1, q2 + 1
