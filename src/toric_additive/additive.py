"""Existence and classification of additive group actions on toric surfaces.

A complete surface carries an action of the additive group G_a^2 with a
dense open orbit exactly when some pair of rays forms a lattice basis whose
closed negative octant contains every remaining ray.  When that holds there
is exactly one isomorphism class of actions if the fan is wide and exactly
two otherwise, with explicit polynomial representatives in Cox coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

from .coxring import (
    ActionMap,
    LndFamily,
    build_lnd_family,
    emit_actions,
)
from .errors import InternalInconsistency, NotABasis, UnsupportedDimension
from .fan import Fan2, build_fan
from .lattice import (
    CharVec,
    LatticeVec,
    pairing,
    unimodular_duals,
    vneg,
)
from .roots import (
    DemazureRoot,
    RootSystem,
    all_roots,
    closed_form_counts,
    enumerate_roots_at,
    roots_by_ray,
)


@dataclass(frozen=True)
class AdmissibleBasis:
    """An ordered ray pair forming a lattice basis that dominates the rest.

    ``alpha[r][k]`` is the coefficient of -rays[basis_indices[k]] in the
    expansion of the non-basis ray rays[nonbasis_indices[r]]; admissibility
    means every coefficient is nonnegative, i.e. all remaining rays lie in
    the closed negative octant spanned by the basis.
    """

    rays: tuple[LatticeVec, ...]
    basis_indices: tuple[int, ...]
    duals: tuple[CharVec, ...]
    nonbasis_indices: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]


def _admissible_bases(rays: Sequence[Sequence[int]], validate: bool
                      ) -> Iterator[AdmissibleBasis]:
    """Admissible bases in lexicographic order of index tuples."""
    clean = tuple(tuple(int(c) for c in r) for r in rays)
    if not clean:
        return
    n = len(clean[0])
    if validate and n == 2:
        build_fan(clean)
    for perm in permutations(range(len(clean)), n):
        try:
            duals = unimodular_duals([clean[i] for i in perm])
        except NotABasis:
            continue
        nonbasis = tuple(j for j in range(len(clean)) if j not in perm)
        alpha = []
        for j in nonbasis:
            row = tuple(-pairing(clean[j], dk) for dk in duals)
            if any(c < 0 for c in row):
                break
            alpha.append(row)
        else:
            yield AdmissibleBasis(rays=clean, basis_indices=perm,
                                  duals=duals, nonbasis_indices=nonbasis,
                                  alpha=tuple(alpha))


def find_admissible_basis(rays: Sequence[Sequence[int]], *,
                          validate: bool = True) -> AdmissibleBasis | None:
    """First admissible basis in lexicographic order of index pairs, or None.

    Works for rays of any rank n (taking ordered n-tuples); fan validation
    is only available, and only applied, in rank 2.
    """
    return next(_admissible_bases(rays, validate), None)


def all_admissible_bases(rays: Sequence[Sequence[int]], *,
                         validate: bool = True) -> tuple[AdmissibleBasis, ...]:
    """Every admissible basis, in the order find_admissible_basis tries them."""
    return tuple(_admissible_bases(rays, validate))


def decide_existence(rays: Sequence[Sequence[int]], *,
                     validate: bool = True) -> bool:
    """Does a complete variety with these rays admit an additive action?"""
    return find_admissible_basis(rays, validate=validate) is not None


class CompleteCollection(NamedTuple):
    """Roots at two distinct rays, each vanishing on the other's ray."""

    roots: tuple[DemazureRoot, DemazureRoot]

    @property
    def basis_indices(self) -> tuple[int, int]:
        return (self.roots[0].ray, self.roots[1].ray)


def complete_collections(fan: Fan2) -> tuple[CompleteCollection, ...]:
    """All complete collections, normalized so the first ray index is smaller.

    These are in bijection with unordered admissible bases: the collection
    of a basis consists of the negatives of its dual vectors.
    """
    per_ray = roots_by_ray(fan)
    out = []
    for i1 in range(fan.nrays):
        for i2 in range(i1 + 1, fan.nrays):
            for r1 in per_ray[i1]:
                if pairing(fan.rays[i2], r1.e) != 0:
                    continue
                for r2 in per_ray[i2]:
                    if pairing(fan.rays[i1], r2.e) == 0:
                        out.append(CompleteCollection(roots=(r1, r2)))
    return tuple(out)


def is_wide(fan: Fan2, basis: AdmissibleBasis) -> bool:
    """Both basis rays carry a single root each.

    Computed twice: by enumerating the roots and by the octant coordinate
    criterion (some row has alpha1 > alpha2 and some row has alpha1 < alpha2).
    The two must agree.
    """
    i1, i2 = basis.basis_indices
    r1 = enumerate_roots_at(fan, i1)
    r2 = enumerate_roots_at(fan, i2)
    by_counts = len(r1) == 1 and len(r2) == 1
    if by_counts and (r1[0].e != vneg(basis.duals[0])
                      or r2[0].e != vneg(basis.duals[1])):
        raise InternalInconsistency(
            "a lone basis root must be the negative dual vector")
    has_gt = any(row[0] > row[1] for row in basis.alpha)
    has_lt = any(row[0] < row[1] for row in basis.alpha)
    by_alpha = has_gt and has_lt
    if by_counts != by_alpha:
        raise InternalInconsistency(
            "root enumeration and the octant criterion disagree on wideness")
    return by_counts


def _swapped(basis: AdmissibleBasis) -> AdmissibleBasis:
    if len(basis.basis_indices) != 2:
        raise UnsupportedDimension("basis reversal implemented for rank 2 only")
    return AdmissibleBasis(
        rays=basis.rays,
        basis_indices=(basis.basis_indices[1], basis.basis_indices[0]),
        duals=(basis.duals[1], basis.duals[0]),
        nonbasis_indices=basis.nonbasis_indices,
        alpha=tuple((row[1], row[0]) for row in basis.alpha))


@dataclass(frozen=True)
class Classification:
    """Full answer for one fan.

    num_classes is 0 when no additive action exists, 1 for wide fans and 2
    otherwise.  d is the degree parameter: the second basis ray carries
    d + 1 positive roots, and d = 0 characterizes the wide case.
    """

    fan: Fan2
    admits_action: bool
    num_classes: int
    basis: AdmissibleBasis | None = None
    root_system: RootSystem | None = None
    collections: tuple[CompleteCollection, ...] = ()
    wide: bool | None = None
    d: int | None = None
    family: LndFamily | None = None
    normalized_action: ActionMap | None = None
    non_normalized_action: ActionMap | None = None


def classify(fan: Fan2, *, with_actions: bool = True) -> Classification:
    """Classify the additive actions on the surface of a complete fan.

    The returned basis is ordered so that its first ray carries exactly one
    positive root; the canonical action representatives are built on it.
    """
    collections = complete_collections(fan)
    basis = find_admissible_basis(fan.rays, validate=False)
    if (basis is None) != (len(collections) == 0):
        raise InternalInconsistency(
            "admissible bases and complete collections must coexist")
    if basis is None:
        return Classification(fan=fan, admits_action=False, num_classes=0,
                              collections=collections)
    n1, n2 = closed_form_counts(basis)
    if n1 > n2:
        basis = _swapped(basis)
        n1, n2 = n2, n1
    rs = all_roots(fan, basis)
    i1, i2 = basis.basis_indices
    if (len(rs.per_ray[i1]), len(rs.per_ray[i2])) != (n1, n2):
        raise InternalInconsistency(
            "closed-form root counts disagree with enumeration")
    assert rs.positive is not None
    pos1 = [e for e in rs.positive if pairing(fan.rays[i1], e) == -1]
    pos2 = [e for e in rs.positive if pairing(fan.rays[i2], e) == -1]
    if len(pos1) != 1 or pos1[0] != vneg(basis.duals[0]):
        raise InternalInconsistency(
            "the first basis ray must carry exactly one positive root, "
            "the negative of its dual vector")
    d = len(pos2) - 1
    if d != max(n1, n2) - 1:
        raise InternalInconsistency(
            "degree from the positive system disagrees with root counts")
    wide = is_wide(fan, basis)
    if wide != (d == 0):
        raise InternalInconsistency(
            "wideness must coincide with degree zero")
    num_classes = 1 if d == 0 else 2
    family = None
    normalized = non_normalized = None
    if with_actions:
        family = build_lnd_family(basis, d)
        normalized, non_normalized = emit_actions(family)
    return Classification(fan=fan, admits_action=True,
                          num_classes=num_classes, basis=basis,
                          root_system=rs, collections=collections, wide=wide,
                          d=d, family=family, normalized_action=normalized,
                          non_normalized_action=non_normalized)


def classify_rays(rays: Sequence[Sequence[int]], *,
                  with_actions: bool = True) -> Classification:
    """Validate rays as a complete rank 2 fan, then classify."""
    clean = tuple(tuple(int(c) for c in r) for r in rays)
    if clean and len(clean[0]) != 2:
        raise UnsupportedDimension(
            f"classification is implemented for rank 2 fans; got vectors "
            f"of length {len(clean[0])}")
    return classify(build_fan(clean), with_actions=with_actions)
