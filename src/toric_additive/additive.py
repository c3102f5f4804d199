"""Existence and classification of additive group actions on toric surfaces.

A complete surface carries an action of the additive group G_a^2 with a
dense open orbit exactly when some pair of rays forms a lattice basis whose
closed negative octant contains every remaining ray.  When that holds there
is exactly one isomorphism class of actions if the fan is wide and exactly
two otherwise, with explicit polynomial representatives in Cox coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .coxring import (
    ActionMap,
    LndFamily,
    build_lnd_family,
    emit_actions,
)
from .errors import InternalInconsistency
from .fan import Fan2, build_fan
from .lattice import (
    CharVec,
    LatticeVec,
    det2,
    int_rays,
    octant_coords,
    pairing,
    unimodular_duals,
    vneg,
)
from .roots import (
    DemazureRoot,
    RootSystem,
    all_roots,
    octant_root_counts,
    roots_by_ray,
)


@dataclass(frozen=True)
class AdmissibleBasis:
    """An ordered ray pair forming a basis of Z^2 that dominates the rest.

    ``duals[k]`` pairs to 1 with rays[basis_indices[k]] and to 0 with the
    other basis ray.  ``alpha[r][k]`` is the coefficient of
    -rays[basis_indices[k]] in the expansion of the non-basis ray
    rays[nonbasis_indices[r]]; admissibility means every coefficient is
    nonnegative, i.e. all remaining rays lie in the closed negative octant
    spanned by the basis.
    """

    rays: tuple[LatticeVec, ...]
    basis_indices: tuple[int, int]
    duals: tuple[CharVec, CharVec]
    nonbasis_indices: tuple[int, ...]
    alpha: tuple[tuple[int, int], ...]


def _swapped(basis: AdmissibleBasis) -> AdmissibleBasis:
    return AdmissibleBasis(
        rays=basis.rays,
        basis_indices=(basis.basis_indices[1], basis.basis_indices[0]),
        duals=(basis.duals[1], basis.duals[0]),
        nonbasis_indices=basis.nonbasis_indices,
        alpha=tuple((row[1], row[0]) for row in basis.alpha))


def _admissible_bases(rays: Sequence[Sequence[int]], validate: bool
                      ) -> Iterator[AdmissibleBasis]:
    """Admissible bases, each unordered pair i < j tested once.

    Admissibility does not depend on the order of the pair, so an
    admissible pair (i, j) yields its basis and then, through ``_swapped``,
    the one of (j, i).  The first basis yielded is therefore the first
    admissible one in lexicographic order of ordered index pairs.
    """
    clean = int_rays(rays)
    if validate:
        build_fan(clean)
    m = len(clean)
    for i in range(m):
        for j in range(i + 1, m):
            if abs(det2(clean[i], clean[j])) != 1:
                continue
            duals = unimodular_duals([clean[i], clean[j]])
            nonbasis = tuple(k for k in range(m) if k != i and k != j)
            alpha = []
            for k in nonbasis:
                row = octant_coords(clean[k], duals)
                if min(row) < 0:
                    break
                alpha.append(row)
            else:
                basis = AdmissibleBasis(rays=clean, basis_indices=(i, j),
                                        duals=duals, nonbasis_indices=nonbasis,
                                        alpha=tuple(alpha))
                yield basis
                yield _swapped(basis)


def find_admissible_basis(rays: Sequence[Sequence[int]], *,
                          validate: bool = True) -> AdmissibleBasis | None:
    """First admissible basis in lexicographic order of index pairs, or None.

    With validate, the rays must form a complete fan (see build_fan);
    without it they need only be int pairs.
    """
    return next(_admissible_bases(rays, validate), None)


def all_admissible_bases(rays: Sequence[Sequence[int]], *,
                         validate: bool = True) -> tuple[AdmissibleBasis, ...]:
    """Every admissible basis, in lexicographic order of index pairs."""
    return tuple(sorted(_admissible_bases(rays, validate),
                        key=lambda b: b.basis_indices))


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
    of a basis consists of the negatives of its dual vectors.  By the cone
    condition a root of p_i pairs to 0 only with the rays beside p_i, so
    only the maximal cones are tried, in lexicographic order.
    """
    per_ray = roots_by_ray(fan)
    out = []
    for i1, i2 in sorted(tuple(sorted(c)) for c in fan.maximal_cones):
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
    per_ray = roots_by_ray(fan)
    r1, r2 = (per_ray[i] for i in basis.basis_indices)
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
    n1, n2 = octant_root_counts(basis.alpha)
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
    """Validate rays as a complete fan, then classify."""
    return classify(build_fan(rays), with_actions=with_actions)
