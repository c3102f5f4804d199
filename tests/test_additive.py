import itertools
import random
import re
from functools import cache
from math import gcd

import pytest

from toric_additive.additive import (
    AdmissibleBasis,
    all_admissible_bases,
    classify,
    classify_rays,
    complete_collections,
    decide_existence,
    find_admissible_basis,
    is_wide,
)
from toric_additive.catalog import example_fan
from toric_additive.coxring import action_ring, build_lnd_family, lnd_from_root
from toric_additive.errors import NegativeExponent, UnsupportedDimension
from toric_additive.fan import build_fan
from toric_additive.lattice import (
    det2,
    octant_coords,
    pairing,
    unimodular_duals,
    vneg,
    xgcd,
)
from toric_additive.roots import octant_root_counts, roots_by_ray
from toric_additive.sweep import enumerate_complete_fans, primitive_pool

NO_ACTION_RAYS = [(1, 0), (-1, 3), (0, -1), (-1, -1), (1, -2)]


def test_basis_golden_p2():
    basis = find_admissible_basis(example_fan("p2"))
    assert basis is not None
    assert basis.basis_indices == (0, 1)
    assert basis.alpha == ((1, 1),)
    assert basis.nonbasis_indices == (2,)
    assert basis.duals == ((1, 0), (0, 1))


def test_basis_golden_wide():
    basis = find_admissible_basis(example_fan("wide"))
    assert basis is not None
    assert basis.basis_indices == (0, 1)
    assert basis.alpha == ((1, 2), (2, 1))


def test_basis_contract():
    for name in ("p2", "p1xp1", "f1", "p112", "p113", "wide"):
        rays = example_fan(name)
        basis = find_admissible_basis(rays)
        assert basis is not None
        i1, i2 = basis.basis_indices
        assert abs(det2(rays[i1], rays[i2])) == 1
        # every other ray is a nonnegative combination of the negated pair
        for row, j in zip(basis.alpha, basis.nonbasis_indices):
            a1, a2 = row
            assert a1 >= 0 and a2 >= 0
            p = rays[j]
            assert p[0] == -a1 * rays[i1][0] - a2 * rays[i2][0]
            assert p[1] == -a1 * rays[i1][1] - a2 * rays[i2][1]
        # duals evaluate as a Kronecker pair on the basis rays
        for k, i in enumerate(basis.basis_indices):
            for l, w in enumerate(basis.duals):
                assert pairing(rays[i], w) == (1 if k == l else 0)


def test_no_admissible_basis():
    assert find_admissible_basis(NO_ACTION_RAYS) is None
    assert decide_existence(NO_ACTION_RAYS) is False


def test_no_admissible_basis_brute_force():
    rays = NO_ACTION_RAYS
    for i1, i2 in itertools.permutations(range(len(rays)), 2):
        if abs(det2(rays[i1], rays[i2])) != 1:
            continue
        ok = True
        for j, p in enumerate(rays):
            if j in (i1, i2):
                continue
            # coordinates in the basis (-p_i1, -p_i2)
            d = det2(rays[i1], rays[i2])
            a1 = -det2(p, rays[i2]) // d
            a2 = -det2(rays[i1], p) // d
            if a1 < 0 or a2 < 0:
                ok = False
                break
        assert not ok


def test_first_basis_is_lexicographic_and_swapped():
    # classify may swap the pair so the first ray carries one root only
    for name in ("p2", "p1xp1", "f1", "p112", "p113", "wide"):
        fan = build_fan(example_fan(name))
        c = classify(fan, with_actions=False)
        i1 = c.basis.basis_indices[0]
        n1 = len(c.root_system.roots_of_ray(i1))
        n2 = len(c.root_system.roots_of_ray(c.basis.basis_indices[1]))
        assert n1 <= n2
        # the first basis ray contributes a single positive root: -dual1
        pos1 = [e for e in c.root_system.positive
                if pairing(fan.rays[i1], e) == -1]
        assert pos1 == [(-c.basis.duals[0][0], -c.basis.duals[0][1])]


def test_all_admissible_bases_counts():
    assert len(all_admissible_bases(example_fan("p2"))) == 6
    assert len(all_admissible_bases(example_fan("wide"))) == 2
    assert len(all_admissible_bases(NO_ACTION_RAYS)) == 0


def test_all_admissible_bases_are_distinct_and_valid():
    bases = all_admissible_bases(example_fan("p2"))
    assert len({b.basis_indices for b in bases}) == len(bases)
    for b in bases:
        i1, i2 = b.basis_indices
        assert abs(det2(b.rays[i1], b.rays[i2])) == 1
        assert all(a1 >= 0 and a2 >= 0 for a1, a2 in b.alpha)


COLLECTION_COUNTS = {
    "p2": 3, "p1xp1": 4, "f1": 2, "p112": 2, "p113": 2, "wide": 1,
}


@pytest.mark.parametrize("name,count", sorted(COLLECTION_COUNTS.items()))
def test_complete_collection_counts(name, count):
    fan = build_fan(example_fan(name))
    cols = complete_collections(fan)
    assert len(cols) == count
    for col in cols:
        r1, r2 = col.roots
        assert r1.ray < r2.ray
        assert pairing(fan.rays[r1.ray], r2.e) == 0
        assert pairing(fan.rays[r2.ray], r1.e) == 0
        assert col.basis_indices == (r1.ray, r2.ray)


def test_collections_bijection_with_ordered_bases():
    for name in COLLECTION_COUNTS:
        fan = build_fan(example_fan(name))
        cols = complete_collections(fan)
        bases = all_admissible_bases(fan.rays, validate=False)
        assert len(bases) == 2 * len(cols)
        assert ({c.basis_indices for c in cols} ==
                {tuple(sorted(b.basis_indices)) for b in bases})


def _all_pairs_collections(fan):
    """Reference: complete collections over every pair of rays."""
    per_ray = roots_by_ray(fan)
    out = []
    for i1 in range(fan.nrays):
        for i2 in range(i1 + 1, fan.nrays):
            for r1 in per_ray[i1]:
                if pairing(fan.rays[i2], r1.e) != 0:
                    continue
                for r2 in per_ray[i2]:
                    if pairing(fan.rays[i1], r2.e) == 0:
                        out.append((r1, r2))
    return out


def test_admissible_pairs_span_cones():
    # every complete fan with coordinates in [-2, 2]^2: an admissible basis
    # spans a maximal cone, and scanning only the cones finds every
    # collection the all-pairs scan finds, in the same order
    fans = 0
    for rays in enumerate_complete_fans(primitive_pool(2)):
        fan = build_fan(rays)
        cones = {frozenset(c) for c in fan.maximal_cones}
        for basis in all_admissible_bases(fan.rays, validate=False):
            assert frozenset(basis.basis_indices) in cones, rays
        assert [c.roots for c in complete_collections(fan)] == \
            _all_pairs_collections(fan), rays
        fans += 1
    assert fans == 11396


WIDE_GOLDEN = {
    "p2": False, "p1xp1": True, "f1": False,
    "p112": False, "p113": False, "wide": True,
}


@pytest.mark.parametrize("name,expected", sorted(WIDE_GOLDEN.items()))
def test_is_wide(name, expected):
    fan = build_fan(example_fan(name))
    basis = find_admissible_basis(fan.rays, validate=False)
    assert is_wide(fan, basis) is expected


CLASSIFY_GOLDEN = {
    # name: (num_classes, d, wide)
    "p2": (2, 1, False),
    "p1xp1": (1, 0, True),
    "f1": (2, 1, False),
    "p112": (2, 2, False),
    "p113": (2, 3, False),
    "wide": (1, 0, True),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDEN))
def test_classify_golden(name):
    expected_classes, expected_d, expected_wide = CLASSIFY_GOLDEN[name]
    c = classify(build_fan(example_fan(name)))
    assert c.admits_action is True
    assert c.num_classes == expected_classes
    assert c.d == expected_d
    assert c.wide is expected_wide
    assert c.normalized_action is not None
    if expected_wide:
        assert c.non_normalized_action is None
    else:
        assert c.non_normalized_action is not None


def test_classify_no_action():
    c = classify(build_fan(NO_ACTION_RAYS))
    assert c.admits_action is False
    assert c.num_classes == 0
    assert c.basis is None
    assert c.collections == ()
    assert c.normalized_action is None
    assert c.non_normalized_action is None


def test_classify_without_actions():
    c = classify(build_fan(example_fan("p112")), with_actions=False)
    assert c.admits_action and c.num_classes == 2 and c.d == 2
    assert c.family is None
    assert c.normalized_action is None


def test_classify_rays_convenience():
    c = classify_rays(example_fan("f1"))
    assert c.num_classes == 2


def test_classify_rays_rejects_higher_rank():
    with pytest.raises(UnsupportedDimension):
        classify_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


def test_non_int_coordinates_refused():
    with pytest.raises(TypeError, match="1.9"):
        find_admissible_basis([(1.9, 0), (0, 1), (-1, -1)])
    with pytest.raises(TypeError, match="'1'"):
        classify_rays([("1", 0), (0, 1), (-1, -1)])


def test_admissible_basis_refuses_rank_three():
    # the ray gate refuses any ray that is not a pair, with or without
    # fan validation
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    for validate in (True, False):
        with pytest.raises(UnsupportedDimension, match="rank"):
            find_admissible_basis(rays, validate=validate)


def test_d_is_basis_independent():
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        rays = set()
        while len(rays) < rng.randint(3, 6):
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0):
                g = gcd(abs(v[0]), abs(v[1]))
                rays.add((v[0] // g, v[1] // g))
        try:
            fan = build_fan(sorted(rays))
        except Exception:
            continue
        bases = all_admissible_bases(fan.rays, validate=False)
        assert find_admissible_basis(fan.rays, validate=False) == \
            (bases[0] if bases else None)
        if not bases:
            continue
        checked += 1
        wides = set()
        ds = set()
        for b in bases:
            n1, n2 = octant_root_counts(b.alpha)
            ds.add(max(n1, n2) - 1)
            wides.add(is_wide(fan, b))
        assert len(ds) == 1
        assert len(wides) == 1
        c = classify(fan, with_actions=False)
        assert c.d == ds.pop()
        assert c.wide is wides.pop()


def _permutations_bases(rays):
    """Reference: the search over ordered pairs in permutations order."""
    out = []
    for perm in itertools.permutations(range(len(rays)), 2):
        if abs(det2(rays[perm[0]], rays[perm[1]])) != 1:
            continue
        duals = unimodular_duals([rays[i] for i in perm])
        nonbasis = tuple(j for j in range(len(rays)) if j not in perm)
        alpha = []
        for j in nonbasis:
            row = octant_coords(rays[j], duals)
            if min(row) < 0:
                break
            alpha.append(row)
        else:
            out.append(AdmissibleBasis(rays=tuple(rays), basis_indices=perm,
                                       duals=duals, nonbasis_indices=nonbasis,
                                       alpha=tuple(alpha)))
    return tuple(out)


@cache
def _reference_fans():
    """All complete fans of primitive_pool(2), then 400 of them moved by
    seeded GL2(Z) maps with entries up to 50 and their rays shuffled."""
    fans = [tuple(rays) for rays in enumerate_complete_fans(primitive_pool(2))]
    rng = random.Random(53)
    images = []
    for rays in rng.sample(fans, 400):
        g = 0
        while g != 1:
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            g, x, y = xgcd(a, b)
        sign = rng.choice((1, -1))
        m = ((a, b), (-sign * y, sign * x))
        moved = [(m[0][0] * u + m[0][1] * v, m[1][0] * u + m[1][1] * v)
                 for u, v in rays]
        rng.shuffle(moved)
        images.append(tuple(moved))
    return fans + images


def test_basis_search_matches_permutations_reference():
    # each unordered pair is tested once and yields both orders; the
    # result, and its order, is that of the ordered-pair search
    admitting = 0
    for rays in _reference_fans():
        want = _permutations_bases(rays)
        assert all_admissible_bases(rays, validate=False) == want, rays
        assert find_admissible_basis(rays, validate=False) == \
            (want[0] if want else None), rays
        admitting += bool(want)
    assert admitting > 3325


def test_lnd_family_matches_lnd_from_root():
    # the family read from the two dual pairing rows equals the one built
    # root by root, char tags included, on every admitting fan
    families = 0
    for rays in _reference_fans():
        c = classify(build_fan(rays), with_actions=False)
        if not c.admits_action:
            continue
        basis, d = c.basis, c.d
        family = build_lnd_family(basis, d)
        ring = action_ring(len(rays))
        i1, i2 = basis.basis_indices
        b1, b2 = basis.duals
        assert family.delta == lnd_from_root(ring, rays, vneg(b1), i1)
        assert family.partials == tuple(
            lnd_from_root(ring, rays, (k * b1[0] - b2[0], k * b1[1] - b2[1]),
                          i2) for k in range(d + 1))
        assert family.delta.char == vneg(b1)
        # one partial too many pairs negatively with some ray, and both
        # routes refuse it with the same message
        e = ((d + 1) * b1[0] - b2[0], (d + 1) * b1[1] - b2[1])
        with pytest.raises(NegativeExponent) as direct:
            lnd_from_root(ring, rays, e, i2)
        with pytest.raises(NegativeExponent,
                           match=re.escape(str(direct.value))):
            build_lnd_family(basis, d + 1)
        families += 1
    assert families > 3325
