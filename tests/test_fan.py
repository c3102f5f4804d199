import random
from itertools import permutations

import pytest

from toric_additive.catalog import example_fan
from toric_additive.errors import (
    DuplicateRay,
    IndexOutOfRange,
    NotComplete,
    NotPrimitive,
    TooFewRays,
    UnsupportedDimension,
)
from toric_additive.fan import adjacent, build_fan
from toric_additive.lattice import det2


def cone_pairs(fan):
    return {frozenset(c) for c in fan.maximal_cones}


def test_projective_plane_cones():
    fan = build_fan([(1, 0), (0, 1), (-1, -1)])
    assert cone_pairs(fan) == {frozenset({0, 1}), frozenset({1, 2}),
                               frozenset({2, 0})}


def test_product_of_lines_cones():
    fan = build_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert cone_pairs(fan) == {frozenset({0, 1}), frozenset({1, 2}),
                               frozenset({2, 3}), frozenset({3, 0})}


def test_two_rays_not_complete():
    with pytest.raises(NotComplete):
        build_fan([(1, 0), (0, 1)])


def test_half_plane_gap_not_complete():
    with pytest.raises(NotComplete):
        build_fan([(1, 0), (0, 1), (1, 1)])
    # opposite consecutive rays leave a flat gap
    with pytest.raises(NotComplete):
        build_fan([(1, 0), (-1, 0), (0, 1)])


def test_empty_rays():
    with pytest.raises(TooFewRays):
        build_fan([])


def test_not_primitive():
    with pytest.raises(NotPrimitive):
        build_fan([(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(UnsupportedDimension, match=r"\(1, 0, 0\)"):
        build_fan([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])


def test_non_int_coordinate_refused():
    with pytest.raises(TypeError, match="1.5"):
        build_fan([(1.5, 0), (0, 1), (-1, -1)])


def test_duplicate_ray():
    with pytest.raises(DuplicateRay):
        build_fan([(1, 0), (0, 1), (1, 0), (-1, -1)])


def test_input_order_preserved():
    rays = [(0, 1), (-1, -1), (1, 0)]
    fan = build_fan(rays)
    assert fan.rays == tuple(rays)


def test_order_insensitive_up_to_relabeling():
    base = [(1, 0), (0, 1), (-1, -1), (0, -1)]
    reference = {frozenset(base[i] for i in c)
                 for c in build_fan(base).maximal_cones}
    for perm in permutations(base):
        fan = build_fan(perm)
        got = {frozenset(perm[i] for i in c) for c in fan.maximal_cones}
        assert got == reference


def test_every_ray_in_two_cones():
    for name in ("p2", "p1xp1", "f1", "p112", "wide", "p113"):
        fan = build_fan(example_fan(name))
        counts = [0] * fan.nrays
        for i, j in fan.maximal_cones:
            counts[i] += 1
            counts[j] += 1
        assert counts == [2] * fan.nrays


def test_cones_positively_oriented_and_cover():
    # consecutive cross products positive and the cyclic walk closes up
    fan = build_fan(example_fan("f1"))
    order = fan.cyclic_order
    m = fan.nrays
    for k in range(m):
        i, j = order[k], order[(k + 1) % m]
        assert det2(fan.rays[i], fan.rays[j]) > 0


def test_adjacent():
    p2 = build_fan([(1, 0), (0, 1), (-1, -1)])
    assert adjacent(p2, 0, 2)
    p1xp1 = build_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert not adjacent(p1xp1, 0, 2)
    f1 = build_fan([(1, 0), (0, 1), (-1, -1), (0, -1)])
    assert adjacent(f1, 2, 3)
    assert not adjacent(f1, 0, 0)


def test_adjacent_index_out_of_range():
    fan = build_fan([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(IndexOutOfRange):
        adjacent(fan, 0, 3)
    with pytest.raises(IndexOutOfRange):
        adjacent(fan, -4, 1)


def test_random_complete_fans_validate():
    # rejection-sample ray sets; whenever build_fan accepts, its cone walk
    # must cover a full turn, and whenever it rejects the gap is real
    rng = random.Random(23)
    accepted = 0
    for _ in range(400):
        nrays = rng.randint(3, 6)
        rays = set()
        while len(rays) < nrays:
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v == (0, 0):
                continue
            from math import gcd
            g = gcd(abs(v[0]), abs(v[1]))
            rays.add((v[0] // g, v[1] // g))
        rays = sorted(rays)
        try:
            fan = build_fan(rays)
        except NotComplete:
            continue
        accepted += 1
        order = fan.cyclic_order
        m = fan.nrays
        for k in range(m):
            assert det2(fan.rays[order[k]], fan.rays[order[(k + 1) % m]]) > 0
    assert accepted > 20
