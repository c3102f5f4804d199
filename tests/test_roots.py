import dataclasses
import random
import sys
from math import gcd

import pytest

import toric_additive.roots
from toric_additive.additive import classify, find_admissible_basis
from toric_additive.catalog import example_fan
from toric_additive.cli import main
from toric_additive.errors import InternalInconsistency, NotRegular
from toric_additive.fan import adjacent, build_fan
from toric_additive.lattice import pairing, solve_pairing_line, vneg, xgcd
from toric_additive.roots import (
    DemazureRoot,
    all_roots,
    enumerate_roots_at,
    octant_root_counts,
    positive_system,
    roots_by_ray,
    select_regular_vector,
    split_semisimple,
)
from toric_additive.sweep import enumerate_complete_fans, primitive_pool
from toric_additive.verify import (
    check_cone_condition_redundant,
    verification_report,
)

# per-ray root sets and the positive system of the four classical surfaces
GOLDEN = {
    "p1xp1": (
        [{(-1, 0)}, {(0, -1)}, {(1, 0)}, {(0, 1)}],
        {(-1, 0), (0, -1)},
    ),
    "wide": (
        [{(-1, 0)}, {(0, -1)}, set(), set()],
        {(-1, 0), (0, -1)},
    ),
    "p2": (
        [{(-1, 0), (-1, 1)}, {(0, -1), (1, -1)}, {(1, 0), (0, 1)}],
        {(-1, 0), (0, -1), (1, -1)},
    ),
    "f1": (
        [{(-1, 0)}, {(0, -1), (1, -1)}, {(1, 0)}, set()],
        {(-1, 0), (0, -1), (1, -1)},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_root_tables(name):
    per_ray_expected, positive_expected = GOLDEN[name]
    fan = build_fan(example_fan(name))
    rs = all_roots(fan)
    got = [set(rs.roots_of_ray(i)) for i in range(fan.nrays)]
    assert got == per_ray_expected
    assert rs.positive is not None
    assert set(rs.positive) == positive_expected


def test_weighted_plane_roots():
    fan = build_fan([(1, 0), (0, 1), (-1, -2)])
    assert set(r.e for r in enumerate_roots_at(fan, 1)) == \
        {(0, -1), (1, -1), (2, -1)}
    assert set(r.e for r in enumerate_roots_at(fan, 0)) == {(-1, 0)}
    assert set(r.e for r in enumerate_roots_at(fan, 2)) == {(1, 0)}


def test_roots_sorted_lexicographically():
    fan = build_fan(example_fan("p113"))
    for per in roots_by_ray(fan):
        es = [r.e for r in per]
        assert es == sorted(es)


def test_root_conditions_hold():
    for name in ("p2", "p1xp1", "f1", "p112", "wide", "p113"):
        fan = build_fan(example_fan(name))
        for i, per in enumerate(roots_by_ray(fan)):
            for root in per:
                assert root.ray == i
                assert pairing(fan.rays[i], root.e) == -1
                for j, p in enumerate(fan.rays):
                    if j != i:
                        assert pairing(p, root.e) >= 0


def test_semisimple_split():
    fan = build_fan(example_fan("p2"))
    per_ray = roots_by_ray(fan)
    semi, unip = split_semisimple(per_ray)
    # every root of the projective plane has a root negative
    assert set(semi) == {r.e for per in per_ray for r in per}
    assert unip == ()
    fan = build_fan(example_fan("f1"))
    semi, unip = split_semisimple(roots_by_ray(fan))
    assert set(semi) == {(-1, 0), (1, 0)}
    assert set(unip) == {(0, -1), (1, -1)}


def test_semisimple_is_intersection_with_negatives():
    # set identity S = R cap -R checked by direct scan
    rng = random.Random(5)
    checked = 0
    while checked < 40:
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
        checked += 1
        per_ray = roots_by_ray(fan)
        universe = {r.e for per in per_ray for r in per}
        semi, unip = split_semisimple(per_ray)
        assert set(semi) == {e for e in universe if vneg(e) in universe}
        assert set(unip) == universe - set(semi)


def test_regular_vector_examples():
    # off the images of P^2, u = -(p1 + p2)
    fan = build_fan(example_fan("wide"))
    basis = find_admissible_basis(fan.rays, validate=False)
    assert select_regular_vector(fan, basis, ()) == (-1, -1)
    fan = build_fan(example_fan("p1xp1"))
    basis = find_admissible_basis(fan.rays, validate=False)
    rs = all_roots(fan, basis)
    assert rs.regular_vector == (-1, -1)


def test_regular_vector_constraints():
    # the constraints of select_regular_vector, and its closed form
    fans = [build_fan(example_fan(name))
            for name in ("p2", "f1", "p112", "p113", "wide", "p1xp1")]
    fans += [fan for fan, _ in _fans_with_images(31)]
    for fan in fans:
        c = classify(fan, with_actions=False)
        basis, rs = c.basis, c.root_system
        u = rs.regular_vector
        assert u is not None
        for e in rs.semisimple:
            assert pairing(u, e) != 0
        for j in basis.nonbasis_indices:
            for root in enumerate_roots_at(fan, j):
                assert pairing(u, root.e) < 0
        d1, d2 = basis.duals
        eplus = (d1[0] - d2[0], d1[1] - d2[1])
        assert pairing(u, d1) < 0 and pairing(u, d2) < 0
        if eplus in rs.semisimple and vneg(eplus) in rs.semisimple:
            assert pairing(u, eplus) > 0
        p1, p2 = (fan.rays[i] for i in basis.basis_indices)
        b = 2 if _is_p2_image(fan, p1, p2) else 1
        assert u == (-p1[0] - b * p2[0], -p1[1] - b * p2[1])


def test_sign_convention_on_opposite_pair():
    # when p1* - p2* and its negative are both semisimple, u keeps exactly
    # one positive root on the first basis ray
    fan = build_fan(example_fan("p2"))
    basis = find_admissible_basis(fan.rays, validate=False)
    rs = all_roots(fan, basis)
    d1, d2 = basis.duals
    eplus = (d1[0] - d2[0], d1[1] - d2[1])
    assert eplus in rs.semisimple and vneg(eplus) in rs.semisimple
    assert pairing(rs.regular_vector, eplus) > 0
    pos1 = [e for e in rs.positive
            if pairing(fan.rays[basis.basis_indices[0]], e) == -1]
    assert len(pos1) == 1


def test_regular_vector_fallback_on_large_duals():
    # P^2 under a unimodular map with entries near 10^5: however long its
    # duals, an image of P^2 takes u = -(p1 + 2*p2)
    fan = build_fan([(-114903, 3217), (-16180, 453), (131083, -3670)])
    basis = find_admissible_basis(fan.rays, validate=False)
    rs = all_roots(fan, basis)
    p1, p2 = (fan.rays[i] for i in basis.basis_indices)
    assert rs.regular_vector == (-p1[0] - 2 * p2[0], -p1[1] - 2 * p2[1])
    d1, d2 = basis.duals
    assert pairing(rs.regular_vector, d1) < 0
    assert pairing(rs.regular_vector, d2) < 0
    assert pairing(rs.regular_vector, (d1[0] - d2[0], d1[1] - d2[1])) > 0
    assert len(rs.semisimple) == 6 and len(rs.positive) == 3
    assert verification_report(classify(fan), box=131083)["all_pass"]


def test_positive_system_definition():
    fan = build_fan(example_fan("f1"))
    basis = find_admissible_basis(fan.rays, validate=False)
    rs = all_roots(fan, basis)
    expected = set(rs.unipotent) | {
        e for e in rs.semisimple if pairing(rs.regular_vector, e) > 0}
    assert set(rs.positive) == expected
    # semisimple part splits into opposite halves
    semi_pos = {e for e in rs.positive if e in set(rs.semisimple)}
    assert {vneg(e) for e in semi_pos} == set(rs.semisimple) - semi_pos


def test_positive_system_rejects_irregular_vector():
    with pytest.raises(NotRegular):
        positive_system([(1, -1)], (1, 1), [])


def test_no_positive_system_without_basis():
    fan = build_fan([(1, 2), (-2, -1), (1, -1)])
    rs = all_roots(fan)
    assert rs.regular_vector is None
    assert rs.positive is None


def _ratio_root_counts(rows):
    """Reference: the least exact ratio per side, by cross-multiplying."""
    def side(num_col, den_col):
        best = None  # ratio as (num, den), den > 0
        for row in rows:
            num, den = row[num_col], row[den_col]
            if den == 0:
                continue
            if best is None or num * best[1] < best[0] * den:
                best = (num, den)
        if best is None:
            raise InternalInconsistency("no octant row bounds this side")
        return best[0] // best[1] + 1

    return side(0, 1), side(1, 0)


def test_octant_root_counts_match_exact_ratio_reference():
    # small entries make zero denominators and tied quotients common
    rng = random.Random(25)
    raised = 0
    for _ in range(3000):
        rows = [(rng.randint(0, 9), rng.randint(0, 9) * rng.randint(0, 1))
                for _ in range(rng.randint(0, 5))]
        rows = [r[::-1] if rng.randint(0, 1) else r for r in rows]
        try:
            want = _ratio_root_counts(rows)
        except InternalInconsistency:
            raised += 1
            with pytest.raises(InternalInconsistency):
                octant_root_counts(rows)
            continue
        assert octant_root_counts(rows) == want, rows
    assert 0 < raised < 3000


def test_octant_root_counts_take_quotients_of_any_size():
    # no int, however large, reads as an unbounded side
    for big in (sys.maxsize, 2**64, 10**30):
        for rows, want in (([(big, 1)], (big + 1, 1)),
                           ([(1, big)], (1, big + 1))):
            assert octant_root_counts(rows) == want


@pytest.mark.parametrize("rows", [[], [(0, 0)], [(3, 0)], [(0, 2), (0, 5)],
                                  [(0, 0), (4, 0)]])
def test_octant_root_counts_raise_when_a_side_is_unbounded(rows):
    for counts in (_ratio_root_counts, octant_root_counts):
        with pytest.raises(InternalInconsistency):
            counts(rows)


def test_closed_form_counts_match_enumeration():
    for name in ("p2", "p1xp1", "f1", "p112", "wide", "p113"):
        fan = build_fan(example_fan(name))
        basis = find_admissible_basis(fan.rays, validate=False)
        n1, n2 = octant_root_counts(basis.alpha)
        assert n1 == len(enumerate_roots_at(fan, basis.basis_indices[0]))
        assert n2 == len(enumerate_roots_at(fan, basis.basis_indices[1]))


def test_nonbasis_roots_are_dual_vectors():
    # roots attached to non-basis rays are among the two dual vectors
    for name in ("p2", "f1", "p112", "wide", "p113"):
        fan = build_fan(example_fan(name))
        basis = find_admissible_basis(fan.rays, validate=False)
        allowed = set(basis.duals)
        for j in basis.nonbasis_indices:
            for root in enumerate_roots_at(fan, j):
                assert root.e in allowed


def test_unipotent_roots_live_on_basis_rays():
    for name in ("p2", "f1", "p112", "p113"):
        fan = build_fan(example_fan(name))
        basis = find_admissible_basis(fan.rays, validate=False)
        rs = all_roots(fan, basis)
        basis_roots = set()
        for i in basis.basis_indices:
            basis_roots |= set(rs.roots_of_ray(i))
        for e in rs.unipotent:
            assert e in basis_roots


def test_negative_dual_always_a_root():
    for name in ("p2", "p1xp1", "f1", "p112", "wide", "p113"):
        fan = build_fan(example_fan(name))
        basis = find_admissible_basis(fan.rays, validate=False)
        for k, i in enumerate(basis.basis_indices):
            assert vneg(basis.duals[k]) in set(
                r.e for r in enumerate_roots_at(fan, i))


def _random_fans(seed, count, bound=4, max_rays=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rays = set()
        while len(rays) < rng.randint(3, max_rays):
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if v != (0, 0):
                g = gcd(abs(v[0]), abs(v[1]))
                rays.add((v[0] // g, v[1] // g))
        try:
            out.append(build_fan(sorted(rays)))
        except Exception:
            continue
    return out


def test_cone_condition_is_redundant():
    # the enumeration reads only each ray's two neighbours; every root it
    # returns meets the full definition, cone condition included
    for fan in _random_fans(11, 60):
        for i in range(fan.nrays):
            for r in enumerate_roots_at(fan, i):
                assert pairing(fan.rays[i], r.e) == -1
                for j, p in enumerate(fan.rays):
                    if j != i:
                        w = pairing(p, r.e)
                        assert w > 0 or (w == 0 and adjacent(fan, i, j))


def _roots_all_rays(fan, i):
    # reference: bound the line <p_i, e> = -1 against every other ray, then
    # keep the points whose zero pairings are all with adjacent rays
    e0, q = solve_pairing_line(fan.rays[i], -1)
    lo = hi = None
    for j, p in enumerate(fan.rays):
        if j == i:
            continue
        a, b = pairing(p, q), pairing(p, e0)
        if a == 0:
            if b < 0:
                return ()
        elif a > 0:
            lo = -(b // a) if lo is None else max(lo, -(b // a))
        else:
            hi = b // -a if hi is None else min(hi, b // -a)
    found = []
    for k in range(lo, hi + 1):
        e = (e0[0] + k * q[0], e0[1] + k * q[1])
        if all(pairing(p, e) or adjacent(fan, i, j)
               for j, p in enumerate(fan.rays) if j != i):
            found.append(DemazureRoot(e=e, ray=i))
    return tuple(sorted(found))


def _unimodular_images(seed, count):
    # small random fans moved by random unimodular maps: coordinates up to
    # 10^6 that still carry roots (rays drawn up to 10^6 almost never do)
    rng = random.Random(seed)
    out = []
    for fan in _random_fans(seed, count, max_rays=8):
        g = _random_unimodular(rng, 10**5)
        out.append(build_fan([_act(g, p) for p in fan.rays]))
    return out


def _random_unimodular(rng, size):
    # rows (a, b) and (-y, x) have determinant a*x + b*y = 1; negating the
    # second row gives determinant -1
    g = 0
    while g != 1:
        a, b = rng.randint(-size, size), rng.randint(-size, size)
        g, x, y = xgcd(a, b)
    sign = rng.choice((1, -1))
    return ((a, b), (-sign * y, sign * x))


def _act(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])


def test_neighbour_roots_match_all_rays_reference():
    fans = _random_fans(13, 150, bound=10**6, max_rays=8)
    fans += _unimodular_images(17, 150)
    fans += [build_fan(example_fan(f"f:{a}")) for a in range(201)]
    fans += [build_fan([(1, 0), (0, 1), (-1, -a)]) for a in range(1, 201)]
    sizes = set()
    for fan in fans:
        sizes.add(fan.nrays)
        for i in range(fan.nrays):
            assert enumerate_roots_at(fan, i) == _roots_all_rays(fan, i)
        assert check_cone_condition_redundant(fan)
        classify(fan, with_actions=False)
    assert sizes == set(range(3, 9))


def test_unimodular_images_classify_and_verify_alike():
    # GL_2(Z) moves a fan to an isomorphic surface, so the classification
    # must not change.  B = max |ray coordinate| bounds every root: the
    # roots at ray i lie on a segment ending at -+perp(p_j)/det(p_i, p_j)
    # for its two neighbours p_j, and det is a nonzero integer.
    rng = random.Random(41)
    fans = list(enumerate_complete_fans(primitive_pool(2)))
    rng.shuffle(fans)
    picked = {True: [], False: []}
    for rays in fans:
        admits = find_admissible_basis(rays, validate=False) is not None
        if len(picked[admits]) < 30:
            picked[admits].append(classify(build_fan(rays),
                                           with_actions=False))
        if len(picked[True]) == len(picked[False]) == 30:
            break
    for c in picked[True] + picked[False]:
        g = _random_unimodular(rng, 2500)
        image = build_fan([_act(g, p) for p in c.fan.rays])
        got = classify(image)
        assert (got.admits_action, got.d, got.num_classes, got.wide) == \
            (c.admits_action, c.d, c.num_classes, c.wide), image.rays
        box = max(abs(x) for p in image.rays for x in p)
        assert verification_report(got, box=box)["all_pass"], image.rays


def _fans_with_images(seed):
    # admitting random fans and images of P^2, each paired with a random
    # unimodular map g
    rng = random.Random(seed)
    fans = [f for f in _random_fans(seed, 150)
            if find_admissible_basis(f.rays, validate=False) is not None]
    p2 = example_fan("p2")
    for size in (1, 3, 10, 10**5):
        for _ in range(10):
            g = _random_unimodular(rng, size)
            fans.append(build_fan([_act(g, p) for p in p2]))
    fans.append(build_fan([(3, 2), (-2, -1), (-1, -1)]))
    return [(fan, _random_unimodular(rng, rng.choice((2, 50))))
            for fan in fans]


def _is_p2_image(fan, p1, p2):
    return fan.nrays == 3 and vneg((p1[0] + p2[0], p1[1] + p2[1])) in fan.rays


def test_semisimple_roots_among_duals():
    # lemma of the roots module: semisimple roots lie among +-d1, +-d2 and
    # +-(d1 - d2), and +-(d1 - d2) are both roots only on images of P^2
    p2_images = 0
    for fan, _ in _fans_with_images(29):
        basis = find_admissible_basis(fan.rays, validate=False)
        d1, d2 = basis.duals
        eplus = (d1[0] - d2[0], d1[1] - d2[1])
        allowed = {d1, d2, eplus}
        allowed |= {vneg(e) for e in allowed}
        semi = set(all_roots(fan, basis).semisimple)
        assert semi <= allowed
        p1, p2 = (fan.rays[i] for i in basis.basis_indices)
        is_p2 = _is_p2_image(fan, p1, p2)
        assert (eplus in semi) == is_p2
        p2_images += is_p2
    assert p2_images >= 41


def test_regular_vector_is_equivariant():
    for fan, g in _fans_with_images(37):
        u = classify(fan, with_actions=False).root_system.regular_vector
        image = build_fan([_act(g, p) for p in fan.rays])
        c = classify(image, with_actions=False)
        assert c.root_system.regular_vector == _act(g, u)
    # the image of p2 under the columns (3, 2), (-2, -1)
    fan = build_fan([(3, 2), (-2, -1), (-1, -1)])
    u = classify(fan, with_actions=False).root_system.regular_vector
    assert u == _act(((3, -2), (2, -1)), (-1, -2)) == (1, 0)


def _brute_force_box(fan, bound):
    found = {i: set() for i in range(fan.nrays)}
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            e = (a, b)
            vals = [pairing(p, e) for p in fan.rays]
            for i, v in enumerate(vals):
                if v == -1 and all(w >= 0 for j, w in enumerate(vals)
                                   if j != i):
                    found[i].add(e)
    return found


def test_brute_force_agreement_random_fans():
    for fan in _random_fans(23, 30, bound=3, max_rays=6):
        brute = _brute_force_box(fan, 12)
        for i in range(fan.nrays):
            exact = {r.e for r in enumerate_roots_at(fan, i)}
            assert {e for e in exact
                    if max(abs(e[0]), abs(e[1])) <= 12} == brute[i]
            # box is generous enough to see every root of these small fans
            assert exact == brute[i]


def test_roots_enumerated_once_per_fan(monkeypatch, capsys):
    calls = []
    enumerate_at = toric_additive.roots.enumerate_roots_at

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_at(*args, **kwargs)

    monkeypatch.setattr(toric_additive.roots, "enumerate_roots_at", counting)
    c = classify(build_fan(example_fan("f1")))
    assert verification_report(c)["all_pass"]
    # once per ray of f1
    assert len(calls) == 4
    assert roots_by_ray(c.fan) is c.root_system.per_ray
    calls.clear()
    assert main(["roots", "--example", "f1"]) == 0
    assert len(calls) == 4


def test_root_memo_leaves_fan_identity():
    rays = example_fan("f1")
    fan = build_fan(rays)
    per_ray = roots_by_ray(fan)
    fresh = build_fan(rays)
    assert fan == fresh
    assert hash(fan) == hash(fresh)
    assert repr(fan) == repr(fresh)
    copy = dataclasses.replace(fan)
    assert roots_by_ray(copy) == per_ray
    assert roots_by_ray(copy) is not per_ray
