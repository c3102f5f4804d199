import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

from toric_additive import cli, coxring, verify
from toric_additive.additive import (
    classify,
    complete_collections,
    find_admissible_basis,
)
from toric_additive.catalog import example_fan
from toric_additive.coxring import (
    ActionMap,
    ClGrading,
    LndFamily,
    Poly,
    action_ring,
    build_lnd_family,
    commutator,
    compose,
    degree_of,
    derivation,
    emit_actions,
    exp_action,
    lnd_from_root,
    parse_poly,
    substitute,
    torus_conjugate,
)
from toric_additive.errors import (
    Inconclusive,
    InternalInconsistency,
    LengthMismatch,
    NegativeExponent,
    NotApplicable,
    ZeroCoordinate,
)
from toric_additive.fan import adjacent, build_fan
from toric_additive.lattice import (
    integer_row,
    mat_det,
    pairing,
    primitive,
    vneg,
    xgcd,
)
from toric_additive.roots import DemazureRoot, enumerate_roots_at
from toric_additive.sweep import enumerate_complete_fans, primitive_pool
from toric_additive.verify import (
    ActionClass,
    AnnihilatorReport,
    ProbeResult,
    annihilator_profile,
    brute_force_roots,
    check_bracket_table,
    check_cone_condition_redundant,
    check_collections_bases_bijection,
    check_grading_relations,
    check_group_law,
    check_homogeneous_images,
    check_identity_at_zero,
    check_open_orbit,
    check_root_lnd_degree_zero,
    check_roots_box_oracle,
    classify_profile,
    distinguish_actions,
    verification_report,
)

CATALOG = ("p2", "p1xp1", "f1", "p112", "p113", "wide")

# f:62 and P(1,1,62), with d = 62, the largest d whose exp_action series
# (the reference for the emitted actions) fit in the 64-step cap, and
# (1, 0), (0, 1), (-N-3, -N) with N = 10**7, whose actions carry
# exponents of size N
STRESS_RAYS = (example_fan("f:62"), ((1, 0), (0, 1), (-1, -62)),
               ((1, 0), (0, 1), (-10**7 - 3, -10**7)))


@cache
def _stress_classifications():
    """classify with actions of each fan of STRESS_RAYS."""
    return tuple(classify(build_fan(rays)) for rays in STRESS_RAYS)


def test_brute_force_roots_p2():
    fan = build_fan(example_fan("p2"))
    got = {(r.ray, r.e) for r in brute_force_roots(fan, 5)}
    assert got == {
        (0, (-1, 0)), (0, (-1, 1)),
        (1, (0, -1)), (1, (1, -1)),
        (2, (1, 0)), (2, (0, 1)),
    }


def _square_scan_roots(fan, box):
    """Reference: test every point of the square against every ray."""
    found = set()
    for ex in range(-box, box + 1):
        for ey in range(-box, box + 1):
            vals = [pairing(p, (ex, ey)) for p in fan.rays]
            for i, v in enumerate(vals):
                others = [(j, w) for j, w in enumerate(vals) if j != i]
                if v == -1 and all(w > 0 or (w == 0 and adjacent(fan, i, j))
                                   for j, w in others):
                    found.add(DemazureRoot(e=(ex, ey), ray=i))
    return frozenset(found)


def test_line_scan_matches_square_scan():
    fans = list(enumerate_complete_fans(primitive_pool(2)))
    for rays in fans[::40]:
        fan = build_fan(rays)
        for box in (0, 1, 2, 3, 10):
            assert brute_force_roots(fan, box) == \
                _square_scan_roots(fan, box), (rays, box)
    for a in range(1, 13):
        for rays in (example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))):
            fan = build_fan(rays)
            assert brute_force_roots(fan, a) == \
                _square_scan_roots(fan, a), (rays, a)


def test_line_scan_cost_is_linear_in_box(monkeypatch):
    # each line is walked over range(n), one step per line point in the
    # box: at most one per column, while the square scan would visit
    # 4,004,001 points per ray here
    visited = []

    def counted(*args):
        steps = range(*args)
        visited.append(len(steps))
        return steps

    monkeypatch.setattr(verify, "range", counted, raising=False)
    fan = build_fan(example_fan("p2"))
    got = brute_force_roots(fan, 1000)
    assert len(got) == 6
    assert got == {r for i in range(3) for r in enumerate_roots_at(fan, i)}
    assert len(visited) == 3 and sum(visited) <= 3 * (2 * 1000 + 1)


def _column_scan_roots(fan, box):
    """Reference: each ray's line found column by column, with one exact
    division per column of the box, and each of its points tested against
    every other ray."""
    found = set()
    span = range(-box, box + 1)
    for i, (a, b) in enumerate(fan.rays):
        if b:
            line = [(ex, ey) for ex in span
                    for ey, r in (divmod(-1 - a * ex, b),)
                    if not r and -box <= ey <= box]
        elif -box <= -a <= box:
            line = [(-a, ey) for ey in span]
        else:
            continue
        if not line:
            continue
        others = [(p, adjacent(fan, i, j))
                  for j, p in enumerate(fan.rays) if j != i]
        for e in line:
            for p, beside in others:
                w = pairing(p, e)
                if w < 0 or (w == 0 and not beside):
                    break
            else:
                found.add(DemazureRoot(e=e, ray=i))
    return frozenset(found)


def _gl2_images(fans, count, bound, seed):
    """``count`` of the fans moved by seeded GL2(Z) maps whose entries are
    at most bound / 4, so that no image coordinate exceeds ``bound`` when
    the fans' coordinates are at most 2, with their rays shuffled."""
    rng = random.Random(seed)
    out = []
    for rays in rng.sample(fans, count):
        g = 0
        while g != 1:
            a, b = rng.randint(-bound // 4, bound // 4), \
                rng.randint(-bound // 4, bound // 4)
            g, x, y = xgcd(a, b)
        sign = rng.choice((1, -1))
        moved = [(a * u + b * v, -sign * y * u + sign * x * v)
                 for u, v in rays]
        rng.shuffle(moved)
        out.append(tuple(moved))
    return out


def _check_line_walk(fans, images):
    """The walk from the first point in the box against the scan of every
    column: ``fans`` (rays in [-2, 2]^2) at small boxes, then the large
    ``images``, each in the box that just holds its rays, and the stress
    fans at box 62.  A root does not depend on the box, so the scan's roots
    in a smaller box are those of box 10 that fit in it."""
    found = 0
    for rays in fans:
        fan = build_fan(rays)
        scanned = _column_scan_roots(fan, 10)
        for box in (0, 1, 2, 3, 10):
            got = brute_force_roots(fan, box)
            assert got == {r for r in scanned
                           if max(map(abs, r.e)) <= box}, (rays, box)
            found += len(got)
    assert found > len(fans)
    big = 0
    for rays in images:
        box = max(abs(c) for r in rays for c in r)
        assert box <= 10**4
        big = max(big, box)
        fan = build_fan(rays)
        assert brute_force_roots(fan, box) == _column_scan_roots(fan, box), \
            rays
    assert big > 5000
    found = Counter()
    for c in _stress_classifications():
        got = brute_force_roots(c.fan, 62)
        assert got == _column_scan_roots(c.fan, 62), c.fan.rays
        found[c.fan.rays[-1]] = len(got)
    assert found == {(0, -1): 65, (-1, -62): 65, (-10**7 - 3, -10**7): 3}


def test_line_walk_matches_column_scan_reference():
    # every fan with rays in [-2, 2]^2 and the stress fans, but a seeded 60
    # of the 400 large images; full_reference_ranges checks all 400
    fans = list(enumerate_complete_fans(primitive_pool(2)))
    assert len(fans) == 11396
    images = _gl2_images(fans, 400, 10**4, 33)
    _check_line_walk(fans, random.Random(35).sample(images, 60))


@pytest.mark.parametrize("name", CATALOG)
def test_roots_box_oracle_catalog(name):
    fan = build_fan(example_fan(name))
    assert check_roots_box_oracle(fan, 10)
    assert check_cone_condition_redundant(fan)
    assert check_collections_bases_bijection(fan)


def test_bijection_reads_the_collections_it_is_handed(monkeypatch):
    # classify's collections are handed over as they are: a dropped or a
    # duplicated one breaks the bijection, and verification_report uses
    # them without computing the collections again
    calls = []

    def counted(fan):
        calls.append(fan)
        return complete_collections(fan)

    for name in CATALOG:
        c = classify(build_fan(example_fan(name)))
        colls = c.collections
        assert colls
        monkeypatch.setattr(verify, "complete_collections", counted)
        assert check_collections_bases_bijection(c.fan, colls)
        assert not check_collections_bases_bijection(c.fan, colls[1:])
        assert not check_collections_bases_bijection(c.fan,
                                                     colls + colls[-1:])
        assert verification_report(c)["checks"][
            "collections_bases_bijection"]
        assert not verification_report(replace(c, collections=colls[1:]))[
            "checks"]["collections_bases_bijection"]
        assert calls == []
        # with the fan alone, it computes them
        assert check_collections_bases_bijection(c.fan)
        assert calls == [c.fan]
        calls.clear()
        monkeypatch.undo()


def test_roots_box_oracle_detects_escaping_roots():
    # a box too small to hold all roots is reported, not silently clipped
    fan = build_fan(example_fan("p113"))
    assert any(max(abs(r.e[0]), abs(r.e[1])) > 2
               for i in range(fan.nrays) for r in enumerate_roots_at(fan, i))
    assert not check_roots_box_oracle(fan, 2)


@pytest.mark.parametrize("planted", [
    (-1, 2),  # pairs -1 with the far ray (-1, -1)
    (-1, 1),  # pairs 0 with the far ray (-1, -1)
    (-2, 0),  # pairs -2 with its own ray (1, 0), >= 0 with the others
])
def test_cone_condition_check_catches_planted_root(monkeypatch, planted):
    # f1: ray 0 = (1, 0) spans cones with (0, 1) and (0, -1), not (-1, -1);
    # by the neighbour theorem of roots.py the first two also pair
    # negatively with (0, -1)
    c = classify(build_fan(example_fan("f1")))
    assert not adjacent(c.fan, 0, 2)
    per_ray = list(verify.roots_by_ray(c.fan))
    per_ray[0] += (DemazureRoot(e=planted, ray=0),)
    monkeypatch.setattr(verify, "roots_by_ray", lambda fan: tuple(per_ray))
    assert not check_cone_condition_redundant(c.fan)
    rep = verification_report(c)
    assert rep["checks"]["cone_condition_redundant"] is False
    assert rep["all_pass"] is False


def test_bracket_table_catalog():
    for name, d in (("p112", 2), ("p113", 3), ("p2", 1), ("p1xp1", 0)):
        basis = find_admissible_basis(example_fan(name))
        assert check_bracket_table(build_lnd_family(basis, d))


def test_bracket_table_rejects_shuffled_family():
    basis = find_admissible_basis(example_fan("p112"))
    family = build_lnd_family(basis, 2)
    p0, p1, p2 = family.partials
    bogus = LndFamily(ring=family.ring, basis=family.basis,
                      grading=family.grading, delta=family.delta,
                      partials=(p0, p2, p1), d=2)
    assert not check_bracket_table(bogus)


def _pairwise_bracket_table(family):
    """Reference: every bracket of the table, one pair at a time."""
    delta, parts = family.delta, family.partials
    for k, part in enumerate(parts):
        got = commutator(delta, part)
        if k == 0 and not got.is_zero:
            return False
        if k and got.entries != parts[k - 1].scale(k).entries:
            return False
    return all(commutator(parts[k], parts[l]).is_zero
               for k in range(len(parts)) for l in range(k + 1, len(parts)))


def _noncommuting_family():
    # delta = d/dx1, partials (d/dx2, x1 d/dx2 + x2 d/dx3): both delta
    # brackets hold, but [partials[0], partials[1]] = d/dx3
    ring = action_ring(3)
    one = Poly.const(ring, 1)
    partials = (derivation(ring, {1: one}),
                derivation(ring, {1: Poly.var(ring, 0), 2: Poly.var(ring, 1)}))
    return LndFamily(ring=ring, basis=None, grading=None,
                     delta=derivation(ring, {0: one}), partials=partials, d=1)


def _bracket_table_cases():
    rng = random.Random(19)
    for a in range(1, 13):
        for rays in (example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))):
            c = classify(build_fan(rays), with_actions=False)
            family = build_lnd_family(c.basis, c.d)
            yield "real", family
            parts = list(family.partials)
            rng.shuffle(parts)
            yield "shuffled", replace(family, partials=tuple(parts))
            parts = list(family.partials)
            j = rng.randrange(len(parts))
            parts[j] = parts[j].scale(2)
            yield "scaled", replace(family, partials=tuple(parts))
            yield "delta_plus_p0", replace(
                family, delta=family.delta + family.partials[0])
    yield "noncommuting", _noncommuting_family()


def test_bracket_table_matches_pairwise_reference():
    verdicts = Counter()
    for label, family in _bracket_table_cases():
        want = _pairwise_bracket_table(family)
        assert check_bracket_table(family) is want, (label, family.d)
        verdicts[label, want] += 1
    # [delta + partials[0], partials[k]] = k partials[k-1] still, as the
    # partials commute; scaling one partial by 2 breaks a delta bracket,
    # and with this seed no shuffle leaves the order as it was
    assert verdicts == {("real", True): 24, ("shuffled", False): 24,
                        ("scaled", False): 24, ("delta_plus_p0", True): 24,
                        ("noncommuting", False): 1}


def test_bracket_table_catches_noncommuting_partials():
    family = _noncommuting_family()
    p0, p1 = family.partials
    assert commutator(family.delta, p0).is_zero
    assert commutator(family.delta, p1) == p0
    ring = family.ring
    assert commutator(p0, p1) == derivation(ring, {2: Poly.const(ring, 1)})
    assert not check_bracket_table(family)


def test_bracket_table_makes_two_commutator_calls(monkeypatch):
    # bracketing pair by pair takes 33 + 528 = 561 calls at d = 32
    calls = []

    def counted(a, b):
        calls.append(b)
        return commutator(a, b)

    monkeypatch.setattr(verify, "commutator", counted)
    family = build_lnd_family(find_admissible_basis(example_fan("f:32")), 32)
    assert check_bracket_table(family)
    assert len(calls) == 2


def _p2_actions():
    c = classify(build_fan(example_fan("p2")))
    return c


def test_identity_and_group_law_pass():
    c = _p2_actions()
    for act in (c.normalized_action, c.non_normalized_action):
        assert check_identity_at_zero(act)
        assert check_group_law(act)
        assert check_homogeneous_images(act, c.family.grading)


def test_group_law_rejects_corrupted_map():
    # replace the s1*x1 term of the non-normalized projective plane action
    # by s1^2*x1: still the identity at zero, no longer a homomorphism
    c = _p2_actions()
    ring = c.family.ring
    images = (
        parse_poly(ring, "x1 + x3*s1"),
        parse_poly(ring, "x2 + x3*s2 + x1*s1^2"),
        parse_poly(ring, "x3"),
    )
    bad = ActionMap(ring=ring, images=images)
    assert check_identity_at_zero(bad)
    assert not check_group_law(bad)


def test_group_law_refuses_spare_parameters():
    # the tangent is not defined for an image that involves r1
    c = _p2_actions()
    ring = c.family.ring
    images = tuple(parse_poly(ring, text) for text in
                   ("x1", "x2 + x3*s2 + x3*r1", "x3"))
    assert not check_group_law(ActionMap(ring=ring, images=images))


def test_group_law_checks_identity_at_zero():
    # x2 <- x1 is idempotent, so composing it with itself gives nothing
    # new: the composition reference accepts it, though it is not the
    # identity at s = 0
    c = _p2_actions()
    ring = c.family.ring
    images = tuple(parse_poly(ring, text) for text in ("x1", "x1", "x3"))
    bad = ActionMap(ring=ring, images=images)
    assert _composed_group_law(bad)
    assert not check_identity_at_zero(bad)
    assert not check_group_law(bad)


def test_group_law_composes_and_substitutes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("compose or substitute called")

    c = classify(build_fan(example_fan("f:32")))
    for module in (verify, coxring):
        for name in ("compose", "substitute"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for act in (c.normalized_action, c.non_normalized_action):
        assert check_identity_at_zero(act)
        assert check_group_law(act)


def _composed_group_law(action):
    """Reference: acting by s then by r equals acting by s + r."""
    ring = action.ring
    s1, s2, r1, r2 = (ring.index(n) for n in ("s1", "s2", "r1", "r2"))
    shift = {s1: Poly.var(ring, s1) + Poly.var(ring, r1),
             s2: Poly.var(ring, s2) + Poly.var(ring, r2)}
    return compose(action, action).images == substitute(action.images, shift)


def _group_law_cases():
    """(label, action): both actions of every admitting bound-2 fan and of
    f:a, P(1,1,a) for a <= 32, both actions of ten families conjugated by a
    torus point, and 60 actions with one image given an extra s1*s2, s1^2,
    s2^2 or s1*x1^2 term."""
    cs = list(_bound2_classifications())
    for a in range(1, 33):
        for rays in (example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))):
            cs.append(classify(build_fan(rays)))
    actions = [act for c in cs
               for act in (c.normalized_action, c.non_normalized_action)
               if act is not None]
    for act in actions:
        yield "real", act
    rng = random.Random(21)
    for fam in rng.sample([c.family for c in cs], 10):
        t = [Fraction(rng.randint(1, 5), rng.randint(1, 5))
             * rng.choice([-1, 1]) for _ in fam.basis.rays]
        d2 = torus_conjugate(fam.partials[0], t)
        for d1 in (fam.delta, fam.delta + fam.partials[fam.d]):
            yield "conjugated", exp_action(torus_conjugate(d1, t), d2)
    # an extra s1*s2, s1^2 or s2^2 term breaks that Taylor coefficient in
    # any image; s1*x1^2 goes into the image of x1, as
    # x_i + s1*x1^2 can still be an action when the action fixes x1, x_i
    for act in rng.sample(actions, 60):
        ring = act.ring
        i = rng.randrange(act.ncoords)
        for text, at in (("s1*s2", i), ("s1^2", i), ("s2^2", i),
                         ("s1*x1^2", 0)):
            images = list(act.images)
            images[at] = images[at] + parse_poly(ring, text)
            yield text, ActionMap(ring=ring, images=tuple(images))


def test_group_law_matches_composition_reference():
    verdicts = Counter()
    for label, action in _group_law_cases():
        want = _composed_group_law(action)
        assert check_group_law(action) is want, (label, action.images)
        verdicts[label, want] += 1
    assert verdicts == {("real", True): 5229, ("conjugated", True): 20,
                        ("s1*s2", False): 60, ("s1^2", False): 60,
                        ("s2^2", False): 60, ("s1*x1^2", False): 60}


def test_homogeneous_images_rejects_mixed_degrees():
    basis = find_admissible_basis(example_fan("f1"))
    family = build_lnd_family(basis, 1)
    ring = family.ring
    images = tuple(Poly.var(ring, i) for i in range(4))
    assert check_homogeneous_images(ActionMap(ring=ring, images=images),
                                    family.grading)
    bad = ActionMap(ring=ring, images=(
        parse_poly(ring, "x1 + x2"),) + images[1:])
    assert not check_homogeneous_images(bad, family.grading)
    # x_i^2 is homogeneous, but of twice the degree of x_i
    for i, x in enumerate(images):
        wrong = ActionMap(ring=ring, images=images[:i] + (x * x,)
                          + images[i + 1:])
        assert not check_homogeneous_images(wrong, family.grading), i


def test_grading_relation_checks():
    c = _p2_actions()
    assert check_grading_relations(c.basis, c.family.grading)
    assert check_root_lnd_degree_zero(c)
    # p2's degrees are all 1; doubling one breaks the relation of each
    # character that pairs nonzero with its ray
    assert c.family.grading.degrees == ((1,),) * 3
    for i in range(3):
        degrees = [(1,)] * 3
        degrees[i] = (2,)
        assert not check_grading_relations(
            c.basis, ClGrading(degrees=tuple(degrees))), i


def _degree_zero_by_lnd(c):
    """Reference: each root's derivation, built, keeps its entry's degree."""
    grading = c.family.grading
    return all(
        degree_of(grading, lnd_from_root(c.family.ring, c.fan.rays, r.e,
                                         i).entries[i]) == grading.degrees[i]
        for i, per in enumerate(c.root_system.per_ray) for r in per)


def test_root_lnd_degree_zero_matches_lnd_reference():
    # each fan also with one coordinate's degree moved by one in one
    # component: a root pairing nonzero with that ray then fails
    rng = random.Random(21)
    verdicts = Counter()
    for c in _bound2_classifications():
        degrees = [list(g) for g in c.family.grading.degrees]
        degrees[rng.randrange(len(degrees))][rng.randrange(
            len(degrees[0]))] += 1
        bad = ClGrading(degrees=tuple(map(tuple, degrees)))
        for label, cc in (("real", c), ("moved", replace(
                c, family=replace(c.family, grading=bad)))):
            want = _degree_zero_by_lnd(cc)
            assert check_root_lnd_degree_zero(cc) is want, c.fan.rays
            verdicts[label, want] += 1
    assert verdicts == {("real", True): 3325, ("moved", False): 3325}


@pytest.mark.parametrize("planted, error", [
    # pairs -2 with its own ray (1, 0)
    ((-2, 0), NotApplicable),
    # pairs -1 with (1, 0) but -1 with (-1, -1) and -2 with (0, -1)
    ((-1, 2), NegativeExponent),
])
def test_root_lnd_degree_zero_rejects_planted_non_root(planted, error):
    # no derivation of ray (1, 0) of f1 has the planted character; its
    # pairings still sum to degree 0, like every character
    c = classify(build_fan(example_fan("f1")))
    per_ray = list(c.root_system.per_ray)
    per_ray[0] += (DemazureRoot(e=planted, ray=0),)
    bad = replace(c, root_system=replace(c.root_system,
                                         per_ray=tuple(per_ray)))
    with pytest.raises(error):
        _degree_zero_by_lnd(bad)
    assert not check_root_lnd_degree_zero(bad)


def test_open_orbit_pass():
    c = _p2_actions()
    fam = c.family
    assert check_open_orbit(fam.delta, fam.partials[0], fam.grading)
    assert check_open_orbit(fam.delta + fam.partials[1], fam.partials[0],
                            fam.grading)


def test_open_orbit_degenerate_pair():
    # both derivations move only the second coordinate: the orbit stays thin
    c = _p2_actions()
    fam = c.family
    assert not check_open_orbit(fam.partials[0], fam.partials[1], fam.grading)


def test_open_orbit_explicit_point():
    c = _p2_actions()
    fam = c.family
    assert check_open_orbit(fam.delta, fam.partials[0], fam.grading,
                            point=(1, 1, 1))
    with pytest.raises(LengthMismatch):
        check_open_orbit(fam.delta, fam.partials[0], fam.grading,
                         point=(1, 1))
    with pytest.raises(ZeroCoordinate):
        check_open_orbit(fam.delta, fam.partials[0], fam.grading,
                         point=(1, 0, 1))
    with pytest.raises(TypeError, match="0.5"):
        check_open_orbit(fam.delta, fam.partials[0], fam.grading,
                         point=(1, 0.5, 1))


@pytest.mark.parametrize("name, point", (
    ("p2", (1, Fraction(1, 2), Fraction(3, 7))),
    ("f1", (Fraction(2, 3), Fraction(-5, 4), 3, Fraction(7, 2))),
))
def test_open_orbit_rational_point(name, point):
    # each row of the orbit matrix is cleared of its own denominators
    fam = classify(build_fan(example_fan(name))).family
    assert check_open_orbit(fam.delta, fam.partials[0], fam.grading,
                            point=point)
    assert not check_open_orbit(fam.partials[0], fam.partials[1],
                                fam.grading, point=point)


def _eval_orbit_reference(d1, d2, grading, *, point=None, seed=0):
    """Reference: the rows as Poly.eval Fractions, each cleared by
    integer_row, and five points drawn from a fresh Random(seed), one point
    at a time."""
    m = len(grading.degrees)
    ring = d1.ring

    def full_rank_at(pt):
        vals = list(pt) + [0] * (ring.nvars - m)
        rows = [_eval_row(d, vals, m) for d in (d1, d2)]
        rows += [[grading.degrees[i][k] * pt[i] for i in range(m)]
                 for k in range(m - 2)]
        return mat_det([integer_row(r) for r in rows]) != 0

    if point is not None:
        return full_rank_at([Fraction(c) for c in point])
    rng = random.Random(seed)
    return any(full_rank_at([rng.randint(1, 9) for _ in range(m)])
               for _ in range(5))


def _eval_row(d, vals, m):
    return [d.entries[i].eval(vals) if d.entries[i].num else 0
            for i in range(m)]


# the points of test_open_orbit_rational_point, repeated to any length
_RATIONAL_POINTS = ((1, Fraction(1, 2), Fraction(3, 7)),
                    (Fraction(2, 3), Fraction(-5, 4), 3, Fraction(7, 2)))


def _orbit_points(m):
    return [tuple(pat[k % len(pat)] for k in range(m))
            for pat in _RATIONAL_POINTS]


def _open_orbit_verdicts(classes):
    """check_open_orbit against the eval reference: the tangents of both
    actions of each of ``classes`` at seeds 0 to 4, and the degenerate pair
    partials[0], partials[d] at seed 0, where all five points are tried;
    then each of these pairs at both rational points; then the tangents of
    both actions of each stress fan at seed 0.  Returns the count of
    (degenerate, verdict)."""
    verdicts = Counter()
    for c in classes:
        fam = c.family
        grading = fam.grading
        pairs = [verify._read_at_zero(act)[1]
                 for act in (c.normalized_action, c.non_normalized_action)
                 if act is not None]
        degenerate = (fam.partials[0], fam.partials[fam.d])
        cases = [(pair, seed) for pair in pairs for seed in range(5)]
        cases.append((degenerate, 0))
        for pair, seed in cases:
            want = _eval_orbit_reference(*pair, grading, seed=seed)
            assert check_open_orbit(*pair, grading, seed=seed) == want, \
                c.fan.rays
            verdicts[pair is degenerate, want] += 1
        for pair in pairs + [degenerate]:
            for pt in _orbit_points(len(c.fan.rays)):
                want = _eval_orbit_reference(*pair, grading, point=pt)
                assert check_open_orbit(*pair, grading, point=pt) == want, \
                    (c.fan.rays, pt)
                verdicts[pair is degenerate, want] += 1
    for c in _stress_classifications():
        for act in (c.normalized_action, c.non_normalized_action):
            pair = verify._read_at_zero(act)[1]
            want = _eval_orbit_reference(*pair, c.family.grading)
            assert check_open_orbit(*pair, c.family.grading) == want, \
                c.fan.rays
            verdicts[False, want] += 1
    return verdicts


def test_open_orbit_matches_eval_reference():
    # a seeded 500 of the 3,325 admitting fans with rays in [-2, 2]^2, and
    # the stress fans; full_reference_ranges checks all 3,325.  Every
    # action has an open orbit, no degenerate pair has one.
    classes = random.Random(35).sample(_bound2_classifications(), 500)
    actions = sum(act is not None for c in classes
                  for act in (c.normalized_action, c.non_normalized_action))
    assert _open_orbit_verdicts(classes) == {(False, True): 7 * actions + 6,
                                             (True, False): 3 * 500}


def test_open_orbit_rows_match_eval_reference():
    # torus-conjugated pairs have entries over different denominators:
    # each row is the Fraction row times the lcm of its denominators, and
    # (D, 6*D) stays degenerate however D's denominators differ
    rng = random.Random(34)
    classes = rng.sample(_bound2_classifications(), 60)
    checked = 0
    for c in classes:
        fam = c.family
        m = len(c.fan.rays)
        t = [Fraction(rng.randint(1, 5), rng.randint(1, 5))
             * rng.choice([-1, 1]) for _ in range(m)]
        d1 = torus_conjugate(fam.delta, t) \
            + torus_conjugate(fam.partials[fam.d], t)
        d2 = torus_conjugate(fam.partials[0], t)
        half = fam.delta.scale(Fraction(1, 2)) \
            + fam.partials[0].scale(Fraction(1, 3))
        points = [tuple(rng.randint(1, 9) for _ in range(m))]
        points += _orbit_points(m)
        for pair in ((d1, d2), (d2, d1), (half, half.scale(6))):
            for pt in points:
                vals = list(pt) + [0] * (fam.ring.nvars - m)
                for d in pair:
                    den = lcm(*(q.den for q in d.entries[:m] if q.num))
                    assert verify._tangent_row(d, pt) == \
                        [den * v for v in _eval_row(d, vals, m)]
                    checked += den > 1
                want = _eval_orbit_reference(*pair, fam.grading, point=pt)
                assert check_open_orbit(*pair, fam.grading,
                                        point=pt) == want
                assert want is (pair[0] is not half)
    assert checked > 200


def test_annihilator_profile_p2():
    c = _p2_actions()
    rep = annihilator_profile(c.normalized_action, c.family)
    assert rep.lines == ((0, 1), (1, -1), (1, 0), (1, 1))
    assert "M0" in rep.full_labels
    assert classify_profile(rep) is ActionClass.NORMALIZED
    rep = annihilator_profile(c.non_normalized_action, c.family)
    assert rep.lines == ((0, 1),)
    assert "M0" in rep.full_labels
    assert classify_profile(rep) is ActionClass.NON_NORMALIZED


def _mixed_denominator_map():
    # x2 moves to x2 + (s1 - s2)/3 * x3: the moved probe and both tangent
    # entries of x2 have denominator 3 and x2 has 1, and only over one
    # denominator does x2 cancel on s1 = s2
    c = _p2_actions()
    ring = c.family.ring
    images = tuple(parse_poly(ring, text) for text in
                   ("x1", "x2 + 1/3*x3*s1 - 1/3*x3*s2", "x3"))
    return ActionMap(ring=ring, images=images), c.family


def _hand_built_maps():
    """(label, action, family) for G_a^2 actions no family emits."""
    yield "mixed_denominator", *_mixed_denominator_map()
    c = _p2_actions()
    ring = c.family.ring
    for label, text in (
            # the kernel of s1/2 - s2/3 runs along (2, 3)
            ("unequal_denominators", "x2 + 1/2*x3*s1 - 1/3*x3*s2"),
            # D1(x2), D2(x2) share their monomials but are not proportional
            ("not_proportional", "x2 + x1*s1 + x3*s1 + x1*s2 + 2*x3*s2")):
        images = tuple(parse_poly(ring, t) for t in ("x1", text, "x3"))
        yield label, ActionMap(ring=ring, images=images), c.family
    # exp((s1 + s2) D): the image of x2 has an s1*s2 term, which belongs
    # to neither tangent derivation
    fam = classify(build_fan(example_fan("f1"))).family
    (i1, i2), (_, b) = fam.basis.basis_indices, fam.basis.nonbasis_indices
    D = derivation(fam.ring, {i1: Poly.var(fam.ring, b),
                              i2: Poly.var(fam.ring, i1)})
    yield "diagonal", exp_action(D, D), fam


def test_annihilator_lines_over_mixed_denominators():
    rep = annihilator_profile(*_mixed_denominator_map())
    assert rep.lines == ((1, 1),)
    assert rep.full_labels == ("M0", "M1")


def _vanishes_on_line(h, v):
    """h(t*v1, t*v2) == 0 as a polynomial in t."""
    by_deg = Counter()
    for (e1, e2), c in h.items():
        by_deg[e1 + e2] += c * v[0] ** e1 * v[1] ** e2
    return not any(by_deg.values())


def _substituted_stabilizer(action, f, moved, m):
    """Reference: {s : f(action_s(x)) = f(x)}, given moved = f(action_s(x)).

    Each x-monomial's coefficient of f(action_s(x)) - f(x) is a polynomial
    h(s1, s2); a candidate line t*v is kept when every h vanishes on it in
    each power of t.  The candidates are the axes and the kernel of each
    h's linear part.
    """
    ring = action.ring
    js1, js2 = ring.index("s1"), ring.index("s2")
    system = {}
    for exps, c in (moved - f).terms.items():
        if any(exps[j] for j in range(m, ring.nvars) if j not in (js1, js2)):
            raise InternalInconsistency("difference involves spare parameters")
        system.setdefault(exps[:m], {})[exps[js1], exps[js2]] = c
    if not system:
        return "full", None
    candidates = {(1, 0), (0, 1)}
    for h in system.values():
        a, b = h.get((1, 0), 0), h.get((0, 1), 0)
        if a or b:
            den = lcm(a.denominator, b.denominator)
            w, _ = primitive((int(b * den), int(-a * den)))
            candidates.add(vneg(w) if w < (0, 0) else w)
    verified = [v for v in sorted(candidates)
                if all(_vanishes_on_line(h, v) for h in system.values())]
    assert len(verified) <= 1, verified
    return ("line", verified[0]) if verified else ("none", None)


def _substituted_profile(action, family):
    """Reference: the annihilator profile by substituting every probe."""
    i2 = family.basis.basis_indices[1]
    m = len(family.basis.rays)
    name = family.ring.names[i2]
    x2 = Poly.var(family.ring, i2)
    probes = [(name, x2)]
    probes += [(f"M{k}", p.entries[i2]) for k, p in enumerate(family.partials)]
    if family.d >= 1:
        m1 = family.partials[1].entries[i2]
        probes += [(f"{name}+M1", x2 + m1), (f"{name}-M1", x2 - m1)]
    moved = substitute([f for _, f in probes],
                       {i: action.images[i] for i in range(m)})
    results = tuple(
        ProbeResult(label, *_substituted_stabilizer(action, f, g, m))
        for (label, f), g in zip(probes, moved))
    return AnnihilatorReport(
        probes=results,
        lines=tuple(sorted({r.line for r in results if r.kind == "line"})),
        full_labels=tuple(r.label for r in results if r.kind == "full"))


@cache
def _bound2_classifications():
    """classify with actions of every admitting fan with rays in [-2, 2]^2."""
    return tuple(classify(build_fan(rays))
                 for rays in enumerate_complete_fans(primitive_pool(2))
                 if find_admissible_basis(rays, validate=False) is not None)


def _profile_cases():
    """(label, action, family): both actions of every bound-2 fan with
    d >= 1, of f:a, P(1,1,a) for a <= 12 and of the stress fans, ten
    torus-conjugated non-normalized actions and the hand-built maps."""
    families = [c.family for c in _bound2_classifications() if c.d >= 1]
    for a in range(1, 13):
        for rays in (example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))):
            families.append(classify(build_fan(rays)).family)
    rng = random.Random(20)
    conjugated = rng.sample(families, 10)
    for fam in families + [c.family for c in _stress_classifications()]:
        normalized, non_normalized = emit_actions(fam)
        yield "normalized", normalized, fam
        yield "non_normalized", non_normalized, fam
    for fam in conjugated:
        t = [Fraction(rng.randint(1, 5), rng.randint(1, 5))
             * rng.choice([-1, 1]) for _ in fam.basis.rays]
        d1 = torus_conjugate(fam.delta, t) \
            + torus_conjugate(fam.partials[fam.d], t)
        act = exp_action(d1, torus_conjugate(fam.partials[0], t))
        yield "conjugated", act, fam
    yield from _hand_built_maps()


def test_annihilator_profile_matches_substitution_reference():
    kinds = Counter()
    for label, action, family in _profile_cases():
        want = _substituted_profile(action, family)
        assert annihilator_profile(action, family) == want, \
            (label, family.basis.rays)
        kinds[label, want.lines and classify_profile(want)] += 1
    assert kinds == {
        ("normalized", ActionClass.NORMALIZED): 1803,
        ("non_normalized", ActionClass.NON_NORMALIZED): 1803,
        ("conjugated", ActionClass.NON_NORMALIZED): 10,
        ("mixed_denominator", ActionClass.NON_NORMALIZED): 1,
        ("unequal_denominators", ActionClass.NON_NORMALIZED): 1,
        ("not_proportional", ()): 1,
        ("diagonal", ActionClass.NON_NORMALIZED): 1}


def test_annihilator_profile_substitutes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("substitute called")

    c = classify(build_fan(example_fan("f:32")))
    # verify does not import substitute; patching it anyway catches an
    # import added later
    monkeypatch.setattr(verify, "substitute", refuse, raising=False)
    monkeypatch.setattr(coxring, "substitute", refuse)
    assert distinguish_actions(c) == {
        "normalized": ActionClass.NORMALIZED,
        "non_normalized": ActionClass.NON_NORMALIZED}


def test_annihilator_profile_refuses_spare_parameters():
    c = _p2_actions()
    ring = c.family.ring
    images = tuple(parse_poly(ring, text) for text in
                   ("x1", "x2 + x3*s2 + x3*r1", "x3"))
    with pytest.raises(InternalInconsistency, match="spare parameters"):
        annihilator_profile(ActionMap(ring=ring, images=images), c.family)


def test_report_fails_a_map_with_spare_parameters():
    # a map with no tangent is a failed check, not a raised error: the
    # report does not ask the distinguisher for its profile
    c = _p2_actions()
    ring = c.family.ring
    images = tuple(parse_poly(ring, text) for text in
                   ("x1", "x2 + x3*r1", "x3"))
    bad = replace(c, non_normalized_action=ActionMap(ring=ring, images=images))
    rep = verification_report(bad)
    checks = rep["checks"]
    assert checks["group_law_non_normalized"] is False
    assert checks["open_orbit_non_normalized"] is False
    assert checks["distinguish_actions"] is False
    assert checks["group_law_normalized"] and checks["bracket_table"]
    assert rep["all_pass"] is False


def test_report_reads_each_action_once(monkeypatch):
    # the identity at zero and the tangent come from one pass per action,
    # shared by the identity line, the group law and the distinguisher
    reads = []
    read = verify._read_at_zero

    def counted(action):
        if action._at_zero is None:
            reads.append(action)
        return read(action)

    identity_calls = []
    check = verify.check_identity_at_zero
    monkeypatch.setattr(verify, "_read_at_zero", counted)
    monkeypatch.setattr(verify, "check_identity_at_zero",
                        lambda action: identity_calls.append(action)
                        or check(action))
    c = classify(build_fan(example_fan("f:3")))
    rep = verification_report(c)
    assert rep["all_pass"] and rep["checks"]["distinguish_actions"]
    actions = [c.normalized_action, c.non_normalized_action]
    assert reads == identity_calls == actions


def test_open_orbit_reads_the_emitted_action():
    # exp(s1*P0 + s2*P0) moves along one direction only: its orbits are
    # thin, so the report must read the action itself, not the family
    c = _p2_actions()
    thin = exp_action(c.family.partials[0], c.family.partials[0])
    checks = verification_report(
        replace(c, non_normalized_action=thin))["checks"]
    assert checks["open_orbit_normalized"]
    assert checks["open_orbit_non_normalized"] is False
    # an image involving r1 has no tangent: the orbit check reads False
    c = classify(build_fan(example_fan("p1xp1")))
    ring = c.family.ring
    spare = ActionMap(ring=ring, images=tuple(
        parse_poly(ring, text) for text in ("x1", "x2 + x3*r1", "x3", "x4")))
    checks = verification_report(
        replace(c, normalized_action=spare))["checks"]
    assert checks["open_orbit_normalized"] is False


def test_classify_profile_inconclusive():
    with pytest.raises(Inconclusive):
        classify_profile(AnnihilatorReport(probes=(), lines=(),
                                           full_labels=()))


def test_report_fails_an_inconclusive_profile(monkeypatch):
    # a profile that does not separate the classes is a failed check
    def inconclusive(report):
        raise Inconclusive("planted")

    monkeypatch.setattr(verify, "classify_profile", inconclusive)
    rep = verification_report(classify(build_fan(example_fan("f1"))))
    assert rep["checks"]["distinguish_actions"] is False
    assert rep["all_pass"] is False
    assert [k for k, ok in rep["checks"].items() if not ok] == \
        ["distinguish_actions"]


@pytest.mark.parametrize("name", ("p2", "f1", "p112"))
def test_distinguish_actions(name):
    c = classify(build_fan(example_fan(name)))
    got = distinguish_actions(c)
    assert got == {"normalized": ActionClass.NORMALIZED,
                   "non_normalized": ActionClass.NON_NORMALIZED}


def test_distinguish_actions_not_applicable():
    with pytest.raises(NotApplicable):
        distinguish_actions(classify(build_fan(example_fan("wide"))))
    with pytest.raises(NotApplicable):
        distinguish_actions(classify(build_fan(
            [(1, 0), (-1, 3), (0, -1), (-1, -1), (1, -2)])))


def test_distinguisher_invariant_under_torus_conjugation():
    rng = random.Random(41)
    c = classify(build_fan(example_fan("f1")))
    fam = c.family
    for _ in range(5):
        t = [Fraction(rng.randint(1, 5), rng.randint(1, 5))
             * rng.choice([-1, 1]) for _ in range(4)]
        d1 = torus_conjugate(fam.delta, t) \
            + torus_conjugate(fam.partials[fam.d], t)
        d2 = torus_conjugate(fam.partials[0], t)
        act = exp_action(d1, d2)
        rep = annihilator_profile(act, fam)
        assert classify_profile(rep) is ActionClass.NON_NORMALIZED


def _check_emission(families):
    """Assert that emit_actions writes the maps exp_action sums as series,
    for each family; return the number of maps compared."""
    compared = 0
    for fam in families:
        pairs = [(fam.delta, fam.partials[0])]
        if fam.d:
            pairs.append((fam.delta + fam.partials[fam.d], fam.partials[0]))
        emitted = [act for act in emit_actions(fam) if act is not None]
        assert len(emitted) == len(pairs), fam.basis.rays
        for act, pair in zip(emitted, pairs):
            assert act.images == exp_action(*pair).images, fam.basis.rays
            compared += 1
    return compared


def test_emit_actions_matches_exp_action():
    # the catalog, every f:a and P(1,1,a) for a = 1..62 (the largest d
    # whose series fit in exp_action's step cap), a seeded 500 of the
    # 3,325 admitting fans with rays in [-2, 2]^2 and 40 of these families
    # with delta, partials[0] and partials[d] scaled by fractions;
    # full_reference_ranges compares all 3,325
    rays = [example_fan(name) for name in CATALOG]
    for a in range(1, 63):
        rays += [example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))]
    families = [classify(build_fan(r)).family for r in rays]
    rng = random.Random(36)
    families += [c.family for c in
                 rng.sample(_bound2_classifications(), 500)]
    # the monomials may carry any nonzero rational coefficient
    for fam in rng.sample(families, 40):
        a, b, c = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                            rng.randint(1, 9)) for _ in range(3))
        parts = list(fam.partials)
        parts[0] = parts[0].scale(b)
        if fam.d:
            parts[fam.d] = parts[fam.d].scale(c)
        families.append(replace(fam, delta=fam.delta.scale(a),
                                partials=tuple(parts)))
    assert _check_emission(families) == sum(1 + (f.d >= 1)
                                            for f in families)


def test_emit_actions_rejects_other_shapes():
    # the closed form needs delta to move only x_i1 and partials[0],
    # partials[d] only x_i2, each by one monomial with the stated x_i1
    # and x_i2 exponents; the error names the first failure
    fam = classify(build_fan(example_fan("f:3"))).family
    assert fam.basis.basis_indices == (0, 1)
    ring, parts = fam.ring, fam.partials
    cases = [
        (replace(fam, delta=fam.delta + parts[0]),
         "delta moves x2, not only x1"),
        (replace(fam, delta=derivation(ring, {0: Poly.var(ring, 1)})),
         "delta(x1) has x2 exponent 1, not 0"),
        (replace(fam, partials=(parts[0] + parts[3],) + parts[1:]),
         "partials[0](x2) has 2 terms, not one monomial"),
        (replace(fam, partials=(derivation(ring, {1: Poly.var(ring, 0)}),)
         + parts[1:]),
         "partials[0](x2) has x1 exponent 1, not 0"),
        (replace(fam, partials=parts[:3] + (parts[2],)),
         "partials[3](x2) has x1 exponent 2, not 3"),
        (replace(fam, partials=parts[:3] + (parts[3] + fam.delta,)),
         "partials[3] moves x1, not only x2"),
    ]
    for bad, why in cases:
        with pytest.raises(NotApplicable, match=re.escape(
                "emit_actions: " + why)):
            emit_actions(bad)
    # the same at d = 1, where partials[d] is the only other partial
    fam = classify(build_fan(example_fan("p2"))).family
    with pytest.raises(NotApplicable, match="delta moves x2, not only x1"):
        emit_actions(replace(fam, delta=fam.delta + fam.partials[0]))


def test_pipeline_runs_no_series_or_substitution(monkeypatch, capsys):
    # classify writes the actions in closed form and no oracle composes
    # or substitutes, so neither route is reached from fan to report
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline reached a series or substitution")

    monkeypatch.setattr(coxring, "_exp_series", refuse)
    monkeypatch.setattr(coxring, "substitute", refuse)
    rays = [example_fan(name) for name in CATALOG]
    rays += [example_fan("f:32"), ((1, 0), (0, 1), (-1, -32)),
             ((1, 0), (0, 1), (-10**7 - 3, -10**7))]
    for r in rays:
        rep = verification_report(classify(build_fan(r)))
        assert rep["all_pass"], (r, rep["checks"])
    assert cli.main(["verify", "--example", "p2"]) == 0
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("name", CATALOG)
def test_verification_report_catalog(name):
    c = classify(build_fan(example_fan(name)))
    rep = verification_report(c, box=10, seed=0)
    assert rep["all_pass"], rep["checks"]
    assert rep["admits_action"] is True
    # without actions the report classifies the fan again
    bare = classify(c.fan, with_actions=False)
    assert verification_report(bare, box=10, seed=0) == rep
    assert rep["rays"] == [list(r) for r in c.fan.rays]
    base_keys = {"roots_box_oracle", "cone_condition_redundant",
                 "collections_bases_bijection", "classes_match_wideness",
                 "bracket_table", "grading_relations",
                 "root_lnd_degree_zero"}
    assert base_keys <= set(rep["checks"])
    if c.d >= 1:
        assert rep["checks"]["distinguish_actions"] is True
        assert "open_orbit_non_normalized" in rep["checks"]
    else:
        assert "distinguish_actions" not in rep["checks"]
        assert "open_orbit_non_normalized" not in rep["checks"]


@pytest.mark.parametrize("rays", [
    [(1, 0), (0, 1), (-1, -40), (0, -1)],  # Hirzebruch f:40
    [(1, 0), (0, 1), (-1, -40)],  # weighted plane P(1,1,40)
])
def test_verification_report_large_d(rays):
    rep = verification_report(classify(build_fan(rays)), box=40)
    assert rep["all_pass"], rep["checks"]
    assert rep["d"] == 40
    assert rep["num_classes"] == 2


def test_verification_report_non_admitting():
    c = classify(build_fan([(1, 0), (-1, 3), (0, -1), (-1, -1), (1, -2)]))
    rep = verification_report(c)
    assert rep["all_pass"]
    assert rep["admits_action"] is False
    assert rep["num_classes"] == 0
    assert "bracket_table" not in rep["checks"]
    assert rep["checks"]["classes_match_wideness"] is True


def full_reference_ranges():
    """The full ranges that test_line_walk_matches_column_scan_reference,
    test_open_orbit_matches_eval_reference and
    test_emit_actions_matches_exp_action sample: all 400 large images
    against the column scan, and all 3,325 admitting fans with rays in
    [-2, 2]^2 against the eval reference and exp_action.  Not collected by
    pytest; run

        PYTHONPATH=src:tests python -c \
            "import test_verify; test_verify.full_reference_ranges()"
    """
    fans = list(enumerate_complete_fans(primitive_pool(2)))
    _check_line_walk(fans, _gl2_images(fans, 400, 10**4, 33))
    assert _open_orbit_verdicts(_bound2_classifications()) == {
        (False, True): 7 * (3325 + 1776) + 6, (True, False): 3 * 3325}
    assert _check_emission(c.family for c in _bound2_classifications()) \
        == 3325 + 1776
