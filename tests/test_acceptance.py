"""Acceptance suite: ten end-to-end guarantees, one test each.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the timing lines as they happen).  The two
shared sweeps are computed once: an exhaustive symbolic verification of
every admitting fan with ray coordinates in [-2, 2]^2, and a full light
pass over the [-3, 3]^2 pool with a stride 100 symbolic sample.
"""

import random
import time
from fractions import Fraction

import pytest

from toric_additive.additive import classify, find_admissible_basis
from toric_additive.catalog import example_fan
from toric_additive.coxring import (
    build_lnd_family,
    exp_action,
    exp_ad,
    normal_form,
    parse_poly,
    torus_conjugate,
)
from toric_additive.fan import build_fan
from toric_additive.roots import all_roots
from toric_additive.sweep import run_sweep
from toric_additive.verify import (
    ActionClass,
    annihilator_profile,
    check_bracket_table,
    check_grading_relations,
    check_open_orbit,
    check_root_lnd_degree_zero,
    check_roots_box_oracle,
    classify_profile,
    distinguish_actions,
    verification_report,
)

CATALOG = ("p2", "p1xp1", "f1", "p112", "p113", "wide")


def announce(n: int, text: str) -> None:
    print(f"criterion {n:02d}: PASS  {text}")


@pytest.fixture(scope="module")
def sweep2():
    return run_sweep(bound=2, heavy=True, heavy_stride=1,
                     nonadmitting_stride=5, seed=0)


@pytest.fixture(scope="module")
def sweep3():
    return run_sweep(bound=3, heavy=True, heavy_stride=100,
                     nonadmitting_stride=997, seed=0)


ROOT_TABLES = {
    "p1xp1": ([{(-1, 0)}, {(0, -1)}, {(1, 0)}, {(0, 1)}],
              {(-1, 0), (0, -1)}),
    "wide": ([{(-1, 0)}, {(0, -1)}, set(), set()],
             {(-1, 0), (0, -1)}),
    "p2": ([{(-1, 0), (-1, 1)}, {(0, -1), (1, -1)}, {(1, 0), (0, 1)}],
           {(-1, 0), (0, -1), (1, -1)}),
    "f1": ([{(-1, 0)}, {(0, -1), (1, -1)}, {(1, 0)}, set()],
           {(-1, 0), (0, -1), (1, -1)}),
}


def test_01_golden_root_tables():
    t0 = time.perf_counter()
    for name, (per_ray, positive) in ROOT_TABLES.items():
        fan = build_fan(example_fan(name))
        rs = all_roots(fan)
        assert [set(rs.roots_of_ray(i)) for i in range(fan.nrays)] == per_ray, name
        assert set(rs.positive) == positive, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"root tables of 4 classical fans exact in {elapsed:.3f}s")


ACTION_TABLES = {
    "p1xp1": (["x1 + x3*s1", "x2 + x4*s2", "x3", "x4"], None),
    "wide": (["x1 + x3*x4^2*s1", "x2 + x3^2*x4*s2", "x3", "x4"], None),
    "p2": (["x1 + x3*s1", "x2 + x3*s2", "x3"],
           ["x1 + x3*s1", "x2 + x3*s2 + x1*s1 + 1/2*x3*s1^2", "x3"]),
    "f1": (["x1 + x3*s1", "x2 + x3*x4*s2", "x3", "x4"],
           ["x1 + x3*s1", "x2 + x3*x4*s2 + x1*x4*s1 + 1/2*x3*x4*s1^2",
            "x3", "x4"]),
}


def test_02_golden_actions():
    for name, (normalized, non_normalized) in ACTION_TABLES.items():
        c = classify(build_fan(example_fan(name)))
        ring = c.family.ring
        got = c.normalized_action.images
        assert got == tuple(parse_poly(ring, t) for t in normalized), name
        if non_normalized is None:
            assert c.non_normalized_action is None, name
        else:
            got = c.non_normalized_action.images
            assert got == tuple(
                parse_poly(ring, t) for t in non_normalized), name
    announce(2, "explicit action formulas match coefficient for coefficient")


def test_03_sweep_classification_consistency(sweep3):
    r = sweep3
    assert r.total_fans == 928712
    assert r.admitting == 121049
    assert r.wide == 39201
    assert r.d_histogram == {0: 39201, 1: 61888, 2: 17448,
                             3: 2224, 4: 240, 5: 40, 6: 8}
    # (a) + (c): wideness, degree and singleton root sets agree between the
    # closed form over every admissible pair and the interval enumeration
    for kind in ("d_depends_on_basis", "root_count_mismatch",
                 "light_heavy_disagree"):
        assert r.violation_counts.get(kind, 0) == 0, r.violations.get(kind)
    # (b): one class exactly for the wide fans, two for the rest
    assert r.num_classes_counts.get(1, 0) == r.wide
    assert r.num_classes_counts.get(2, 0) == r.admitting - r.wide
    assert r.num_classes_counts.get(0, 0) == r.total_fans - r.admitting
    assert r.t_enumerate_light < 60.0
    announce(3, f"all {r.total_fans} complete fans consistent, "
                f"light pass {r.t_enumerate_light:.1f}s")


def test_04_brute_force_root_oracle(sweep2, sweep3):
    # exhaustive over every admitting fan at bound 2, sampled at bound 3;
    # the oracle also certifies that no enumerated root escapes the box
    assert sweep2.heavy_checked == sweep2.admitting == 3325
    # every 5th of the 8,071 non-admitting fans, the first one included
    assert sweep2.nonadmitting_sampled == 1615
    for r in (sweep2, sweep3):
        assert r.violation_counts.get("verification", 0) == 0, \
            r.violations.get("verification")
        assert r.violation_counts.get("nonadmitting_mismatch", 0) == 0
    for name in CATALOG:
        assert check_roots_box_oracle(build_fan(example_fan(name)), 10)
    announce(4, f"brute force matches interval enumeration on "
                f"{sweep2.heavy_checked + sweep3.heavy_checked} fans exactly")


def test_05_bracket_tables(sweep2, sweep3):
    basis = find_admissible_basis(example_fan("p112"))
    family = build_lnd_family(basis, 2)
    assert family.d == 2
    assert check_bracket_table(family)
    # bracket_table is part of every heavy verification report; bound 2 runs
    # it on every admitting fan
    assert sweep2.heavy_checked == sweep2.admitting
    assert sweep2.violation_counts.get("verification", 0) == 0
    assert sweep3.violation_counts.get("verification", 0) == 0
    announce(5, "bracket table [delta, partial_k] = k*partial_{k-1} holds")


def test_06_group_law(sweep2, sweep3):
    # the heavy report checks both representatives of every checked fan
    assert sweep2.heavy_checked == sweep2.admitting
    assert sweep2.violation_counts.get("verification", 0) == 0
    assert sweep3.violation_counts.get("verification", 0) == 0
    for name in CATALOG:
        rep = verification_report(classify(build_fan(example_fan(name))))
        assert rep["checks"]["group_law_normalized"]
        if rep["d"] and rep["d"] >= 1:
            assert rep["checks"]["group_law_non_normalized"]
    announce(6, "exact group law for both representatives everywhere")


NF_CASES = (("p2", 1, 34), ("p112", 2, 33), ("p113", 3, 33))


def test_07_normal_form_random():
    rng = random.Random(2024)
    total = 0
    for name, d, count in NF_CASES:
        basis = find_admissible_basis(example_fan(name))
        family = build_lnd_family(basis, d)
        for _ in range(count):
            mu = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(d)]
            mu.append(Fraction(rng.choice([1, 2, 3, -1, -2, -3]),
                               rng.randint(1, 4)))
            res = normal_form(mu, family)
            gen = family.delta
            for k, c in enumerate(mu):
                gen = gen + family.partials[k].scale(c)
            target = family.delta + family.partials[d].scale(mu[d])
            assert exp_ad(res.z, gen) == target
            assert exp_ad(res.z, family.partials[0]) == family.partials[0]
            # the solution is isolated: bumping any eta breaks it
            for k in range(d):
                bumped = family.delta
                for j in range(d):
                    c = res.eta[j] + (1 if j == k else 0)
                    bumped = bumped + family.partials[j + 1].scale(c)
                assert exp_ad(bumped, gen) != target
            total += 1
    assert total == 100
    announce(7, "100 random generators reconjugated to normal form exactly")


def test_08_open_orbit(sweep2, sweep3):
    assert sweep2.heavy_checked == sweep2.admitting
    assert sweep2.violation_counts.get("verification", 0) == 0
    assert sweep3.violation_counts.get("verification", 0) == 0
    # degenerate pair: both fields move the same coordinate, orbit stays thin
    c = classify(build_fan(example_fan("p2")))
    fam = c.family
    assert not check_open_orbit(fam.partials[0], fam.partials[1],
                                fam.grading)
    announce(8, "open orbit certified for all representatives, "
                "degenerate pair rejected")


def test_09_distinguisher():
    rng = random.Random(99)
    for name in ("p2", "f1", "p112"):
        c = classify(build_fan(example_fan(name)))
        got = distinguish_actions(c)
        assert got["normalized"] is ActionClass.NORMALIZED, name
        assert got["non_normalized"] is ActionClass.NON_NORMALIZED, name
        fam = c.family
        m = len(c.fan.rays)
        for _ in range(20):
            t = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 * rng.choice([-1, 1]) for _ in range(m)]
            d1 = torus_conjugate(fam.delta, t) \
                + torus_conjugate(fam.partials[fam.d], t)
            d2 = torus_conjugate(fam.partials[0], t)
            rep = annihilator_profile(exp_action(d1, d2), fam)
            assert classify_profile(rep) is ActionClass.NON_NORMALIZED, name
    announce(9, "annihilator profile separates the classes, stable under "
                "60 torus conjugations")


def test_10_grading(sweep2, sweep3):
    assert sweep2.heavy_checked == sweep2.admitting
    assert sweep2.violation_counts.get("verification", 0) == 0
    assert sweep3.violation_counts.get("verification", 0) == 0
    for name in CATALOG:
        c = classify(build_fan(example_fan(name)))
        assert check_grading_relations(c.basis, c.family.grading)
        assert check_root_lnd_degree_zero(c)
    announce(10, "every root derivation has class group degree zero")
