import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb, gcd

import pytest

from toric_additive import coxring
from toric_additive.additive import (
    classify,
    classify_rays,
    find_admissible_basis,
)
from toric_additive.catalog import BUILTIN, example_fan
from toric_additive.coxring import (
    ActionMap,
    Derivation,
    Poly,
    PolyRing,
    TorusChar,
    action_ring,
    build_lnd_family,
    character_of,
    cl_grading,
    commutator,
    compose,
    degree_of,
    derivation,
    derivation_str,
    emit_actions,
    exp_action,
    exp_ad,
    lnd_from_root,
    normal_form,
    parse_poly,
    poly_str,
    substitute,
    torus_conjugate,
)
from toric_additive.errors import (
    LengthMismatch,
    NegativeExponent,
    NotApplicable,
    NotCommuting,
    NotHomogeneous,
    NotLocallyNilpotent,
    VariableMismatch,
    ZeroTorusEntry,
)
from toric_additive.fan import build_fan
from toric_additive.verify import (
    ActionClass,
    _read_at_zero,
    annihilator_profile,
    check_group_law,
    classify_profile,
    verification_report,
)

R3 = action_ring(3)


def _p(text, ring=R3):
    return parse_poly(ring, text)


def test_ring_layout():
    assert R3.names == ("x1", "x2", "x3", "s1", "s2", "r1", "r2")
    assert R3.index("s2") == 4
    with pytest.raises(VariableMismatch):
        R3.index("x9")
    with pytest.raises(VariableMismatch):
        PolyRing(("a", "a"))


def test_poly_arithmetic():
    x1, x2 = Poly.var(R3, 0), Poly.var(R3, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1 + x2) ** 2 == x1 ** 2 + x1 * x2 * 2 + x2 ** 2
    assert (p - p).is_zero
    assert x1 * 0 == Poly.zero(R3)
    assert Poly.const(R3, Fraction(3, 2)) * 2 == Poly.const(R3, 3)


def test_generator_index_out_of_range():
    ring = action_ring(3)  # x1, x2, x3, s1, s2, r1, r2
    assert ring.nvars == 7
    for i in (-1, 7):
        with pytest.raises(VariableMismatch, match=f"index {i} "):
            Poly.var(ring, i)
        with pytest.raises(VariableMismatch, match=f"index {i} "):
            derivation(ring, {i: Poly.var(ring, 0)})
    assert Poly.var(ring, 6) == _p("r2")
    assert derivation(ring, {6: _p("x1")}).entries[6] == _p("x1")


def test_int_const_and_int_eval():
    assert Poly.const(R3, 0) == Poly.zero(R3)
    assert Poly.const(R3, -4) == Poly.const(R3, Fraction(-4))
    with pytest.raises(TypeError, match="True"):
        Poly.const(R3, True)
    rng = random.Random(20)
    for _ in range(40):
        p = _random_poly(rng, R3)
        ints = [rng.randint(-5, 5) for _ in range(R3.nvars)]
        got = p.eval(ints)
        assert type(got) is Fraction
        assert got == p.eval([Fraction(v) for v in ints]) \
            == p.eval([Fraction(v) if v % 2 else v for v in ints])


def test_poly_eval_and_subs():
    p = _p("x1^2*x2 - 1/2*x3")
    vals = [Fraction(2), Fraction(3), Fraction(4)] + [Fraction(0)] * 4
    assert p.eval(vals) == 12 - 2
    q = p.subs({0: _p("x2 + 1")})
    assert q == _p("(x2 + 1)^2*x2 - 1/2*x3")


def _count_products(monkeypatch, cap):
    """Count Poly products from here on, failing at once past ``cap``."""
    count = [0]
    mul = Poly.__mul__

    def counted(self, other):
        count[0] += 1
        if count[0] > cap:
            raise AssertionError(f"more than {cap} Poly products")
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    return count


def test_poly_pow_matches_repeated_product():
    q = _p("x1 - 2*x2*s1 + 1/3")
    expected = Poly.const(R3, 1)
    for n in range(10):
        assert q ** n == expected
        expected = expected * q


def test_poly_pow_squares(monkeypatch):
    x1, s1 = Poly.var(R3, 0), Poly.var(R3, 3)
    count = _count_products(monkeypatch, 20)
    p = (x1 + s1) ** 1000
    assert count[0] <= 20
    assert len(p.terms) == 1001
    assert p.terms[(400, 0, 0, 600, 0, 0, 0)] == comb(1000, 400)


def test_subs_identity_entry_changes_nothing():
    p = _p("x1^3*x2 - 2*x2^2*s1 + x3 - 5")
    image = _p("x1 + s2")
    for ident in ({0: _p("x1")}, {2: _p("x3")}, {0: _p("x1"), 2: _p("x3")}):
        assert p.subs({**ident, 1: image}) == p.subs({1: image})
        assert p.subs(ident) == p
    # a scaled or shifted generator is not an identity image
    assert p.subs({2: _p("2*x3")}) == _p("x1^3*x2 - 2*x2^2*s1 + 2*x3 - 5")
    assert p.subs({2: _p("x3 + x1")}) == \
        _p("x1^3*x2 - 2*x2^2*s1 + x3 + x1 - 5")


def test_subs_skips_identity_powers(monkeypatch):
    x1, x2, s1 = Poly.var(R3, 0), Poly.var(R3, 1), Poly.var(R3, 3)
    p = Poly.monomial(R3, (9000, 1, 0, 0, 0, 0, 0))
    count = _count_products(monkeypatch, 2)
    q = p.subs({0: x1, 1: x2 + s1})
    assert count[0] <= 2
    assert q == p + Poly.monomial(R3, (9000, 0, 0, 1, 0, 0, 0))


def test_subs_gathers_terms_without_poly_sums(monkeypatch):
    # a sum per term would copy the accumulated dict each time: O(T^2)
    p = Poly(R3, {(k % 20, k // 20, 0, 1, 0, 0, 0): k + 1
                  for k in range(4000)})
    image = _p("2*x3")

    def no_sums(self, other):
        raise AssertionError("Poly.subs called Poly.__add__")

    monkeypatch.setattr(Poly, "__add__", no_sums)
    assert len(p.terms) == 4000
    assert p.subs({2: image}) == p


def test_big_coordinates_verify_in_bounded_products(monkeypatch):
    # (1,0),(0,1),(-N-3,-N) has exponents of size N in its actions; the
    # number of products must not grow with N
    fan = build_fan([(1, 0), (0, 1), (-1000003, -1000000)])
    count = _count_products(monkeypatch, 200)
    rep = verification_report(classify(fan))
    assert rep["all_pass"], rep["checks"]
    assert count[0] <= 200


def test_subs_builds_dense_powers_once(monkeypatch):
    # (x1 + s1)^k for k = 2..n each come from the one before: one product
    n = 30
    image = _p("x1 + s1")
    p = Poly(R3, {(k, 0, 0, 0, 0, 0, 0): 1 for k in range(n + 1)})
    expected, power = Poly.zero(R3), Poly.const(R3, 1)
    for _ in range(n + 1):
        expected, power = expected + power, power * image
    count = _count_products(monkeypatch, n + 2)
    assert p.subs({0: image}) == expected
    assert count[0] <= n + 2


def _count_applies(monkeypatch):
    """Count Derivation.apply calls from here on."""
    count = [0]
    apply = Derivation.apply

    def counted(self, p):
        count[0] += 1
        return apply(self, p)

    monkeypatch.setattr(Derivation, "apply", counted)
    return count


def test_high_d_oracles_in_counted_applies(monkeypatch):
    # the profile applies each tangent derivation once to each of its
    # d + 4 probes; the group law applies each once to each image but
    # those that are x_i itself, here all but the two basis coordinates
    for name in ("f:1", "f:32"):
        c = classify(build_fan(example_fan(name)))
        for action, cls in ((c.normalized_action, ActionClass.NORMALIZED),
                            (c.non_normalized_action,
                             ActionClass.NON_NORMALIZED)):
            count = _count_applies(monkeypatch)
            report = annihilator_profile(action, c.family)
            assert count[0] == 2 * len(report.probes)
            assert classify_profile(report) == cls
            monkeypatch.undo()
            count = _count_applies(monkeypatch)
            assert check_group_law(action)
            moved = sum(img != Poly.var(action.ring, i)
                        for i, img in enumerate(action.images))
            assert moved == 2
            assert count[0] == 2 * moved
            monkeypatch.undo()


def test_substitute_matches_evaluation_at_seeded_points():
    # independent route: p(m(x)) at v is p at the point v' with v'_i the
    # value of m[i] at v
    rng = random.Random(16)

    def moved_point(mapping, v):
        return [mapping[i].eval(v) if i in mapping else c
                for i, c in enumerate(v)]

    sparse = Poly(R3, {(k, 1, 0, 0, 0, 0, 0): k - 3 for k in (0, 1, 7, 9000)})
    cases = [((sparse,), {0: _p("-2/3*x2*s1")}),
             ((sparse,), {0: _p("x1"), 1: _p("x2 + s2")}),
             ((sparse, _p("x1^7 + x1*x2"), _p("x2^2 - 1")),
              {0: _p("3*x3*r2"), 1: _p("x2"), 3: _p("s1 - r1")})]
    for _ in range(60):
        polys = tuple(_random_poly(rng, R3) for _ in range(rng.randint(1, 4)))
        mapping = {i: Poly.var(R3, i) if rng.random() < 0.3
                   else _random_poly(rng, R3)
                   for i in rng.sample(range(R3.nvars), rng.randint(1, 4))}
        cases.append((polys, mapping))
    for polys, mapping in cases:
        together = substitute(polys, mapping)
        assert len(together) == len(polys)
        for p, q in zip(polys, together):
            assert q == p.subs(mapping)
            for _ in range(3):
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(R3.nvars)]
                assert q.eval(v) == p.eval(moved_point(mapping, v))


def test_poly_diff():
    p = _p("x1^3*x2 + 5*x3")
    assert p.diff(0) == _p("3*x1^2*x2")
    assert p.diff(1) == _p("x1^3")
    assert p.diff(2) == _p("5")
    assert p.diff(3).is_zero


def test_poly_str_golden():
    # terms come out in ascending (total degree, exponents) order
    p = _p("1/2*x3*s1^2 + x1*s1 + x3*s2 + x2")
    assert poly_str(p) == "x2 + x3*s2 + x1*s1 + 1/2*x3*s1^2"
    assert poly_str(Poly.zero(R3)) == "0"
    assert poly_str(_p("-x1 + 2")) == "2 - x1"
    assert poly_str(_p("-3/4*x2^2")) == "-3/4*x2^2"


def _random_poly(rng, ring):
    p = Poly.zero(ring)
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, 2) if rng.random() < 0.4 else 0
                     for _ in range(ring.nvars))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = p + Poly.monomial(ring, exps, c)
    return p


def test_poly_str_parse_round_trip():
    rng = random.Random(7)
    for _ in range(120):
        p = _random_poly(rng, R3)
        assert parse_poly(R3, poly_str(p)) == p


# Reference arithmetic on exponent tuple -> Fraction dicts, restated here so
# the integer-numerator kernel is checked against an independent route.
def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in a.items() if e[i]}


def _ref_subs(a, mapping, nvars):
    out = {}
    for e, c in a.items():
        term = {tuple(0 if i in mapping else k for i, k in enumerate(e)): c}
        for i, img in mapping.items():
            term = _ref_mul(term, _ref_pow(img, e[i], nvars))
        out = _ref_add(out, term)
    return out


def _ref_eval(a, vals):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(vals, e):
            c *= Fraction(v) ** k
        total += c
    return total


def _assert_kernel(p, ref):
    assert p.terms == ref
    assert all(type(c) is Fraction for c in p.terms.values())
    assert all(type(c) is int and c for c in p.num.values())
    assert type(p.den) is int and p.den >= 1
    assert gcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1
    assert Poly(p.ring, p.terms) == p
    assert parse_poly(p.ring, poly_str(p)) == p


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(18)

    def random_poly():
        # one poly in three has a shared denominator > 1, one in three is
        # integral, and one mixes denominators term by term
        kind = rng.randrange(3)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(0, 2) if rng.random() < 0.4 else 0
                         for _ in range(R3.nvars))
            den = (1, 6, rng.randint(1, 9))[kind]
            terms[exps] = Fraction(rng.randint(-9, 9), den)
        return Poly(R3, terms), {e: c for e, c in terms.items() if c}

    def scalar():
        return rng.choice([rng.randint(-4, 4),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 6))])

    for _ in range(150):
        (a, ra), (b, rb) = random_poly(), random_poly()
        _assert_kernel(a, ra)
        _assert_kernel(a + b, _ref_add(ra, rb))
        _assert_kernel(-a, {e: -c for e, c in ra.items()})
        _assert_kernel(a - b, _ref_add(ra, {e: -c for e, c in rb.items()}))
        _assert_kernel(a - a, {})
        _assert_kernel(a * b, _ref_mul(ra, rb))
        k = scalar()
        scaled = {e: c * k for e, c in ra.items() if k}
        _assert_kernel(a * k, scaled)
        _assert_kernel(k * a, scaled)
        n = rng.randint(0, 4)
        _assert_kernel(a ** n, _ref_pow(ra, n, R3.nvars))
        i = rng.randrange(R3.nvars)
        _assert_kernel(a.diff(i), _ref_diff(ra, i))
        mapping, ref_mapping = {}, {}
        for i in rng.sample(range(R3.nvars), rng.randint(1, 3)):
            # some images are the identity x_i -> x_i
            if rng.random() < 0.3:
                mapping[i] = Poly.var(R3, i)
                ref_mapping[i] = {tuple(int(j == i) for j in range(R3.nvars)):
                                  Fraction(1)}
            else:
                mapping[i], ref_mapping[i] = random_poly()
        _assert_kernel(a.subs(mapping), _ref_subs(ra, ref_mapping, R3.nvars))
        vals = [scalar() for _ in range(R3.nvars)]
        assert a.eval(vals) == _ref_eval(ra, vals)
        assert type(a.eval(vals)) is Fraction


def test_coefficients_and_values_are_fractions():
    # every coefficient and value that leaves the kernel is a Fraction,
    # also when every input is an int
    e = (1, 0, 2, 0, 0, 0, 0)
    polys = [Poly(R3, {e: 3}), Poly.const(R3, 2), Poly.var(R3, 1),
             Poly.monomial(R3, e, 4), _p("x1 + 2*x2 - 3"), _p("4/2*x1"),
             Poly.var(R3, 0) * 2, Poly.var(R3, 0).diff(0), _p("1/2*x1") * 2]
    fam = classify(build_fan(example_fan("p112"))).family
    for act in emit_actions(fam):
        polys.extend(act.images)
    for p in polys:
        assert p.terms and all(type(c) is Fraction for c in p.terms.values())
        assert type(p.eval([1, 2, 3, 4, 5, 6, 7])) is Fraction
    assert type(Poly.zero(R3).eval([1] * R3.nvars)) is Fraction
    assert type(TorusChar((1, -1, 2)).value_at((2, 3, 5))) is Fraction
    assert type(TorusChar((1, 0)).value_at((2, 3))) is Fraction
    for mu in ((5, 7, 3), (0, 0, 1), (1, 2, Fraction(1, 3))):
        eta = normal_form(mu, fam).eta
        assert eta and all(type(c) is Fraction for c in eta)
    # terms is a fresh view: changing it leaves the polynomial alone
    p = _p("x1 - 1/3*x2")
    view = p.terms
    view[e] = Fraction(5)
    view.clear()
    assert p == _p("x1 - 1/3*x2")
    assert p.terms == {(1, 0, 0, 0, 0, 0, 0): 1,
                       (0, 1, 0, 0, 0, 0, 0): Fraction(-1, 3)}


def test_parse_rejects_garbage():
    with pytest.raises(VariableMismatch):
        _p("x1 +")
    with pytest.raises(VariableMismatch):
        _p("(x1")
    with pytest.raises(VariableMismatch):
        _p("x1 ? x2")
    with pytest.raises(VariableMismatch):
        _p("x1 x2")
    with pytest.raises(VariableMismatch):
        _p("y1 + 1")
    with pytest.raises(VariableMismatch):
        _p("1/0")


def test_derivation_leibniz():
    rng = random.Random(13)
    dv = derivation(R3, {0: _p("x2*x3"), 1: _p("x3^2")})
    for _ in range(40):
        a = _random_poly(rng, R3)
        b = _random_poly(rng, R3)
        assert dv.apply(a * b) == dv.apply(a) * b + a * dv.apply(b)


def _ref_apply(D, p):
    """Reference: sum_i D(x_i) * dp/dx_i from diff, products and sums."""
    out = Poly.zero(p.ring)
    for i, entry in enumerate(D.entries):
        out = out + entry * p.diff(i)
    return out


def _ref_apply_terms(entries, p):
    """The same on exponent tuple -> Fraction dicts."""
    out = {}
    for i, entry in enumerate(entries):
        out = _ref_add(out, _ref_mul(entry, _ref_diff(p, i)))
    return out


def _random_terms(rng, big):
    """Up to five terms over R3, denominators mixed term by term; with
    ``big`` some exponents lie near 9000."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(0 if rng.random() < 0.6
                     else rng.randint(8995, 9000) if big and rng.random() < 0.3
                     else rng.randint(1, 3)
                     for _ in range(R3.nvars))
        den = rng.choice([1, 1, 2, 6, rng.randint(1, 9)])
        terms[exps] = Fraction(rng.randint(-9, 9), den)
    return {e: c for e, c in terms.items() if c}


def test_apply_matches_per_generator_reference():
    rng = random.Random(24)
    cases = [
        # the two sums cancel: the zeros must be dropped
        ({0: _p("x2"), 1: _p("-x1")}, _p("x1^2 + x2^2")),
        # entries over 2 and 3, argument over 5
        ({0: _p("1/2*x2"), 1: _p("1/3*x1*s1")}, _p("x1^2*x2 + 1/5*x2^3")),
        ({}, _p("x1*x2 - 3")),
        ({0: _p("x2")}, Poly.zero(R3)),
        ({0: _p("x2"), 4: _p("-7/3")}, Poly.const(R3, Fraction(3, 4))),
        ({1: _p("x3^9000 - 1/9")}, _p("1/2*x2^8999*x1 + x2")),
    ]
    for _ in range(300):
        big = rng.random() < 0.3
        images = {i: Poly(R3, _random_terms(rng, big))
                  for i in rng.sample(range(R3.nvars), rng.randint(0, 4))}
        cases.append((images, Poly(R3, _random_terms(rng, big))))
    nonzero = 0
    for images, p in cases:
        D = derivation(R3, images)
        got = D.apply(p)
        assert got == _ref_apply(D, p)
        _assert_kernel(got, _ref_apply_terms([q.terms for q in D.entries],
                                             p.terms))
        nonzero += bool(got.num)
    assert 150 < nonzero < len(cases)


def test_apply_matches_reference_on_family_actions():
    # every derivation of the family and both tangents, on every image
    for a in range(1, 33):
        for rays in (example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))):
            c = classify(build_fan(rays))
            actions = (c.normalized_action, c.non_normalized_action)
            derivations = [c.family.delta, *c.family.partials]
            for act in actions:
                derivations.extend(_read_at_zero(act)[1])
            for act in actions:
                for img in act.images:
                    for D in derivations:
                        assert D.apply(img) == _ref_apply(D, img)


def test_commutator_golden():
    # [x2 d/dx1, x1 d/dx2] = x2 d/dx2 - x1 d/dx1
    a = derivation(R3, {0: _p("x2")})
    b = derivation(R3, {1: _p("x1")})
    c = commutator(a, b)
    assert c.entries[0] == _p("-x1")
    assert c.entries[1] == _p("x2")
    assert commutator(a, a).is_zero


def test_exp_ad_translation():
    # exp(ad z) with z = x3 d/dx1 shifts x1 by x3 inside coefficients
    z = derivation(R3, {0: _p("x3")})
    dv = derivation(R3, {1: _p("x1^2")})
    out = exp_ad(z, dv)
    assert out.entries[1] == _p("x1^2 + 2*x1*x3 + x3^2")
    assert exp_ad(z, z) == z


def test_exp_action_p2_golden():
    fan_rays = example_fan("p2")
    basis = find_admissible_basis(fan_rays)
    family = build_lnd_family(basis, 1)
    normalized, non_normalized = emit_actions(family)
    assert normalized.image_strings() == (
        "x1 <- x1 + x3*s1",
        "x2 <- x2 + x3*s2",
        "x3 <- x3",
    )
    assert non_normalized is not None
    assert non_normalized.image_strings() == (
        "x1 <- x1 + x3*s1",
        "x2 <- x2 + x3*s2 + x1*s1 + 1/2*x3*s1^2",
        "x3 <- x3",
    )


def test_exp_action_f1_golden():
    basis = find_admissible_basis(example_fan("f1"))
    family = build_lnd_family(basis, 1)
    normalized, non_normalized = emit_actions(family)
    assert normalized.image_strings() == (
        "x1 <- x1 + x3*s1",
        "x2 <- x2 + x3*x4*s2",
        "x3 <- x3",
        "x4 <- x4",
    )
    assert non_normalized.image_strings() == (
        "x1 <- x1 + x3*s1",
        "x2 <- x2 + x3*x4*s2 + x1*x4*s1 + 1/2*x3*x4*s1^2",
        "x3 <- x3",
        "x4 <- x4",
    )


def test_exp_action_identity_at_zero():
    basis = find_admissible_basis(example_fan("p112"))
    family = build_lnd_family(basis, 2)
    for act in emit_actions(family):
        imgs = act.at_params(0, 0)
        for i, p in enumerate(imgs):
            assert p == Poly.var(act.ring, i)


def test_exp_action_rejects_noncommuting():
    a = derivation(R3, {0: _p("x2")})
    b = derivation(R3, {1: _p("x1")})
    with pytest.raises(NotCommuting):
        exp_action(a, b)


def test_exp_action_rejects_non_nilpotent():
    a = derivation(R3, {0: _p("x1^2")})
    with pytest.raises(NotLocallyNilpotent):
        exp_action(a, derivation(R3, {}))
    # the cyclic x2 d/dx1 + x1 d/dx2 never reaches a zero term
    z = derivation(R3, {0: _p("x2"), 1: _p("x1")})
    with pytest.raises(NotLocallyNilpotent, match=re.escape(
            "flow of x1 did not terminate within 64 steps")):
        exp_action(z, derivation(R3, {}))
    with pytest.raises(NotLocallyNilpotent, match=re.escape(
            "iterated bracket with (x2) d/dx1 + (x1) d/dx2 did not "
            "terminate within 64 steps")):
        exp_ad(z, derivation(R3, {0: _p("1")}))


def _ref_exp_series(x, op):
    """Reference: x + op(x) + op(op(x))/2! + ..., as a running sum."""
    acc = cur = x
    for step in range(1, coxring._MAX_STEPS + 1):
        cur = coxring._over(op(cur), step)
        if cur.is_zero:
            return acc
        acc = acc + cur
    raise AssertionError("the reference series did not terminate")


def _ref_flow(d1, d2):
    """Reference: the flow a*s1 + b*s2 by Poly products and sums."""
    ring = d1.ring
    s1 = Poly.var(ring, ring.index("s1"))
    s2 = Poly.var(ring, ring.index("s2"))
    return Derivation(ring, tuple(a * s1 + b * s2
                                  for a, b in zip(d1.entries, d2.entries)))


def _ref_exp_action_images(d1, d2):
    """Reference: one running-sum series per coordinate, fixed ones too."""
    ring = d1.ring
    flow = _ref_flow(d1, d2)
    return tuple(_ref_exp_series(Poly.var(ring, i), flow.apply)
                 for i in range(ring.index("s1")))


def test_exp_series_matches_running_sum_reference():
    # both actions of the catalog and of every f:a and P(1,1,a) up to 32,
    # and exp(ad delta) on the top partial, whose series has d + 1 terms
    fans = list(BUILTIN.values())
    for a in range(1, 33):
        fans += [example_fan(f"f:{a}"), ((1, 0), (0, 1), (-1, -a))]
    fixed = 0
    for rays in fans:
        c = classify(build_fan(rays))
        fam = c.family
        pairs = [(fam.delta, fam.partials[0])]
        if fam.d:
            pairs.append((fam.delta + fam.partials[fam.d], fam.partials[0]))
        for (d1, d2), act in zip(pairs, (c.normalized_action,
                                         c.non_normalized_action)):
            assert coxring._flow(d1, d2) == _ref_flow(d1, d2)
            want = ActionMap(ring=act.ring,
                             images=_ref_exp_action_images(d1, d2))
            assert act.images == want.images
            assert act.image_strings() == want.image_strings()
            fixed += sum(not (p.num or q.num)
                         for p, q in zip(d1.entries, d2.entries))
        top = fam.partials[fam.d]
        for z, t in ((fam.delta, top), (fam.delta, fam.delta + top),
                     (fam.partials[0], top)):
            got = exp_ad(z, t)
            ref = _ref_exp_series(t, lambda u: commutator(z, u))
            assert got == ref and got.char == ref.char
    assert fixed > len(fans)
    # normal_form re-verifies its answer by exp(ad Z) at d = 3 and d = 62
    family = classify_rays(example_fan("f:3")).family
    assert normal_form((1, 2, 0, 5), family).eta == (2, 1, 5)
    rng = random.Random(62)
    family = classify_rays(example_fan("f:62")).family
    normal_form([rng.randint(-9, 9) for _ in range(62)] + [1], family)


def test_flow_matches_product_reference():
    # entries over different denominators, entries that already hold s1
    # or s2, a term of d2 that cancels one of d1, and fixed coordinates
    cases = [
        ({0: "1/2*x2*x3", 1: "x3^2 - 1/3"}, {1: "2/9*x3", 2: "x1*x2"}),
        ({0: "x2*s2"}, {0: "-x2*s1 + 3/4*x3"}),
        ({1: "s1^2 + 1/6*x1*s2"}, {1: "-1/6*x1*s1"}),
        ({}, {2: "5/7"}),
        ({}, {}),
    ]
    for im1, im2 in cases:
        d1 = derivation(R3, {i: _p(t) for i, t in im1.items()})
        d2 = derivation(R3, {i: _p(t) for i, t in im2.items()})
        assert coxring._flow(d1, d2) == _ref_flow(d1, d2), (im1, im2)
    # s1*(x2*s2) + s2*(-x2*s1) cancels: the entry is zero over den 1
    d1 = derivation(R3, {0: _p("x2*s2")})
    d2 = derivation(R3, {0: _p("-x2*s1")})
    flow = coxring._flow(d1, d2)
    assert flow.entries[0] == Poly.zero(R3) and flow.entries[0].den == 1


def test_apply_plan_is_kept_and_never_shared():
    images = {0: _p("1/2*x2*x3"), 1: _p("x3^2 - 1/3*s1"), 2: _p("2/5")}
    D = derivation(R3, images)
    E = derivation(R3, {0: _p("x3"), 2: _p("1/7*x1*x2")})
    p, q = _p("x1^2*x2 + 1/4*x2*s1"), _p("x1*x2*x3^2 - 3")
    assert D._plan is None
    first = D.apply(q)
    assert D._plan is not None
    fresh = derivation(R3, images)
    assert D == fresh and repr(D) == repr(fresh)
    assert D.apply(q) == fresh.apply(q) == first == _ref_apply(D, q)
    E.apply(p)
    assert D.scale(3).apply(p) == D.apply(p) * 3
    derived = [D + E, D - E, -D, D.scale(3), D.scale(Fraction(-2, 7)),
               coxring._over(D, 4), commutator(D, E), commutator(E, D),
               torus_conjugate(D, (2, Fraction(1, 3), 5)),
               replace(D, entries=E.entries)]
    for R in derived:
        assert R._plan is None
        for f in (p, q):
            assert R.apply(f) == _ref_apply(R, f)
    assert D.apply(p) == _ref_apply(D, p)
    assert E.apply(q) == _ref_apply(E, q)


def test_compose_group_law():
    basis = find_admissible_basis(example_fan("p112"))
    family = build_lnd_family(basis, 2)
    ring = family.ring
    shift = {ring.index("s1"): _p("s1 + r1", ring),
             ring.index("s2"): _p("s2 + r2", ring)}
    for act in emit_actions(family):
        composed = compose(act, act)
        expected = tuple(p.subs(shift) for p in act.images)
        assert composed.images == expected
        assert composed.params == ("s1", "s2", "r1", "r2")


def test_compose_order_of_factors():
    # composing with the identity on either side changes nothing
    basis = find_admissible_basis(example_fan("p2"))
    family = build_lnd_family(basis, 1)
    act, _ = emit_actions(family)
    ring = act.ring
    ident = ActionMap(ring=ring, images=tuple(
        Poly.var(ring, i) for i in range(act.ncoords)))
    zero = {ring.index("r1"): Poly.zero(ring),
            ring.index("r2"): Poly.zero(ring)}
    assert tuple(p.subs(zero) for p in compose(act, ident).images) == act.images
    # identity first: the surviving copy of act runs on the r parameters
    rename = {ring.index("s1"): Poly.var(ring, ring.index("r1")),
              ring.index("s2"): Poly.var(ring, ring.index("r2"))}
    assert compose(ident, act).images == tuple(
        p.subs(rename) for p in act.images)


GRADING_GOLDEN = {
    "p2": ((1,), (1,), (1,)),
    "f1": ((1, 0), (1, 1), (1, 0), (0, 1)),
    "p112": ((1,), (2,), (1,)),
}


@pytest.mark.parametrize("name", sorted(GRADING_GOLDEN))
def test_cl_grading_golden(name):
    basis = find_admissible_basis(example_fan(name))
    assert cl_grading(basis).degrees == GRADING_GOLDEN[name]


def test_degree_of():
    basis = find_admissible_basis(example_fan("f1"))
    grading = cl_grading(basis)
    ring = action_ring(4)
    assert degree_of(grading, parse_poly(ring, "x1*x4")) == (1, 1)
    assert degree_of(grading, parse_poly(ring, "x2 + x1*x4")) == (1, 1)
    # parameters are degree zero
    assert degree_of(grading, parse_poly(ring, "x3*s1^5")) == (1, 0)
    assert degree_of(grading, Poly.zero(ring)) is None
    with pytest.raises(NotHomogeneous) as info:
        degree_of(grading, parse_poly(ring, "x1 + x2"))
    assert info.value.witness is not None


def test_lnd_from_root_golden():
    rays = example_fan("p112")
    # root (2, -1) of ray 2 gives x1^2 d/dx2
    dv = lnd_from_root(action_ring(3), rays, (2, -1), 1)
    assert dv.entries[1] == _p("x1^2")
    assert dv.entries[0].is_zero and dv.entries[2].is_zero
    assert dv.char == (2, -1)


def test_lnd_from_root_rejects():
    rays = example_fan("p2")
    ring = action_ring(3)
    with pytest.raises(NotApplicable):
        lnd_from_root(ring, rays, (0, -1), 0)
    # pairs to -1 with ray 1 but negatively with ray 3
    with pytest.raises(NegativeExponent):
        lnd_from_root(ring, rays, (-1, 2), 0)


def test_character_of_and_torus_scaling():
    rays = example_fan("p2")
    ring = action_ring(3)
    rng = random.Random(17)
    for per_ray_index in range(3):
        from toric_additive.roots import enumerate_roots_at
        from toric_additive.fan import build_fan
        fan = build_fan(rays)
        for root in enumerate_roots_at(fan, per_ray_index):
            dv = lnd_from_root(ring, rays, root.e, per_ray_index)
            for _ in range(5):
                t = [Fraction(rng.randint(1, 7), rng.randint(1, 7))
                     * rng.choice([-1, 1]) for _ in range(3)]
                lam = character_of(dv, rays).value_at(t)
                assert torus_conjugate(dv, t) == dv.scale(lam)


def test_torus_conjugate_rejects_zero_entry():
    dv = lnd_from_root(action_ring(3), example_fan("p2"), (-1, 0), 0)
    with pytest.raises(ZeroTorusEntry):
        torus_conjugate(dv, (1, 0, 1))
    with pytest.raises(ZeroTorusEntry):
        character_of(dv, example_fan("p2")).value_at((1, 0, 1))


def test_torus_conjugate_rejects_parameter_motion():
    ring = action_ring(2)
    dv = derivation(ring, {ring.index("s1"): Poly.const(ring, 1)})
    with pytest.raises(NotApplicable):
        torus_conjugate(dv, (1, 1))


def test_poly_const_refuses_float():
    e = (1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(TypeError, match="0.1"):
        Poly.const(R3, 0.1)
    with pytest.raises(TypeError, match="0.1"):
        Poly.monomial(R3, e, 0.1)
    with pytest.raises(TypeError, match="0.1"):
        Poly(R3, {e: 0.1})
    with pytest.raises(TypeError, match="0.5"):
        Poly.var(R3, 0) * 0.5
    with pytest.raises(TypeError, match="0.5"):
        0.5 * Poly.var(R3, 0)
    assert Poly.var(R3, 0) * Fraction(1, 2) == Poly.monomial(
        R3, e, Fraction(1, 2))
    assert Poly.const(R3, Fraction(1, 10)).eval([1] * R3.nvars) \
        == Fraction(1, 10)


def test_poly_eval_refuses_float():
    p = parse_poly(R3, "x1*x2")
    with pytest.raises(TypeError, match="0.1"):
        p.eval([0.1, 1, 1, 0, 0, 0, 0])
    assert p.eval([Fraction(1, 10), 1, 1, 0, 0, 0, 0]) == Fraction(1, 10)


def test_torus_char_value_at_refuses_float():
    with pytest.raises(TypeError, match="0.1"):
        TorusChar((1, 0, 0)).value_at([0.1, 1, 1])
    assert TorusChar((1, 0, 0)).value_at([Fraction(1, 10), 1, 1]) \
        == Fraction(1, 10)


def test_torus_char_value_at_checks_length():
    # f1's partials[1] scales by the character with exponents (1, -1, 0, 1)
    c = classify(build_fan(example_fan("f1")))
    char = character_of(c.family.partials[1], c.fan.rays)
    assert char.exponents == (1, -1, 0, 1)
    assert char.value_at((2, 3, 5, 7)) == Fraction(14, 3)
    with pytest.raises(LengthMismatch):
        char.value_at((2,))
    with pytest.raises(LengthMismatch):
        char.value_at((2, 3, 5, 7, 11, 13))


def test_torus_conjugate_refuses_float():
    dv = lnd_from_root(action_ring(3), example_fan("p2"), (-1, 0), 0)
    with pytest.raises(TypeError, match="0.5"):
        torus_conjugate(dv, (1, 0.5, 1))
    with pytest.raises(TypeError, match="0.1"):
        dv.scale(0.1)


def test_exact_refuses_bool():
    # bool is an int subclass; the gate refuses it as int_rays does
    family = classify_rays(example_fan("f:3")).family
    with pytest.raises(TypeError, match="True"):
        normal_form((True, 2, 0, 5), family)
    with pytest.raises(TypeError, match="True"):
        TorusChar((1, 2)).value_at([True, 2])
    with pytest.raises(TypeError, match="False"):
        Poly.var(R3, 0).eval([False, 1, 1, 0, 0, 0, 0])
    with pytest.raises(TypeError, match="True"):
        Poly.var(R3, 0) * True
    assert TorusChar((1, 2)).value_at([1, 2]) == 4


def test_build_lnd_family_brackets():
    for name, d in (("p112", 2), ("p113", 3), ("p2", 1)):
        basis = find_admissible_basis(example_fan(name))
        family = build_lnd_family(basis, d)
        assert len(family.partials) == d + 1
        for k, pk in enumerate(family.partials):
            got = commutator(family.delta, pk)
            if k == 0:
                assert got.is_zero
            else:
                assert got == family.partials[k - 1].scale(k)
            for pl in family.partials:
                assert commutator(pk, pl).is_zero


def test_family_degrees_match_first_coordinates():
    basis = find_admissible_basis(example_fan("p113"))
    family = build_lnd_family(basis, 3)
    grading = family.grading
    i1, i2 = basis.basis_indices
    assert degree_of(grading, family.delta.entries[i1]) == grading.degrees[i1]
    for pk in family.partials:
        assert degree_of(grading, pk.entries[i2]) == grading.degrees[i2]


NORMAL_FORM_GOLDEN = [
    ("p2", 1, (5, 3), (Fraction(8),)),
    ("p112", 2, (2, 7, 3), (Fraction(11, 2), Fraction(13, 2))),
    ("p113", 3, (1, 1, 1, 1), (Fraction(5, 3), Fraction(1), Fraction(4, 3))),
]


@pytest.mark.parametrize("name,d,mu,eta", NORMAL_FORM_GOLDEN)
def test_normal_form_golden(name, d, mu, eta):
    basis = find_admissible_basis(example_fan(name))
    family = build_lnd_family(basis, d)
    res = normal_form(mu, family)
    assert res.eta == eta
    target = family.delta + family.partials[d].scale(Fraction(mu[d]))
    assert res.conjugated == res.target == target


def _binomial_residuals(mu, eta):
    d = len(eta)
    mu = [Fraction(c) for c in mu]
    full = [Fraction(0)] + list(eta)
    out = []
    for j in range(d):
        acc = mu[j]
        for l in range(1, d - j + 1):
            acc += comb(j + l, l) * (mu[j + l] - full[j + l])
        out.append(acc)
    return out


def test_normal_form_binomial_oracle():
    # closed form solution of the triangular system, derived from the
    # bracket table alone
    rng = random.Random(29)
    families = [build_lnd_family(find_admissible_basis(example_fan(name)), d)
                for name, d in (("p2", 1), ("p112", 2), ("p113", 3))]
    families += [classify_rays(example_fan(name)).family
                 for name in ("f:5", "f:8", "f:62")]
    for family in families:
        d = family.d
        for _ in range(10):
            mu = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(d)]
            mu.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
            res = normal_form(mu, family)
            assert all(r == 0 for r in _binomial_residuals(mu, res.eta))


def test_normal_form_solution_is_unique():
    basis = find_admissible_basis(example_fan("p112"))
    family = build_lnd_family(basis, 2)
    mu = (2, 7, 3)
    res = normal_form(mu, family)
    gen = family.delta
    for k, c in enumerate(mu):
        gen = gen + family.partials[k].scale(Fraction(c))
    assert exp_ad(res.z, gen) == res.target
    for k in range(2):
        bumped = family.delta
        for j in range(2):
            c = res.eta[j] + (1 if j == k else 0)
            bumped = bumped + family.partials[j + 1].scale(c)
        assert exp_ad(bumped, gen) != res.target


def test_normal_form_makes_two_exp_ad_calls(monkeypatch):
    # eta comes from the bracket table in closed form; exp(ad Z) runs only
    # to re-verify the answer: once on the generator, once on partials[0]
    calls = []

    def counted(z, d):
        calls.append(d)
        return exp_ad(z, d)

    monkeypatch.setattr(coxring, "exp_ad", counted)
    family = classify_rays(example_fan("f:32")).family
    mu = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(32)] + [1]
    res = normal_form(mu, family)
    assert len(calls) == 2
    assert res.conjugated == res.target


def test_normal_form_rejects():
    basis = find_admissible_basis(example_fan("p1xp1"))
    family = build_lnd_family(basis, 0)
    with pytest.raises(NotApplicable):
        normal_form((1,), family)
    basis = find_admissible_basis(example_fan("p112"))
    family = build_lnd_family(basis, 2)
    with pytest.raises(NotApplicable):
        normal_form((1, 2), family)
    with pytest.raises(NotApplicable):
        normal_form((1, 2, 0), family)
    with pytest.raises(TypeError, match="0.5"):
        normal_form((1, 2, 0.5), family)


def test_derivation_str():
    dv = derivation(R3, {0: _p("x3"), 1: _p("x1*x3")})
    assert derivation_str(dv) == "(x3) d/dx1 + (x1*x3) d/dx2"
    assert derivation_str(derivation(R3, {})) == "0"
