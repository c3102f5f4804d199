import random
from fractions import Fraction
from math import comb

import pytest

from toric_additive.additive import classify_rays, find_admissible_basis
from toric_additive.catalog import example_fan
from toric_additive.coxring import (
    ActionMap,
    Poly,
    PolyRing,
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
    torus_conjugate,
    zero_derivation,
)
from toric_additive.errors import (
    NegativeExponent,
    NotApplicable,
    NotCommuting,
    NotHomogeneous,
    NotLocallyNilpotent,
    VariableMismatch,
    ZeroTorusEntry,
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


def test_poly_eval_and_subs():
    p = _p("x1^2*x2 - 1/2*x3")
    vals = [Fraction(2), Fraction(3), Fraction(4)] + [Fraction(0)] * 4
    assert p.eval(vals) == 12 - 2
    q = p.subs({0: _p("x2 + 1")})
    assert q == _p("(x2 + 1)^2*x2 - 1/2*x3")


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


def test_derivation_leibniz():
    rng = random.Random(13)
    dv = derivation(R3, {0: _p("x2*x3"), 1: _p("x3^2")})
    for _ in range(40):
        a = _random_poly(rng, R3)
        b = _random_poly(rng, R3)
        assert dv.apply(a * b) == dv.apply(a) * b + a * dv.apply(b)


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
        exp_action(a, zero_derivation(R3))
    z = derivation(R3, {0: _p("x2"), 1: _p("x1")})
    with pytest.raises(NotLocallyNilpotent):
        exp_ad(z, derivation(R3, {0: _p("1")}))


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
                 for name in ("f:5", "f:8")]
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


def test_derivation_str():
    dv = derivation(R3, {0: _p("x3"), 1: _p("x1*x3")})
    assert derivation_str(dv) == "(x3) d/dx1 + (x1*x3) d/dx2"
    assert derivation_str(zero_derivation(R3)) == "0"
