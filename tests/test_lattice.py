import random
import re
from fractions import Fraction
from itertools import permutations
from math import gcd, prod
from operator import mul

import pytest

from toric_additive.errors import LengthMismatch, NotABasis, NotPrimitive, ZeroVector
from toric_additive.lattice import (
    det2,
    int_rays,
    integer_row,
    is_primitive,
    mat_det,
    octant_coords,
    pairing,
    primitive,
    solve_pairing_line,
    unimodular_duals,
    vneg,
    vsub,
    xgcd,
)


def test_pairing_values():
    assert pairing((1, 0), (-1, 0)) == -1
    assert pairing((-1, -1), (1, -1)) == 0
    assert pairing((-1, -2), (2, -1)) == 0
    assert pairing((3, 5), (7, -2)) == 11


def test_pairing_matches_sum_of_products():
    rng = random.Random(30)
    for bits in (4, 40, 333):  # 2^333 > 10^100
        for _ in range(200):
            p, e = ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(2)]
                    for _ in range(2))
            assert pairing(tuple(p), tuple(e)) == sum(map(mul, p, e))


def test_pairing_length_mismatch():
    for p, e in (((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0))):
        with pytest.raises(LengthMismatch,
                           match=f"lengths {len(p)} and {len(e)}"):
            pairing(p, e)
    # N and M have rank 2
    with pytest.raises(LengthMismatch, match="lengths 3 and 3"):
        pairing((1, 0, 0), (1, 0, 0))


def test_vector_helpers():
    assert vsub((1, 2), (3, -5)) == (-2, 7)
    assert vneg((4, -1)) == (-4, 1)
    assert tuple(3 * a for a in (2, -1)) == (6, -3)


def test_primitive_examples():
    assert primitive((2, 4)) == ((1, 2), 2)
    assert primitive((-1, 0)) == ((-1, 0), 1)
    assert primitive((-3, -3)) == ((-1, -1), 3)


def test_primitive_zero_vector():
    with pytest.raises(ZeroVector):
        primitive((0, 0))


def test_primitive_idempotent_random():
    rng = random.Random(7)
    for _ in range(300):
        v = (rng.randint(-50, 50), rng.randint(-50, 50))
        if v == (0, 0):
            continue
        w, g = primitive(v)
        assert tuple(g * a for a in w) == v
        assert g == gcd(abs(v[0]), abs(v[1]))
        again, g2 = primitive(w)
        assert again == w and g2 == 1
        assert is_primitive(w)


def test_is_basis():
    assert abs(det2((1, 0), (0, 1))) == 1
    assert abs(det2((1, 0), (1, 1))) == 1
    assert abs(det2((1, 0), (-1, -2))) != 1
    assert det2((1, 0), (-1, -2)) == -2


def test_dual_basis_examples():
    assert unimodular_duals([(1, 0), (0, 1)]) == ((1, 0), (0, 1))
    assert unimodular_duals([(1, 0), (1, 1)]) == ((1, -1), (0, 1))
    assert unimodular_duals([(0, 1), (-1, -1)]) == ((-1, 1), (-1, 0))


def test_dual_basis_rejects_non_basis():
    with pytest.raises(NotABasis, match="determinant -2 is not a unit"):
        unimodular_duals([(1, 0), (-1, -2)])
    with pytest.raises(NotABasis, match="determinant 0 is not a unit"):
        unimodular_duals([(1, 2), (2, 4)])
    with pytest.raises(LengthMismatch):
        unimodular_duals([(1, 0, 0), (0, 1, 0)])


def test_dual_basis_kronecker_random():
    rng = random.Random(11)
    found = 0
    while found < 200:
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        q = (rng.randint(-9, 9), rng.randint(-9, 9))
        if abs(det2(p, q)) != 1:
            continue
        found += 1
        duals = unimodular_duals([p, q])
        for i, orig in enumerate((p, q)):
            for j, dual in enumerate(duals):
                assert pairing(orig, dual) == (1 if i == j else 0)


def test_negative_octant_coords():
    std = unimodular_duals([(1, 0), (0, 1)])
    assert octant_coords((-1, -1), std) == (1, 1)
    assert octant_coords((-2, -1), std) == (2, 1)
    assert octant_coords((1, 0), std) == (-1, 0)


def test_negative_octant_reconstruction_random():
    rng = random.Random(13)
    for _ in range(200):
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        q = (rng.randint(-9, 9), rng.randint(-9, 9))
        if abs(det2(p, q)) != 1:
            continue
        duals = unimodular_duals([p, q])
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        a1, a2 = octant_coords(v, duals)
        assert (-a1 * p[0] - a2 * q[0], -a1 * p[1] - a2 * q[1]) == v


def test_int_rays_refuses_non_int_coordinates():
    assert int_rays([[1, 0], (0, 1)]) == ((1, 0), (0, 1))
    for bad in (1.5, 1.0, "1", True, Fraction(1)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            int_rays([(bad, 0), (0, 1)])


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1), (-3, -9)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(abs(a), abs(b))
        assert a * x + b * y == g


def test_solve_pairing_line_examples():
    e0, q = solve_pairing_line((1, 0), -1)
    assert pairing((1, 0), e0) == -1 and pairing((1, 0), q) == 0
    e0, q = solve_pairing_line((-1, -1), -1)
    assert pairing((-1, -1), e0) == -1 and pairing((-1, -1), q) == 0


def test_solve_pairing_line_rejects_non_primitive():
    with pytest.raises(NotPrimitive):
        solve_pairing_line((2, 4), -1)


def test_solve_pairing_line_contract_random():
    # the full integer solution set of <p, e> = c must be e0 + Z*q
    rng = random.Random(17)
    for _ in range(300):
        v = (rng.randint(-50, 50), rng.randint(-50, 50))
        if v == (0, 0):
            continue
        p, _ = primitive(v)
        c = rng.randint(-5, 5)
        e0, q = solve_pairing_line(p, c)
        assert pairing(p, e0) == c
        assert pairing(p, q) == 0
        assert is_primitive(q)
        # deterministic sign: first nonzero coordinate of q is positive
        assert q[0] > 0 or (q[0] == 0 and q[1] > 0)
        # any other solution in a small window differs by a multiple of q
        for ex in range(-6, 7):
            for ey in range(-6, 7):
                if pairing(p, (ex, ey)) != c:
                    continue
                dx, dy = ex - e0[0], ey - e0[1]
                if q[0]:
                    assert dx % q[0] == 0 and dy * q[0] == dx * q[1]
                else:
                    assert dx == 0 and dy % q[1] == 0


def test_mat_det():
    assert mat_det([(1, 0), (0, 1)]) == 1
    assert mat_det([(0, 1), (1, 0)]) == -1
    assert mat_det([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert mat_det([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert mat_det([(1, 2), (2, 4)]) == 0
    assert mat_det([]) == 1


def test_full_rank_is_nonzero_det():
    # a square rational matrix has full rank iff its rows, each cleared of
    # denominators, have a nonzero integer determinant
    assert mat_det([[1, 0], [0, 1]]) != 0
    assert mat_det([[1, 2], [2, 4]]) == 0
    assert mat_det([[0, 0], [0, 0]]) == 0
    assert integer_row([Fraction(1, 2), 1, Fraction(-2, 3), 0]) == \
        [3, 6, -4, 0]
    assert integer_row([]) == []
    half = Fraction(1, 2)
    assert mat_det([integer_row(r) for r in [[half, 1], [3, 7]]]) != 0
    assert mat_det([integer_row(r) for r in [[half, 1], [1, 2]]]) == 0


def _leibniz_det(a):
    """Determinant as the signed sum over all permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j]
                         for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod(a[i][j] for i, j in enumerate(perm))
    return total


def test_elimination_properties_random():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(0, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        assert mat_det(ab) == mat_det(a) * mat_det(b)
        # about half the entries zero, so pivots go missing and rows are
        # swapped after the first pivot too
        c = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(n)]
             for _ in range(n)]
        for m in (a, b, c):
            assert mat_det(m) == _leibniz_det(m)
