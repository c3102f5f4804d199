"""Exact integer arithmetic on the rank 2 lattice N = Z^2 and its dual M.

Vectors are plain tuples of Python ints.  ``LatticeVec`` lives in N (the
lattice of one-parameter subgroups), ``CharVec`` in the dual M (characters);
the two are linked only through :func:`pairing`, and :func:`int_rays` is the
one gate for ray input.  Dual bases are the closed-form 2x2 inverse; the
only elimination is the fraction-free determinant :func:`mat_det`.  No
floating point is used anywhere.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import (
    LengthMismatch,
    NotABasis,
    NotPrimitive,
    UnsupportedDimension,
    ZeroVector,
)

LatticeVec = tuple[int, ...]
CharVec = tuple[int, ...]


def pairing(p: LatticeVec, e: CharVec) -> int:
    """Canonical pairing <p, e> between N and M, both of rank 2."""
    if len(p) != 2 or len(e) != 2:
        raise LengthMismatch(f"pairing of lengths {len(p)} and {len(e)}")
    return p[0] * e[0] + p[1] * e[1]


def vsub(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    if len(u) != len(v):
        raise LengthMismatch(f"subtracting lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in u)


def primitive(v: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Return (v / g, g) where g > 0 is the gcd of the coordinates.

    gcd(0, x) = |x|, so the gcd of a nonzero vector is always positive.
    """
    g = 0
    for a in v:
        g = gcd(g, a)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive direction")
    return tuple(a // g for a in v), g


def is_primitive(v: tuple[int, ...]) -> bool:
    try:
        return primitive(v)[1] == 1
    except ZeroVector:
        return False


def det2(p: LatticeVec, q: LatticeVec) -> int:
    """2x2 determinant; p, q form a lattice basis iff it is +-1."""
    if len(p) != 2 or len(q) != 2:
        raise LengthMismatch("2x2 determinant needs two vectors of length 2")
    return p[0] * q[1] - p[1] * q[0]


def int_rays(rays) -> tuple[LatticeVec, ...]:
    """Rays as int pairs; refuses other coordinates (bool too) and lengths."""
    out = tuple(tuple(r) for r in rays)
    for r in out:
        for c in r:
            if type(c) is not int:  # bool is an int subclass
                raise TypeError(
                    f"ray coordinates must be int, got {c!r} in {r!r}")
        if len(r) != 2:
            raise UnsupportedDimension(
                f"only rank 2 lattices are supported; got ray {r!r}")
    return out


def octant_coords(v: LatticeVec, duals: tuple[CharVec, ...]
                  ) -> tuple[int, ...]:
    """Coordinates a with v = -sum a_k b_k over the basis b dual to duals.

    v lies in the closed negative octant of that basis iff every a_k >= 0.
    """
    return tuple(-pairing(v, d) for d in duals)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_pairing_line(p: LatticeVec, c: int) -> tuple[CharVec, CharVec]:
    """Solve <p, e> = c over M for primitive p of length 2.

    Returns (e0, q): one particular solution and a primitive direction vector
    of the kernel line, so the full solution set is {e0 + k*q : k in Z}.  The
    sign of q is fixed by making its first nonzero coordinate positive.
    """
    if len(p) != 2:
        raise LengthMismatch("the pairing line needs a vector of length 2")
    g, x, y = xgcd(p[0], p[1])
    if g != 1:
        raise NotPrimitive(-1, tuple(p))
    e0 = (c * x, c * y)
    q = (-p[1], p[0])
    lead = q[0] if q[0] != 0 else q[1]
    if lead < 0:
        q = (-q[0], -q[1])
    return e0, q


def integer_row(row) -> list[int]:
    """An int or Fraction row times the positive lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def mat_det(rows: list[LatticeVec]) -> int:
    """Integer determinant by fraction-free (Bareiss) forward elimination.

    After step k each entry a[i][j] with i, j > k is the minor of the
    row-swapped input on rows 0..k, i and columns 0..k, j, so every division
    by the previous pivot is exact; the last pivot, signed by the row swaps,
    is the determinant.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LengthMismatch("determinant of a non-square matrix")
    a = [list(r) for r in rows]
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        prow = a[k]
        p = prow[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * prow[j]) // prev
        prev = p
    return sign * prev


def unimodular_duals(rows: list[LatticeVec]) -> tuple[CharVec, CharVec]:
    """Dual basis of a lattice basis p, q of Z^2 (determinant +-1).

    Entry j of the result pairs to 1 with rows[j] and to 0 with the other.
    """
    if len(rows) != 2:
        raise LengthMismatch("a dual basis of Z^2 needs two vectors")
    p, q = rows
    d = det2(p, q)
    if d not in (1, -1):
        raise NotABasis(f"determinant {d} is not a unit")
    # the inverse of [[p0, p1], [q0, q1]] is its adjugate times d = 1/d
    return (d * q[1], -d * q[0]), (-d * p[1], d * p[0])
