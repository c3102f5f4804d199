"""Exact integer arithmetic on a lattice N and its dual M.

Vectors are plain tuples of Python ints.  ``LatticeVec`` lives in N (the
lattice of one-parameter subgroups), ``CharVec`` in the dual M (characters);
the two are linked only through :func:`pairing`.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import LengthMismatch, NotABasis, NotPrimitive, ZeroVector

LatticeVec = tuple[int, ...]
CharVec = tuple[int, ...]


def pairing(p: LatticeVec, e: CharVec) -> int:
    """Canonical pairing <p, e> between N and M."""
    if len(p) != len(e):
        raise LengthMismatch(f"pairing of lengths {len(p)} and {len(e)}")
    return sum(map(mul, p, e))


def vadd(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    if len(u) != len(v):
        raise LengthMismatch(f"adding lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


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
    """Rays as tuples of ints; any other coordinate (bool too) is refused."""
    out = tuple(tuple(r) for r in rays)
    for r in out:
        for c in r:
            if type(c) is not int:  # bool is an int subclass
                raise TypeError(
                    f"ray coordinates must be int, got {c!r} in {r!r}")
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
        raise LengthMismatch("parameter line solving is implemented for rank 2")
    g, x, y = xgcd(p[0], p[1])
    if g != 1:
        raise NotPrimitive(-1, tuple(p))
    e0 = (c * x, c * y)
    q = (-p[1], p[0])
    lead = q[0] if q[0] != 0 else q[1]
    if lead < 0:
        q = (-q[0], -q[1])
    return e0, q


def mat_det(rows: list[LatticeVec]) -> int:
    """Integer determinant via fraction-free Bareiss elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LengthMismatch("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_duals(rows: list[LatticeVec]) -> tuple[CharVec, ...]:
    """Dual basis vectors for an integer basis with determinant +-1, any rank.

    Entry j of the result pairs to 1 with rows[j] and to 0 with the others.
    """
    n = len(rows)
    d = mat_det(rows)
    if abs(d) != 1:
        raise NotABasis(f"determinant {d} is not a unit")
    # Dual j is row j of the cofactor matrix divided by the determinant
    # (Laplace expansion along row j); dividing by +-1 is multiplying.
    return tuple(
        tuple(d * (-1) ** (i + j)
              * mat_det([r[:i] + r[i + 1:] for k, r in enumerate(rows)
                         if k != j])
              for i in range(n))
        for j in range(n))


def _row_reduce(a: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ncols columns of a, in place.

    Returns the pivot columns; pivot row k holds a 1 in column pivots[k]
    and every other row a 0 there.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(a):
            break
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
    return pivots


def fraction_rank(rows: list[list]) -> int:
    """Exact rank of a rational matrix by Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    return len(_row_reduce(a, len(a[0]) if a else 0))


def fraction_solve(rows: list[list], rhs: list) -> list | None:
    """Unique exact solution of rows * x = rhs, or None.

    Returns None when the system is inconsistent or the solution is not
    unique; the system may be overdetermined.
    """
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    nunk = len(rows[0]) if rows else 0
    if len(_row_reduce(a, nunk)) != nunk:
        return None
    if any(a[i][nunk] != 0 for i in range(nunk, len(a))):
        return None
    return [a[i][nunk] for i in range(nunk)]
