"""Independent verification oracles.

Each check here recomputes a result by a route different from the one the
main modules take: roots by walking each ray's line <p_i, e> = -1 point
by point across a box, from its first point in the box by a fixed step,
instead of by interval arithmetic, and by testing each point against every
ray where the enumeration reads only two neighbours; the bracket table by
two brackets of graded sums over fresh variables, instead of bracketing
each pair of derivations; open orbits by a nonzero m x m determinant at
rational points, on rows of ints at an int point; and the two isomorphism
classes by an invariant (annihilator lines of degree-component elements)
that does not look at how the actions were produced.

The group law, the open orbit test and the invariant read only the action
map, through its tangent: D1, D2 are the s1- and s2-linear parts of the
images.  The map is a G_a^2 action exactly when it is the identity at
s = 0 and each image F_i satisfies dF_i/ds_j = D_j(F_i) (the proof is in
``check_group_law``), and for a G_a^2 action the stabilizer of a probe f
is the kernel of s -> s1*D1(f) + s2*D2(f) (the proof is in
``annihilator_profile``).  None of them composes or substitutes: the
invariant applies each tangent derivation to each probe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

from .additive import (
    Classification,
    CompleteCollection,
    all_admissible_bases,
    classify,
    complete_collections,
)
from .coxring import (
    ActionMap,
    ClGrading,
    Derivation,
    LndFamily,
    Poly,
    PolyRing,
    _exact,
    _reduced,
    commutator,
    degree_of,
)
from .errors import (
    Inconclusive,
    InternalInconsistency,
    LengthMismatch,
    NotApplicable,
    NotHomogeneous,
    ZeroCoordinate,
)
from .fan import Fan2
from .lattice import (
    CharVec,
    LatticeVec,
    integer_row,
    mat_det,
    pairing,
    primitive,
    vneg,
)
from .roots import DemazureRoot, roots_by_ray


def _others(fan: Fan2, i: int) -> list[tuple[LatticeVec, bool]]:
    """(p_j, whether p_j spans a cone with p_i) for every ray j but i.

    The rays that span a cone with p_i are its two neighbours in the
    fan's cyclic order.
    """
    order = fan.cyclic_order
    k = order.index(i)
    beside = (order[k - 1], order[(k + 1) % len(order)])
    return [(p, j in beside) for j, p in enumerate(fan.rays) if j != i]


def _others_allow(others: list[tuple[LatticeVec, bool]], e: CharVec) -> bool:
    """Every ray of ``others`` pairs >= 0 with e, and 0 only if beside.

    With ``others`` from ``_others(fan, i)`` and <p_i, e> = -1 this is the
    full definition of a root of ray i, cone condition included.
    """
    for p, beside in others:
        w = pairing(p, e)
        if w < 0 or (w == 0 and not beside):
            return False
    return True


def _line_in_box(a: int, b: int, box: int
                 ) -> tuple[CharVec, CharVec, int]:
    """(first point, step, count) of the line a*ex + b*ey = -1 in the box.

    The line's points with both coordinates in [-box, box] are first +
    k*step for k in range(count); count is 0 when there are none.  For
    b != 0 the columns ex whose point has |ey| <= box form an interval; the
    first of them with an integer ey is found by exact division, within |b|
    columns as gcd(a, b) = 1, and the step is (|b|, -a*sign(b)).  For b = 0
    (so a = +-1) the line is the column ex = -a, walked upwards.
    """
    if not b:
        if -box <= -a <= box:
            return (-a, -box), (0, 1), 2 * box + 1
        return (0, 0), (0, 0), 0
    # |ey| <= box reads -1 - r <= a*ex <= r - 1 with r = |b|*box
    r, c = abs(b) * box, abs(a)
    lo, hi = -box, box
    if a > 0:
        lo, hi = max(lo, -((r + 1) // c)), min(hi, (r - 1) // c)
    elif a < 0:
        lo, hi = max(lo, -((r - 1) // c)), min(hi, (r + 1) // c)
    elif not r:
        hi = lo - 1  # the row ey = -b lies outside the box
    ex, end = lo, min(hi, lo + abs(b) - 1)
    ey, rem = divmod(-1 - a * ex, b)
    while rem and ex < end:
        ex += 1
        ey, rem = divmod(-1 - a * ex, b)
    if rem or ex > hi:
        return (0, 0), (0, 0), 0
    return (ex, ey), (abs(b), -a if b > 0 else a), (hi - ex) // abs(b) + 1


def brute_force_roots(fan: Fan2, box: int = 10) -> frozenset[DemazureRoot]:
    """All roots with both coordinates in [-box, box], by direct line scan.

    A root e of ray i lies on the line <p_i, e> = -1, so only that line's
    points in the box are visited, walked from the first one by a fixed
    step (see ``_line_in_box``).  Each point is tested against every other
    ray j: its pairing must be >= 0, and a pairing of 0 needs the two rays
    to span a cone.  Along the walk the pairing at step k is w0 + k*dw,
    with w0 and dw the pairings of p_j with the first point and with the
    step, so the walk takes two pairings per line and ray and tests each
    point with no function call.
    """
    found = set()
    for i, (a, b) in enumerate(fan.rays):
        first, step, n = _line_in_box(a, b, box)
        if not n:
            continue
        steps = range(n)
        for p, beside in _others(fan, i):
            w0, dw = pairing(p, first), pairing(p, step)
            steps = ([k for k in steps if w0 + k * dw >= 0] if beside
                     else [k for k in steps if w0 + k * dw > 0])
            if not steps:
                break
        (x0, y0), (sx, sy) = first, step
        found.update(DemazureRoot(e=(x0 + k * sx, y0 + k * sy), ray=i)
                     for k in steps)
    return frozenset(found)


def check_roots_box_oracle(fan: Fan2, box: int = 10) -> bool:
    """Direct scan of the box agrees with the interval enumeration.

    Also certifies that no enumerated root escapes the box, so for fans
    whose roots fit inside it the two sets coincide outright.
    """
    enumerated = {r for rs in roots_by_ray(fan) for r in rs}
    if any(max(abs(r.e[0]), abs(r.e[1])) > box for r in enumerated):
        return False
    return brute_force_roots(fan, box) == enumerated


def check_cone_condition_redundant(fan: Fan2) -> bool:
    """Each root e of ray i meets the full definition, cone condition too.

    <p_i, e> = -1, and every other ray pairs >= 0 with e, and 0 only when
    it spans a cone with p_i; the enumeration reads only p_i's neighbours.
    """
    for i, roots in enumerate(roots_by_ray(fan)):
        if roots:
            others = _others(fan, i)
            if not all(pairing(fan.rays[i], r.e) == -1
                       and _others_allow(others, r.e) for r in roots):
                return False
    return True


def check_collections_bases_bijection(
        fan: Fan2, collections: Sequence[CompleteCollection] | None = None
) -> bool:
    """Unordered admissible bases and complete collections match one to one.

    ``collections`` are the fan's complete collections, as ``classify``
    keeps them; without them they are computed here.  The bases come from
    the search over all ray pairs, not only the cones the collections
    scan.
    """
    bases = all_admissible_bases(fan.rays, validate=False)
    colls = (complete_collections(fan) if collections is None
             else collections)
    base_sets = {frozenset(b.basis_indices) for b in bases}
    coll_sets = {frozenset(c.basis_indices) for c in colls}
    return (base_sets == coll_sets
            and len(bases) == 2 * len(colls)
            and len(coll_sets) == len(colls))


def _graded_sum(ring: PolyRing,
                terms: Sequence[tuple[int, tuple[int, ...], Derivation]]
                ) -> Derivation:
    """The sum of c * x^pad * D over the (c, pad, D) in ``terms``.

    ``ring`` is D's ring with fresh generators appended (t, u for the
    bracket table), ``pad`` holds their exponents, each c is a nonzero int
    and the pads are distinct.  Entry i sums the padded numerators of the
    i-th entries over one lcm denominator; as the pads differ, no two terms
    land on the same monomial.  The entries of the fresh generators are
    zero.
    """
    by_entry: dict[int, list[tuple[int, tuple[int, ...], Poly]]] = {}
    for c, pad, D in terms:
        for i, p in enumerate(D.entries):
            if p.num:
                by_entry.setdefault(i, []).append((c, pad, p))
    entries = [Poly.zero(ring)] * ring.nvars
    for i, parts in by_entry.items():
        den = lcm(*(p.den for _, _, p in parts))
        num = {}
        for c, pad, p in parts:
            k = c * (den // p.den)
            for e, a in p.num.items():
                num[e + pad] = a * k
        entries[i] = _reduced(ring, num, den)
    return Derivation(ring, tuple(entries))


def check_bracket_table(family: LndFamily) -> bool:
    """[delta, partials[k]] = k*partials[k-1]; the partials commute.

    Checked with two brackets instead of d + 1 + d(d+1)/2 pairwise ones.
    Append fresh generators t, u to the ring and form the graded sums
    P(t) = sum_k t^k partials[k], P(u) = sum_l u^l partials[l] and
    W = sum_{k>=1} k t^k partials[k-1].  Then

        [delta, P(t)] == W   and   [P(t), P(u)] == 0

    hold exactly when the pairwise table does.  Proof: t and u are fresh,
    so no derivation of the family moves them or contains them; hence
    [t^k A, u^l B] = t^k u^l [A, B] for any two of them, and
    [delta, P(t)] = sum_k t^k [delta, partials[k]],
    [P(t), P(u)] = sum_{k,l} t^k u^l [partials[k], partials[l]].
    Different (k, l) give disjoint monomials, so each sum equals W, or
    zero, exactly when each of its t^k (or t^k u^l) coefficients does:
    that is each pairwise identity, [partials[k], partials[l]] = 0 for
    k < l following from antisymmetry.  The sums carry no ``char`` tag, so
    derivations are compared as maps, by their entries.
    """
    ring = PolyRing(family.ring.names + ("t", "u"))
    parts = family.partials
    delta = _graded_sum(ring, [(1, (0, 0), family.delta)])
    p_t = _graded_sum(ring, [(1, (k, 0), p) for k, p in enumerate(parts)])
    p_u = _graded_sum(ring, [(1, (0, k), p) for k, p in enumerate(parts)])
    w = _graded_sum(ring, [(k, (k, 0), p)
                           for k, p in enumerate(parts[:-1], start=1)])
    return commutator(delta, p_t) == w and commutator(p_t, p_u).is_zero


def _read_at_zero(action: ActionMap
                  ) -> tuple[bool, tuple[Derivation, Derivation] | None]:
    """Whether F(x, 0) = x, and the tangent derivations D1, D2 at s = 0.

    One pass over the terms of each image F_i reads both: its terms free
    of s1, s2 must be x_i, and D_j(x_i) is its s_j-linear coefficient (the
    terms with s_j to the first power and no other parameter, s_j struck
    out).  The tangent is None when an image involves a parameter other
    than s1, s2.  The result is kept on the action, so the oracles of one
    report read each action once.
    """
    if action._at_zero is not None:
        return action._at_zero
    ring = action.ring
    m = action.ncoords
    j1, j2 = ring.index("s1"), ring.index("s2")
    spare = [j for j in range(m, ring.nvars) if j not in (j1, j2)]
    identity = True
    tangent: dict[int, list[Poly]] | None = {
        j1: [Poly.zero(ring)] * ring.nvars, j2: [Poly.zero(ring)] * ring.nvars}
    for i, img in enumerate(action.images):
        at_zero: dict = {}
        linear: dict[int, dict] = {j1: {}, j2: {}}
        for e, c in img.num.items():
            order = e[j1] + e[j2]
            if order == 0:
                at_zero[e] = c
            if any(e[j] for j in spare):
                tangent = None
            elif order == 1:
                j = j1 if e[j1] else j2
                linear[j][e[:j] + (0,) + e[j + 1:]] = c
        if identity and _reduced(ring, at_zero, img.den) != Poly.var(ring, i):
            identity = False
        if tangent is not None:
            for j, num in linear.items():
                if num:
                    tangent[j][i] = _reduced(ring, num, img.den)
    pair = None if tangent is None else (
        Derivation(ring, tuple(tangent[j1])),
        Derivation(ring, tuple(tangent[j2])))
    object.__setattr__(action, "_at_zero", (identity, pair))
    return action._at_zero


def check_identity_at_zero(action: ActionMap) -> bool:
    """F(x, 0) = x: the terms of each image F_i free of s1, s2 are x_i."""
    return _read_at_zero(action)[0]


def check_group_law(action: ActionMap) -> bool:
    """F is a G_a^2 action: F(x, 0) = x and dF_i/ds_j = D_j(F_i).

    D1, D2 are the action's tangent derivations (see ``_read_at_zero``):
    D_j sends x_i to the s_j-linear coefficient of F_i and moves no
    parameter.  A map whose images involve a parameter other than s1, s2
    is refused, and F(x, 0) = x is read in the same pass as the tangent,
    with the verdict ``check_identity_at_zero`` reports.
    F(x, 0) = x and F(F(x, s), r) = F(x, s + r) hold exactly when the
    two equations do, and checking them differentiates each image once and
    applies each D_j to it once, with no composition or substitution; an
    image that is x_i itself needs neither, as both sides are zero.

    Necessity: differentiate F_i(F(x, s), r) = F_i(x, s + r) in s_j at
    s = 0; as F(x, 0) = x, the left side becomes sum_k D_j(x_k) dF_i/dx_k,
    which is D_j(F_i), and the right side dF_i/ds_j.

    Sufficiency, in four steps.  (1) D1, D2 have coefficients free of s,
    so they commute with d/ds1, d/ds2 and with setting s = 0; by induction
    the s1^a s2^b derivative of F at s = 0 is D1^a D2^b (x), so the
    equations fix every Taylor coefficient of F in s.  (2) Mixed partials
    of F agree, so D1 D2 and D2 D1 agree on every x_i; both derivations
    kill the parameters, so the derivation [D1, D2] vanishes and D1, D2
    commute.  (3) F is polynomial in s, so D1^a(x_i) and D2^b(x_i) vanish
    for large a, b: D1 and D2 are locally nilpotent on every generator,
    hence on the whole ring.  (4) Therefore
    F = sum s1^a s2^b / (a! b!) D1^a D2^b (x) = exp(s1*D1 + s2*D2)(x),
    and for commuting locally nilpotent D1, D2 the automorphisms
    exp(s1*D1 + s2*D2) form a homomorphic image of G_a^2; composing two
    of them adds their parameters, so F(F(x, s), r) = F(x, s + r).
    """
    identity, tangent = _read_at_zero(action)
    if not identity or tangent is None:
        return False
    d1, d2 = tangent
    j1, j2 = action.ring.index("s1"), action.ring.index("s2")
    # as F(x, 0) = x, an image with one term is x_i itself: it reads
    # 0 = D_j(x_i), and D_j(x_i), its s_j-linear part, is zero
    return all(img.diff(j1) == d1.apply(img) and img.diff(j2) == d2.apply(img)
               for img in action.images if len(img.num) > 1)


def check_homogeneous_images(action: ActionMap, grading: ClGrading) -> bool:
    """Every coordinate image is graded of the coordinate's own degree."""
    try:
        for i, p in enumerate(action.images):
            if degree_of(grading, p) != grading.degrees[i]:
                return False
    except NotHomogeneous:
        return False
    return True


def check_grading_relations(basis, grading: ClGrading) -> bool:
    """The degrees of the coordinates kill both character relations."""
    m = len(basis.rays)
    for w in basis.duals:
        for k in range(m - 2):
            if sum(pairing(p, w) * grading.degrees[i][k]
                   for i, p in enumerate(basis.rays)):
                return False
    return True


def check_root_lnd_degree_zero(c: Classification) -> bool:
    """Every Demazure root's derivation preserves the class group grading.

    The root e of ray i gives prod_{j != i} x_j^<p_j,e> d/dx_i, whose entry
    has degree sum_{j != i} <p_j, e> deg x_j.  As <p_i, e> = -1, that is
    deg x_i exactly when sum_j <p_j, e> deg x_j = 0, so each root is
    checked from its pairings with the rays, without building the
    derivation.  A character with no such derivation fails: one that pairs
    other than -1 with its own ray, or negatively with another ray.
    """
    assert c.family is not None and c.root_system is not None
    columns = tuple(zip(*c.family.grading.degrees))
    for i, per in enumerate(c.root_system.per_ray):
        for root in per:
            w = [pairing(p, root.e) for p in c.fan.rays]
            if (w[i] != -1 or any(v < 0 for j, v in enumerate(w) if j != i)
                    or any(sum(a * b for a, b in zip(w, col))
                           for col in columns)):
                return False
    return True


@lru_cache(maxsize=16)
def _seeded_points(seed: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The five points ``check_open_orbit`` tries, drawn from Random(seed).

    Each coordinate is randint(1, 9), point after point, so a verdict does
    not depend on how many points an earlier call needed.
    """
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(1, 9) for _ in range(m))
                 for _ in range(5))


def _tangent_row(d: Derivation, pt: Sequence) -> list:
    """(d(x_1), ..., d(x_m)) at pt, times the lcm L of their denominators.

    Entry i is the numerator of d(x_i) evaluated at pt, times L // den; a
    term that involves a generator past x_m (a parameter) counts as zero
    there.  For an int point every entry is an int.
    """
    m = len(pt)
    moved = [(i, q) for i, q in enumerate(d.entries[:m]) if q.num]
    den = lcm(*(q.den for _, q in moved))
    row = [0] * m
    for i, q in moved:
        total = 0
        for e, c in q.num.items():
            if not any(e[m:]):
                total += c * prod(map(pow, pt, e))
        row[i] = total * (den // q.den)
    return row


def check_open_orbit(d1: Derivation, d2: Derivation, grading: ClGrading, *,
                     point: Sequence | None = None, seed: int = 0) -> bool:
    """Exact full-rank test for the orbit through a rational point.

    The rows are the two vector fields evaluated at the point followed by
    the m - 2 quasitorus directions read off the grading; a nonzero m x m
    determinant means the orbit of the combined group is dense, which is
    what the action construction promises.  Each vector field row is
    scaled by the lcm of its entries' denominators, which leaves the
    determinant's zeroness as it was, so at an int point every row is of
    ints.  Only a point with a non-integer coordinate leaves fractions in
    the rows, and each row is then cleared of its own denominators.  A
    rank drop at one point can be bad luck, so without an explicit point
    five seeded points are tried.
    """
    m = len(grading.degrees)
    degrees = grading.degrees

    def full_rank_at(pt: Sequence) -> bool:
        rows = [_tangent_row(d1, pt), _tangent_row(d2, pt)]
        for k in range(m - 2):
            rows.append([g[k] * c for g, c in zip(degrees, pt)])
        if any(type(c) is not int for c in pt):
            rows = [integer_row(r) for r in rows]
        return mat_det(rows) != 0

    if point is not None:
        pt = [c if type(c) is int else _exact(c) for c in point]
        if len(pt) != m:
            raise LengthMismatch(f"need {m} coordinates, got {len(pt)}")
        if any(c == 0 for c in pt):
            raise ZeroCoordinate(
                "orbit test points must avoid the coordinate hyperplanes")
        return full_rank_at(pt)
    return any(full_rank_at(pt) for pt in _seeded_points(seed, m))


class ActionClass(Enum):
    NORMALIZED = "normalized"
    NON_NORMALIZED = "non_normalized"


@dataclass(frozen=True)
class ProbeResult:
    label: str
    kind: str  # "full", "line" or "none"
    line: tuple[int, int] | None


@dataclass(frozen=True)
class AnnihilatorReport:
    """Stabilizer lines of probe elements in one graded component.

    For each probe f the subgroup {s : s.f = f} of the acting group is
    computed exactly, as the kernel of s -> s1*D1(f) + s2*D2(f) for the
    action's tangent derivations D1, D2; for a G_a^2 action that kernel is
    the stabilizer (see ``annihilator_profile``).  It is trivial, a line
    through the origin, or the full group.  A probe with full stabilizer
    (the distinguished monomial probe always has one) carries no
    information and is excluded from ``lines``.
    """

    probes: tuple[ProbeResult, ...]
    lines: tuple[tuple[int, int], ...]
    full_labels: tuple[str, ...]


def _kernel(a: Poly, b: Poly) -> tuple[str, tuple[int, int] | None]:
    """The kernel of s -> s1*a + s2*b as full, a line, or trivial.

    The kernel is a line exactly when a and b are proportional: a = alpha*g
    and b = beta*g with (alpha, beta) != 0, and then it runs along
    (beta, -alpha), made primitive and sign-normalized.
    """
    if not a.num and not b.num:
        return "full", None
    if not a.num:
        alpha, beta = 0, 1
    elif not b.num:
        alpha, beta = 1, 0
    else:
        if a.num.keys() != b.num.keys():
            return "none", None
        # the ratio of one coefficient pair, alpha/beta = (p/a.den)/(q/b.den),
        # must hold at every monomial
        e0 = next(iter(a.num))
        p, q = a.num[e0], b.num[e0]
        if any(c * q != b.num[e] * p for e, c in a.num.items()):
            return "none", None
        alpha, beta = p * b.den, q * a.den
    w, _ = primitive((beta, -alpha))
    return "line", (vneg(w) if w < (0, 0) else w)


def annihilator_profile(action: ActionMap,
                        family: LndFamily) -> AnnihilatorReport:
    """The stabilizer of each probe, read off the action's tangent.

    The probes are x_{i2} (i2 the second basis index), the x_{i2}-entry
    M_k of each partials[k], and x_{i2} +- M_1 when d >= 1.  The tangent
    derivations D1, D2 are read off the images (see ``_read_at_zero``); the
    stabilizer of a probe f is the kernel of s -> s1*D1(f) + s2*D2(f).

    Proof, for a map that is a G_a^2 action (``check_group_law`` certifies
    this in the same report, and its proof shows that the action is then
    s -> exp(s1*D1 + s2*D2) with these D1, D2 commuting and locally
    nilpotent).  In characteristic 0 a closed subgroup of G_a^2 is a
    linear subspace, so Stab(f) is the set of v whose whole line t*v fixes
    f.  With N = v1*D1 + v2*D2 locally nilpotent,
    exp(t*N)f - f = t*N(f) + t^2*N^2(f)/2 + ... vanishes for all t exactly
    when its t-linear coefficient N(f) does, since N(f) = 0 kills every
    later term.  So v lies in Stab(f) exactly when
    v1*D1(f) + v2*D2(f) = 0.  The action enters only through its map,
    not through the derivations that built it, and no probe is
    substituted.
    """
    basis = family.basis
    i2 = basis.basis_indices[1]
    ring = family.ring
    x2 = Poly.var(ring, i2)
    probes: list[tuple[str, Poly]] = [(ring.names[i2], x2)]
    for k, part in enumerate(family.partials):
        probes.append((f"M{k}", part.entries[i2]))
    if family.d >= 1:
        m1 = family.partials[1].entries[i2]
        probes.append((f"{ring.names[i2]}+M1", x2 + m1))
        probes.append((f"{ring.names[i2]}-M1", x2 - m1))
    tangent = _read_at_zero(action)[1]
    if tangent is None:
        raise InternalInconsistency("an image involves spare parameters")
    d1, d2 = tangent
    results = []
    lines = set()
    full = []
    for label, f in probes:
        kind, line = _kernel(d1.apply(f), d2.apply(f))
        results.append(ProbeResult(label=label, kind=kind, line=line))
        if kind == "line":
            lines.add(line)
        elif kind == "full":
            full.append(label)
    return AnnihilatorReport(probes=tuple(results),
                             lines=tuple(sorted(lines)),
                             full_labels=tuple(full))


def classify_profile(report: AnnihilatorReport) -> ActionClass:
    """Two or more stabilizer lines only occur for the normalized class."""
    n = len(report.lines)
    if n >= 2:
        return ActionClass.NORMALIZED
    if n == 1:
        return ActionClass.NON_NORMALIZED
    raise Inconclusive(
        "no stabilizer lines found; the profile does not separate the classes")


def distinguish_actions(c: Classification) -> dict[str, ActionClass]:
    """Assign each emitted action its class by the annihilator invariant."""
    if not c.admits_action or c.d is None or c.family is None:
        raise NotApplicable("need a classification computed with actions")
    if c.d == 0:
        raise NotApplicable("a single class leaves nothing to distinguish")
    assert c.normalized_action is not None
    assert c.non_normalized_action is not None
    return {
        "normalized": classify_profile(
            annihilator_profile(c.normalized_action, c.family)),
        "non_normalized": classify_profile(
            annihilator_profile(c.non_normalized_action, c.family)),
    }


def verification_report(c: Classification, *, box: int = 10,
                        seed: int = 0) -> dict:
    """Run every applicable oracle against a classification.

    Returns a JSON-friendly dict with one boolean per named check and an
    ``all_pass`` aggregate.  The root box oracle scans the half-width
    ``box`` widened to hold every enumerated root, and ``"box"`` reads the
    half-width scanned: the roots of a ray lie on a finite stretch of its
    line, so no box is too small for valid input, and a wider scan still
    finds a missing root inside the box asked for.
    """
    if c.admits_action and c.family is None:
        c = classify(c.fan)
    fan = c.fan
    reach = max((max(map(abs, r.e)) for rs in roots_by_ray(fan)
                 for r in rs), default=0)
    box = max(box, reach)
    checks: dict[str, bool] = {}
    checks["roots_box_oracle"] = check_roots_box_oracle(fan, box)
    checks["cone_condition_redundant"] = check_cone_condition_redundant(fan)
    checks["collections_bases_bijection"] = \
        check_collections_bases_bijection(fan, c.collections)
    if c.admits_action:
        checks["classes_match_wideness"] = (c.num_classes == 1) == bool(c.wide)
        assert c.family is not None and c.normalized_action is not None
        checks["bracket_table"] = check_bracket_table(c.family)
        grading = c.family.grading
        checks["grading_relations"] = check_grading_relations(c.basis, grading)
        checks["root_lnd_degree_zero"] = check_root_lnd_degree_zero(c)
        for label, act in (("normalized", c.normalized_action),
                           ("non_normalized", c.non_normalized_action)):
            if act is None:
                continue
            checks[f"identity_at_zero_{label}"] = check_identity_at_zero(act)
            checks[f"group_law_{label}"] = check_group_law(act)
            checks[f"homogeneous_{label}"] = \
                check_homogeneous_images(act, grading)
            tangent = _read_at_zero(act)[1]
            checks[f"open_orbit_{label}"] = tangent is not None and \
                check_open_orbit(*tangent, grading, seed=seed)
        if c.d and c.d >= 1:
            # a map with no tangent has no profile to read: the group law
            # and open orbit lines above already fail it
            if any(_read_at_zero(act)[1] is None
                   for act in (c.normalized_action, c.non_normalized_action)):
                checks["distinguish_actions"] = False
            else:
                try:
                    got = distinguish_actions(c)
                    checks["distinguish_actions"] = (
                        got["normalized"] == ActionClass.NORMALIZED
                        and got["non_normalized"]
                        == ActionClass.NON_NORMALIZED)
                except Inconclusive:
                    checks["distinguish_actions"] = False
    else:
        checks["classes_match_wideness"] = c.num_classes == 0
    return {
        "rays": [list(r) for r in fan.rays],
        "admits_action": c.admits_action,
        "num_classes": c.num_classes,
        "d": c.d,
        "wide": c.wide,
        "box": box,
        "seed": seed,
        "checks": checks,
        "all_pass": all(checks.values()),
    }
