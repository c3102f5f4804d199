"""Independent verification oracles.

Each check here recomputes a result by a route different from the one the
main modules take: roots by brute-force box scan instead of interval
arithmetic, the group law by actual composition of polynomial maps, open
orbits by exact rank computations at rational points, and the two
isomorphism classes by an invariant (annihilator lines of degree-component
elements) that does not look at how the actions were produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Sequence

from .additive import (
    Classification,
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
    compose,
    degree_of,
)
from .errors import (
    Inconclusive,
    InternalInconsistency,
    NotApplicable,
    NotHomogeneous,
    ZeroCoordinate,
)
from .fan import Fan2, adjacent
from .lattice import fraction_rank, pairing
from .roots import DemazureRoot, roots_by_ray


def brute_force_roots(fan: Fan2, box: int = 10, *,
                      cone_condition: bool = True
                      ) -> frozenset[DemazureRoot]:
    """All roots with both coordinates in [-box, box], by direct scan."""
    found = set()
    for ex in range(-box, box + 1):
        for ey in range(-box, box + 1):
            e = (ex, ey)
            vals = [pairing(p, e) for p in fan.rays]
            for i, v in enumerate(vals):
                if v != -1:
                    continue
                if any(w < 0 for j, w in enumerate(vals) if j != i):
                    continue
                if cone_condition and any(
                        w == 0 and not adjacent(fan, i, j)
                        for j, w in enumerate(vals) if j != i):
                    continue
                found.add(DemazureRoot(e=e, ray=i))
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
    """On complete rank 2 fans the adjacency condition filters nothing."""
    with_it = roots_by_ray(fan, cone_condition=True)
    without = roots_by_ray(fan, cone_condition=False)
    return with_it == without


def check_collections_bases_bijection(fan: Fan2) -> bool:
    """Unordered admissible bases and complete collections match one to one."""
    bases = all_admissible_bases(fan.rays, validate=False)
    colls = complete_collections(fan)
    base_sets = {frozenset(b.basis_indices) for b in bases}
    coll_sets = {frozenset(c.basis_indices) for c in colls}
    return (base_sets == coll_sets
            and len(bases) == 2 * len(colls)
            and len(coll_sets) == len(colls))


def check_bracket_table(family: LndFamily) -> bool:
    """[delta, partials[k]] = k*partials[k-1]; the partials commute."""
    from .coxring import commutator, zero_derivation

    zero = zero_derivation(family.ring)
    for k, part in enumerate(family.partials):
        got = commutator(family.delta, part)
        expected = zero if k == 0 else family.partials[k - 1].scale(k)
        if got != expected:
            return False
    for k in range(len(family.partials)):
        for l in range(k + 1, len(family.partials)):
            if not commutator(family.partials[k], family.partials[l]).is_zero:
                return False
    return True


def check_identity_at_zero(action: ActionMap) -> bool:
    at_zero = action.at_params(0, 0)
    return all(p == Poly.var(action.ring, i) for i, p in enumerate(at_zero))


def check_group_law(action: ActionMap) -> bool:
    """Acting by s then by r must equal acting by s + r, exactly."""
    ring = action.ring
    composed = compose(action, action)
    shift = {
        ring.index("s1"): Poly.var(ring, ring.index("s1"))
        + Poly.var(ring, ring.index("r1")),
        ring.index("s2"): Poly.var(ring, ring.index("s2"))
        + Poly.var(ring, ring.index("r2")),
    }
    target = tuple(p.subs(shift) for p in action.images)
    return composed.images == target


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
    """Every Demazure root's derivation preserves the class group grading."""
    from .coxring import lnd_from_root

    assert c.family is not None and c.root_system is not None
    grading = c.family.grading
    for i, per in enumerate(c.root_system.per_ray):
        for root in per:
            dv = lnd_from_root(c.family.ring, c.fan.rays, root.e, i)
            if degree_of(grading, dv.entries[i]) != grading.degrees[i]:
                return False
    return True


def check_open_orbit(d1: Derivation, d2: Derivation, grading: ClGrading, *,
                     point: Sequence | None = None, seed: int = 0) -> bool:
    """Exact full-rank test for the orbit through a rational point.

    The rows are the two vector fields evaluated at the point followed by
    the quasitorus directions read off the grading; rank m means the orbit
    of the combined group is dense, which is what the action construction
    promises.  A rank drop at one point can be bad luck, so without an
    explicit point five seeded points are tried.
    """
    m = len(grading.degrees)
    ring = d1.ring

    def rank_at(pt: list[Fraction]) -> int:
        vals = [Fraction(0)] * ring.nvars
        for i, c in enumerate(pt):
            vals[i] = c
        rows = [[d.entries[i].eval(vals) for i in range(m)] for d in (d1, d2)]
        for k in range(m - 2):
            rows.append([grading.degrees[i][k] * pt[i] for i in range(m)])
        return fraction_rank(rows)

    if point is not None:
        pt = [Fraction(c) for c in point]
        if len(pt) != m:
            raise ZeroCoordinate(f"need {m} coordinates, got {len(pt)}")
        if any(c == 0 for c in pt):
            raise ZeroCoordinate(
                "orbit test points must avoid the coordinate hyperplanes")
        return rank_at(pt) == m
    rng = random.Random(seed)
    for _ in range(5):
        pt = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        if rank_at(pt) == m:
            return True
    return False


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
    computed exactly; it is trivial, a line through the origin, or the full
    group.  A probe with full stabilizer (the distinguished monomial probe
    always has one) carries no information and is excluded from ``lines``.
    """

    probes: tuple[ProbeResult, ...]
    lines: tuple[tuple[int, int], ...]
    full_labels: tuple[str, ...]


def _primitive_direction(a: int, b: int) -> tuple[int, int]:
    g = gcd(abs(a), abs(b))
    if g:
        a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return (a, b)


def _stabilizer(action: ActionMap, f: Poly,
                m: int) -> tuple[str, tuple[int, int] | None]:
    """Classify {s : f(action_s(x)) = f(x)} as full, a line, or trivial."""
    ring = action.ring
    xs = {i: action.images[i] for i in range(m)}
    g = f.subs(xs) - f
    js1, js2 = ring.index("s1"), ring.index("s2")
    # coefficient of each x-monomial, as a polynomial in (s1, s2)
    system: dict[tuple[int, ...], dict[tuple[int, int], Fraction]] = {}
    for exps, c in g.terms.items():
        if any(exps[j] for j in range(m, ring.nvars) if j not in (js1, js2)):
            raise InternalInconsistency("difference involves spare parameters")
        key = exps[:m]
        system.setdefault(key, {})[(exps[js1], exps[js2])] = c
    polys = [h for h in system.values() if h]
    if not polys:
        return "full", None
    candidates = {(1, 0), (0, 1)}
    for h in polys:
        a = h.get((1, 0), Fraction(0))
        b = h.get((0, 1), Fraction(0))
        if a or b:
            # solutions of a*s1 + b*s2 = 0 run along (b, -a)
            den = a.denominator * b.denominator
            candidates.add(_primitive_direction(int(b * den), int(-a * den)))
    verified = []
    for v1, v2 in sorted(candidates):
        ok = True
        for h in polys:
            # restrict to s = t*(v1, v2): the coefficient of each power of
            # t must cancel for h to vanish along the whole line
            by_deg: dict[int, Fraction] = {}
            for (e1, e2), c in h.items():
                val = c * Fraction(v1) ** e1 * Fraction(v2) ** e2
                by_deg[e1 + e2] = by_deg.get(e1 + e2, Fraction(0)) + val
            if any(by_deg.values()):
                ok = False
                break
        if ok:
            verified.append((v1, v2))
    if len(verified) > 1:
        raise InternalInconsistency(
            "a stabilizer subgroup cannot contain two distinct lines "
            "without being everything")
    if verified:
        return "line", verified[0]
    return "none", None


def annihilator_profile(action: ActionMap,
                        family: LndFamily) -> AnnihilatorReport:
    basis = family.basis
    i2 = basis.basis_indices[1]
    m = len(basis.rays)
    ring = family.ring
    probes: list[tuple[str, Poly]] = [
        (ring.names[i2], Poly.var(ring, i2))]
    for k, part in enumerate(family.partials):
        probes.append((f"M{k}", part.entries[i2]))
    if family.d >= 1:
        m1 = family.partials[1].entries[i2]
        x2 = Poly.var(ring, i2)
        probes.append((f"{ring.names[i2]}+M1", x2 + m1))
        probes.append((f"{ring.names[i2]}-M1", x2 - m1))
    results = []
    lines = set()
    full = []
    for label, f in probes:
        kind, line = _stabilizer(action, f, m)
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
    ``all_pass`` aggregate.
    """
    if c.admits_action and c.family is None:
        c = classify(c.fan)
    fan = c.fan
    checks: dict[str, bool] = {}
    checks["roots_box_oracle"] = check_roots_box_oracle(fan, box)
    checks["cone_condition_redundant"] = check_cone_condition_redundant(fan)
    checks["collections_bases_bijection"] = \
        check_collections_bases_bijection(fan)
    if c.admits_action:
        checks["classes_match_wideness"] = (c.num_classes == 1) == bool(c.wide)
        assert c.family is not None and c.normalized_action is not None
        checks["bracket_table"] = check_bracket_table(c.family)
        grading = c.family.grading
        checks["grading_relations"] = check_grading_relations(c.basis, grading)
        checks["root_lnd_degree_zero"] = check_root_lnd_degree_zero(c)
        actions = [("normalized", c.normalized_action,
                    c.family.delta, c.family.partials[0])]
        if c.non_normalized_action is not None:
            actions.append(("non_normalized", c.non_normalized_action,
                            c.family.delta + c.family.partials[c.family.d],
                            c.family.partials[0]))
        for label, act, da, db in actions:
            checks[f"identity_at_zero_{label}"] = check_identity_at_zero(act)
            checks[f"group_law_{label}"] = check_group_law(act)
            checks[f"homogeneous_{label}"] = \
                check_homogeneous_images(act, grading)
            checks[f"open_orbit_{label}"] = \
                check_open_orbit(da, db, grading, seed=seed)
        if c.d and c.d >= 1:
            try:
                got = distinguish_actions(c)
                checks["distinguish_actions"] = (
                    got["normalized"] == ActionClass.NORMALIZED
                    and got["non_normalized"] == ActionClass.NON_NORMALIZED)
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
