"""Exhaustive sweep over small complete fans with cross-checks.

The pool consists of all primitive vectors with coordinates bounded by a
constant, sorted by angle.  Complete fans are exactly the ascending index
chains whose consecutive rays (cyclically) span less than a half turn: a
dynamic programme counts them by length, and a depth-first walk enumerates
each one.

A fan admits an additive action exactly when two of its rays p, q form a
lattice basis whose closed negative octant, the cone of -p and -q, holds
every other ray.  So the admitting fans are p, q and any pool members of
that octant other than a lone -p or -q (a half-turn gap), and the light
phase generates them from the unimodular pool pairs, never looking at the
other fans.  The expensive symbolic verification runs afterwards.

The degree parameter d of an admitting fan is read from pair tables in
integer arithmetic: each admissible pool pair keeps two rows indexed by
pool member, the floor quotients floor(a_1 / a_2) and floor(a_2 / a_1) of
its octant coordinates, so a basis ray's root count is 1 plus the least
entry of its row over the fan's rays (see ``roots.octant_root_counts``).

Per pair, the light phase walks the subsets T of the octant in
counterclockwise order, from the ray after the pair round to the ray
before it, carrying the running minima q1, q2 of the pair's two rows over
T and T's first and last ray, the pair's other neighbours in the fan.  A
fan's light checks read nothing else: d = max(q1, q2), and the direct
root enumeration of a basis ray reads that ray and its two neighbours.
So a fan costs one step of the walk and one increment of its key (first,
last, q1, q2), and after the pair each check runs once per key and counts
with the key's multiplicity, which is the same as running it on every
fan.  Each fan comes out from its least admissible pair alone: the walk
skips one set of masks, the pair's fans that a lesser pair admits and the
two lone ones.  The few fans with a second admissible pair come on a list
of their own beside the walk, and each gets a check that every pair gives
the same d.

An admissible pair p, q spans a cone of the fan, so the walk tests only
rays adjacent (cyclically) in the chain: every other ray is -a*p - b*q
with a, b >= 0, uniquely as p, q is a basis, so none is a*p + b*q with
a, b > 0, strictly inside the cone that p and q span.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cmp_to_key
from itertools import combinations
from typing import Callable, Iterator

from .additive import classify
from .errors import InternalInconsistency
from .fan import _angular_cmp, build_fan
from .lattice import (
    LatticeVec,
    det2,
    is_primitive,
    octant_coords,
    unimodular_duals,
)
from .roots import NO_BOUND, bounded, octant_quotients, root_interval
from .verify import verification_report

Progress = Callable[[str, int], None]
# an admissible pair (i, j, bad[i][j]), and a generated fan: its key
# (first, last, q1, q2) and its mask
_Pair = tuple[int, int, int]
_Fan = tuple[tuple[int, int, int, int], int]
# violation details kept per kind; the counts cover them all
_DETAILS_KEPT = 10


def primitive_pool(bound: int) -> tuple[LatticeVec, ...]:
    """All primitive vectors with |coordinates| <= bound, sorted by angle."""
    vecs = [(x, y)
            for x in range(-bound, bound + 1)
            for y in range(-bound, bound + 1)
            if is_primitive((x, y))]
    return tuple(sorted(vecs, key=cmp_to_key(_angular_cmp)))


def _walk(pool: tuple[LatticeVec, ...], min_rays: int, max_rays: int,
          bad: list[list[int | None]]
          ) -> Iterator[tuple[list[int], int, list[tuple[int, int, int]]]]:
    """Depth-first walk over the complete fans of the pool.

    Yields (chain, mask, pairs) once per complete fan: chain is the fan's
    ascending list of pool indices, mask has bit k for each k in chain, and
    pairs lists (i, j, bad[i][j]) for every pair i < j of the chain whose
    table exists and whose bad mask misses the chain.  Such a pair spans a
    cone (see the module docstring), so adding ray k drops the carried
    pairs hit by bit k and tests only the new pair (chain[-1], k); a fan
    also gets its closing pair (chain[0], k), in the yielded list only,
    which is valid until the next step.

    The walk is one loop over an explicit stack of frames, each holding
    the iterator over the candidates left, and the chain's mask, pairs and
    length once extended.  Fans come out in depth-first order: by first
    ray, then lexicographically, a chain before its extensions.
    """
    n = len(pool)
    cr = [[det2(pool[i], pool[j]) for j in range(n)] for i in range(n)]
    succ = [[j for j in range(i + 1, n) if cr[i][j] > 0] for i in range(n)]
    bits = [1 << k for k in range(n)]

    for start in range(n):
        closes = [cr[k][start] > 0 for k in range(n)]
        # the last ray of a longest chain is only worth adding if it closes
        closing_succ = [[k for k in s if closes[k]] for s in succ]
        chain = [start]
        stack = []
        cands, mask, pairs, depth = iter(succ[start]), bits[start], [], 2
        while True:
            for k in cands:
                bit = bits[k]
                grown = mask | bit
                kept = [p for p in pairs if not p[2] & bit] if pairs else []
                b = bad[chain[-1]][k]
                if b is not None and not b & grown:
                    kept.append((chain[-1], k, b))
                chain.append(k)
                if depth >= min_rays and closes[k]:
                    b = bad[start][k]
                    yield chain, grown, (kept + [(start, k, b)]
                                         if b is not None and not b & grown
                                         else kept)
                if depth < max_rays:
                    stack.append((cands, mask, pairs, depth))
                    cands = iter(succ[k] if depth + 1 < max_rays
                                 else closing_succ[k])
                    mask, pairs, depth = grown, kept, depth + 1
                    break
                chain.pop()
            else:
                if not stack:
                    break
                chain.pop()
                cands, mask, pairs, depth = stack.pop()


def enumerate_complete_fans(pool: tuple[LatticeVec, ...], min_rays: int = 3,
                            max_rays: int = 6
                            ) -> Iterator[tuple[LatticeVec, ...]]:
    """Complete fans whose rays come from the pool, as angularly sorted tuples."""
    no_pairs = [[None] * len(pool)] * len(pool)
    for chain, _, _ in _walk(pool, min_rays, max_rays, no_pairs):
        yield tuple(pool[i] for i in chain)


def _count_fans(pool: tuple[LatticeVec, ...], min_rays: int,
                max_rays: int) -> int:
    """Number of complete fans of the pool with min_rays to max_rays rays.

    A dynamic programme over (first ray, last ray): per first ray, ways[k]
    counts the ascending chains of the current length that end at k with
    det > 0 between consecutive rays, and those whose closing pair (k,
    first) has det > 0 too are fans.  Lengths stop at len(pool).
    """
    n = len(pool)
    pred = [[j for j in range(k) if det2(pool[j], pool[k]) > 0]
            for k in range(n)]
    total = 0
    for start in range(n):
        closing = [k for k in range(start + 1, n)
                   if det2(pool[k], pool[start]) > 0]
        ways = [0] * n
        ways[start] = 1
        for length in range(2, min(max_rays, n) + 1):
            ways = [sum(map(ways.__getitem__, p)) for p in pred]
            if length >= min_rays:
                total += sum(map(ways.__getitem__, closing))
    return total


def _admitting_fans(pool: tuple[LatticeVec, ...], min_rays: int,
                    max_rays: int, bad: list[list[int | None]],
                    quotients: list[list[tuple[list, list] | None]]
                    ) -> Iterator[tuple[int, int, Iterator[_Fan],
                                        list[tuple[int, list[_Pair]]]]]:
    """The admitting fans of the pool, generated from their admissible pairs.

    Yields (i, j, fans, multi) once per pool pair i < j with a table.  The
    fans through it are i, j and each subset T of its octant (the pool
    members outside bad[i][j], but i and j) with min_rays - 2 <= |T| <=
    max_rays - 2, so at most len(pool) rays, save a lone -pool[i] or
    -pool[j].  Another pair a < c admits such a fan iff it holds a and c,
    and i, j and T miss bad[a][c]; these few T are listed per pair up
    front.  The masks to skip are the lone fans and those whose least
    admissible pair is a lesser one, so each fan comes out exactly once,
    from its least pair; multi lists (mask, other pairs) for the rest of
    them, the pair's fans with a second admissible pair.  See
    ``_octant_fans`` for what fans yields.
    """
    n = len(pool)
    index = {v: k for k, v in enumerate(pool)}
    lo, hi = min_rays - 2, min(max_rays, n) - 2
    tables = [(i, j, bad[i][j]) for i in range(n) for j in range(i + 1, n)
              if bad[i][j] is not None]
    for i, j, b in tables:
        # counterclockwise the fan reads i, j, T or j, i, T
        after = (range(j + 1, n), range(i)) if det2(pool[i], pool[j]) > 0 \
            else (range(i + 1, j),)
        octant = [k for part in after for k in part if not b >> k & 1]
        base = 1 << i | 1 << j
        # a fan's mask -> its pairs but (i, j), ascending as tables are
        shared: dict[int, list[_Pair]] = {}
        for a, c, t in tables:
            if (a, c) == (i, j) or b & (1 << a | 1 << c) or t & base:
                continue
            forced = [k for k in (a, c) if k not in (i, j)]
            free = [k for k in octant if not t >> k & 1 and k not in forced]
            for size in range(max(lo - len(forced), 0),
                              min(len(free), hi - len(forced)) + 1):
                for more in combinations(free, size):
                    mask = base
                    for k in forced + list(more):
                        mask |= 1 << k
                    shared.setdefault(mask, []).append((a, c, t))
        skip = {base | 1 << index[(-x, -y)] for x, y in (pool[i], pool[j])}
        skip.update(mask for mask, pairs in shared.items()
                    if pairs[0][:2] < (i, j))
        multi = [(mask, pairs) for mask, pairs in shared.items()
                 if mask not in skip]
        r1, r2 = quotients[i][j]
        yield i, j, _octant_fans(octant, r1, r2, base, lo, hi, skip), multi


def _octant_fans(octant: list[int], r1: list, r2: list, base: int, lo: int,
                 hi: int, skip: set[int]) -> Iterator[_Fan]:
    """One pair's fans, from the subsets T of its octant with lo to hi rays.

    Yields ((first, last, q1, q2), mask) per fan whose mask is not in
    skip.  first and last are T's first and last ray in the octant's
    order, counterclockwise from the ray after the pair round to the ray
    before it, so they are the pair's other neighbours in the fan.  q1 and
    q2 are the least entries of the quotient rows r1 and r2 over T; mask
    has the fan's bits, base being the pair's.

    The walk is one loop over an explicit stack of frames, started once
    per first ray as a frame of that ray alone, with minima at NO_BOUND: T
    grows by one later octant ray per step and carries its running minima,
    so a fan costs one step whatever its size.
    """
    items = [(k, r1[k], r2[k], 1 << k, t + 1) for t, k in enumerate(octant)]
    tails = [items[t:] for t in range(len(items) + 1)]
    for t, first in enumerate(octant):
        stack = []
        cands, mask, size = iter(items[t:t + 1]), base, 1
        q1 = q2 = NO_BOUND
        while True:
            for k, a, c, bit, nxt in cands:
                if a > q1:
                    a = q1
                if c > q2:
                    c = q2
                grown = mask | bit
                if size >= lo and grown not in skip:
                    yield (first, k, a, c), grown
                if size < hi:
                    stack.append((cands, q1, q2, mask, size))
                    cands = iter(tails[nxt])
                    q1, q2, mask, size = a, c, grown, size + 1
                    break
            else:
                if not stack:
                    break
                cands, q1, q2, mask, size = stack.pop()


_M64 = (1 << 64) - 1


def _mix(mask: int) -> int:
    """A fan's mask mixed into 64 bits, for the order-free digests.

    hash(mask) is mask mod 2**61 - 1, whatever the hash seed, and the
    splitmix64 finaliser spreads each of its bits over all 64.  So two fans
    that trade rays, keeping the sum of their masks, change the sum of
    their mixes; hash((mask,)) does not do this, as it is nearly linear
    in the mask.
    """
    x = hash(mask)
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _M64
    return x ^ x >> 31


def _chain(mask: int) -> list[int]:
    """The pool indices of a fan's mask, ascending."""
    chain = []
    while mask:
        low = mask & -mask
        chain.append(low.bit_length() - 1)
        mask ^= low
    return chain


def _pair_tables(pool: tuple[LatticeVec, ...]):
    """Per unimodular pool pair: rays that must not appear, and quotient rows.

    bad[i][j] is a bitmask of pool members outside the closed negative
    octant of (pool[i], pool[j]); a fan containing i and j admits an
    additive action through that pair iff none of its rays hits the mask.
    quotients[i][j] is two rows indexed by pool member: floor(a_1 / a_2)
    and floor(a_2 / a_1) (``roots.octant_quotients``) for each member
    inside with octant coordinates (a_1, a_2), and ``roots.NO_BOUND`` where
    a denominator is 0 or the member is outside, i and j included.  An
    admitting fan's chain misses the mask, so the least entry of a row over
    the chain is that side's least quotient over the non-basis rays, and
    the basis ray's root count is 1 more (``roots.octant_root_counts``).
    """
    n = len(pool)
    bad: list[list[int | None]] = [[None] * n for _ in range(n)]
    quotients: list[list[tuple[list, list] | None]] = \
        [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(det2(pool[i], pool[j])) != 1:
                continue
            duals = unimodular_duals([pool[i], pool[j]])
            mask = 0
            r1, r2 = [NO_BOUND] * n, [NO_BOUND] * n
            for k, v in enumerate(pool):
                a = octant_coords(v, duals)
                if min(a) >= 0:
                    mask |= 1 << k
                    r1[k], r2[k] = octant_quotients(a)
            full = (1 << n) - 1
            bad[i][j] = full & ~(mask | (1 << i) | (1 << j))
            quotients[i][j] = r1, r2
    return bad, quotients


@dataclass
class SweepReport:
    bound: int
    min_rays: int
    max_rays: int
    total_fans: int = 0
    admitting: int = 0
    wide: int = 0
    num_classes_counts: dict[int, int] = field(default_factory=dict)
    d_histogram: dict[int, int] = field(default_factory=dict)
    heavy_checked: int = 0
    nonadmitting_sampled: int = 0
    t_enumerate_light: float = 0.0
    t_heavy: float = 0.0
    violation_counts: dict[str, int] = field(default_factory=dict)
    violations: dict[str, list] = field(default_factory=dict)

    @property
    def all_clean(self) -> bool:
        return not self.violation_counts

    def record_violation(self, kind: str, detail, count: int = 1) -> None:
        """Count count violations of kind; keep detail, which names one."""
        self.violation_counts[kind] = self.violation_counts.get(kind, 0) + count
        bucket = self.violations.setdefault(kind, [])
        if len(bucket) < _DETAILS_KEPT:
            bucket.append(detail)

    def to_json(self) -> dict:
        out = asdict(self)
        for key in ("num_classes_counts", "d_histogram"):
            out[key] = {str(k): v for k, v in sorted(out[key].items())}
        out["all_clean"] = self.all_clean
        return out


def run_sweep(bound: int = 3, min_rays: int = 3, max_rays: int = 6, *,
              heavy: bool = True, heavy_stride: int = 1,
              nonadmitting_stride: int = 997, seed: int = 0,
              progress: Progress | None = None) -> SweepReport:
    """Enumerate all complete fans from the pool and cross-check them.

    The light phase (timed as t_enumerate_light) counts the fans
    (``_count_fans``), generates the admitting ones (``_admitting_fans``),
    tallies the class statistics, and confirms the closed-form basis-ray
    root counts of each fan's least admissible pair against a direct
    interval enumeration.  Those counts are 1 plus the least entry of each
    of the pair's quotient rows (see ``_pair_tables``) over the fan's rays,
    with d = max(|R_1|, |R_2|) - 1.  The walk of each pair's octant carries
    these minima, so a fan arrives with its key (first, last, q1, q2):
    the pair's other two neighbours and the minima.  Both checks read only
    the key, so each runs once per key, after the pair, and counts its
    fans with the key's multiplicity; a reported violation names the
    first fan of its key.  After the walk, each fan on the pair's multi
    list, those with another admissible pair, gets the d of every pair
    from its least quotients, to check that d is independent of the pair
    used to compute it.  The other fans admit no action.

    The heavy phase first walks every fan, an independent route whose
    admitting and non-admitting counts must equal the light phase's, and
    keeps every nonadmitting_stride-th non-admitting fan.  It then re-runs
    the full symbolic pipeline plus all verification oracles on these and
    on every heavy_stride-th admitting fan, generated again, not kept.
    The walk's admitting fans must also be the generator's: the sums of
    their masks' mixes (``_mix``) agree mod 2**64, which keeps no list.

    The interval enumeration depends only on a basis ray and its two
    neighbours, so it runs once per (prev, ray, next) triple of pool
    indices and is kept for the rest of the light phase.

    Raises InternalInconsistency when no ray of an admitting fan bounds a
    side of its pair's quotient rows, as the fan could not be complete, or
    when the walk's counts or admitting fans differ from the light
    phase's.

    Raises ValueError, before any work, when bound < 1, min_rays < 3,
    max_rays < min_rays or a stride is below 1, and before the sweep when
    min_rays exceeds the pool size.  These select no fans, and an empty
    sweep would read as clean.  Every length from 3 to the pool size has
    fans, since any superset of a complete fan's rays is complete.
    """
    for name, value, least in (
            ("bound", bound, 1), ("min_rays", min_rays, 3),
            ("max_rays", max_rays, min_rays), ("heavy_stride", heavy_stride, 1),
            ("nonadmitting_stride", nonadmitting_stride, 1)):
        if value < least:
            floor = f"min_rays = {least}" if name == "max_rays" else least
            raise ValueError(f"{name} must be at least {floor}; got {value}")
    pool = primitive_pool(bound)
    if min_rays > len(pool):
        raise ValueError(f"min_rays must be at most the pool size "
                         f"{len(pool)} at bound {bound}; got {min_rays}")
    report = SweepReport(bound=bound, min_rays=min_rays, max_rays=max_rays)
    bad, quotients = _pair_tables(pool)

    def least_quotients(i: int, j: int, chain: list[int]) -> tuple[int, int]:
        r1, r2 = quotients[i][j]
        return bounded(min(map(r1.__getitem__, chain)),
                       min(map(r2.__getitem__, chain)))

    def interval_size(triple: tuple[int, int, int]) -> int:
        size = interval_sizes.get(triple)
        if size is None:
            _, _, lo, hi = root_interval(*(pool[k] for k in triple))
            size = interval_sizes[triple] = max(hi - lo + 1, 0)
        return size

    def rays_of(mask: int) -> tuple[LatticeVec, ...]:
        return tuple(pool[k] for k in _chain(mask))

    t0 = time.perf_counter()
    report.total_fans = _count_fans(pool, min_rays, max_rays)
    d_histogram: dict[int, int] = {}
    # (prev, ray, next) pool indices -> number of roots of the middle ray
    interval_sizes: dict[tuple[int, int, int], int] = {}
    for i, j, fans, multi in _admitting_fans(pool, min_rays, max_rays, bad,
                                             quotients):
        # (first, last, q1, q2) -> number of fans, and the first of them
        tally: dict[tuple[int, int, int, int], int] = {}
        witness: dict[tuple[int, int, int, int], int] = {}
        for key, mask in fans:
            n = tally.get(key)
            if n is None:
                tally[key] = 1
                witness[key] = mask
            else:
                tally[key] = n + 1
        for mask, more in multi:
            chain = _chain(mask)
            degrees = [max(least_quotients(i, j, chain))] + [
                max(least_quotients(i2, j2, chain)) for i2, j2, _ in more]
            if any(x != degrees[0] for x in degrees):
                report.record_violation(
                    "d_depends_on_basis",
                    {"rays": rays_of(mask), "degrees": degrees})
        # counterclockwise the fan reads a, b, first, ..., last
        a, b = (i, j) if det2(pool[i], pool[j]) > 0 else (j, i)
        for (first, last, q1, q2), count in tally.items():
            bounded(q1, q2)
            # d = max(|R_1|, |R_2|) - 1 = max(q1, q2)
            d = max(q1, q2)
            d_histogram[d] = d_histogram.get(d, 0) + count
            size = {a: interval_size((last, a, b)),
                    b: interval_size((a, b, first))}
            got = (size[i], size[j])
            if got != (q1 + 1, q2 + 1):
                report.record_violation(
                    "root_count_mismatch",
                    {"rays": rays_of(witness[first, last, q1, q2]),
                     "closed_form": (q1 + 1, q2 + 1), "interval": got},
                    count=count)
    report.admitting = sum(d_histogram.values())
    nonadmitting = report.total_fans - report.admitting
    report.wide = d_histogram.get(0, 0)
    report.d_histogram = d_histogram
    # a fan with d = 0 has one class, any other admitting fan two
    report.num_classes_counts = {
        k: v for k, v in ((1, report.wide), (2, report.admitting - report.wide),
                          (0, nonadmitting)) if v}
    report.t_enumerate_light = time.perf_counter() - t0
    if progress:
        progress("light", report.total_fans)

    if not heavy:
        return report

    def verify_fan(rays, c) -> None:
        rep = verification_report(c, seed=seed)
        if not rep["all_pass"]:
            failing = [k for k, v in rep["checks"].items() if not v]
            report.record_violation(
                "verification", {"rays": rays, "failing": failing})

    t1 = time.perf_counter()
    walked = [0, 0]  # non-admitting and admitting fans
    # order-free digests of the admitting fans: sums of their masks' mixes
    walked_digest = generated_digest = 0
    nonadmitting_picks: list[tuple[LatticeVec, ...]] = []
    for chain, mask, pairs in _walk(pool, min_rays, max_rays, bad):
        if pairs:
            walked_digest += _mix(mask)
        elif walked[0] % nonadmitting_stride == 0:
            nonadmitting_picks.append(tuple(pool[k] for k in chain))
        walked[bool(pairs)] += 1
    if walked != [nonadmitting, report.admitting]:
        raise InternalInconsistency(
            f"the walk finds {walked[1]} admitting and {walked[0]} "
            f"non-admitting fans, the light phase {report.admitting} and "
            f"{nonadmitting}")
    generated = (fan for _, _, fans, _ in _admitting_fans(
        pool, min_rays, max_rays, bad, quotients) for fan in fans)
    for n, ((_, _, q1, q2), mask) in enumerate(generated):
        generated_digest += _mix(mask)
        if n % heavy_stride:
            continue
        rays = rays_of(mask)
        d_light = max(q1, q2)
        c = classify(build_fan(rays))
        report.heavy_checked += 1
        if not c.admits_action or c.d != d_light:
            report.record_violation(
                "light_heavy_disagree",
                {"rays": rays, "d_light": d_light, "d_heavy": c.d})
            continue
        verify_fan(rays, c)
        if progress and report.heavy_checked % 200 == 0:
            progress("heavy", report.heavy_checked)
    if (walked_digest - generated_digest) % 2**64:
        raise InternalInconsistency(
            "the walk's admitting fans differ from the generator's")
    for rays in nonadmitting_picks:
        report.nonadmitting_sampled += 1
        c = classify(build_fan(rays), with_actions=False)
        if c.admits_action or c.num_classes != 0 or c.collections:
            report.record_violation("nonadmitting_mismatch", {"rays": rays})
            continue
        verify_fan(rays, c)
    report.t_heavy = time.perf_counter() - t1
    return report
