"""The walk, the fan count and the admitting-fan generator of the sweep."""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from toric_additive import sweep
from toric_additive.additive import classify
from toric_additive.errors import InternalInconsistency
from toric_additive.lattice import det2
from toric_additive.roots import root_interval
from toric_additive.sweep import (
    _admitting_fans,
    _chain,
    _count_fans,
    _pair_tables,
    _walk,
    enumerate_complete_fans,
    primitive_pool,
    run_sweep,
)

POOL2 = primitive_pool(2)


def _generated(pool, min_rays, max_rays):
    """(chain, pairs) per fan from the generator, as the walk yields them.

    Also checks each fan's key against its chain: first and last are the
    other neighbours of the pair's second and first ray counterclockwise,
    and q1, q2 the least entries of the pair's rows over the whole chain.
    """
    bad, quotients = _pair_tables(pool)
    fans = []
    for i, j, pair_fans, multi in _admitting_fans(pool, min_rays, max_rays,
                                                  bad, quotients):
        others = dict(multi)
        for (first, last, q1, q2), mask in pair_fans:
            chain = _chain(mask)
            m = len(chain)
            a, b = (i, j) if det2(pool[i], pool[j]) > 0 else (j, i)
            assert chain[(chain.index(b) + 1) % m] == first
            assert chain[chain.index(a) - 1] == last
            r1, r2 = quotients[i][j]
            assert (q1, q2) == (min(r1[k] for k in chain),
                                min(r2[k] for k in chain))
            more = others.pop(mask, ())
            fans.append((tuple(chain), sorted([(i, j, bad[i][j]), *more])))
        assert not others
    return fans


def _recursive_walk(pool, min_rays, max_rays, bad):
    """Reference: the walk as nested generators, one per chain length."""
    n = len(pool)
    cr = [[det2(pool[i], pool[j]) for j in range(n)] for i in range(n)]
    succ = [[j for j in range(i + 1, n) if cr[i][j] > 0] for i in range(n)]
    bits = [1 << k for k in range(n)]
    partners = [[(bits[i], i, bad[i][k]) for i in range(k)
                 if bad[i][k] is not None] for k in range(n)]

    for start in range(n):
        closes = [cr[k][start] > 0 for k in range(n)]
        closing_succ = [[k for k in s if closes[k]] for s in succ]
        chain = [start]

        def extend(last, mask, pairs, depth):
            for k in succ[last] if depth < max_rays else closing_succ[last]:
                bit = bits[k]
                grown = mask | bit
                kept = [p for p in pairs if not p[2] & bit]
                for bit_i, i, b in partners[k]:
                    if mask & bit_i and not b & grown:
                        kept.append((i, k, b))
                chain.append(k)
                if depth >= min_rays and closes[k]:
                    yield chain, kept
                if depth < max_rays:
                    yield from extend(k, grown, kept, depth + 1)
                chain.pop()

        yield from extend(start, bits[start], [], 2)


@pytest.mark.parametrize("min_rays,max_rays",
                         [(3, 6), (3, 4), (5, 8), (3, 3), (8, 8)])
def test_walk_matches_recursive_reference(min_rays, max_rays):
    bad, _ = _pair_tables(POOL2)
    got = [(tuple(chain), sorted(pairs))
           for chain, _, pairs in _walk(POOL2, min_rays, max_rays, bad)]
    want = [(tuple(chain), sorted(pairs)) for chain, pairs in
            _recursive_walk(POOL2, min_rays, max_rays, bad)]
    assert got == want
    # the generator: the admitting fans once each, in any order
    generated = _generated(POOL2, min_rays, max_rays)
    admitting = [fan for fan in want if fan[1]]
    assert len(generated) == len({chain for chain, _ in generated})
    assert sorted(generated) == sorted(admitting)
    assert 0 < len(admitting) < len(want) == _count_fans(POOL2, min_rays,
                                                         max_rays)


def test_walk_sequence_at_bound_3_is_pinned():
    # recorded with the recursive walk that _recursive_walk keeps as the
    # reference.  Per fan: its length and pool indices as bytes (all below
    # 32), then repr(sorted(pairs)) when it has pairs; a length byte is
    # never "[", so the encoding reads back one way.
    pool = primitive_pool(3)
    bad, _ = _pair_tables(pool)
    digest = hashlib.sha256()
    admitting = []
    count = 0
    for chain, _, pairs in _walk(pool, 3, 6, bad):
        digest.update(bytes((len(chain), *chain)))
        if pairs:
            digest.update(repr(sorted(pairs)).encode())
            admitting.append((tuple(chain), sorted(pairs)))
        count += 1
    assert count == 928712
    assert digest.hexdigest() == \
        "ea79a8f9004c6644affbf877c9040ecfb23e8f9189afd6234bb528b9d9649ba6"
    # the generator yields the same admitting fans, and the count agrees
    generated = sorted(_generated(pool, 3, 6))
    assert generated == sorted(admitting)
    assert len(generated) == 121049
    assert _count_fans(pool, 3, 6) == 928712


@pytest.mark.parametrize("min_rays,max_rays", [(3, 6), (3, 4), (5, 8)])
def test_walker_pairs_match_per_fan_recomputation(min_rays, max_rays):
    bad, _ = _pair_tables(POOL2)
    fans = 0
    for chain, walked_mask, pairs in _walk(POOL2, min_rays, max_rays, bad):
        fans += 1
        mask = 0
        for k in chain:
            mask |= 1 << k
        assert walked_mask == mask, chain
        want = {(i, j, bad[i][j])
                for a, i in enumerate(chain) for j in chain[a + 1:]
                if bad[i][j] is not None and not bad[i][j] & mask}
        assert len(pairs) == len(want), chain
        assert set(pairs) == want, chain
    assert fans == sum(1 for _ in enumerate_complete_fans(
        POOL2, min_rays, max_rays))


def test_enumerate_complete_fans_sequence_is_pinned():
    # count and digest of the sequence recorded before the walk became
    # incremental: same fans, same order
    digest = hashlib.sha256()
    count = 0
    for rays in enumerate_complete_fans(POOL2):
        digest.update(repr(rays).encode())
        digest.update(b"\n")
        count += 1
    assert count == 11396
    assert digest.hexdigest() == \
        "e3b0c28d39fae59e6f789f1dadf98641c382d2cceeb052e0bd06e84627787ffe"


def test_light_sweep_bound_2():
    # the figures of the per-fan route the walk replaced
    r = run_sweep(bound=2, heavy=False)
    assert (r.total_fans, r.admitting, r.wide) == (11396, 3325, 1549)
    assert r.num_classes_counts == {0: 8071, 1: 1549, 2: 1776}
    assert r.d_histogram == {0: 1549, 1: 1488, 2: 240, 3: 40, 4: 8}
    assert r.all_clean and r.heavy_checked == r.nonadmitting_sampled == 0


def test_pair_tables_never_forbid_their_own_rays():
    # so testing a new pair (i, k) against the chain with or without ray k
    # gives the same answer
    bad, _ = _pair_tables(POOL2)
    for i, row in enumerate(bad):
        for j, b in enumerate(row):
            if b is not None:
                assert not b & (1 << i | 1 << j), (i, j)


def test_root_count_cross_check_fires(monkeypatch):
    def widened(prev, p, nxt):
        e0, q, lo, hi = root_interval(prev, p, nxt)
        return e0, q, lo, hi + 1

    monkeypatch.setattr(sweep, "root_interval", widened)
    r = run_sweep(bound=2, heavy=False)
    assert r.admitting == 3325
    assert r.violation_counts == {"root_count_mismatch": 3325}


def test_root_interval_runs_once_per_triple(monkeypatch):
    # two basis rays per admitting fan would make 6,650 calls
    calls = []

    def counted(*args):
        calls.append(args)
        return root_interval(*args)

    monkeypatch.setattr(sweep, "root_interval", counted)
    assert run_sweep(bound=2, heavy=False).all_clean
    assert len(calls) == len(set(calls)) == 292


def test_d_depends_on_basis_fires(monkeypatch):
    # raising every quotient of one pair raises the d it gives by 1, so
    # each fan that carries it beside another pair disagrees with itself
    bad, _ = _pair_tables(POOL2)
    shared = Counter()
    multi = 0
    for _, _, pairs in _walk(POOL2, 3, 6, bad):
        if len(pairs) > 1:
            multi += 1
            shared.update((i, j) for i, j, _ in pairs)
    assert multi == 133
    (i, j), want = shared.most_common(1)[0]

    def shifted(pool):
        bad, quotients = _pair_tables(pool)
        quotients[i][j] = tuple([q if q == sweep.NO_BOUND else q + 1
                                 for q in row] for row in quotients[i][j])
        return bad, quotients

    monkeypatch.setattr(sweep, "_pair_tables", shifted)
    r = run_sweep(bound=2, heavy=False)
    assert r.violation_counts["d_depends_on_basis"] == want > 0


def test_light_loop_refuses_an_unbounded_side(monkeypatch):
    # the sentinel of a side that no ray bounds must never read as a count
    def unbounded(pool):
        bad, quotients = _pair_tables(pool)
        for by_j in quotients:
            for rows in by_j:
                if rows is not None:
                    rows[1][:] = [sweep.NO_BOUND] * len(pool)
        return bad, quotients

    monkeypatch.setattr(sweep, "_pair_tables", unbounded)
    with pytest.raises(InternalInconsistency, match="no octant row bounds"):
        run_sweep(bound=2, heavy=False)


@pytest.mark.parametrize("kwargs,name", [
    ({"bound": 0}, "bound"),
    ({"bound": -1}, "bound"),
    ({"min_rays": 2}, "min_rays"),
    ({"min_rays": 5, "max_rays": 4}, "max_rays"),
    ({"heavy_stride": 0}, "heavy_stride"),
    ({"heavy_stride": -1}, "heavy_stride"),
    ({"nonadmitting_stride": 0}, "nonadmitting_stride"),
])
def test_run_sweep_rejects_out_of_range_arguments(monkeypatch, kwargs, name):
    def refuse(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(sweep, "primitive_pool", refuse)
    monkeypatch.setattr(sweep, "_walk", refuse)
    with pytest.raises(ValueError, match=f"^{name} .*got {kwargs[name]}$"):
        run_sweep(**kwargs)


def test_heavy_sweep_refuses_a_count_the_walk_disagrees_with(monkeypatch):
    monkeypatch.setattr(sweep, "_count_fans",
                        lambda *args: _count_fans(*args) + 1)
    with pytest.raises(InternalInconsistency, match="the walk finds "
                       "3325 admitting and 8071 non-admitting fans"):
        run_sweep(bound=2, heavy=True, heavy_stride=10**6,
                  nonadmitting_stride=10**6)


def test_run_sweep_rejects_more_rays_than_the_pool_holds():
    # bound 1 has 8 pool rays; every length from 3 to 8 has fans
    assert run_sweep(bound=1, min_rays=8, max_rays=8, heavy=False) \
        .total_fans == 1
    with pytest.raises(ValueError,
                       match="^min_rays must be at most the pool size 8 "
                             "at bound 1; got 9$"):
        run_sweep(bound=1, min_rays=9, max_rays=9, heavy=False)


def test_chain_lengths_stop_at_the_pool_size():
    # bound 2 has 16 pool rays, so no fan has more
    timing = ("t_enumerate_light", "t_heavy", "max_rays")
    capped, huge = (
        {k: v for k, v in run_sweep(bound=2, max_rays=m, heavy=False)
         .to_json().items() if k not in timing} for m in (16, 10**6))
    assert capped == huge
    assert capped["total_fans"] > 11396


def _per_fan_light(pool, min_rays, max_rays):
    """Reference: the light report's figures, fan by fan from the walk.

    Each admitting fan takes the min of its least pair's rows over the
    whole chain and reads the neighbour triples from the sorted chain.
    Reads ``sweep._pair_tables`` and ``sweep.root_interval`` at call time,
    so a patch applies to both routes.
    """
    bad, quotients = sweep._pair_tables(pool)
    total = 0
    histogram, violations = Counter(), Counter()
    for chain, _, pairs in _walk(pool, min_rays, max_rays, bad):
        total += 1
        if not pairs:
            continue
        pairs = sorted(pairs)
        degrees = []
        for i, j, _ in pairs:
            r1, r2 = quotients[i][j]
            degrees.append((min(r1[k] for k in chain),
                            min(r2[k] for k in chain)))
        q1, q2 = degrees[0]
        histogram[max(q1, q2)] += 1
        if any(max(q) != max(q1, q2) for q in degrees):
            violations["d_depends_on_basis"] += 1
        got = []
        for ray in pairs[0][:2]:
            pos = chain.index(ray)
            triple = (chain[pos - 1], ray, chain[(pos + 1) % len(chain)])
            _, _, lo, hi = sweep.root_interval(*(pool[k] for k in triple))
            got.append(max(hi - lo + 1, 0))
        if got != [q1 + 1, q2 + 1]:
            violations["root_count_mismatch"] += 1
    return {"total_fans": total, "admitting": sum(histogram.values()),
            "d_histogram": dict(histogram),
            "violation_counts": dict(violations)}


def _light(min_rays, max_rays):
    r = run_sweep(bound=2, min_rays=min_rays, max_rays=max_rays, heavy=False)
    return r, {"total_fans": r.total_fans, "admitting": r.admitting,
               "d_histogram": r.d_histogram,
               "violation_counts": r.violation_counts}


@pytest.mark.parametrize("min_rays,max_rays",
                         [(3, 6), (3, 4), (5, 8), (3, 3), (8, 8)])
def test_light_report_matches_per_fan_reference(min_rays, max_rays):
    _, got = _light(min_rays, max_rays)
    assert got == _per_fan_light(POOL2, min_rays, max_rays)
    assert got["admitting"] > 0


def test_quotient_minima_cover_every_ray_of_the_fan(monkeypatch):
    # lower one pair's first row at an octant ray that often sits between
    # the fan's other rays, away from the basis rays: the tallied minima
    # must see it there too, not only when it is a neighbour
    bad, _ = _pair_tables(POOL2)
    octants = {(a, c): [x for x in range(16)
                        if not bad[a][c] >> x & 1 and x not in (a, c)]
               for a in range(16) for c in range(a + 1, 16)
               if bad[a][c] is not None}
    (i, j), octant = max(octants.items(), key=lambda item: len(item[1]))
    k = octant[len(octant) // 2]

    def lowered(pool):
        bad, quotients = _pair_tables(pool)
        quotients[i][j][0][k] = -1
        return bad, quotients

    monkeypatch.setattr(sweep, "_pair_tables", lowered)
    neighbour = inside = 0
    for chain, _, pairs in _walk(POOL2, 3, 6, bad):
        if pairs and min(pairs)[:2] == (i, j) and k in chain:
            pos = chain.index(k)
            if {chain[pos - 1], chain[(pos + 1) % len(chain)]} & {i, j}:
                neighbour += 1
            else:
                inside += 1
    assert neighbour > 0 and inside > 0
    want = _per_fan_light(POOL2, 3, 6)
    assert want["violation_counts"]["root_count_mismatch"] == \
        neighbour + inside
    assert _light(3, 6)[1] == want


def test_violation_witnesses_are_admitting_fans(monkeypatch):
    def widened(prev, p, nxt):
        e0, q, lo, hi = root_interval(prev, p, nxt)
        return e0, q, lo, hi + 1

    monkeypatch.setattr(sweep, "root_interval", widened)
    bad, quotients = _pair_tables(POOL2)
    admitting = {tuple(chain): min(pairs)
                 for chain, _, pairs in _walk(POOL2, 3, 6, bad) if pairs}
    index = {v: k for k, v in enumerate(POOL2)}
    r, _ = _light(3, 6)
    details = r.violations["root_count_mismatch"]
    assert len(details) == 10
    for detail in details:
        chain = tuple(index[v] for v in detail["rays"])
        i, j, _ = admitting[chain]
        r1, r2 = quotients[i][j]
        q1, q2 = min(r1[k] for k in chain), min(r2[k] for k in chain)
        assert detail["closed_form"] == (q1 + 1, q2 + 1)
        assert detail["interval"] == (q1 + 2, q2 + 2)


def test_heavy_sweep_refuses_fans_the_walk_does_not_find(monkeypatch):
    # the same number of fans, one of them swapped for a copy of another
    # fan of its size: only a comparison of the fans themselves sees it
    def swapped(*args):
        first_of_size, dropped = {}, []
        for i, j, fans, multi in _admitting_fans(*args):
            yield i, j, swap(fans, first_of_size, dropped), multi

    def swap(fans, first_of_size, dropped):
        for key, mask in fans:
            size = bin(mask).count("1")
            if size in first_of_size and not dropped:
                dropped.append(mask)
                mask = first_of_size[size]
            first_of_size.setdefault(size, mask)
            yield key, mask

    strides = {"heavy_stride": 10**6, "nonadmitting_stride": 10**6}
    assert run_sweep(bound=2, **strides).all_clean
    monkeypatch.setattr(sweep, "_admitting_fans", swapped)
    with pytest.raises(InternalInconsistency, match="the walk's admitting "
                       "fans differ from the generator's"):
        run_sweep(bound=2, **strides)


def test_heavy_sweep_digest_sees_masks_that_keep_their_sum(monkeypatch):
    # two generated fans trade a ray each, so the plain sum of all masks
    # stays the same; the digest mixes each mask, so the sweep still sees
    # that the generator's fans are not the walk's
    def only(a, b):
        return (a & ~b) & -(a & ~b)  # the lowest bit of a that b lacks

    def trades(m1, m2):
        # each has a ray the other lacks, and they differ in more rays, so
        # the trade is not just the two masks swapped
        return only(m1, m2) and only(m2, m1) and bin(m1 ^ m2).count("1") > 2

    def traded(*args):
        pairs = [(i, j, list(fans), multi)
                 for i, j, fans, multi in _admitting_fans(*args)]
        masks = [mask for _, _, fans, _ in pairs for _, mask in fans]
        # fan 0 is the one fan the stride sends to the oracles
        m1 = masks[1]
        n2 = next(n for n in range(2, len(masks)) if trades(m1, masks[n]))
        m2 = masks[n2]
        a, b = only(m1, m2), only(m2, m1)
        planted = {1: m1 - a + b, n2: m2 + a - b}
        assert sum(planted.values()) == m1 + m2
        assert sorted(planted.values()) != sorted((m1, m2))
        n = iter(range(len(masks)))
        for i, j, fans, multi in pairs:
            yield i, j, [(key, planted.get(next(n), mask))
                         for key, mask in fans], multi

    strides = {"heavy_stride": 10**6, "nonadmitting_stride": 10**6}
    monkeypatch.setattr(sweep, "_admitting_fans", traded)
    with pytest.raises(InternalInconsistency, match="the walk's admitting "
                       "fans differ from the generator's"):
        run_sweep(bound=2, **strides)


HEAVY2 = {"bound": 2, "heavy_stride": 16, "nonadmitting_stride": 997}


def test_heavy_sweep_records_failed_verifications(monkeypatch):
    # 208 admitting fans (every 16th of 3,325) and 9 non-admitting ones
    # (every 997th of 8,071) reach the oracles, and each one fails
    seen = []

    def failing(c, box=10, seed=0):
        seen.append(tuple(c.fan.rays))
        return {"all_pass": False, "checks": {"planted": False}}

    monkeypatch.setattr(sweep, "verification_report", failing)
    calls = []
    r = run_sweep(**HEAVY2, progress=lambda *args: calls.append(args))
    assert (r.heavy_checked, r.nonadmitting_sampled) == (208, 9)
    assert r.violation_counts == {"verification": 217} and len(seen) == 217
    details = r.violations["verification"]
    assert [d["rays"] for d in details] == seen[:10]
    assert all(d["failing"] == ["planted"] for d in details)
    assert calls == [("light", 11396), ("heavy", 200)]


def test_heavy_sweep_records_classify_disagreements(monkeypatch):
    # the symbolic route reads d one too high on every admitting fan and
    # finds a class on every non-admitting one
    seen = {True: [], False: []}

    def wrong(fan, *, with_actions=True):
        c = classify(fan, with_actions=with_actions)
        seen[with_actions].append(tuple(fan.rays))
        if with_actions:
            return replace(c, d=c.d + 1)
        return replace(c, num_classes=1)

    monkeypatch.setattr(sweep, "classify", wrong)
    r = run_sweep(**HEAVY2)
    assert r.violation_counts == {"light_heavy_disagree": 208,
                                  "nonadmitting_mismatch": 9}
    disagree = r.violations["light_heavy_disagree"]
    assert [d["rays"] for d in disagree] == seen[True][:10]
    assert all(d["d_heavy"] == d["d_light"] + 1 for d in disagree)
    assert [d["rays"] for d in r.violations["nonadmitting_mismatch"]] == \
        seen[False]
