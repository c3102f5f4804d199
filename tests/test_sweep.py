"""The walk, the fan count and the admitting-fan generator of the sweep."""

import hashlib
from collections import Counter

import pytest

from toric_additive import sweep
from toric_additive.errors import InternalInconsistency
from toric_additive.lattice import det2
from toric_additive.roots import root_interval
from toric_additive.sweep import (
    _admitting_fans,
    _count_fans,
    _pair_tables,
    _walk,
    enumerate_complete_fans,
    primitive_pool,
    run_sweep,
)

POOL2 = primitive_pool(2)


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
           for chain, pairs in _walk(POOL2, min_rays, max_rays, bad)]
    want = [(tuple(chain), sorted(pairs)) for chain, pairs in
            _recursive_walk(POOL2, min_rays, max_rays, bad)]
    assert got == want
    # the generator: the admitting fans once each, in any order
    generated = [(tuple(chain), sorted(pairs)) for chain, pairs in
                 _admitting_fans(POOL2, min_rays, max_rays, bad)]
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
    for chain, pairs in _walk(pool, 3, 6, bad):
        digest.update(bytes((len(chain), *chain)))
        if pairs:
            digest.update(repr(sorted(pairs)).encode())
            admitting.append((tuple(chain), sorted(pairs)))
        count += 1
    assert count == 928712
    assert digest.hexdigest() == \
        "ea79a8f9004c6644affbf877c9040ecfb23e8f9189afd6234bb528b9d9649ba6"
    # the generator yields the same admitting fans, and the count agrees
    generated = sorted((tuple(chain), sorted(pairs)) for chain, pairs in
                       _admitting_fans(pool, 3, 6, bad))
    assert generated == sorted(admitting)
    assert len(generated) == 121049
    assert _count_fans(pool, 3, 6) == 928712


@pytest.mark.parametrize("min_rays,max_rays", [(3, 6), (3, 4), (5, 8)])
def test_walker_pairs_match_per_fan_recomputation(min_rays, max_rays):
    bad, _ = _pair_tables(POOL2)
    fans = 0
    for chain, pairs in _walk(POOL2, min_rays, max_rays, bad):
        fans += 1
        mask = 0
        for k in chain:
            mask |= 1 << k
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
    for _, pairs in _walk(POOL2, 3, 6, bad):
        if len(pairs) > 1:
            multi += 1
            shared.update((i, j) for i, j, _ in pairs)
    assert multi == 133
    (i, j), want = shared.most_common(1)[0]

    def shifted(pool):
        bad, quotients = _pair_tables(pool)
        quotients[i][j] = tuple([q if q == sweep._NO_BOUND else q + 1
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
                    rows[1][:] = [sweep._NO_BOUND] * len(pool)
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
    ({"box": -1}, "box"),
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
