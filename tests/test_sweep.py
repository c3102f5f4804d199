"""The incremental depth-first walk behind the exhaustive sweep."""

import hashlib

import pytest

from toric_additive.sweep import (
    _pair_tables,
    _walk,
    enumerate_complete_fans,
    primitive_pool,
    run_sweep,
)

POOL2 = primitive_pool(2)


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
