"""Metamorphic relations: one run of a cache checked against other runs.

Set decomposition: a FIFO, LRU or LFU cache at (k, d) gives, event for
event, the same (hit, evicted) stream as d separate (k, 1) caches, each fed
the keys of its residue ``key % d``.  Each set of such a cache therefore
behaves as a d = 1 cache, which the exhaustive check enumerates.  It holds
for the restricted engines at every SCN width: the LRU clock is shared by
the sets, but a rescale keeps each set's order.  Hyperbolic is left out:
its tick counts every fetch of the region, so a set's priorities depend on
how many fetches the other sets received.

Key renaming: permuting the keys inside each residue class ``key % d``
leaves the stream unchanged, once each evicted key is mapped back through
the permutation.  No decision reads a key's value, only its set.  It holds
for all four single-region policies, restricted and reference, and for the
two-region cache with residues mod lcm(d_w, d_m): filterless, restricted
and reference, and for the reference with its filter on the batch schedule,
which halves every counter at once.  The restricted filter's sliced
schedule halves its counters in key order, so with it the relation fails
(the README says by how much).

Both single-region relations also hold at the ternary mask limit, 128 ways
of 16-bit keys, at 8-bit SCNs: there the LRU clock restarts at least every
2**8 - 1 - 129 ticks and the hyperbolic tick halves every 15.
"""

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import assert_written, checked
from dpcache.core import LayoutConfig
from dpcache.multiregion import MultiRegionCache, RegionSpec
from dpcache.oracle import ReferenceCache, ReferenceMultiCache
from dpcache.policies import POLICIES, make_engine


def restricted(scn_bits):
    def make(policy, k, d):
        return checked(make_engine(policy, LayoutConfig(key_bits=16, scn_bits=scn_bits, k=k, d=d)))
    return make


CACHES = {"reference": ReferenceCache, **{f"scn{bits}": restricted(bits) for bits in (32, 6, 4)}}


@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sets_decompose_into_single_set_caches(cache, policy, data):
    k = data.draw(st.integers(1, 8), label="k")
    d = data.draw(st.integers(2, 6), label="d")
    universe = data.draw(st.integers(k * d + 1, 3 * k * d), label="universe")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # log-uniform keys: a few hot keys whose counts saturate narrow SCNs
    keys = [int(universe ** rng.random()) for _ in range(20 * k * d + 200)]
    make = CACHES[cache]
    whole = make(policy, k, d)
    parts = [make(policy, k, 1) for _ in range(d)]
    for i, key in enumerate(keys):
        assert whole.fetch(key) == parts[key % d].fetch(key), f"event {i} (key {key})"
    if cache != "reference":
        for part in [whole, *parts]:
            assert_written(part)


def clock_falls(cache, keys):
    """Replay ``keys``; the results, and how often the LRU clock or hyperbolic tick fell."""
    def clock():
        return getattr(cache, "clock", getattr(cache, "tick", 0))

    results, falls, last = [], 0, clock()
    for key in keys:
        results.append(cache.fetch(key))
        falls += clock() < last
        last = clock()
    return results, falls


# k * key_bits = 128 * 16 = 2048, the ternary mask limit
TCAM_K = 128


def tcam_limit_keys(seed, d):
    """Skewed keys over three times the capacity: hits, and misses that evict."""
    rng = random.Random(seed)
    universe = 3 * TCAM_K * d
    return [1 + int((universe - 1) * rng.random() ** 3) for _ in range(8 * TCAM_K * d)]


@pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
@settings(max_examples=5, deadline=None)
@given(d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_sets_decompose_at_the_tcam_limit(policy, d, seed):
    keys = tcam_limit_keys(seed, d)
    make = restricted(8)
    whole = make(policy, TCAM_K, d)
    parts = [make(policy, TCAM_K, 1) for _ in range(d)]
    results, falls = clock_falls(whole, keys)
    for i, key in enumerate(keys):
        assert results[i] == parts[key % d].fetch(key), f"event {i} (key {key})"
    assert any(evicted for _, evicted in results)
    assert (falls > 0) == (policy == "lru")
    for part in [whole, *parts]:
        assert_written(part)


def renaming(universe, modulus, rng):
    """A random permutation of the keys 1..universe-1 that keeps each key's
    residue mod ``modulus``, as a dict."""
    perm = {}
    for residue in range(modulus):
        keys = list(range(residue or modulus, universe, modulus))
        renamed = keys[:]
        rng.shuffle(renamed)
        perm.update(zip(keys, renamed))
    return perm


def assert_renaming_invariant(make, keys, perm):
    """Replay ``keys`` and their renamed copy through two caches from ``make``."""
    plain, renamed = make(), make()
    back = {new: old for old, new in perm.items()}
    for i, key in enumerate(keys):
        hit, evicted = renamed.fetch(perm[key])
        assert plain.fetch(key) == (hit, back.get(evicted)), f"event {i} (key {key})"
    for cache in (plain, renamed):
        if not isinstance(cache, (ReferenceCache, ReferenceMultiCache)):
            assert_written(cache)


@pytest.mark.parametrize("cache", ["reference", "scn32", "scn6"])
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_renaming_keys_within_sets_changes_nothing(cache, policy, data):
    k = data.draw(st.integers(1, 8), label="k")
    d = data.draw(st.integers(1, 6), label="d")
    universe = data.draw(st.integers(k * d + 1, 3 * k * d + 8), label="universe")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    keys = [int(universe ** rng.random()) for _ in range(20 * k * d + 200)]
    perm = renaming(universe, d, rng)
    assert_renaming_invariant(lambda: CACHES[cache](policy, k, d), keys, perm)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=5, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_renaming_keys_within_sets_changes_nothing_at_the_tcam_limit(policy, d, seed):
    keys = tcam_limit_keys(seed, d)
    perm = renaming(3 * TCAM_K * d, d, random.Random(seed))
    plain, renamed = restricted(8)(policy, TCAM_K, d), restricted(8)(policy, TCAM_K, d)
    results, falls = clock_falls(renamed, [perm[key] for key in keys])
    back = {new: old for old, new in perm.items()}
    for i, key in enumerate(keys):
        hit, evicted = results[i]
        assert plain.fetch(key) == (hit, back.get(evicted)), f"event {i} (key {key})"
    assert any(evicted for _, evicted in results)
    assert (falls > 0) == (policy in ("lru", "hyperbolic"))
    for cache in (plain, renamed):
        assert_written(cache)


@pytest.mark.parametrize("scn_bits, flt", [(None, "none"), (32, "none"), (6, "none"),
                                           (None, "tinylfu")],
                         ids=["reference", "scn32", "scn6", "reference-tinylfu"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_renaming_keys_within_two_region_sets_changes_nothing(scn_bits, flt, data):
    # scn_bits None is the reference; its filter ages on the batch schedule,
    # which every trace here reaches: it is at least 20 x the capacity, and
    # a halving comes every 16 x
    policies = st.sampled_from(POLICIES)
    window = RegionSpec(data.draw(policies, label="window"), data.draw(st.integers(1, 3)),
                        data.draw(st.integers(1, 4), label="d_w"))
    main = RegionSpec(data.draw(policies, label="main"), data.draw(st.integers(1, 4)),
                      data.draw(st.integers(1, 4), label="d_m"))
    capacity = window.capacity + main.capacity
    universe = data.draw(st.integers(capacity + 2, 3 * capacity + 8), label="universe")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    keys = [int(universe ** rng.random()) for _ in range(20 * capacity + 200)]
    perm = renaming(universe, lcm(window.d, main.d), rng)

    def make():
        if scn_bits is None:
            return ReferenceMultiCache(window, main, universe, flt)
        return checked(MultiRegionCache(window, main, universe, flt, scn_bits=scn_bits))

    assert_renaming_invariant(make, keys, perm)
