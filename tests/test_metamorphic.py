"""Metamorphic relations: one run of a cache checked against other runs.

Set decomposition: a FIFO, LRU or LFU cache at (k, d) gives, event for
event, the same (hit, evicted) stream as d separate (k, 1) caches, each fed
the keys of its residue ``key % d``.  Each set of such a cache therefore
behaves as a d = 1 cache, which the exhaustive check enumerates.  It holds
for the restricted engines at every SCN width: the LRU clock is shared by
the sets, but a rescale keeps each set's order.  Hyperbolic is left out:
its tick counts every fetch of the region, so a set's priorities depend on
how many fetches the other sets received.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import assert_written, checked
from dpcache.core import LayoutConfig
from dpcache.oracle import ReferenceCache
from dpcache.policies import make_engine


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
