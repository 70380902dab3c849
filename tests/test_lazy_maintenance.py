"""Lazy per-set maintenance against the eager region sweep it replaced.

When the LRU clock or the hyperbolic tick reaches its limit, the engine only
restarts the clock and moves its epoch on; each set is normalised when a
packet next reads it.  ``EagerLru`` and ``EagerHyperbolic`` keep the older
design as a reference: the packet that reaches the limit rewrites the live
SCNs of every set of the region, LRU's as dense per-set ranks with the clock
restarted one above the largest rank, hyperbolic's insert times halved with
the tick.  Their epoch never moves, so they never normalise lazily.  Both
designs must give the same ``(hit, evicted)`` on every event, and the same
sets and clock at the end.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import assert_written, checked
from dpcache.core import SCN_FIELD, LayoutConfig
from dpcache.hyperbolic import HyperbolicEngine
from dpcache.policies import POLICIES, FifoEngine, LfuEngine, LruEngine, make_engine


def sweep(store, remap):
    """Replace the live entries of every set's SCN row by ``remap`` of them,
    in way order, and re-validate each rewritten set."""
    for h, rows in enumerate(store.rows):
        live = [way for way, key in enumerate(rows[0]) if key]
        if live:
            row = rows[SCN_FIELD]
            for way, x in zip(live, remap([row[way] for way in live])):
                row[way] = x
            store._check_rows(h)


class EagerLru(LruEngine):
    def _tick(self):
        self.clock = clock = self.clock + 1
        if clock >= self._scn_max:
            top = 0

            def ranks(live):
                nonlocal top
                rank = {s: r for r, s in enumerate(sorted(set(live)), start=1)}
                top = max(top, len(rank))
                return [rank[s] for s in live]

            sweep(self.store, ranks)
            self.clock = top + 1


class EagerHyperbolic(HyperbolicEngine):
    def _tick(self):
        self.tick = tick = self.tick + 1
        if tick >= self._halve_at:
            self.tick >>= 1
            freq_max, freq_bits = self.freq_max, self.freq_bits
            sweep(self.store, lambda live: [(scn & freq_max) | (scn >> (freq_bits + 1) << freq_bits)
                                            for scn in live])


EAGER = {"fifo": FifoEngine, "lru": EagerLru, "lfu": LfuEngine, "hyperbolic": EagerHyperbolic}


def engine_clock(engine):
    """The LRU clock or the hyperbolic tick; None for FIFO and LFU."""
    return getattr(engine, "clock", getattr(engine, "tick", None))


def skewed_keys(rng, length, universe):
    """Keys in [1, universe) with density falling off as u**3 towards the top."""
    return [1 + int((universe - 1) * rng.random() ** 3) for _ in range(length)]


def assert_same_run(lazy, eager, keys):
    """Replay ``keys`` through both engines: equal results on every event,
    equal sets and clock at the end."""
    for i, key in enumerate(keys):
        assert lazy.fetch(key) == eager.fetch(key), f"event {i} (key {key})"
    assert_written(lazy)
    assert_written(eager)
    assert lazy.dump() == eager.dump()
    assert engine_clock(lazy) == engine_clock(eager)


def assert_lazy_matches_eager(policy, layout, keys):
    """Lazy and eager engines over ``keys``, and over their second half a
    second time through clones taken halfway, which run first."""
    lazy, eager = checked(make_engine(policy, layout)), checked(EAGER[policy](layout))
    half = len(keys) // 2
    assert_same_run(lazy, eager, keys[:half])
    twins = checked(lazy.clone()), checked(eager.clone())
    assert_same_run(*twins, keys[half:])
    assert_same_run(lazy, eager, keys[half:])


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lazy_normalisation_matches_the_eager_sweep(policy, data):
    scn_bits = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 32]), label="scn_bits")
    # an LRU clock needs 2**scn_bits - 1 > k + 2, so 2 bits hold no LRU engine
    k_max = min(8, (1 << scn_bits) - 4) if policy == "lru" else 8
    if k_max < 1:
        scn_bits, k_max = 3, 3
    k = data.draw(st.integers(1, k_max), label="k")
    d = data.draw(st.integers(1, 5), label="d")
    universe = data.draw(st.integers(k * d + 2, 3 * k * d + 8), label="universe")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    layout = LayoutConfig(key_bits=16, scn_bits=scn_bits, k=k, d=d)
    assert_lazy_matches_eager(policy, layout, skewed_keys(rng, 30 * k * d + 200, universe))


@pytest.mark.parametrize("scn_bits", [8, 32])
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=4, deadline=None)
@given(d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_lazy_normalisation_matches_the_eager_sweep_at_the_tcam_limit(policy, scn_bits, d, seed):
    # k * key_bits = 2048, the ternary mask limit
    layout = LayoutConfig(key_bits=16, scn_bits=scn_bits, k=128, d=d)
    rng = random.Random(seed)
    assert_lazy_matches_eager(policy, layout, skewed_keys(rng, 1500 * d, 200 * d))


@pytest.mark.parametrize("scn_bits, k", [pytest.param(4, 4, id="4"), pytest.param(6, 4, id="6"),
                                         pytest.param(4, 1, id="4-k1")])
@pytest.mark.parametrize("policy", POLICIES)
def test_no_packet_charges_region_wide_extra_ops(policy, scn_bits, k):
    """Clock restarts fire, and no packet pays for a sweep of the region: FIFO,
    LRU and LFU charge no extra op, and hyperbolic only its 2k log lookups on
    a miss, none at k = 1, where the fold is skipped."""
    engine = checked(make_engine(policy, LayoutConfig(key_bits=8, value_bits=8,
                                                      scn_bits=scn_bits, k=k, d=4)))
    counter = engine.store.counter
    extra_on_miss = (2 * k if k > 1 else 0) if policy == "hyperbolic" else 0
    restarts = 0
    for i, key in enumerate(skewed_keys(random.Random(2718), 3000, 61)):
        clock = engine_clock(engine)
        counter.reset()
        hit, _ = engine.fetch(key)
        expected = (0, 0) if hit else (extra_on_miss, 0)
        assert (counter.extra_reads, counter.extra_writes) == expected, f"event {i} (key {key})"
        restarts += clock is not None and engine_clock(engine) < clock
    assert_written(engine)
    assert (restarts > 10) == (policy in ("lru", "hyperbolic"))


@pytest.mark.parametrize("policy", ["lru", "hyperbolic"])
def test_a_clone_normalises_only_its_own_sets(policy):
    layout = LayoutConfig(key_bits=8, scn_bits=4, k=2, d=2)
    lazy, eager = checked(make_engine(policy, layout)), checked(EAGER[policy](layout))
    # fill both sets, then hit set 0 alone until the clock has restarted
    for key in [1, 3, 2, 4] + [2] * 20:
        assert lazy.fetch(key) == eager.fetch(key)
    assert lazy.store.epochs[1] < lazy.epoch
    twin = lazy.clone()
    assert twin.fetch(1) == (True, None)  # normalises the twin's set 1
    assert twin.store.epochs[1] == twin.epoch
    assert lazy.store.epochs[1] < lazy.epoch
    assert lazy.dump() == eager.dump()
