"""The fold driver against the unrolled compare-and-swap loop it replaces.

``reference_fold`` is the loop the engines ran when every way was one encoded
int: it threads the displaced way-0 element through ways 1..k-1 and swaps at
every strictly smaller metric.  The engines now scan a metric row once and
rebuild the field rows from the victim and the steps that kept their way;
these tests pin that both give the same victim, the same set way by way and
the same fold comparisons.  The replays at the end run whole engines with
``check_invariants`` and check the packed views after every write.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcache.core import CacheElement, LayoutConfig
from dpcache.multiregion import MultiRegionCache, MultiRegionConfig, RegionSpec
from dpcache.policies import make_engine


def pack(way, lay):
    """Encode a flat way tuple as one element int (key in the lowest bits)."""
    widths = (lay.key_bits, lay.value_bits, lay.scn_bits)
    raw = shift = 0
    for x, width in zip(way, widths):
        raw |= x << shift
        shift += width
    return raw


def unpack(raw, lay):
    widths = (lay.key_bits, lay.value_bits, lay.scn_bits)
    way = []
    for width in widths:
        way.append(raw & ((1 << width) - 1))
        raw >>= width
    return CacheElement.from_way(tuple(way))


def reference_fold(raws, metric, observer):
    """The unrolled fold over ``[new, way0, ..., way(k-1)]``, in place.

    Returns the carried-out element; ``raws`` is left as the pending set.
    """
    if len(raws) == 2:
        return raws.pop()
    candidate = raws.pop(1)  # displaced way-0 occupant
    c_metric = metric(candidate)
    for i in range(1, len(raws)):
        e = raws[i]
        e_metric = metric(e)
        observer(e_metric, c_metric)
        if e_metric < c_metric:
            raws[i] = candidate
            candidate = e
            c_metric = e_metric
    return candidate


def scn_metric(lay):
    off = lay.key_bits + lay.value_bits
    mask = (1 << lay.scn_bits) - 1
    return lambda raw: (raw >> off) & mask


def hyperbolic_metric(engine, lay):
    scn = scn_metric(lay)

    def score(raw):
        s = scn(raw)
        freq, t = s & engine.freq_max, s >> engine.freq_bits
        lifetime = max(1, engine.tick - t)
        table = engine.log_table
        return table.lookup(freq) - table.lookup(lifetime)

    return score


@st.composite
def fold_cases(draw):
    k = draw(st.sampled_from([1, 2, 3, 64]))
    policy = draw(st.sampled_from(["lru", "lfu", "hyperbolic"]))
    # a narrow SCN range makes LFU-style ties frequent
    scn_high = draw(st.sampled_from([3, 200, 65535]))
    keys = draw(st.lists(st.integers(1, 5000), min_size=k + 1, max_size=k + 1, unique=True))
    ways = []
    for key in keys[:k]:
        if draw(st.booleans()) and draw(st.booleans()):
            ways.append((0, 0, 0))  # empty way
        else:
            ways.append((key, draw(st.integers(0, 255)), draw(st.integers(0, scn_high))))
    new = (keys[k], 7, draw(st.integers(0, scn_high)))
    tick = draw(st.integers(0, 255))
    return k, policy, ways, new, tick


@given(fold_cases())
@settings(max_examples=400, deadline=None)
def test_fold_matches_unrolled_reference(case):
    k, policy, ways, new, tick = case
    # 16-bit SCNs give hyperbolic an 8-bit insert time: a 256-entry log table
    lay = LayoutConfig(key_bits=16, value_bits=8, scn_bits=16, k=k, d=1)
    engine = make_engine(policy, lay, check_invariants=True)
    engine.tick = tick
    engine.store.write_set_raw(0, [list(row) for row in zip(*ways)])

    raws = [pack(way, lay) for way in ways]
    if policy == "lfu":
        # the aging hook runs before the fold: live counts above 1 drop by one
        metric = scn_metric(lay)
        one = 1 << (lay.key_bits + lay.value_bits)
        raws = [raw - one if raw & 0xFFFF and metric(raw) > 1 else raw for raw in raws]
    if policy == "hyperbolic":
        metric = hyperbolic_metric(engine, lay)
    else:
        metric = scn_metric(lay)
    expected_pairs = []
    raws.insert(0, pack(new, lay))
    expected_victim = reference_fold(raws, metric, lambda a, b: expected_pairs.append((a, b)))

    pairs = []
    engine.fold_observer = lambda a, b: pairs.append((a, b))
    extra_before = engine.store.counter.extra_reads
    victim, rows = engine.insert_pending_raw(0, new)
    assert CacheElement.from_way(victim) == unpack(expected_victim, lay)
    assert [CacheElement.from_way(way) for way in zip(*rows)] == [unpack(r, lay) for r in raws]
    assert pairs == expected_pairs
    if policy == "hyperbolic" and k > 1:
        assert engine.store.counter.extra_reads - extra_before == 2 * k


def test_fold_skips_a_kept_way_between_swaps():
    # metrics 5, 3, 4, 1: swaps at ways 1 and 3, way 2 keeps its element
    lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=4, d=1)
    engine = make_engine("lru", lay)
    engine.store.write_set_raw(0, [[10, 11, 12, 13], [0] * 4, [5, 3, 4, 1]])
    victim, rows = engine.insert_pending_raw(0, (20, 0, 9))
    assert victim == (13, 0, 1)
    assert rows[0] == [20, 10, 12, 11]


# -- invariant replays ------------------------------------------------------


def packed_word(rows, lay):
    """The packed set word of field rows, built independently of the store."""
    word = 0
    for way in reversed(list(zip(*rows))):
        word = (word << lay.element_width) | pack(way, lay)
    return word


def check_views(store):
    lay = store.layout
    sets, keys_register = store.sets, store.keys_register
    for h, rows in enumerate(store.rows):
        assert sets[h] == store.word(h) == packed_word(rows, lay)
        keys_word = 0
        for key in reversed(rows[0]):
            keys_word = (keys_word << lay.key_bits) | key
        assert keys_register[h] == keys_word
        assert store.decode_set(sets[h]) == rows


def watch_writes(store):
    """Check the packed views after every write to ``store``; returns the write count."""
    writes = [0]

    def checked(fn):
        def write(*args):
            fn(*args)
            writes[0] += 1
            check_views(store)
        return write

    for name in ("write_set_raw", "write_way_field", "map_scn"):
        setattr(store, name, checked(getattr(store, name)))
    return writes


def trace(seed, length, universe):
    rng = random.Random(seed)
    return [rng.randint(1, universe) for _ in range(length)]


@pytest.mark.parametrize("policy,kwargs", [
    ("lru", {"scn_bits": 7}),  # the clock rescales every ~60 fetches
    ("lfu", {"scn_bits": 3}),  # counts saturate at 7
    ("hyperbolic", {"scn_bits": 14}),  # a 128-entry log table: halving every ~127 ticks
])
def test_k64_replay_keeps_views_in_step(policy, kwargs):
    lay = LayoutConfig(k=64, d=2, **kwargs)
    engine = make_engine(policy, lay, check_invariants=True)
    writes = watch_writes(engine.store)
    clocks = []
    for key in trace(3, 600, 400):
        engine.fetch(key)
        clocks.append(getattr(engine, "tick", getattr(engine, "clock", 0)))
    assert writes[0] >= 600
    if policy != "lfu":
        assert any(b < a for a, b in zip(clocks, clocks[1:])), "no maintenance sweep ran"


@pytest.mark.parametrize("flt", ["none", "tinylfu"])
def test_two_region_replay_keeps_views_in_step(flt):
    cfg = MultiRegionConfig(window=RegionSpec("lru", 4, 4), main=RegionSpec("lru", 8, 4),
                            key_universe=200, filter=flt, scn_bits=8)
    cache = MultiRegionCache(cfg, check_invariants=True)
    writes = [watch_writes(cache.window.store), watch_writes(cache.main.store)]
    for key in trace(4, 1500, 199):
        cache.fetch(key)
    assert writes[0][0] > 0 and writes[1][0] > 0
