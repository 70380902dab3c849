"""The fold driver against the unrolled compare-and-swap loop it replaces.

``reference_fold`` is the loop the engines ran when every way was one encoded
int: it threads the displaced way-0 element through ways 1..k-1 and swaps at
every strictly smaller metric.  The engines now scan a metric row once and
rebuild the field rows from the victim and the steps that kept their way;
these tests pin that both give the same victim, the same set way by way and
the same fold comparisons.  The replays at the end run whole engines whose
stores re-validate every written set (``checked``) and, after every write,
pack each set with this file's own packer: it fits the register's
``set_width`` bits and unpacks to the same rows.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import checked, load_set
from dpcache.core import LayoutConfig
from dpcache.multiregion import MultiRegionCache, RegionSpec
from dpcache.policies import make_engine


def pack(way, lay):
    """Encode a ``(key, scn)`` way as one element int: key in the lowest bits,
    then the value the key derives, then the SCN."""
    key, scn = way
    widths = (lay.key_bits, lay.value_bits, lay.scn_bits)
    raw = shift = 0
    for x, width in zip((key, key & ((1 << lay.value_bits) - 1), scn), widths):
        raw |= x << shift
        shift += width
    return raw


def unpack(raw, lay):
    """Decode an element int to its ``(key, scn)`` way."""
    widths = (lay.key_bits, lay.value_bits, lay.scn_bits)
    way = []
    for width in widths:
        way.append(raw & ((1 << width) - 1))
        raw >>= width
    key, _, scn = way
    return key, scn


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
            ways.append((0, 0))  # empty way
        else:
            ways.append((key, draw(st.integers(0, scn_high))))
    new = (keys[k], draw(st.integers(0, scn_high)))
    tick = draw(st.integers(0, 255))
    return k, policy, ways, new, tick


@given(fold_cases())
@settings(max_examples=400, deadline=None)
def test_fold_matches_unrolled_reference(case):
    k, policy, ways, new, tick = case
    # 16-bit SCNs give hyperbolic an 8-bit insert time: a 256-entry log table
    lay = LayoutConfig(key_bits=16, value_bits=8, scn_bits=16, k=k, d=1)
    engine = checked(make_engine(policy, lay))
    engine.tick = tick
    load_set(engine.store, 0, [list(row) for row in zip(*ways)])

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
    victim = engine.insert_pending_raw(0, *new)
    assert victim == unpack(expected_victim, lay)
    assert engine.store.peek_set(0) == [unpack(r, lay) for r in raws]
    assert pairs == expected_pairs
    if policy == "hyperbolic" and k > 1:
        assert engine.store.counter.extra_reads - extra_before == 2 * k


def test_fold_skips_a_kept_way_between_swaps():
    # metrics 5, 3, 4, 1: swaps at ways 1 and 3, way 2 keeps its element
    lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=4, d=1)
    engine = make_engine("lru", lay)
    load_set(engine.store, 0, [[10, 11, 12, 13], [5, 3, 4, 1]])
    assert engine.insert_pending_raw(0, 20, 9) == (13, 1)
    assert engine.store.rows[0][0] == [20, 10, 12, 11]


# -- invariant replays ------------------------------------------------------


def packed_word(rows, lay):
    """The packed set word of field rows, built independently of the store."""
    word = 0
    for way in reversed(list(zip(*rows))):
        word = (word << lay.element_width) | pack(way, lay)
    return word


def unpacked_rows(word, lay):
    """Field rows of a packed set word: the inverse of ``packed_word``."""
    mask = (1 << lay.element_width) - 1
    ways = [unpack((word >> (i * lay.element_width)) & mask, lay) for i in range(lay.k)]
    return [[key for key, _ in ways], [scn for _, scn in ways]]


def check_views(store):
    """Every set packs into ``set_width`` bits and unpacks to its own rows."""
    lay = store.layout
    for rows in store.rows:
        word = packed_word(rows, lay)
        assert 0 <= word < 1 << lay.set_width
        assert unpacked_rows(word, lay) == rows


def watch_writes(store):
    """Check every set's packing after every write to ``store``; returns the write count."""
    writes = [0]

    def checked(fn):
        def write(*args):
            fn(*args)
            writes[0] += 1
            check_views(store)
        return write

    for name in ("write_set_raw", "write_way_field"):
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
    engine = checked(make_engine(policy, lay))
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
    cache = checked(MultiRegionCache(RegionSpec("lru", 4, 4), RegionSpec("lru", 8, 4), 200, flt,
                                     scn_bits=8))
    writes = [watch_writes(cache.window.store), watch_writes(cache.main.store)]
    for key in trace(4, 1500, 199):
        cache.fetch(key)
    assert writes[0][0] > 0 and writes[1][0] > 0
