"""The test helper ``checked`` re-validates every set a store writes.

Run on a single-region engine and on both regions of a two-region cache: a
duplicate live key or an overwide SCN that an in-place edit of the rows
``read_set_raw`` handed out leaves there is caught when ``write_set_raw``
commits them, so is a fault already in the rows when ``write_way_field``
patches the set, and so is a set read that is not written back before the
store's next lookup or read, or, through ``assert_written``, before the
replay ends; a clone of a checked store writes only its own rows.
A plain store takes the same writes without a word, which is what leaves
the check to the helper.
"""

import pytest

from checked import CheckedStore, assert_written, checked, load_set
from dpcache.core import MISS, LayoutConfig, OpCounter, RegisterStore, StorageError
from dpcache.multiregion import MultiRegionCache, RegionSpec
from dpcache.policies import POLICIES, make_engine

SCN_BITS = 8


def store_of(target, check=True):
    """The store of a fresh engine, or of one region of a fresh two-region cache."""
    wrap = checked if check else (lambda cache: cache)
    if target == "engine":
        return wrap(make_engine("lru", LayoutConfig(scn_bits=SCN_BITS, k=2, d=2))).store
    cache = wrap(MultiRegionCache(RegionSpec("lru", 2, 2), RegionSpec("fifo", 2, 2), 50,
                                  scn_bits=SCN_BITS))
    return getattr(cache, target).store


TARGETS = ["engine", "window", "main"]
FAULTS = [
    ([[5, 5], [1, 2]], "^duplicate key 5 within one set$"),
    ([[5, 6], [1 << SCN_BITS, 2]], f"^scn {1 << SCN_BITS} exceeds {SCN_BITS} bits$"),
]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("rows, message", FAULTS)
def test_whole_set_write_is_revalidated(target, rows, message):
    store = store_of(target)
    assert type(store) is CheckedStore and "write_set_raw" not in vars(store)
    got = store.read_set_raw(1)
    got[0][:], got[1][:] = rows  # a miss's in-place edit puts the fault in
    with pytest.raises(StorageError, match=message):
        store.write_set_raw(1, 0)
    plain = store_of(target, check=False)
    got = plain.read_set_raw(1)
    got[0][:], got[1][:] = rows
    plain.write_set_raw(1, 0)  # a plain store trusts its caller
    assert plain.rows[1] == rows


@pytest.mark.parametrize("target", TARGETS)
def test_way_field_write_is_revalidated(target):
    store = store_of(target)
    store.write_way_field(0, 1, 3)
    store.rows[0][0] = [7, 7]  # a fault no write put there
    with pytest.raises(StorageError, match="^duplicate key 7 within one set$"):
        store.write_way_field(0, 1, 4)


@pytest.mark.parametrize("target", TARGETS)
def test_clone_writes_only_its_own_rows(target):
    store = store_of(target)
    load_set(store, 1, [[5, 0], [1, 0]])
    counter = OpCounter(**vars(store.counter))
    other = store.clone()
    assert type(other) is RegisterStore and other.counter is not store.counter
    rows = other.read_set_raw(0)
    rows[0][0], rows[1][0] = 9, 2
    other.write_set_raw(0, 0)
    other.write_way_field(1, 0, 3)
    assert store.rows == [[[0, 0], [0, 0]], [[5, 0], [1, 0]]]
    assert other.rows == [[[9, 0], [2, 0]], [[5, 0], [3, 0]]]
    assert store.counter == counter
    rows = store.read_set_raw(0)
    rows[0][:] = [4, 4]
    with pytest.raises(StorageError, match="^duplicate key 4"):
        store.write_set_raw(0, 0)  # the original is still checked


def test_checked_covers_both_regions():
    cache = checked(MultiRegionCache(RegionSpec("lru", 2, 2), RegionSpec("fifo", 2, 2), 50))
    assert type(cache.window.store) is CheckedStore and type(cache.main.store) is CheckedStore
    engine = make_engine("fifo", LayoutConfig(k=2, d=2))
    assert checked(engine) is engine and type(engine.store) is CheckedStore


@pytest.mark.parametrize("target", TARGETS)
def test_read_must_be_written_back_before_the_next_access(target):
    store = store_of(target)
    rows = store.read_set_raw(1)
    assert rows is store.rows[1]
    store.rows[0][0][0] = 3
    store.write_set_raw(0, 0)  # a write to another set commits nothing
    unwritten = "^set 1 was read and not written back$"
    with pytest.raises(AssertionError, match=unwritten):
        store.ternary_lookup(1, 5)
    with pytest.raises(AssertionError, match=unwritten):
        store.read_set_raw(0)
    rows[0][0], rows[1][0] = 5, 1
    store.write_set_raw(1, 0)
    assert store.ternary_lookup(1, 5) == 0 and store.ternary_lookup(1, 7) == MISS
    store.read_set_raw(0)
    store.write_set_raw(0, 3)  # key 3 left and re-entered: the set is unchanged
    assert store.ternary_lookup(0, 3) == 0
    plain = store_of(target, check=False)
    plain.read_set_raw(1)
    assert plain.read_set_raw(1) is plain.rows[1]  # a plain store trusts its caller


@pytest.mark.parametrize("policy", POLICIES)
def test_a_miss_without_its_write_fails_the_next_fetch(policy):
    engine = checked(make_engine(policy, LayoutConfig(scn_bits=SCN_BITS, k=2, d=2)))
    engine.fetch(3)
    engine.insert_pending_raw(1, 5, engine._initial_scn())  # a fetch's miss, write left out
    with pytest.raises(AssertionError, match="^set 1 was read and not written back$"):
        engine.fetch(3)
    cache = checked(MultiRegionCache(RegionSpec(policy, 2, 2), RegionSpec(policy, 2, 2), 50,
                                     scn_bits=SCN_BITS))
    cache.main.insert_pending_raw(0, 4, cache.main._initial_scn())
    with pytest.raises(AssertionError, match="^set 0 was read and not written back$"):
        cache.fetch(7)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_miss_without_its_write_on_the_last_event_is_caught(policy):
    engine = checked(make_engine(policy, LayoutConfig(scn_bits=SCN_BITS, k=2, d=2)))
    engine.fetch(3)
    assert_written(engine)
    engine.insert_pending_raw(1, 5, engine._initial_scn())  # the last miss, write left out
    with pytest.raises(AssertionError, match="^set 1 was read and not written back$"):
        assert_written(engine)
    cache = checked(MultiRegionCache(RegionSpec(policy, 2, 2), RegionSpec(policy, 2, 2), 50,
                                     scn_bits=SCN_BITS))
    cache.fetch(7)
    assert_written(cache)
    cache.main.insert_pending_raw(0, 4, cache.main._initial_scn())
    with pytest.raises(AssertionError, match="^set 0 was read and not written back$"):
        assert_written(cache)
