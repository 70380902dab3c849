import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcache.core import (
    MISS,
    CacheElement,
    LayoutConfig,
    LayoutError,
    OpCounter,
    RegisterStore,
    StorageError,
)
from dpcache.multiregion import MultiRegionCache, MultiRegionConfig, RegionSpec
from dpcache.policies import make_engine


def long_division_mod(dividend_digits: str, divisor: int) -> int:
    """Schoolbook long division over the decimal string; independent of %."""
    remainder = 0
    for ch in dividend_digits:
        remainder = remainder * 10 + int(ch)
        while remainder >= divisor:
            remainder -= divisor
    return remainder


def rows_of(elements: list[CacheElement]) -> list[list[int]]:
    """Field rows ``[keys, values, scns]`` of decoded elements."""
    return [list(row) for row in zip(*elements)]


class TestLayoutConfig:
    def test_element_width(self):
        lay = LayoutConfig(key_bits=32, value_bits=32, scn_bits=16, k=4, d=8)
        assert lay.element_width == 80
        assert lay.set_width == 320

    def test_mask_limit(self):
        # 64 ways of 32-bit keys is exactly the 2048-bit ternary mask
        LayoutConfig(key_bits=32, k=64, d=1)
        with pytest.raises(LayoutError):
            LayoutConfig(key_bits=32, k=65, d=1)

    @pytest.mark.parametrize("kwargs", [
        dict(key_bits=0), dict(value_bits=0), dict(scn_bits=0),
        dict(k=0), dict(d=0), dict(key_bits=33, k=64),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(LayoutError):
            LayoutConfig(**kwargs)


def set_of(key: int, d: int) -> int:
    """The set an engine's fetch puts ``key`` in, found from the store."""
    engine = make_engine("lru", LayoutConfig(k=1, d=d))
    engine.fetch(key)
    (h,) = [h for h, rows in enumerate(engine.store.rows) if rows[0][0] == key]
    return h


class TestHashToSet:
    """A fetch indexes set ``key % d``; the ternary lookup rejects keys < 1
    and keys wider than ``key_bits``."""

    def test_examples(self):
        assert set_of(37, 16) == 5
        assert set_of(16, 16) == 0

    def test_large_key_against_long_division(self):
        expected = long_division_mod("1000003", 7)
        assert set_of(1_000_003, 7) == expected

    def test_rejects_key_zero(self):
        engine = make_engine("lru", LayoutConfig(k=2, d=16))
        with pytest.raises(StorageError):
            engine.fetch(0)
        assert engine.store.rows == make_engine("lru", LayoutConfig(k=2, d=16)).store.rows

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_rejects_key_wider_than_key_bits(self, policy):
        engine = make_engine(policy, LayoutConfig(key_bits=8, k=2, d=1))
        for key in (256, 300):
            with pytest.raises(StorageError, match=f"^key {key} exceeds 8 bits$"):
                engine.fetch(key)
        assert engine.live_keys() == set()
        assert engine.fetch(255).hit is False and engine.fetch(255).hit

    def test_two_region_cache_rejects_key_wider_than_key_bits(self):
        # a universe past the default 32-bit keys reaches the ternary lookup
        cache = MultiRegionCache(MultiRegionConfig(
            window=RegionSpec("lru", 2, 1), main=RegionSpec("lru", 2, 1),
            key_universe=(1 << 32) + 2, filter="none"))
        with pytest.raises(StorageError, match="^key 4294967296 exceeds 32 bits$"):
            cache.fetch(1 << 32)
        assert cache.window.live_keys() == cache.main.live_keys() == set()


class TestTernary:
    def test_match_examples(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=1)
        store = RegisterStore(lay)
        store.write_set_raw(0, [[7, 0, 9], [0, 0, 0], [0, 0, 0]])
        assert store.ternary_lookup(0, 9) == 2
        assert store.ternary_lookup(0, 3) == MISS

    def test_zero_bit_slice(self):
        # XOR of the matched way's slice of the keys register is all-zero;
        # others are not
        key_bits = 8
        store = RegisterStore(LayoutConfig(key_bits=key_bits, value_bits=8, scn_bits=8, k=4, d=1))
        store.write_set_raw(0, [[5, 6, 7, 8], [0] * 4, [0] * 4])
        assert store.ternary_lookup(0, 5) == 0
        rep = sum(5 << (i * key_bits) for i in range(4))
        x = store.keys_register[0] ^ rep
        slices = [(x >> (i * key_bits)) & 0xFF for i in range(4)]
        assert slices[0] == 0
        assert all(s != 0 for s in slices[1:])

    def test_rejects_key_zero(self):
        # an all-empty set would match key 0 in every way
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1))
        for key in (0, -1):
            with pytest.raises(StorageError):
                store.ternary_lookup(0, key)
        assert store.counter.tcam_matches == 0

    def test_rejects_key_wider_than_key_bits(self):
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1))
        assert store.ternary_lookup(0, 255) == MISS
        with pytest.raises(StorageError, match="^key 256 exceeds 8 bits$"):
            store.ternary_lookup(0, 256)
        assert store.counter.tcam_matches == 1

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=8),
        probe=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_linear_scan(self, keys, probe):
        # enforce the distinct-nonzero invariant the store maintains
        seen = set()
        entry = []
        for key in keys:
            if key and key in seen:
                key = 0
            seen.add(key)
            entry.append(key)
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=len(entry), d=1))
        store.write_set_raw(0, [entry, [0] * len(entry), [0] * len(entry)])
        got = store.ternary_lookup(0, probe)
        expected = next((i for i, key in enumerate(entry) if key == probe), MISS)
        assert got == expected

    def test_counts_one_tcam_match(self):
        store = RegisterStore(LayoutConfig(k=2, d=4))
        store.ternary_lookup(1, 9)
        store.ternary_lookup(1, 9)
        assert store.counter.tcam_matches == 2


class TestRegisterStore:
    def test_write_read_roundtrip_example(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        store = RegisterStore(lay)
        elems = [CacheElement(3, 30, 2), CacheElement(0, 0, 0)]
        store.write_set_raw(0, rows_of(elems))
        assert store.read_set_raw(0) == [[3, 0], [30, 0], [2, 0]]
        assert store.peek_set(0) == elems

    def test_fresh_store_reads_empty(self):
        lay = LayoutConfig(k=3, d=2)
        store = RegisterStore(lay)
        assert store.read_set_raw(0) == [[0] * 3] * 3
        assert store.peek_set(1) == [CacheElement(0, 0, 0)] * 3

    def test_keys_register_matches_concatenation(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=2)
        store = RegisterStore(lay)
        elems = [CacheElement(9, 1, 0), CacheElement(4, 2, 5), CacheElement(0, 0, 0)]
        store.write_set_raw(1, rows_of(elems))
        expected = 0
        for i, e in enumerate(elems):
            expected |= e.key << (i * 8)
        assert store.keys_register[1] == expected

    def test_field_width_violations(self):
        lay = LayoutConfig(key_bits=4, value_bits=4, scn_bits=4, k=1, d=1)
        checked = RegisterStore(lay, check_invariants=True)
        for rows in ([[16], [0], [0]], [[1], [16], [0]], [[1], [0], [16]]):
            with pytest.raises(StorageError):
                checked.encode_set(rows)
            with pytest.raises(StorageError):
                checked.write_set_raw(0, rows)
        with pytest.raises(StorageError):
            checked.encode_set([[1], [0]])  # the scn row is missing

    def test_duplicate_live_keys_rejected(self):
        store = RegisterStore(LayoutConfig(k=2, d=1), check_invariants=True)
        rows = rows_of([CacheElement(5, 0, 0), CacheElement(5, 1, 1)])
        with pytest.raises(StorageError):
            store.encode_set(rows)
        with pytest.raises(StorageError):
            store.write_set_raw(0, rows)

    def test_read_write_counting(self):
        store = RegisterStore(LayoutConfig(k=2, d=1))
        store.write_set_raw(0, [[1, 0], [0, 0], [0, 0]])
        store.read_set_raw(0)
        assert store.counter.register_writes == 1
        assert store.counter.register_reads == 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_codec_roundtrip(self, data):
        # key_bits >= 3 so k unique live keys always exist
        key_bits = data.draw(st.integers(3, 16))
        value_bits = data.draw(st.integers(1, 16))
        scn_bits = data.draw(st.integers(1, 16))
        k = data.draw(st.integers(1, 6))
        lay = LayoutConfig(key_bits=key_bits, value_bits=value_bits,
                           scn_bits=scn_bits, k=k, d=1)
        store = RegisterStore(lay)
        keys = data.draw(st.lists(
            st.integers(1, (1 << key_bits) - 1), min_size=k, max_size=k, unique=True))
        occupancy = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        elems = []
        for key, live in zip(keys, occupancy):
            if live:
                value = data.draw(st.integers(0, (1 << value_bits) - 1))
                scn = data.draw(st.integers(0, lay.max_scn()))
                elems.append(CacheElement(key, value, scn))
            else:
                elems.append(CacheElement(0, 0, 0))
        rows = rows_of(elems)
        assert store.decode_set(store.encode_set(rows)[0]) == rows

    def test_raw_path_equals_typed_path(self):
        # the packed views and the decoded elements of a raw write
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=1)
        store = RegisterStore(lay)
        elems = [CacheElement(3, 7, 1), CacheElement(0, 0, 0), CacheElement(11, 2, 4)]
        rows = [[3, 0, 11], [7, 0, 2], [1, 0, 4]]
        assert rows_of(elems) == rows
        store.write_set_raw(0, rows)
        assert (store.sets[0], store.keys_register[0]) == store.encode_set(rows)
        assert store.read_set_raw(0) == rows
        assert store.decode_set(store.word(0)) == rows
        assert store.peek_set(0) == elems

    def test_read_way_and_patch(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        store = RegisterStore(lay, check_invariants=True)
        store.write_set_raw(0, [[3, 5], [30, 50], [2, 7]])
        assert store.read_way(0, 1) == (5, 50, 7)
        store.write_way_field(0, 1, 9)
        assert store.read_way(0, 1) == (5, 50, 9)
        assert store.peek_set(0) == [CacheElement(3, 30, 2), CacheElement(5, 50, 9)]
        with pytest.raises(StorageError, match="^scn 256 exceeds 8 bits$"):
            store.write_way_field(0, 0, 256)

    def test_packed_views_follow_every_write_path(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=2)
        store = RegisterStore(lay)
        rows = [[4, 0, 2], [1, 0, 9], [6, 0, 3]]

        def assert_views(expected):
            word, keys_word = store.encode_set(expected)
            assert store.sets == [0, word] and store.word(1) == word
            assert store.keys_register == [0, keys_word]
            assert store.decode_set(word) == expected

        store.write_set_raw(1, rows)
        assert_views(rows)
        store.write_way_field(1, 2, 5)
        assert_views([[4, 0, 2], [1, 0, 9], [6, 0, 5]])
        store.map_scn(lambda live: [s + 1 for s in live])
        assert_views([[4, 0, 2], [1, 0, 9], [7, 0, 6]])
        rows = [[4, 8, 2], [1, 8, 9], [7, 8, 6]]
        store.write_set_raw(1, rows)
        assert_views(rows)
        assert store.ternary_lookup(1, 2) == 2 and store.ternary_lookup(1, 3) == MISS

    def test_raw_row_is_copied_on_read_and_write(self):
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1))
        rows = [[7, 0], [1, 0], [1, 0]]
        store.write_set_raw(0, rows)
        rows[0][0] = 9
        pending = store.read_set_raw(0)
        for row in pending:
            row.insert(0, 0)
        pending[0][1] = 5
        assert store.peek_set(0) == [CacheElement(7, 1, 1), CacheElement(0, 0, 0)]

    def test_checked_raw_write_rejects_overwide_slice(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        store = RegisterStore(lay, check_invariants=True)
        with pytest.raises(StorageError):
            store.write_set_raw(0, [[1, 0], [1 << lay.value_bits, 0], [0, 0]])
        with pytest.raises(StorageError):
            store.write_set_raw(0, [[3, 3], [0, 0], [0, 0]])  # one key twice in a set
        with pytest.raises(AssertionError):
            store.write_set_raw(0, [[1, 0], [0, 0]])  # the scn row is missing

    def test_maintenance_access_is_validated_and_unaccounted(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=3)
        store = RegisterStore(lay)
        store.rows[1] = [[3, 0], [30, 0], [2, 0]]
        store.rows[2] = [[5, 6], [50, 60], [7, 4]]
        seen = []

        def bump(live):
            seen.append(live)
            return [s + 10 for s in live]

        store.map_scn(bump)
        assert seen == [[2], [7, 4]]  # empty set 0 and empty ways are skipped
        assert store.peek_set(1) == [CacheElement(3, 30, 12), CacheElement(0, 0, 0)]
        assert store.peek_set(2) == [CacheElement(5, 50, 17), CacheElement(6, 60, 14)]
        assert store.counter == OpCounter(extra_reads=3, extra_writes=3)
        with pytest.raises(StorageError):
            store.map_scn(lambda live: [256] * len(live))

    @pytest.mark.parametrize("field, name", [(0, "key"), (1, "value"), (2, "scn")])
    @pytest.mark.parametrize("bad", ["negative", "overwide"])
    def test_check_rows_rejects_out_of_range_in_every_row(self, field, name, bad):
        lay = LayoutConfig(key_bits=6, value_bits=7, scn_bits=5, k=3, d=1)
        store = RegisterStore(lay)
        width = (6, 7, 5)[field]
        x = -1 if bad == "negative" else 1 << width
        store.rows[0] = [[4, 0, 9], [1, 0, 2], [3, 0, 4]]
        store.rows[0][field][2] = x
        with pytest.raises(StorageError, match=f"^{name} {x} exceeds {width} bits$"):
            store._check_rows(0)

    def test_check_rows_duplicates_and_empty_ways(self):
        lay = LayoutConfig(key_bits=6, value_bits=7, scn_bits=5, k=4, d=1)
        store = RegisterStore(lay)
        store.rows[0] = [[0, 5, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0]]
        store._check_rows(0)  # several empty ways are not duplicates
        store.rows[0] = [[5, 0, 5, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(StorageError, match="^duplicate key 5 within one set$"):
            store._check_rows(0)
        # the first fault in way order is reported, as encode_set does
        store.rows[0] = [[5, 5, 0, 0], [0, 0, 0, 1 << 7], [0, 0, 0, 0]]
        with pytest.raises(StorageError, match="^duplicate key 5"):
            store._check_rows(0)
        store.rows[0] = [[5, 0, 0, 0], [0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(AssertionError, match="does not hold 4 ways"):
            store._check_rows(0)

    def test_op_counter_reset(self):
        c = OpCounter(tcam_matches=3, register_reads=2, register_writes=1,
                      extra_reads=5, extra_writes=5)
        c.reset()
        assert (c.tcam_matches, c.register_reads, c.register_writes,
                c.extra_reads, c.extra_writes) == (0, 0, 0, 0, 0)
