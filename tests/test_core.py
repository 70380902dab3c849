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
    hash_to_set,
    ternary_match,
)


def long_division_mod(dividend_digits: str, divisor: int) -> int:
    """Schoolbook long division over the decimal string; independent of %."""
    remainder = 0
    for ch in dividend_digits:
        remainder = remainder * 10 + int(ch)
        while remainder >= divisor:
            remainder -= divisor
    return remainder


class TestLayoutConfig:
    def test_element_width(self):
        lay = LayoutConfig(key_bits=32, value_bits=32, scn_bits=32, scn_words=2, k=4, d=8)
        assert lay.element_width == 128
        assert lay.set_width == 512

    def test_mask_limit(self):
        # 64 ways of 32-bit keys is exactly the 2048-bit ternary mask
        LayoutConfig(key_bits=32, k=64, d=1)
        with pytest.raises(LayoutError):
            LayoutConfig(key_bits=32, k=65, d=1)

    @pytest.mark.parametrize("kwargs", [
        dict(key_bits=0), dict(value_bits=0), dict(scn_bits=0),
        dict(k=0), dict(d=0), dict(scn_words=3),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(LayoutError):
            LayoutConfig(**kwargs)


class TestHashToSet:
    def test_examples(self):
        assert hash_to_set(37, 16) == 5
        assert hash_to_set(16, 16) == 0

    def test_large_key_against_long_division(self):
        expected = long_division_mod("1000003", 7)
        assert hash_to_set(1_000_003, 7) == expected

    def test_rejects_key_zero(self):
        with pytest.raises(StorageError):
            hash_to_set(0, 16)


class TestTernary:
    def test_match_examples(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=1)
        store = RegisterStore(lay)
        elems = [CacheElement(7, 0, (0,)), CacheElement(0, 0, (0,)), CacheElement(9, 0, (0,))]
        store.write_set(0, elems)
        assert store.ternary_lookup(0, 9) == 2
        assert store.ternary_lookup(0, 3) == MISS

    def test_zero_bit_slice(self):
        # XOR of the matched way's slice is all-zero; others are not
        key_bits = 8
        keys = [5, 6, 7, 8]
        word = 0
        for i, key in enumerate(keys):
            word |= key << (i * key_bits)
        assert ternary_match(word, 5, k=4, key_bits=key_bits) == 0
        rep = sum(5 << (i * key_bits) for i in range(4))
        x = word ^ rep
        slices = [(x >> (i * key_bits)) & 0xFF for i in range(4)]
        assert slices[0] == 0
        assert all(s != 0 for s in slices[1:])

    def test_rejects_key_zero(self):
        with pytest.raises(StorageError):
            ternary_match(0, 0, k=2, key_bits=8)

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
        word = 0
        for i, key in enumerate(entry):
            word |= key << (i * 8)
        got = ternary_match(word, probe, k=len(entry), key_bits=8)
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
        elems = [CacheElement(3, 30, (2,)), CacheElement(0, 0, (0,))]
        store.write_set(0, elems)
        assert store.read_set(0) == elems

    def test_fresh_store_reads_empty(self):
        lay = LayoutConfig(k=3, d=2)
        store = RegisterStore(lay)
        assert store.read_set(0) == [lay.empty_element()] * 3

    def test_keys_register_matches_concatenation(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=2)
        store = RegisterStore(lay)
        elems = [CacheElement(9, 1, (0,)), CacheElement(4, 2, (5,)), CacheElement(0, 0, (0,))]
        store.write_set(1, elems)
        expected = 0
        for i, e in enumerate(elems):
            expected |= e.key << (i * 8)
        assert store.keys_register[1] == expected

    def test_out_of_range_set(self):
        store = RegisterStore(LayoutConfig(k=2, d=2))
        with pytest.raises(StorageError):
            store.read_set(2)
        with pytest.raises(StorageError):
            store.write_set(-1, [])

    def test_field_width_violations(self):
        lay = LayoutConfig(key_bits=4, value_bits=4, scn_bits=4, k=1, d=1)
        store = RegisterStore(lay)
        with pytest.raises(StorageError):
            store.write_set(0, [CacheElement(16, 0, (0,))])
        with pytest.raises(StorageError):
            store.write_set(0, [CacheElement(1, 16, (0,))])
        with pytest.raises(StorageError):
            store.write_set(0, [CacheElement(1, 0, (16,))])

    def test_duplicate_live_keys_rejected(self):
        store = RegisterStore(LayoutConfig(k=2, d=1))
        with pytest.raises(StorageError):
            store.write_set(0, [CacheElement(5, 0, (0,)), CacheElement(5, 1, (1,))])

    def test_read_write_counting(self):
        store = RegisterStore(LayoutConfig(k=2, d=1))
        store.write_set(0, [CacheElement(1, 0, (0,)), CacheElement(0, 0, (0,))])
        store.read_set(0)
        assert store.counter.register_writes == 1
        assert store.counter.register_reads == 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_codec_roundtrip(self, data):
        # key_bits >= 3 so k unique live keys always exist
        key_bits = data.draw(st.integers(3, 16))
        value_bits = data.draw(st.integers(1, 16))
        scn_bits = data.draw(st.integers(1, 16))
        scn_words = data.draw(st.sampled_from([1, 2]))
        k = data.draw(st.integers(1, 6))
        lay = LayoutConfig(key_bits=key_bits, value_bits=value_bits,
                           scn_bits=scn_bits, scn_words=scn_words, k=k, d=1)
        store = RegisterStore(lay)
        keys = data.draw(st.lists(
            st.integers(1, lay.max_key()), min_size=k, max_size=k, unique=True))
        occupancy = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        elems = []
        for key, live in zip(keys, occupancy):
            if live:
                value = data.draw(st.integers(0, lay.max_value()))
                scn = tuple(data.draw(st.integers(0, lay.max_scn()))
                            for _ in range(scn_words))
                elems.append(CacheElement(key, value, scn))
            else:
                elems.append(lay.empty_element())
        store.write_set(0, elems)
        assert store.read_set(0) == elems

    def test_raw_path_equals_typed_path(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, scn_words=2, k=3, d=1)
        a, b = RegisterStore(lay), RegisterStore(lay)
        elems = [CacheElement(3, 7, (1, 9)), CacheElement(0, 0, (0, 0)),
                 CacheElement(11, 2, (4, 4))]
        rows = [[3, 0, 11], [7, 0, 2], [1, 0, 4], [9, 0, 4]]
        a.write_set(0, elems)
        b.write_set_raw(0, rows)
        assert a.sets == b.sets and a.keys_register == b.keys_register
        assert b.read_set_raw(0) == rows
        assert [CacheElement.from_way(way) for way in zip(*a.read_set_raw(0))] == elems
        assert b.read_set(0) == elems

    def test_read_way_and_patch(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        store = RegisterStore(lay, check_invariants=True)
        store.write_set(0, [CacheElement(3, 30, (2,)), CacheElement(5, 50, (7,))])
        assert store.read_way(0, 1) == (5, 50, 7)
        store.write_way_field(0, 1, 2, 9)
        assert store.read_way(0, 1) == (5, 50, 9)
        store.write_way_field(0, 0, 1, 31)
        assert store.read_set(0) == [CacheElement(3, 31, (2,)), CacheElement(5, 50, (9,))]
        with pytest.raises(StorageError):
            store.write_way_field(0, 0, 0, 1)  # key field is off limits
        with pytest.raises(StorageError):
            store.write_way_field(0, 0, 2, 256)  # wider than the scn field

    def test_packed_views_follow_every_write_path(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=2)
        store = RegisterStore(lay)
        elems = [CacheElement(4, 1, (6,)), CacheElement(0, 0, (0,)),
                 CacheElement(2, 9, (3,))]

        def assert_views(expected):
            word, keys_word = store.encode_set(expected)
            assert store.sets == [0, word] and store.word(1) == word
            assert store.keys_register == [0, keys_word]
            assert store.decode_set(word) == expected

        store.write_set_raw(1, [[4, 0, 2], [1, 0, 9], [6, 0, 3]])
        assert_views(elems)
        store.write_way_field(1, 2, 2, 5)
        elems[2] = CacheElement(2, 9, (5,))
        assert_views(elems)
        store.map_scn(0, lambda live: [s + 1 for s in live])
        elems = [CacheElement(4, 1, (7,)), CacheElement(0, 0, (0,)), CacheElement(2, 9, (6,))]
        assert_views(elems)
        elems[1] = CacheElement(8, 8, (8,))
        store.write_set(1, elems)
        assert_views(elems)
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
        assert store.read_set(0) == [CacheElement(7, 1, (1,)), CacheElement(0, 0, (0,))]

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

        store.map_scn(0, bump)
        assert seen == [[2], [7, 4]]  # empty set 0 and empty ways are skipped
        assert store.peek_set(1) == [CacheElement(3, 30, (12,)), CacheElement(0, 0, (0,))]
        assert store.peek_set(2) == [CacheElement(5, 50, (17,)), CacheElement(6, 60, (14,))]
        assert store.counter == OpCounter(extra_reads=3, extra_writes=3)
        with pytest.raises(StorageError):
            store.map_scn(0, lambda live: [256] * len(live))

    @pytest.mark.parametrize("field, name", [(0, "key"), (1, "value"), (2, "scn"), (3, "scn")])
    @pytest.mark.parametrize("bad", ["negative", "overwide"])
    def test_check_rows_rejects_out_of_range_in_every_row(self, field, name, bad):
        lay = LayoutConfig(key_bits=6, value_bits=7, scn_bits=5, scn_words=2, k=3, d=1)
        store = RegisterStore(lay)
        width = (6, 7, 5, 5)[field]
        x = -1 if bad == "negative" else 1 << width
        store.rows[0] = [[4, 0, 9], [1, 0, 2], [3, 0, 4], [5, 0, 6]]
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
