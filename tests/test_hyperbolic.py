from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcache.core import LayoutConfig
from dpcache.hyperbolic import (
    DEFAULT_MAX_SCN,
    MAX_FACTOR_NUMERATOR,
    MAX_INTEGER_FACTOR,
    HyperbolicEngine,
    LogTable,
    _build_entries,
    as_fraction,
    checked_factor,
    log2_fixed,
)


def floor_log2_scaled(x: int, p: int, q: int) -> int:
    """Independent oracle: largest m with 2**(m*q) <= x**p, by linear search."""
    target = x**p
    m = 0
    while (1 << ((m + 1) * q)) <= target:
        m += 1
    return m


def exact_entries(max_scn: int, factor: Fraction) -> tuple[int, ...]:
    """Reference table: every entry from the exact integer log, one x at a time."""
    return (0, 0) + tuple(log2_fixed(x, factor) for x in range(2, max_scn))


class TestLogTable:
    def test_exact_power_of_two(self):
        table = LogTable(2048, 100)
        assert table.lookup(8) == 300

    def test_floor_of_irrational(self):
        table = LogTable(2048, 100)
        assert table.lookup(10) == 332
        # oracle: 2^332 <= 10^100 < 2^333
        assert (1 << 332) <= 10**100 < (1 << 333)

    def test_fixed_point_conversion(self):
        # decimal strings and floats parse exactly, so a fractional factor
        # scales the table without rounding drift
        assert as_fraction("123.45678") * 100 // 1 == 12345
        assert as_fraction(0.1) == Fraction(1, 10)
        table = LogTable(2048, "0.5")
        assert table.integer_factor == Fraction(1, 2)
        assert table.lookup(1024) == 5 and table.lookup(2047) == 5

    def test_entries_monotone_and_anchored(self):
        for factor in [Fraction(1, 10), 1, 10, 100]:
            table = LogTable(512, factor)
            assert table.entries[1] == 0
            assert list(table.entries) == sorted(table.entries)
        table = LogTable(512, 7)
        for j in range(9):
            assert table.lookup(2**j) == 7 * j

    def test_saturation(self):
        table = LogTable(64, 100)
        assert table.lookup(64) == table.entries[63]
        assert table.lookup(10**9) == table.entries[63]

    @given(x=st.integers(1, 4096),
           factor=st.sampled_from([Fraction(1, 10), Fraction(1), Fraction(10),
                                   Fraction(100), Fraction(1000), Fraction(3, 7),
                                   Fraction(61, 7), Fraction(12345, 17)]))
    @example(x=1, factor=Fraction(61, 7))
    @example(x=1, factor=Fraction(12345, 17))
    @example(x=128, factor=Fraction(61, 7))
    @settings(max_examples=150, deadline=None)
    def test_log2_fixed_matches_search_oracle(self, x, factor):
        assert log2_fixed(x, factor) == floor_log2_scaled(
            x, factor.numerator, factor.denominator)

    def test_float_product_just_below_an_integer_is_settled_exactly(self):
        # log2(128) * 61/7 is exactly 61, but 7.0 * (61/7) in floats is
        # 60.99999999999999, whose bare floor would store 60
        assert LogTable(2048, Fraction(61, 7)).lookup(128) == 61

    @pytest.mark.parametrize("max_scn", [2, 3, 64, 2048, 4096])
    @pytest.mark.parametrize("factor", [
        Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(61, 7),
        Fraction(10), Fraction(100), Fraction(1000)])
    def test_vectorized_build_equals_exact_loop(self, max_scn, factor):
        _build_entries.cache_clear()
        assert _build_entries(max_scn, factor) == exact_entries(max_scn, factor)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_build_equals_exact_loop_random_factors(self, data):
        max_scn = data.draw(st.sampled_from([2, 3, 64, 2048, 4096]), label="max_scn")
        # the exact loop's x**p grows with p * log2(max_scn) bits; cap its
        # work per example so wide tables draw smaller numerators
        p = data.draw(st.integers(1, min(10**4, 10**6 // max_scn)), label="p")
        q = data.draw(st.integers(1, 10**3), label="q")
        factor = Fraction(p, q)
        _build_entries.cache_clear()
        assert _build_entries(max_scn, factor) == exact_entries(max_scn, factor)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogTable(1, 100)
        with pytest.raises(ValueError):
            LogTable(16, 0)
        # no table outgrows the size the factor bounds are calibrated for
        assert LogTable(DEFAULT_MAX_SCN, 100).max_scn == 2048
        with pytest.raises(ValueError, match=r"^max_scn must lie in \[2, 2048\]$"):
            LogTable(DEFAULT_MAX_SCN + 1, 100)

    @pytest.mark.parametrize("factor", [
        "0", "-1", "1e400", 1e300, "1/0", "inf", "nan", MAX_INTEGER_FACTOR + Fraction(1, 10**6),
        Fraction(MAX_FACTOR_NUMERATOR + 1, 1000),
    ])
    def test_factor_outside_the_accepted_range_is_rejected(self, factor):
        with pytest.raises(ValueError):
            checked_factor(factor)
        with pytest.raises(ValueError):
            LogTable(64, factor)

    @pytest.mark.parametrize("factor", [
        "1e-400", Fraction(1, 10**6), MAX_INTEGER_FACTOR, Fraction(MAX_FACTOR_NUMERATOR, 11),
    ])
    def test_factor_at_the_edges_of_the_range_is_accepted(self, factor):
        table = LogTable(2048, factor)
        assert table.integer_factor == Fraction(factor)
        assert list(table.entries) == sorted(table.entries)

    def test_memory_model_monotone_in_factor(self):
        # reporting function only: larger factors store wider values
        small = LogTable(2048, Fraction(1, 10)).memory_bits()
        large = LogTable(2048, 100).memory_bits()
        assert 0 < small < large


def scores(tick: int, *ways: tuple[int, int]) -> list[int]:
    """Fold scores of (freq, insert_time) ways at ``tick``, as ``_metric`` gives them."""
    eng = HyperbolicEngine(LayoutConfig(k=len(ways), d=1))
    eng.tick = tick
    scns = [eng._pack(freq, t) for freq, t in ways]
    return eng._metric([list(range(1, len(ways) + 1)), [0] * len(ways), scns])


class TestPriorityScore:
    """The integer stand-in for freq / (tick - insert_time) in the fold."""

    def test_worked_examples(self):
        older, younger = scores(10, (4, 0), (1, 6))
        assert (older, younger) == (200 - 332, 0 - 200)
        # consistent with the exact ratios 4/10 > 1/4
        assert older > younger
        assert Fraction(4, 10) > Fraction(1, 4)

    def test_equal_freq_and_lifetime_scores_zero(self):
        for x in [1, 5, 77, 600]:
            assert scores(x, (x, 0)) == [0]

    def test_lifetime_clamped_to_one(self):
        table = LogTable(2048, 100)
        assert scores(10, (3, 10), (3, 11)) == [table.lookup(3)] * 2

    @given(
        f1=st.integers(1, 2000), l1=st.integers(1, 2000),
        f2=st.integers(1, 2000), l2=st.integers(1, 2000),
    )
    @settings(max_examples=400, deadline=None)
    def test_monotone_consistency_vs_exact_rationals(self, f1, l1, f2, l2):
        # if p1/p2 >= 2**(2/F) the integer scores order the same way: each
        # floor loses < 1 scaled unit, so an exact-scale gap >= 2 is decisive
        factor = 100
        lhs = (f1 * l2) ** factor
        rhs = 4 * (f2 * l1) ** factor  # (2**(2/F))**F = 4
        if lhs >= rhs:
            s1, s2 = scores(2000, (f1, 2000 - l1), (f2, 2000 - l2))
            assert s1 > s2


class TestHyperbolicEngine:
    def test_fresh_insert_stamps_tick(self):
        eng = HyperbolicEngine(LayoutConfig(k=2, d=1))
        eng.fetch(5)
        freq, t = eng._unpack(eng.dump()[0][0].scn)
        assert (freq, t) == (1, eng.tick) == (1, 1)

    def test_eviction_agrees_with_exact_oracle(self):
        # exact priorities at the eviction step: p(1) = 3/4, p(2) = 1/1
        eng = HyperbolicEngine(LayoutConfig(k=2, d=1))
        results = [eng.fetch(key) for key in [1, 1, 1, 2, 3]]
        assert results[-1].evicted.key == 1
        assert Fraction(3, 4) < Fraction(1, 1)

    def test_equal_scores_do_not_swap(self):
        eng = HyperbolicEngine(LayoutConfig(k=2, d=1))
        eng.tick = 10
        scn = eng._pack(2, 4)
        eng.store.write_set_raw(0, [[8, 9], [0, 0], [scn, scn]])
        victim, _ = eng.insert_pending_raw(0, (7, 0, eng._pack(1, 10)))
        # candidate (old way 0, key 8) ties with way 1 (key 9): no swap
        assert victim[0] == 8

    def test_hit_increments_frequency_only(self):
        eng = HyperbolicEngine(LayoutConfig(k=2, d=1))
        eng.fetch(5)
        eng.fetch(5)
        freq, t = eng._unpack(eng.dump()[0][0].scn)
        assert (freq, t) == (2, 1)
        assert eng.tick == 2

    def test_frequency_saturates(self):
        lay = LayoutConfig(scn_bits=8, k=1, d=1)  # 4-bit freq, 4-bit time
        eng = HyperbolicEngine(lay)
        for _ in range(40):
            eng.fetch(3)
        freq, _ = eng._unpack(eng.dump()[0][0].scn)
        assert freq == 15

    def test_tick_halving_keeps_clock_bounded(self):
        eng = HyperbolicEngine(LayoutConfig(scn_bits=12, k=2, d=2))  # 64-entry table
        for key in range(1, 400):
            eng.fetch(key)
            assert eng.tick < 63
            for row in eng.dump():
                for e in row:
                    if e.key:
                        assert eng._unpack(e.scn)[1] <= eng.tick

    def test_halving_preserves_lifetime_ranking(self):
        eng = HyperbolicEngine(LayoutConfig(k=4, d=1))
        eng.tick = 1000
        times = [900, 500, 123, 7]
        eng.store.write_set_raw(0, [[1, 2, 3, 4], [0] * 4, [eng._pack(1, t) for t in times]])
        eng._halve_times()
        halved = [eng._unpack(e.scn)[1] for e in eng.dump()[0]]
        assert halved == [t >> 1 for t in times]
        assert sorted(halved, reverse=True) == halved

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_halving_arithmetic_equals_pack(self, data):
        # narrow widths included: at scn_bits=2 each half is a single bit
        scn_bits = data.draw(st.sampled_from([2, 3, 5, 8, 16, 32]), label="scn_bits")
        lay = LayoutConfig(scn_bits=scn_bits, k=4, d=2)
        eng = HyperbolicEngine(lay)
        words = data.draw(st.lists(st.integers(0, lay.max_scn()), min_size=8, max_size=8),
                          label="words")
        words[0] |= eng.freq_max  # one saturated frequency
        for h in range(2):
            eng.store.rows[h] = [[4 * h + w + 1 for w in range(4)], [0] * 4, words[4 * h:4 * h + 4]]
        eng.tick = eng.log_table.max_scn - 1
        eng._halve_times()
        expected = [eng._pack(freq, t >> 1) for freq, t in map(eng._unpack, words)]
        assert eng.store.rows[0][2] + eng.store.rows[1][2] == expected
        assert eng._unpack(expected[0])[0] == eng.freq_max

    def test_table_size_follows_time_field(self):
        # one entry per insert time, up to DEFAULT_MAX_SCN; the tick halves
        # before it reaches the last entry
        for scn_bits, size in [(2, 2), (3, 4), (8, 16), (12, 64), (20, 1024),
                               (22, 2048), (23, 2048), (32, 2048)]:
            eng = HyperbolicEngine(LayoutConfig(scn_bits=scn_bits, k=2, d=1))
            assert eng.log_table.max_scn == size == min(DEFAULT_MAX_SCN, 1 << eng.time_bits)
            for key in range(1, 3 * size):
                eng.fetch(key)
                assert eng.tick < size - 1

    def test_log_table_shared_between_engines(self):
        # engines of one size and factor share the built entries, not copies
        a = HyperbolicEngine(LayoutConfig(scn_bits=16, k=2, d=1), integer_factor=100)
        b = HyperbolicEngine(LayoutConfig(scn_bits=16, k=4, d=8), integer_factor="100")
        assert a.log_table.max_scn == 256
        assert a.log_table.entries is b.log_table.entries
