import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dpcache.oracle import ReferenceCache
from dpcache.traces import (
    Trace,
    TraceFormatError,
    ZipfSpec,
    generate_zipf,
    parse_trace,
    zipf_frequency,
)


class TestZipfFrequency:
    def test_two_element_universe(self):
        assert zipf_frequency(2, 1, 1.0) == pytest.approx(2 / 3)

    def test_exact_fraction_case(self):
        expected = Fraction(1, 2) / (Fraction(1) + Fraction(1, 2) + Fraction(1, 3))
        assert expected == Fraction(3, 11)
        assert zipf_frequency(3, 2, 1.0) == pytest.approx(float(expected))

    def test_single_element_universe(self):
        assert zipf_frequency(1, 1, 0.6) == 1.0

    def test_distribution_sums_to_one(self):
        for s in [0.6, 0.99, 1.5]:
            total = math.fsum(zipf_frequency(500, l, s) for l in range(1, 501))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            zipf_frequency(10, 0, 1.0)
        with pytest.raises(ValueError):
            zipf_frequency(10, 11, 1.0)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_what_zipf_spec_rejects(self, s):
        # the ZipfSpec side is TestGenerateZipf's test_rejects_bad_spec and
        # test_rejects_non_finite_exponent
        with pytest.raises(ValueError, match="s must be positive and finite"):
            zipf_frequency(10, 1, s)


class TestGenerateZipf:
    def test_same_seed_same_sequence(self):
        spec = ZipfSpec(N=1000, s=0.99, length=5000, seed=5)
        assert generate_zipf(spec).keys == generate_zipf(spec).keys

    def test_different_seed_differs(self):
        a = generate_zipf(ZipfSpec(N=1000, s=0.99, length=5000, seed=5))
        b = generate_zipf(ZipfSpec(N=1000, s=0.99, length=5000, seed=6))
        assert a.keys != b.keys

    def test_keys_are_live_and_in_range(self):
        trace = generate_zipf(ZipfSpec(N=50, s=1.0, length=2000, seed=1))
        assert all(1 <= key <= 50 for key in trace.keys)
        assert trace.max_key <= 50

    def test_rank1_frequency_matches_formula(self):
        spec = ZipfSpec(N=10_000, s=1.5, length=100_000, seed=9)
        trace = generate_zipf(spec)
        empirical = trace.keys.count(1) / spec.length
        assert empirical == pytest.approx(zipf_frequency(spec.N, 1, spec.s), abs=0.02)

    def test_extreme_skew_concentrates_on_rank_one(self):
        trace = generate_zipf(ZipfSpec(N=100, s=8.0, length=20_000, seed=2))
        assert trace.keys.count(1) / len(trace.keys) >= 0.99

    def test_decile_rank_frequencies_non_increasing(self):
        spec = ZipfSpec(N=1000, s=0.99, length=200_000, seed=3)
        counts = np.bincount(generate_zipf(spec).keys, minlength=spec.N + 1)[1:]
        deciles = counts.reshape(10, 100).sum(axis=1)
        assert all(a >= b for a, b in zip(deciles, deciles[1:]))

    def test_metadata(self):
        trace = generate_zipf(ZipfSpec(N=10, s=1.0, length=10, seed=4))
        assert trace.generator == "numpy-pcg64"
        assert trace.seed == 4
        assert "zipf" in trace.source
        assert len(trace.keys) == 10

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ZipfSpec(N=0, s=1.0, length=10, seed=1)
        with pytest.raises(ValueError):
            ZipfSpec(N=10, s=0.0, length=10, seed=1)

    def test_rejects_a_universe_of_two_to_the_32_keys(self):
        with pytest.raises(ValueError, match=r"^N must be below 4294967296, got 4294967296$"):
            ZipfSpec(N=2**32, s=0.99, length=10, seed=1)
        assert ZipfSpec(N=2**32 - 1, s=0.99, length=10, seed=1).N == 2**32 - 1

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_exponent(self, s):
        with pytest.raises(ValueError, match="positive and finite"):
            ZipfSpec(N=10, s=s, length=100, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ZipfSpec(N=10, s=1.0, length=100, seed=-1)
        assert generate_zipf(ZipfSpec(N=10, s=1.0, length=100, seed=0)).seed == 0


class TestParseTrace:
    def test_plain_first_seen_remap(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("5\n5\n9\n")
        assert parse_trace(str(path)).keys.tolist() == [1, 1, 2]

    def test_csv_key_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("op,key\nGET,42\n")
        assert parse_trace(str(path), format="csv").keys.tolist() == [1]

    def test_csv_other_column_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("block,op\n17,r\n17,w\n3,r\n")
        assert parse_trace(str(path), format="csv", key_column="block").keys.tolist() == [1, 1, 2]

    @pytest.mark.parametrize("text, row", [
        ("id,key\n1,10\n2,\n3,10\n4\n", 3),  # an empty cell
        ("id,key\n1,10\n\n3,10\n4\n", 4),  # a missing cell; the blank row is skipped
        ("id,key\n1, \n2,x\n", 2),  # the first fault in row order is reported
    ])
    def test_csv_row_without_a_key_rejected(self, tmp_path, text, row):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=rf":{row}: empty key$"):
            parse_trace(str(path), format="csv")

    def test_zero_key_remapped_live(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0\n0\n8\n")
        trace = parse_trace(str(path))
        assert trace.keys.tolist() == [1, 1, 2]
        assert all(key >= 1 for key in trace.keys)

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"7\r\n\r\n8\r\n")
        assert parse_trace(str(path)).keys.tolist() == [1, 2]

    def test_64bit_keys(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(f"{2**64 - 1}\n1\n")
        assert parse_trace(str(path)).keys.tolist() == [1, 2]

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("1\nfoo\n")
        with pytest.raises(TraceFormatError, match=r":2:"):
            parse_trace(str(path))

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.trace"
        path.write_bytes(b"\xef\xbb\xbf5\n6\n5\n")
        assert parse_trace(str(path)).keys.tolist() == [1, 2, 1]

    def test_byte_order_mark_is_not_part_of_the_first_csv_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfkey,op\n17,r\n3,w\n17,r\n")
        assert parse_trace(str(path), format="csv").keys.tolist() == [1, 2, 1]

    def test_non_utf8_text_rejected_with_the_path(self, tmp_path):
        path = tmp_path / "latin1.trace"
        path.write_bytes(b"5\n\xff6\n")
        with pytest.raises(TraceFormatError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            parse_trace(str(path))

    def test_csv_cell_over_the_field_limit_names_its_row(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("op,key\nr,5\n\nr," + "7" * 200_000 + "\nr,6\n")
        with pytest.raises(TraceFormatError, match=rf"^{re.escape(str(path))}:3: "
                           r"field larger than field limit \(131072\)$"):
            parse_trace(str(path), format="csv")
        path.write_text("op," + "k" * 200_000 + "\nr,5\n")  # the header is row 1
        with pytest.raises(TraceFormatError, match=rf"^{re.escape(str(path))}:1: field larger"):
            parse_trace(str(path), format="csv")
        # a fault in an earlier row of the same block is still the one reported
        path.write_text("op,key\nr,\nr," + "7" * 200_000 + "\n")
        with pytest.raises(TraceFormatError, match=r":2: empty key$"):
            parse_trace(str(path), format="csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("\n\n")
        with pytest.raises(TraceFormatError, match="no events"):
            parse_trace(str(path))

    def test_missing_csv_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceFormatError, match="key"):
            parse_trace(str(path), format="csv")

    def test_unknown_format(self, tmp_path):
        # "arc" is no alias of plain: an ARC trace line holds four fields
        for format in ("binary", "arc"):
            with pytest.raises(TraceFormatError, match=f"^unknown trace format '{format}'$"):
                parse_trace("whatever", format=format)

    def test_remap_is_bijection(self, tmp_path):
        import random

        rng = random.Random(7)
        raw = [rng.choice([10**15, 3, 900, 2**63, 41]) for _ in range(500)]
        path = tmp_path / "t.trace"
        path.write_text("".join(f"{key}\n" for key in raw))
        trace = parse_trace(str(path))
        pairing = {}
        for r, m in zip(raw, trace.keys):
            assert pairing.setdefault(r, m) == m
        assert len(set(pairing.values())) == len(pairing)
        assert sorted(set(trace.keys)) == list(range(1, trace.max_key + 1))

    def test_remap_preserves_fully_associative_behaviour(self, tmp_path):
        # hit/miss streams depend only on key identity for a single-set cache
        import random

        rng = random.Random(13)
        raw = [rng.randint(1, 10**12) * 2 + 1 for _ in range(800)]
        path = tmp_path / "t.trace"
        path.write_text("".join(f"{key}\n" for key in raw))
        mapped = parse_trace(str(path)).keys
        a = ReferenceCache("lru", k=8, d=1)
        b = ReferenceCache("lru", k=8, d=1)
        for rk, mk in zip(raw, mapped):
            assert a.fetch(rk)[0] == b.fetch(mk)[0]
