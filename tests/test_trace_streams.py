"""Trace ingest keeps its streams while its memory stays bounded.

The sha256 pins below were captured from the whole-array sampler that drew
every uniform at once and held a separate weight table; the chunked sampler
must reproduce them for lengths on both sides of a chunk boundary.
``whole_text_parse`` is the parser that read the whole file and split it
once; the streaming parser must give the same keys, the same dense ids and
the same errors with the same line numbers, also when a text block ends
inside a CRLF pair.
"""

import csv
import hashlib
import io
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcache import traces
from dpcache.traces import TraceFormatError, ZipfSpec, generate_zipf, parse_trace

ZIPF_PINS = {
    (1, 1): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (1, 65536): "b1476de1907209012e63fa502715fd97db26e595352faa808d8c10433a1472a4",
    (1, 65537): "d53d3ad94a7e8f85a5689ff4aad2cf8b2ec92ba5a8f57f6f959ba18e0fe6deb4",
    (1, 200003): "40c3195f8a78b40f563df5eeee5ece79094b05e920cda27067d2db40678ee954",
    (50, 1): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (50, 65536): "e4eaf6241db2041dc0b15a4bab2b25c45eec7c2f4e969ef58eb645735ccd847f",
    (50, 65537): "c6b956bd89d3889cef68b131a5c86489b46855e86c2ee59a6304a81dd5b5091c",
    (50, 200003): "db7413c935aa91c785a2a309d2e31b26b1f30f1148381ea73e5624044a9daa81",
    (10**6, 1): "f0a0278e4372459cca6159cd5e71cfee638302a7b9ca9b05c34181ac0a65ac5d",
    (10**6, 65536): "12fa2f0f011ac236ce85c342a3aebeda470cfb7589123ced5230afd6f5b36564",
    (10**6, 65537): "f532ae0f89defa0d42dfae551f0379ea6afe25b4227c6bcb59294b4aa412fe6a",
    (10**6, 200003): "0608c7e29f1dde0e6539f8aa46ab6612115d79c5c19cdc3e3cfec93b7d5ddc91",
}


def keys_digest(keys) -> str:
    """sha256 of the keys as little-endian uint64, whatever holds them."""
    return hashlib.sha256(np.fromiter(keys, dtype="<u8", count=len(keys)).tobytes()).hexdigest()


@pytest.mark.parametrize("n, length", sorted(ZIPF_PINS))
def test_generate_zipf_stream_pinned(n, length):
    trace = generate_zipf(ZipfSpec(N=n, s=0.99, length=length, seed=11))
    assert len(trace.keys) == length
    assert keys_digest(trace.keys) == ZIPF_PINS[n, length]


def unsorted_zipf(spec: ZipfSpec) -> np.ndarray:
    """The spec's ranks from one search of all its draws in stream order."""
    cdf = traces._zipf_cdf(spec.N, float(spec.s))
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    u = np.concatenate([rng.random(min(traces._ZIPF_CHUNK, spec.length - start))
                        for start in range(0, spec.length, traces._ZIPF_CHUNK)])
    return np.searchsorted(cdf, u * cdf[-1], side="left") + 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10**5),
       s=st.floats(0.05, 4, exclude_min=True),
       length=st.sampled_from([1, 2**16 - 1, 2**16, 2**16 + 1]) | st.integers(1, 3 * 2**16),
       seed=st.integers(0, 2**32 - 1))
@example(n=10**4, s=4.0, length=2**16 + 1, seed=1)  # 259 flat steps of the table from rank 9,742
def test_sorted_search_matches_the_unsorted_one(n, s, length, seed):
    spec = ZipfSpec(N=n, s=s, length=length, seed=seed)
    keys = np.frombuffer(generate_zipf(spec).keys, dtype=np.uint32)
    assert np.array_equal(keys, unsorted_zipf(spec))


def test_a_draw_on_a_flat_run_of_the_table_takes_its_first_rank(monkeypatch):
    # a non-decreasing table with runs, whose values are the stream's own
    # first two draws, so that those draws land exactly on a run
    spec = ZipfSpec(N=6, s=1.0, length=2**16 + 1, seed=3)
    low, high = sorted(np.random.Generator(np.random.PCG64(spec.seed)).random(2))
    table = np.array([low, low, high, high, high, 1.0])
    monkeypatch.setattr(traces, "_zipf_cdf", lambda N, s: table)
    keys = np.frombuffer(generate_zipf(spec).keys, dtype=np.uint32)
    assert np.array_equal(keys, unsorted_zipf(spec))
    assert sorted(keys[:2]) == [1, 3]
    assert set(keys.tolist()) == {1, 3, 6}


def test_key_storage_is_four_bytes_below_two_to_the_32():
    trace = generate_zipf(ZipfSpec(N=1000, s=0.99, length=100, seed=1))
    assert trace.keys.typecode == "I" and trace.keys.itemsize == 4


def test_parse_refuses_the_block_that_brings_key_limit_distinct_keys(tmp_path):
    # with the limit moved down to 3, two distinct keys parse, and the third,
    # met in the second block, is refused there, naming the file.  The batch
    # floor is moved down to 1 too, so every block is its own batch; at the
    # real limit of 2**32 the floor can never bind
    path = tmp_path / "t.trace"
    path.write_text("70\n80\n70\n")
    with mock.patch.object(traces, "KEY_LIMIT", 3):
        trace = parse_trace(str(path))
    assert (trace.keys.typecode, trace.keys.tolist(), trace.max_key) == ("I", [1, 2, 1], 2)
    path.write_text("70\n80\n70\n90\n80\n")
    with mock.patch.object(traces, "KEY_LIMIT", 3), \
            mock.patch.object(traces, "_BLOCK_CHARS", 6), \
            mock.patch.object(traces, "_BATCH_FLOOR", 1), \
            mock.patch.object(traces, "_block_keys", wraps=traces._block_keys) as by_block:
        with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: more than 2 distinct keys$"):
            parse_trace(str(path))
    assert [call.args[1] for call in by_block.call_args_list] == [1, 3]


# -- the whole-text parser the streaming one replaces ------------------------

def whole_text_parse(path: str, format: str, key_column: str = "key"):
    """Read the file at once and split it once; returns (keys, max_key)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    ids: dict[int, int] = {}
    keys: list[int] = []

    def parse_key(cell: str, line_no: int) -> int:
        try:
            key = int(cell)
        except ValueError:
            raise TraceFormatError(f"{path}:{line_no}: non-numeric key {cell!r}") from None
        if key < 0 or key >= (1 << 64):
            raise TraceFormatError(f"{path}:{line_no}: key {key} outside 64-bit range")
        return ids.setdefault(key, len(ids) + 1)

    if format == "csv":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or key_column not in reader.fieldnames:
            raise TraceFormatError(f"{path}: missing key column {key_column!r}")
        for line_no, row in enumerate(reader, start=2):
            cell = (row.get(key_column) or "").strip()
            if not cell:
                raise TraceFormatError(f"{path}:{line_no}: empty key")
            keys.append(parse_key(cell, line_no))
    else:
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line:
                keys.append(parse_key(line, line_no))
    if not keys:
        raise TraceFormatError(f"{path}: no events found")
    return keys, len(ids)


def outcome(parse, path, format):
    try:
        return parse(path, format)
    except TraceFormatError as exc:
        return ("error", str(exc))


def streamed(path, format):
    trace = parse_trace(path, format)
    return trace.keys.tolist(), trace.max_key


CELLS = st.one_of(
    st.sampled_from(["", " ", "\t"]),
    st.integers(0, 40).map(str),
    st.sampled_from([str(2**64 - 1), str(2**32), "0", " 7 ", "12\t", "\u0663"]),  # int reads "\u0663" as 3
)
BAD_CELLS = st.sampled_from(["x1", "-3", str(2**64), "1 2"])
# "\x0c" to "\u2028" end a line for str.splitlines and hold no "\n" or "\r",
# so a block of them is cut where str.splitlines cuts it
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
# the whole-text reader raised csv.Error on a bare "\r" row end, and the
# other separators end no csv row
CSV_SEPARATORS = {"\r": "\r\n", "\x0c": "\n", "\x0b": "\n", "\x1c": "\n", "\x85": "\n", "\u2028": "\n"}
# how a csv row holds its cell: "cell" as the key cell, a blank one making the
# row blank, which the reader skips; "kept" as the key cell even when blank, so
# that the row's key is empty; quoted with a line break inside ("split",
# "led"); or "short", in a row too short to reach the key column
CSV_FORMS = {"cell": "{}", "kept": "{}", "split": '"{0}\n{0}"', "led": '"\r\n{}"'}
CSV_ROWS = st.sampled_from(["cell"] * 5 + ["kept", "split", "led", "short"])


@st.composite
def trace_texts(draw):
    cells = draw(st.lists(CELLS, max_size=30))
    if draw(st.booleans()):
        cells.insert(draw(st.integers(0, len(cells))), draw(BAD_CELLS))
    seps = [draw(SEPARATORS) for _ in cells]
    if cells and draw(st.booleans()):
        seps[-1] = ""  # no line break after the last line
    return cells, seps


@st.composite
def plain_texts(draw):
    cells, seps = draw(trace_texts())
    return "plain", "".join(c + s for c, s in zip(cells, seps))


@st.composite
def csv_texts(draw):
    """The cells of ``trace_texts`` as csv rows, under a header that may name
    ``key`` twice, in which case the last ``key`` column holds the key and the
    first a non-numeric decoy."""
    cells, seps = draw(trace_texts())
    twice = draw(st.booleans())
    header, lead = ("key,op,key", "x,r") if twice else ("op,key", "r")
    rows = []
    for cell, sep in zip(cells, seps):
        form = draw(CSV_ROWS)
        if form == "short":
            row = lead
        elif form == "cell" and not cell.strip():
            row = ""
        else:
            row = f"{lead},{CSV_FORMS[form].format(cell)}"
        rows.append(row + CSV_SEPARATORS.get(sep, sep))
    return "csv", header + "\n" + "".join(rows)


@settings(max_examples=300, deadline=None)
@given(texts=st.one_of(plain_texts(), csv_texts()),
       block=st.sampled_from([1, 2, 3, 5, 8, traces._BLOCK_CHARS]),
       floor=st.sampled_from([1, traces._BATCH_FLOOR]))
def test_streaming_parse_matches_whole_text(texts, block, floor):
    format, text = texts
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "t.trace")
        Path(path).write_bytes(text.encode("utf-8"))
        expected = outcome(whole_text_parse, path, format)
        with mock.patch.object(traces, "_BLOCK_CHARS", block), \
                mock.patch.object(traces, "_BLOCK_ROWS", block), \
                mock.patch.object(traces, "_BATCH_FLOOR", floor):
            assert outcome(streamed, path, format) == expected


@pytest.mark.parametrize("format", ["plain"])
def test_block_boundary_inside_crlf_pair(tmp_path, format):
    # "11\r" fills the first block; its "\n" opens the second, so a parser
    # that took the lone "\r" as a line end would count an extra blank line
    # and report the bad key on line 4 instead of line 3
    path = tmp_path / "t.trace"
    path.write_bytes(b"11\r\n22\r\nbad\r\n")
    with mock.patch.object(traces, "_BLOCK_CHARS", 3):
        with pytest.raises(TraceFormatError, match=r":3: non-numeric key 'bad'"):
            parse_trace(str(path), format)
    path.write_bytes(b"11\r\n22\r\n11\r\n")
    with mock.patch.object(traces, "_BLOCK_CHARS", 3):
        trace = parse_trace(str(path), format)
    assert trace.keys.tolist() == [1, 2, 1]
    assert trace.max_key == 2


def test_csv_row_numbers_run_across_row_blocks(tmp_path):
    # the header is row 1 and the blank row is not numbered, as before
    path = tmp_path / "t.csv"
    path.write_text("op,key\nr,1\nr,2\n\nr,3\nr,x\n")
    with mock.patch.object(traces, "_BLOCK_ROWS", 2):
        with pytest.raises(TraceFormatError, match=r":5: non-numeric key 'x'"):
            parse_trace(str(path), format="csv")
    assert outcome(whole_text_parse, str(path), "csv") == (
        "error", f"{path}:5: non-numeric key 'x'")


def test_a_quoted_cell_with_a_line_break_is_one_key(tmp_path):
    # the quoted cell of row 2 is one key cell, "1\n2", and a non-numeric key.
    # Read as the lines of its cells, the block holds four lines, as many as
    # its cells, because row 4's empty cell is no line: they cancel out, and
    # a parser that compared those counts read three keys
    path = tmp_path / "t.csv"
    path.write_text('op,key\na,"1\n2"\nb,7\nc,\n')
    expected = ("error", f"{path}:2: non-numeric key '1\\n2'")
    assert outcome(streamed, str(path), "csv") == outcome(whole_text_parse, str(path), "csv") == expected


def test_csv_rows_may_end_in_a_bare_cr(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"op,key\rr,5\rr,6\rr,5\r")
    assert parse_trace(str(path), format="csv").keys.tolist() == [1, 2, 1]


def test_fallback_block_shares_the_ids_of_the_clean_blocks(tmp_path):
    # three blocks of four 3-character lines; the middle one holds a blank
    # line, so only it is parsed line by line.  Keys repeat across all three,
    # the third and fourth distinct keys are new in the middle block, and the
    # fifth is new in the last block, so its id shows whether the fallback's
    # ids advanced the shared counter
    path = tmp_path / "t.trace"
    path.write_text("10\n20\n10\n20\n" "30\n  \n20\n40\n" "50\n10\n30\n50\n")
    with mock.patch.object(traces, "_BLOCK_CHARS", 12), \
            mock.patch.object(traces, "_parse_lines", wraps=traces._parse_lines) as by_line:
        trace = parse_trace(str(path))
    assert [call.args[1] for call in by_line.call_args_list] == [5]  # the middle block only
    assert (trace.keys.tolist(), trace.max_key) == whole_text_parse(str(path), "plain")
    assert trace.keys.tolist() == [1, 2, 1, 2, 3, 2, 4, 5, 1, 3, 5]


def test_a_cell_int_refuses_but_strip_clears_is_parsed_line_by_line(tmp_path):
    # str.strip removes the unit separator "\x1f" and int does not, so the
    # block falls back, and the cell still parses as the line parser reads it
    path = tmp_path / "t.trace"
    path.write_text("5\n\x1f6\x1f\n5\n")
    trace = parse_trace(str(path))
    assert (trace.keys.tolist(), trace.max_key) == whole_text_parse(str(path), "plain") == ([1, 2, 1], 2)


# -- the clean-block handoff ------------------------------------------------
# Each text below holds only digits and line breaks, with no blank line, so
# its blocks are clean and numpy converts them; a key of 2**64 - 1 or more
# reads as 2**64 - 1, which hands the block to the line parser.

CLEAN_CASES = {  # text, block size, outcome, first lines of the blocks parsed line by line
    "largest key": (f"{2**64 - 1}\n5\n{2**64 - 1}\n".encode(), None, ([1, 2, 1], 2), [1]),
    "key of 2**64": (f"5\n{2**64}\n5\n".encode(), None,
                     ("error", f":2: key {2**64} outside 64-bit range"), [1]),
    "zero-padded key": (b"42\n" + b"0" * 23 + b"42\n7\n", None, ([1, 1, 2], 2), []),
    "bare CR": (b"5\r6\r5\r", None, ([1, 2, 1], 2), []),
    "CRLF split by a block": (b"11\r\n22\r\n11\r\n", 3, ([1, 2, 1], 2), []),
}


@pytest.mark.parametrize("text, block, expected, by_line", CLEAN_CASES.values(), ids=CLEAN_CASES)
def test_clean_blocks_match_whole_text(tmp_path, text, block, expected, by_line):
    path = tmp_path / "t.trace"
    path.write_bytes(text)
    if expected[0] == "error":
        expected = ("error", f"{path}{expected[1]}")
    with mock.patch.object(traces, "_BLOCK_CHARS", block or traces._BLOCK_CHARS), \
            mock.patch.object(traces, "_parse_lines", wraps=traces._parse_lines) as parse_lines:
        assert outcome(streamed, str(path), "plain") == expected
    assert outcome(whole_text_parse, str(path), "plain") == expected
    assert [call.args[1] for call in parse_lines.call_args_list] == by_line


def remap_sizes(path):
    """Parse ``path``; returns the trace and each remap batch's (keys, table
    size) in order."""
    sizes = []
    remap = traces._DenseIds.remap

    def recorded(table, raws, path):
        sizes.append((len(raws), len(table)))
        return remap(table, raws, path)

    with mock.patch.object(traces._DenseIds, "remap", recorded):
        return parse_trace(str(path)), sizes


def test_a_remap_batch_grows_with_the_table(tmp_path):
    # 3,000 distinct keys in blocks of two lines.  Every batch but the last
    # holds at least 1 / _BATCH_SHARE as many keys as the table it meets, so
    # the table is merged a few dozen times and not once per block.  The
    # floor is moved down to 1, so that the share alone sets each batch
    path = tmp_path / "t.trace"
    path.write_text("".join(f"{1000 + i}\n" for i in range(3000)))
    with mock.patch.multiple(traces, _BLOCK_CHARS=10, _BATCH_FLOOR=1):
        trace, sizes = remap_sizes(path)
    assert trace.keys.tolist() == list(range(1, 3001))
    assert sum(n for n, _ in sizes) == 3000
    assert all(n * traces._BATCH_SHARE >= table for n, table in sizes[:-1])
    assert len(sizes) <= 40, len(sizes)


def test_a_file_below_the_batch_floor_is_remapped_in_one_batch(tmp_path):
    # 2,000 keys, 1,000 of them distinct, in blocks of ten characters: one
    # batch at the end of the file; without the floor, most blocks would merge
    path = tmp_path / "t.trace"
    path.write_text("".join(f"{5000 + i % 1000}\n" for i in range(2000)))
    with mock.patch.object(traces, "_BLOCK_CHARS", 10):
        trace, sizes = remap_sizes(path)
    assert sizes == [(2000, 0)]
    assert (trace.keys.tolist(), trace.max_key) == whole_text_parse(str(path), "plain")


def test_every_batch_but_the_last_meets_the_floor_and_the_share(tmp_path):
    # 300,000 distinct keys in blocks of the real size: the floor sets the
    # first batches, and once the table holds more than _BATCH_SHARE times
    # the floor, the share sets them
    path = tmp_path / "t.trace"
    path.write_text("".join(f"{10**7 + i}\n" for i in range(300_000)))
    trace, sizes = remap_sizes(path)
    assert trace.keys.tolist() == list(range(1, 300_001))
    assert sum(n for n, _ in sizes) == 300_000
    floor, share = traces._BATCH_FLOOR, traces._BATCH_SHARE
    assert all(n >= max(floor, table / share) for n, table in sizes[:-1])
    assert any(table < floor * share for _, table in sizes[:-1])
    assert any(table > floor * share for _, table in sizes[:-1])
    assert len(sizes) <= 10, sizes


@pytest.mark.parametrize("format", ["plain"])
def test_line_counts_run_once_per_clean_block(tmp_path, format):
    # every block of this text is clean, so each is counted once, on its
    # ASCII bytes, and numpy's conversion meets both counts
    path = tmp_path / "t.trace"
    path.write_text("".join(f"{7 * i}\n" for i in range(100)))
    with mock.patch.object(traces, "_BLOCK_CHARS", 16), \
            mock.patch.object(traces, "_line_counts", wraps=traces._line_counts) as counts, \
            mock.patch.object(traces, "_block_keys", wraps=traces._block_keys) as by_block, \
            mock.patch.object(traces, "_parse_lines", wraps=traces._parse_lines) as by_line:
        trace = parse_trace(str(path), format)
    assert (trace.keys.tolist(), trace.max_key) == whole_text_parse(str(path), format)
    assert not by_line.called
    blocks = [call.args[0] for call in by_block.call_args_list]
    assert len(blocks) > 5
    assert [call.args[0] for call in counts.call_args_list] == [text.encode("ascii") for text in blocks]


# -- memory ------------------------------------------------------------------

def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_generate_zipf_peak_memory():
    # one 8 MB CDF table, 4 MB of keys and a few 64k-draw chunks
    traces._zipf_cdf.cache_clear()
    peak = traced_peak_mb(lambda: generate_zipf(ZipfSpec(10**6, 0.99, 10**6, 3)))
    traces._zipf_cdf.cache_clear()
    assert peak <= 16, f"generate_zipf peaked at {peak:.1f} MB"


def test_parse_trace_peak_memory(tmp_path):
    # 2e5 lines over 5e4 distinct 64-bit ids: 0.8 MB of keys and 0.6 MB of
    # remap table, plus one batch of blocks; tracemalloc read 2.7 MB here,
    # 7.3 MB with the dict remap that parsed each line with int()
    rng = random.Random(5)
    ids = [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(1, 50_001)]
    lines = ids * 4
    rng.shuffle(lines)
    path = tmp_path / "big.trace"
    path.write_text("".join(f"{key}\n" for key in lines))
    traces._zipf_cdf.cache_clear()
    result = []
    peak = traced_peak_mb(lambda: result.append(parse_trace(str(path))))
    assert len(result[0].keys) == 200_000 and result[0].max_key == 50_000
    assert peak <= 12, f"parse_trace peaked at {peak:.1f} MB"


def test_parse_trace_peak_memory_on_distinct_keys(tmp_path):
    # 1e5 distinct 64-bit ids: the sorted remap table needs 1.2 MB (12 bytes
    # per key) and the keys 0.4 MB.  tracemalloc read 4.5 MB here, and
    # 13.7 MB with the dict remap, which held a boxed int per key and id
    path = tmp_path / "distinct.trace"
    path.write_text("".join(f"{(i * 0x9E3779B97F4A7C15) % 2**64}\n" for i in range(1, 100_001)))
    result = []
    peak = traced_peak_mb(lambda: result.append(parse_trace(str(path))))
    assert len(result[0].keys) == result[0].max_key == 100_000
    assert peak <= 8, f"parse_trace peaked at {peak:.1f} MB"
