"""Workload synthesis and trace-file ingestion.

Synthetic traces draw i.i.d. keys from the rank-frequency law

    f(N, l, s) = (1 / l^s) / sum_{n=1..N} (1 / n^s)

with rank 1 mapping to key 1 (the hottest key).  File traces are remapped to a
dense 1-based key space in first-seen order, because key 0 is the reserved
empty-way marker and cache behaviour depends only on key identity.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

GENERATOR_ID = "numpy-pcg64"

FORMAT_PLAIN = "plain"
FORMAT_CSV = "csv"

_ZIPF_CHUNK = 1 << 16  # uniform draws per chunk of a generated trace
_BLOCK_CHARS = 1 << 16  # characters read per block of a parsed trace
_BLOCK_ROWS = 1 << 12  # rows per block of a parsed CSV trace
_BATCH_SHARE = 4  # a remap batch holds at least 1/4 as many keys as the table
_BATCH_FLOOR = 1 << 15  # and at least this many keys, unless the file ends first
_CLEAN_BYTES = b"0123456789\n\r"  # the bytes of a clean block
_SATURATED = np.uint64(2**64 - 1)  # what np.fromstring reads a key of 2**64 or more as
KEY_LIMIT = 1 << 32  # keys are stored as 4-byte unsigned ints


class TraceFormatError(ValueError):
    """Raised for malformed trace files."""


def _check_zipf(N: int, s: float) -> None:
    """The universe and exponent checks ``ZipfSpec`` and ``zipf_frequency`` share."""
    if N >= KEY_LIMIT:
        raise ValueError(f"N must be below {KEY_LIMIT}, got {N}")
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")


@dataclass(frozen=True)
class ZipfSpec:
    """Parameters of a synthetic rank-frequency workload."""

    N: int
    s: float
    length: int
    seed: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.length < 1:
            raise ValueError("N and length must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_zipf(self.N, self.s)

    def describe(self) -> str:
        return f"zipf(N={self.N},s={self.s},len={self.length})"


@dataclass
class Trace:
    """A replayable sequence of keyed accesses plus its provenance.

    ``keys`` is an ``array('I')``, 4 bytes per event, so ``ZipfSpec`` refuses
    ``N >= KEY_LIMIT`` and ``parse_trace`` a file of that many distinct keys.
    ``max_key`` bounds the keys: the universe ``N`` of a generated trace, the
    number of distinct keys of a parsed one, whose remap table held 12 bytes
    per distinct key while it was parsed.
    """

    keys: array
    source: str
    max_key: int
    seed: int | None = None
    generator: str | None = None


@lru_cache(maxsize=8)
def _zipf_cdf(N: int, s: float) -> np.ndarray:
    """Cumulative rank weights ``sum_{n<=l} n^-s``, built in one array."""
    cdf = np.arange(1, N + 1, dtype=np.float64)
    np.power(cdf, -s, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf.flags.writeable = False  # shared by every caller through the cache
    return cdf


def zipf_frequency(N: int, l: int, s: float) -> float:
    """Probability of the rank-``l`` key under the rank-frequency law."""
    if not 1 <= l <= N:
        raise ValueError(f"rank {l} outside [1, {N}]")
    _check_zipf(N, s)
    s = float(s)
    return float(l) ** -s / float(_zipf_cdf(N, s)[-1])


def generate_zipf(spec: ZipfSpec) -> Trace:
    """Draw ``spec.length`` i.i.d. keys; rank r maps to key r.

    Sampling inverts the cumulative rank-weight table with a binary search
    over uniform draws from a seeded PCG64 stream, so a given spec always
    produces the same byte-for-byte sequence.  Draws are taken in chunks of
    ``_ZIPF_CHUNK`` from that one stream, which yields the same doubles as a
    single draw of the whole length.  Each chunk's draws are searched in
    sorted order, which lets numpy narrow each search from the last, and the
    ranks are scattered back to the draws' places.  The search is exact per
    draw, so the keys are those of searching the draws as they come.
    """
    cdf = _zipf_cdf(spec.N, float(spec.s))
    total = cdf[-1]
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    keys = array("I")
    for start in range(0, spec.length, _ZIPF_CHUNK):
        draws = rng.random(min(_ZIPF_CHUNK, spec.length - start))
        draws *= total
        order = draws.argsort()
        draws = draws[order]
        ranks = np.empty(len(order), dtype=np.uint32)
        ranks[order] = np.searchsorted(cdf, draws, side="left")
        ranks += 1
        keys.frombytes(ranks.view(np.uint8))
    return Trace(
        keys=keys,
        source=spec.describe(),
        max_key=spec.N,
        seed=spec.seed,
        generator=GENERATOR_ID,
    )


def _clean(text: str) -> bytes | None:
    """``text`` as ASCII bytes if it holds only digits, ``\\n`` and ``\\r``."""
    if text.isascii():
        data = text.encode("ascii")
        if not data.translate(None, _CLEAN_BYTES):
            return data
    return None


def _line_counts(data: bytes) -> tuple[int, int]:
    """The lines of clean ``data`` as ``str.splitlines`` counts them, and the non-blank ones.

    Every byte below ``"0"`` is a line break, a CRLF pair is one, and each
    non-blank line is one run of digits.
    """
    byte = np.frombuffer(data, dtype=np.uint8)
    if not len(byte):
        return 0, 0
    digit = byte > 13
    lines = len(byte) - int(np.count_nonzero(digit)) + bool(digit[-1])
    if b"\r" in data:
        lines -= int(np.count_nonzero((byte[:-1] == 13) & (byte[1:] == 10)))
    filled = int(np.count_nonzero(digit[1:] > digit[:-1])) + bool(digit[0])
    return lines, filled


def _line_blocks(fh, path: str) -> Iterator[np.ndarray]:
    """The raw keys of ``fh``'s plain text, one ``uint64`` array per block.

    The lines are exactly those ``str.splitlines`` gives for the whole text.
    Text is read in blocks of ``_BLOCK_CHARS`` and cut after its last ``\\n``
    or ``\\r``; the unfinished line after the cut carries into the next
    block, and so does a last line ended by a bare ``\\r``, which may be the
    first half of a CRLF pair.  Text without either break is cut where
    ``str.splitlines`` cuts it.  Each block goes to ``_block_keys``.
    """
    carry = ""
    line_no = 1
    while block := fh.read(_BLOCK_CHARS):
        text = carry + block
        end = len(text) - text.endswith("\r")
        cut = max(text.rfind("\n", 0, end), text.rfind("\r", 0, end)) + 1
        if not cut:
            cut = len(text) - len(text.splitlines(True)[-1])
        carry = text[cut:]
        if cut:
            raws, count = _block_keys(text[:cut], line_no, path)
            yield raws
            line_no += count
    yield _block_keys(carry, line_no, path)[0]


def _block_keys(text: str, first: int, path: str) -> tuple[np.ndarray, int]:
    """The raw keys of one plain block as ``uint64``, and its number of lines.

    A clean block (``_clean``) is counted by one ``_line_counts`` and
    converted by one ``np.fromstring``.  It goes to ``_parse_lines`` after
    all if numpy reads a number of keys other than its non-blank lines, or a
    key of ``2**64 - 1``, which is also what a longer key saturates to; the
    line parser then keeps or refuses each line exactly.  Any other block is
    parsed line by line.
    """
    data = _clean(text)
    if data is not None:
        lines, filled = _line_counts(data)
        raws = np.fromstring(data, dtype=np.uint64, sep="\n")
        if len(raws) == filled and not (raws == _SATURATED).any():
            return raws, lines
    cells = text.splitlines()
    return _parse_lines(cells, first, path, FORMAT_PLAIN), len(cells)


def _csv_blocks(fh, key_column: str, path: str) -> Iterator[np.ndarray]:
    """The raw keys of a CSV trace, one ``uint64`` array per block of rows.

    ``csv.reader`` reads the rows.  The key is the cell under the last
    header cell named ``key_column``, and ``""`` in a row too short to hold
    it, as ``csv.DictReader`` reads it.  The header is row 1; blank rows are
    skipped and not numbered.  Every block of ``_BLOCK_ROWS`` key cells goes
    to ``_parse_lines``, so a cell is read whole, line breaks and all.  A row
    the ``csv`` module cannot read (a cell over its field size limit)
    raises ``TraceFormatError`` naming that row, once the rows before it are
    parsed, so a fault in an earlier row is still the one reported.
    """
    reader = csv.reader(fh)
    row_no = 1
    cells: list[str] = []
    try:
        column = {name: i for i, name in enumerate(next(reader, []))}.get(key_column)
        if column is None:
            raise TraceFormatError(f"{path}: missing key column {key_column!r}")
        row_no = 2
        for row in reader:
            if row:
                cells.append(row[column] if column < len(row) else "")
                if len(cells) == _BLOCK_ROWS:
                    yield _parse_lines(cells, row_no, path, FORMAT_CSV)
                    row_no += len(cells)
                    cells = []
    except csv.Error as exc:
        yield _parse_lines(cells, row_no, path, FORMAT_CSV)
        raise TraceFormatError(f"{path}:{row_no + len(cells)}: {exc}") from None
    yield _parse_lines(cells, row_no, path, FORMAT_CSV)


def _parse_key(text: str, line_no: int, path: str) -> int:
    try:
        key = int(text)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{line_no}: non-numeric key {text!r}"
        ) from None
    if key < 0 or key >= (1 << 64):
        raise TraceFormatError(f"{path}:{line_no}: key {key} outside 64-bit range")
    return key


def _parse_lines(cells: list[str], first: int, path: str, format: str) -> np.ndarray:
    """The raw keys of one block as ``uint64``, line by line.

    Skips a blank line (an error in a CSV trace) and names the first bad one.
    """
    raws = []
    for line_no, cell in enumerate(cells, first):
        cell = cell.strip()
        if cell:
            raws.append(_parse_key(cell, line_no, path))
        elif format == FORMAT_CSV:
            raise TraceFormatError(f"{path}:{line_no}: empty key")
    return np.array(raws, dtype=np.uint64)


class _DenseIds:
    """Raw key -> dense 1-based id in first-seen order, as two sorted arrays.

    ``raw`` holds the distinct raw keys in ascending order and ``ids`` their
    ids, 12 bytes per distinct key.  Each batch is sorted once; its distinct
    keys are looked up with one ``searchsorted``, and the new ones are numbered
    in order of first appearance and merged in.  A merge copies the table, so
    ``parse_trace`` merges a batch only once it holds ``_BATCH_FLOOR`` keys
    and ``1 / _BATCH_SHARE`` as many as the table (or the file has ended):
    the floor spares a small table a merge per block, and the share bounds
    the copies to a constant number per line.
    """

    def __init__(self) -> None:
        self.raw = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.uint32)

    def __len__(self) -> int:
        return len(self.raw)

    def remap(self, raws: np.ndarray, path: str) -> np.ndarray:
        """The dense ids of ``raws``; refuses a batch that brings the table to ``KEY_LIMIT``."""
        order = raws.argsort()
        ranked = raws[order]
        head = np.empty(len(raws), dtype=bool)
        head[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        distinct = ranked[head]
        at = np.searchsorted(self.raw, distinct)
        known = at < len(self.raw)
        known[known] = self.raw[at[known]] == distinct[known]
        ids = np.empty(len(distinct), dtype=np.uint32)
        ids[known] = self.ids[at[known]]
        new = np.flatnonzero(~known)
        if len(new):
            if len(self) + len(new) >= KEY_LIMIT:
                raise TraceFormatError(f"{path}: more than {KEY_LIMIT - 1} distinct keys")
            first_seen = np.minimum.reduceat(order, np.flatnonzero(head))[new]
            ids[new[first_seen.argsort()]] = np.arange(
                len(self) + 1, len(self) + 1 + len(new), dtype=np.uint32)
            self.raw = np.insert(self.raw, at[new], distinct[new])
            self.ids = np.insert(self.ids, at[new], ids[new])
        dense = np.empty(len(raws), dtype=np.uint32)
        dense[order] = ids[np.cumsum(head) - 1]
        return dense


def _joined(batch: list[np.ndarray]) -> np.ndarray:
    """The keys of ``batch`` in one array; empties the list, so that no key is
    held twice while the array is remapped."""
    raws = np.concatenate(batch)
    batch.clear()
    return raws


def parse_trace(path: str, format: str = FORMAT_PLAIN, key_column: str = "key") -> Trace:
    """Read a trace file and remap its keys to a dense 1-based space.

    ``plain`` is one decimal key per line (blank lines skipped);
    ``csv`` takes the key from the last header column of that name, and a
    row whose key cell is empty or missing is an error.  A line ends at LF,
    CRLF or a bare CR, and a UTF-8 byte-order mark is skipped.  The file is
    streamed: memory holds the keys, the remap table and one batch of blocks,
    never the whole text.  A clean plain block, of ASCII digits and line
    breaks only, is converted by one ``np.fromstring``; any other plain
    block, and a clean one whose conversion ``_block_keys`` doubts, is parsed
    line by line, which skips blank lines and names the first bad one.  CSV
    rows are read by ``csv.reader``, and their key cells always go to the
    line parser (``_csv_blocks``).  The remap table (``_DenseIds``)
    is two sorted arrays, 12 bytes per distinct key.  Blocks are remapped in
    batches: a batch is remapped once it holds at least ``_BATCH_FLOOR`` keys
    and at least ``1 / _BATCH_SHARE`` as many keys as the table, or once the
    file has ended.  A batch that brings the distinct keys to ``KEY_LIMIT``
    raises ``TraceFormatError``.
    """
    if format not in (FORMAT_PLAIN, FORMAT_CSV):
        raise TraceFormatError(f"unknown trace format {format!r}")
    table = _DenseIds()
    keys = array("I")
    batch: list[np.ndarray] = []
    held = 0  # the keys in batch
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            if format == FORMAT_CSV:
                blocks = _csv_blocks(fh, key_column, path)
            else:
                blocks = _line_blocks(fh, path)
            for raws in blocks:
                batch.append(raws)
                held += len(raws)
                if held >= _BATCH_FLOOR and held * _BATCH_SHARE >= len(table):
                    keys.frombytes(table.remap(_joined(batch), path).tobytes())
                    held = 0
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
        ) from None
    if batch:
        keys.frombytes(table.remap(_joined(batch), path).tobytes())
    if not keys:
        raise TraceFormatError(f"{path}: no events found")
    return Trace(keys=keys, source=str(path), max_key=len(table))
