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
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterator

import numpy as np

GENERATOR_ID = "numpy-pcg64"

FORMAT_PLAIN = "plain"
FORMAT_CSV = "csv"

_ZIPF_CHUNK = 1 << 16  # uniform draws per chunk of a generated trace
_BLOCK_CHARS = 1 << 16  # characters read per block of a parsed trace
_BLOCK_ROWS = 1 << 12  # rows per block of a parsed CSV trace
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
    number of distinct keys of a parsed one.
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
    single draw of the whole length.
    """
    cdf = _zipf_cdf(spec.N, float(spec.s))
    total = cdf[-1]
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    keys = array("I")
    for start in range(0, spec.length, _ZIPF_CHUNK):
        draws = rng.random(min(_ZIPF_CHUNK, spec.length - start))
        draws *= total
        ranks = np.searchsorted(cdf, draws, side="left")
        ranks += 1
        keys.frombytes(ranks.astype(np.uint32).tobytes())
    return Trace(
        keys=keys,
        source=spec.describe(),
        max_key=spec.N,
        seed=spec.seed,
        generator=GENERATOR_ID,
    )


def _line_blocks(fh) -> Iterator[tuple[int, list[str]]]:
    """Blocks of the lines of ``fh``, each with the number of its first line.

    The lines are exactly those ``str.splitlines`` gives for the whole text.
    Text is read in blocks of ``_BLOCK_CHARS``.  A block's unfinished last
    line carries into the next block, and so does a last line ended by a
    bare ``\\r``, which may be the first half of a CRLF pair.
    """
    carry = ""
    line_no = 1
    while block := fh.read(_BLOCK_CHARS):
        text = carry + block
        lines = text.splitlines()
        end = text[-1]
        if end == "\r":
            carry = lines.pop() + end
        elif end.splitlines() == [end]:  # not a line break
            carry = lines.pop()
        else:
            carry = ""
        yield line_no, lines
        line_no += len(lines)
    yield line_no, carry.splitlines()


def _csv_blocks(fh, key_column: str, path: str) -> Iterator[tuple[int, list[str]]]:
    """Blocks of the key cells of a CSV trace, each with its first row number.

    The header is row 1; blank rows are skipped and not numbered.  A row the
    ``csv`` module cannot read (a cell over its field size limit) raises
    ``TraceFormatError`` naming that row, once the rows before it are handed
    out, so a fault in an earlier row is still the one reported.
    """
    reader = csv.DictReader(fh)
    row_no = 1
    cells: list[str] = []
    try:
        if reader.fieldnames is None or key_column not in reader.fieldnames:
            raise TraceFormatError(f"{path}: missing key column {key_column!r}")
        row_no = 2
        for row in reader:
            cells.append(row.get(key_column) or "")
            if len(cells) == _BLOCK_ROWS:
                yield row_no, cells
                row_no += len(cells)
                cells = []
    except csv.Error as exc:
        yield row_no, cells
        raise TraceFormatError(f"{path}:{row_no + len(cells)}: {exc}") from None
    yield row_no, cells


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


def _parse_lines(cells: list[str], first: int, path: str, format: str) -> list[int]:
    """The raw keys of one block, line by line.

    Skips a blank line (an error in a CSV trace) and names the first bad one.
    """
    raws = []
    for line_no, cell in enumerate(cells, first):
        cell = cell.strip()
        if cell:
            raws.append(_parse_key(cell, line_no, path))
        elif format == FORMAT_CSV:
            raise TraceFormatError(f"{path}:{line_no}: empty key")
    return raws


def _block_keys(cells: list[str], first: int, path: str, format: str) -> list[int]:
    """The raw keys of one block: one ``map(int)`` when every cell is a key.

    ``int`` skips the whitespace around a cell that ``str.strip`` does, except
    ``\\x1c``-``\\x1f``, on which it raises.  Such a cell, or a blank,
    non-numeric or out-of-range one, sends the block to ``_parse_lines``.
    """
    try:
        raws = list(map(int, cells))
    except ValueError:
        return _parse_lines(cells, first, path, format)
    if raws and (min(raws) < 0 or max(raws) >= (1 << 64)):
        return _parse_lines(cells, first, path, format)
    return raws


def parse_trace(path: str, format: str = FORMAT_PLAIN, key_column: str = "key") -> Trace:
    """Read a trace file and remap its keys to a dense 1-based space.

    ``plain`` is one decimal key per line (blank lines skipped);
    ``csv`` takes the key from the named header column, and a row whose key
    cell is empty or missing is an error.  Accepts LF or CRLF, and a UTF-8
    byte-order mark.  The file is streamed: memory holds the keys and the
    remap table, never the whole text.  Each block of lines is converted with
    one ``map(int)`` and remapped with one ``map`` over the remap table, whose
    missing keys take the next dense id; only a block with a blank or bad line
    is parsed line by line.  A block that brings the distinct keys to
    ``KEY_LIMIT`` raises ``TraceFormatError``.
    """
    if format not in (FORMAT_PLAIN, FORMAT_CSV):
        raise TraceFormatError(f"unknown trace format {format!r}")
    ids = defaultdict(count(1).__next__)  # raw key -> dense id, in first-seen order
    remap = ids.__getitem__
    keys = array("I")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            if format == FORMAT_CSV:
                blocks = _csv_blocks(fh, key_column, path)
            else:
                blocks = _line_blocks(fh)
            for first, cells in blocks:
                block = list(map(remap, _block_keys(cells, first, path, format)))
                if len(ids) >= KEY_LIMIT:
                    raise TraceFormatError(f"{path}: more than {KEY_LIMIT - 1} distinct keys")
                keys.fromlist(block)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
        ) from None
    if not keys:
        raise TraceFormatError(f"{path}: no events found")
    return Trace(keys=keys, source=str(path), max_key=len(ids))
