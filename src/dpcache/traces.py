"""Workload synthesis and trace-file ingestion.

Synthetic traces draw i.i.d. keys from the rank-frequency law

    f(N, l, s) = (1 / l^s) / sum_{n=1..N} (1 / n^s)

with rank 1 mapping to key 1 (the hottest key).  File traces are remapped to a
dense 1-based key space in first-seen order, because key 0 is the reserved
empty-way marker and cache behaviour depends only on key identity.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

GENERATOR_ID = "numpy-pcg64"

FORMAT_PLAIN = "plain"
FORMAT_CSV = "csv"
FORMAT_ARC = "arc"


class TraceFormatError(ValueError):
    """Raised for malformed trace files."""


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
        if not self.s > 0:
            raise ValueError("s must be positive")

    def describe(self) -> str:
        return f"zipf(N={self.N},s={self.s},len={self.length})"


@dataclass
class Trace:
    """A replayable sequence of keyed accesses plus its provenance."""

    keys: list[int]
    source: str
    seed: int | None = None
    generator: str | None = None
    _max_key: int | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys)

    @property
    def max_key(self) -> int:
        if self._max_key is None:
            self._max_key = max(self.keys)
        return self._max_key


@lru_cache(maxsize=8)
def _zipf_weights(N: int, s: float) -> np.ndarray:
    ranks = np.arange(1, N + 1, dtype=np.float64)
    return np.power(ranks, -s, out=ranks)


def zipf_frequency(N: int, l: int, s: float) -> float:
    """Probability of the rank-``l`` key under the rank-frequency law."""
    if not 1 <= l <= N:
        raise ValueError(f"rank {l} outside [1, {N}]")
    w = _zipf_weights(N, float(s))
    return float(w[l - 1] / w.sum())


def generate_zipf(spec: ZipfSpec) -> Trace:
    """Draw ``spec.length`` i.i.d. keys; rank r maps to key r.

    Sampling inverts the cumulative rank-weight table with a binary search
    over uniform draws from a seeded PCG64 stream, so a given spec always
    produces the same byte-for-byte sequence.
    """
    weights = _zipf_weights(spec.N, float(spec.s))
    cumulative = np.cumsum(weights)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    draws = rng.random(spec.length) * cumulative[-1]
    keys = np.searchsorted(cumulative, draws, side="left") + 1
    return Trace(
        keys=keys.tolist(),
        source=spec.describe(),
        seed=spec.seed,
        generator=GENERATOR_ID,
        _max_key=spec.N,
    )


class _Remapper:
    """Dense 1-based key ids in first-seen order."""

    def __init__(self) -> None:
        self.ids: dict[int, int] = {}

    def map(self, raw: int) -> int:
        mapped = self.ids.get(raw)
        if mapped is None:
            mapped = len(self.ids) + 1
            self.ids[raw] = mapped
        return mapped


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


def parse_trace(path: str, format: str = FORMAT_PLAIN, key_column: str = "key") -> Trace:
    """Read a trace file and remap its keys to a dense 1-based space.

    ``plain`` and ``arc`` are one decimal key per line (blank lines skipped);
    ``csv`` takes the key from the named header column.  Accepts LF or CRLF.
    """
    if format not in (FORMAT_PLAIN, FORMAT_CSV, FORMAT_ARC):
        raise TraceFormatError(f"unknown trace format {format!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    remap = _Remapper()
    keys: list[int] = []
    if format == FORMAT_CSV:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or key_column not in reader.fieldnames:
            raise TraceFormatError(f"{path}: missing key column {key_column!r}")
        for line_no, row in enumerate(reader, start=2):
            cell = (row.get(key_column) or "").strip()
            if not cell:
                continue
            keys.append(remap.map(_parse_key(cell, line_no, path)))
    else:
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            keys.append(remap.map(_parse_key(line, line_no, path)))
    if not keys:
        raise TraceFormatError(f"{path}: no events found")
    return Trace(keys=keys, source=str(path), _max_key=len(remap.ids))
