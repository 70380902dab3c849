"""Hyperbolic caching under integer-only arithmetic.

The exact policy ranks elements by access count divided by time in cache and
evicts the minimum.  Division and floating point are unavailable in the
restricted model, so the ratio comparison is rewritten as a subtraction of
base-2 logarithms, read from a lookup table built at deployment time:

    score = table[freq] - table[lifetime],  table[x] = floor(log2(x) * F)

where F is a fixed-point scale (the "integer factor") trading table width for
comparison precision.  Scores quantise each log to one scaled unit, so score
gaps of 2 or more always order the same way as the exact ratios.

On a switch the table register is loaded at deployment by control packets,
one (key=x, value=floor(log2(x)*F)) entry per packet, before traffic starts.
The simulator models that whole protocol as the LogTable constructor: the
table is immutable once built, and tables of equal size and factor share one
entries tuple through the build cache.

The table is built in one numpy pass of floor(log2(x) * F) over every x,
whose float error is far below a relative 1e-9.  Only entries whose float
value lies within that margin of an integer (for the usual factors, the
powers of two) are settled exactly, by the bit-length identity
floor(log2(x) * p/q) = ((x**p).bit_length() - 1) // q for F = p/q.  A
2048-entry table takes 0.10, 0.11 and 0.25 ms at F = 1, 100 and 1000
(median, CPython 3.11 on a shared 2-core x86-64 host), against 1.2, 3.8 and
62 ms when every entry is settled in integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import SCN_FIELD, StorageError
from .policies import DEFAULT_INTEGER_FACTOR, PolicyEngine

# Largest log table: an engine sizes its table to its insert-time field, up to
# this many entries, the size the factor bounds below are calibrated for.
DEFAULT_MAX_SCN = 2048

# Accepted integer factors F = p/q: 0 < F <= MAX_INTEGER_FACTOR (the paper's
# grid tops out at 1000) and p <= MAX_FACTOR_NUMERATOR in lowest terms.  An
# exactly settled entry costs x**p, so p bounds the build: a 2048-entry table
# builds in about 0.1 s at p near 10**5, where p = 10**6 took 3.6 s at 4096
# entries (CPython 3.11, shared 2-core x86-64 host).  The bounds also keep
# every entry far below 2**52, where float64 stops separating consecutive
# integers.
MAX_INTEGER_FACTOR = 10**4
MAX_FACTOR_NUMERATOR = 10**5


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Parse an integer-factor value exactly (floats go through their repr)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"integer factor {value!r} has a zero denominator") from None


def checked_factor(value: int | float | str | Fraction) -> Fraction:
    """Parse an integer factor; ValueError unless it is in the accepted range."""
    factor = as_fraction(value)
    if not 0 < factor <= MAX_INTEGER_FACTOR:
        raise ValueError(f"integer factor {value} must lie in (0, {MAX_INTEGER_FACTOR}]")
    if factor.numerator > MAX_FACTOR_NUMERATOR:
        raise ValueError(f"integer factor {value} = {factor} needs a numerator of at most "
                         f"{MAX_FACTOR_NUMERATOR} in lowest terms")
    return factor


def log2_fixed(x: int, factor: Fraction) -> int:
    """floor(log2(x) * factor), computed exactly in integers.

    With factor = p/q, log2(x) * factor = log2(x**p) / q; floor(log2(N)) is
    N.bit_length() - 1, and floor(L / q) = floor(floor(L) / q) for integer q.
    """
    if x < 1:
        raise ValueError("log2_fixed requires x >= 1")
    return ((x**factor.numerator).bit_length() - 1) // factor.denominator


class LogTable:
    """Immutable fixed-point log2 lookup table.

    ``entries[x] = floor(log2(x) * integer_factor)`` for 1 <= x < max_scn.
    Index 0 is defined as 0 and read only for empty ways (live frequencies are
    >= 1, lifetimes clamped >= 1); a frequency-1 way can tie an empty way's
    score, so the fold may evict it while the set has room.  ``lookup`` takes
    x >= 0; x >= ``max_scn`` saturates to the last entry.  It indexes
    ``entries``, so a negative x counts from the end, and one below -max_scn
    gets the last entry.  ``max_scn`` lies in [2, DEFAULT_MAX_SCN].
    """

    def __init__(self, max_scn: int = DEFAULT_MAX_SCN,
                 integer_factor: int | float | str | Fraction = DEFAULT_INTEGER_FACTOR) -> None:
        if not 2 <= max_scn <= DEFAULT_MAX_SCN:
            raise ValueError(f"max_scn must lie in [2, {DEFAULT_MAX_SCN}]")
        factor = checked_factor(integer_factor)
        self.max_scn = max_scn
        self.integer_factor = factor
        self.entries = _build_entries(max_scn, factor)

    def lookup(self, x: int) -> int:
        try:
            return self.entries[x]
        except IndexError:
            return self.entries[-1]

    def memory_bits(self, index_bits: int | None = None) -> int:
        """Storage cost model: (value width + index width) per entry."""
        if index_bits is None:
            index_bits = max(1, (self.max_scn - 1).bit_length())
        value_bits = max(1, self.entries[-1].bit_length())
        return (value_bits + index_bits) * self.max_scn


# Float log2(x) * F is within a few ulps (~1e-15 relative) of the exact value,
# so its floor is exact unless it lies within this relative margin of an integer.
_NEAR_INTEGER = 1e-9


@lru_cache(maxsize=16)
def _build_entries(max_scn: int, factor: Fraction) -> tuple[int, ...]:
    scaled = np.log2(np.arange(2, max_scn, dtype=np.float64)) * float(factor)
    near = np.abs(scaled - np.rint(scaled)) <= _NEAR_INTEGER * np.maximum(1.0, scaled)
    entries = np.floor(scaled).astype(np.int64).tolist()
    for i in np.flatnonzero(near).tolist():
        entries[i] = log2_fixed(i + 2, factor)
    return (0, 0) + tuple(entries)


class HyperbolicEngine(PolicyEngine):
    """Hyperbolic policy over a split SCN word.

    The element's SCN word is divided into a frequency half (low bits,
    saturating) and an insert-time half (high bits).  The log table has one
    entry per insert time, ``min(DEFAULT_MAX_SCN, 2**time_bits)`` in all.  A
    global tick advances once per touch; when it reaches the table size minus
    one it is halved by right shift; a set's insert times are shifted right
    once per missed halving when a packet next reads it, keeping lifetime order.
    """

    name = "hyperbolic"

    def __init__(self, *args, integer_factor: int | float | str | Fraction = DEFAULT_INTEGER_FACTOR,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        lay = self.layout
        if lay.scn_bits < 2:
            raise StorageError("hyperbolic needs at least 2 scn bits to split")
        self.freq_bits = lay.scn_bits // 2
        self.time_bits = lay.scn_bits - self.freq_bits
        self.log_table = LogTable(min(DEFAULT_MAX_SCN, 1 << self.time_bits), integer_factor)
        self.freq_max = (1 << self.freq_bits) - 1
        self._halve_at = self.log_table.max_scn - 1
        self.tick = 0

    def _tick(self) -> None:
        self.tick = tick = self.tick + 1
        if tick >= self._halve_at:
            self.tick = tick >> 1
            self.epoch += 1

    def _rebase(self, scns: list[int], missed: int) -> list[int]:
        # each missed halving shifts the insert-time half right; time_bits of them clear it
        freq_max, freq_bits = self.freq_max, self.freq_bits
        shift = freq_bits + min(missed, self.time_bits)
        return [(scn & freq_max) | (scn >> shift << freq_bits) for scn in scns]

    def _initial_scn(self) -> int:
        return 1 | self.tick << self.freq_bits

    def _hit_scn(self, scn: int) -> int:
        # the frequency sits in the low bits: +1 counts the hit, short of saturation
        return scn + 1 if scn & self.freq_max < self.freq_max else scn

    def _metric(self, rows: list[list[int]]) -> list[int]:
        """Integer priority scores of the ways, with two log lookups per way."""
        scns = rows[SCN_FIELD]
        lookup = self.log_table.lookup
        freq_max, freq_bits, tick = self.freq_max, self.freq_bits, self.tick
        self.store.counter.extra_reads += 2 * len(scns)
        scores = []
        for scn in scns:
            lifetime = tick - (scn >> freq_bits)
            scores.append(lookup(scn & freq_max) - lookup(lifetime if lifetime > 1 else 1))
        return scores
