"""Register storage and bit-level primitives shared by every cache policy.

A cache region is one fixed array of ``d`` encoded sets.  Each set is a single
bit-string holding ``k`` elements (ways); each element packs a key, a value and
one SCN (sequence change number) metadata word.  A parallel keys-only
register mirrors just the key fields so that membership can be tested with a
single ternary (TCAM-style) comparison instead of a loop.  The store keeps
each set as field rows (a key row, a value row and an SCN row) and derives
the packed words on demand, so the simulator does not pay for packing on every
packet.  A way travels as a flat ``(key, value, scn)`` tuple whose entries
line up with the field rows.  Each region of a multi-region cache is its own
store, so an element only carries the SCN word of the region holding it.

Bit order is little-endian by way: way 0 occupies the lowest-order slice of the
set word, and within an element the key sits in the lowest bits, then the
value, then the SCN word.  Key 0 is reserved as the empty-way marker; live
keys are always >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

MISS = -1

# Longest ternary mask supported by the match stage; caps k * key_bits.
TCAM_MASK_BITS = 2048

# Position of the SCN word in a way tuple and in a set's field rows.
SCN_FIELD = 2


class CacheElement(NamedTuple):
    """One decoded way: key, value and SCN metadata word.

    The store never holds elements; this is the type that ``peek_set``, an
    engine's ``dump`` and ``FetchResult.evicted`` hand out.
    """

    key: int
    value: int
    scn: int

    @classmethod
    def from_way(cls, way: tuple[int, ...]) -> "CacheElement":
        """The element of a flat ``(key, value, scn)`` way tuple."""
        return cls(*way)


class LayoutError(ValueError):
    """Raised for layout parameters that cannot be realised."""


class StorageError(ValueError):
    """Raised for out-of-range indices or field-width violations."""


@dataclass(frozen=True)
class LayoutConfig:
    """Field widths and geometry of one cache region."""

    key_bits: int = 32
    value_bits: int = 32
    scn_bits: int = 32
    k: int = 4
    d: int = 16

    def __post_init__(self) -> None:
        if min(self.key_bits, self.value_bits, self.scn_bits) < 1:
            raise LayoutError("all field widths must be >= 1")
        if self.k < 1 or self.d < 1:
            raise LayoutError("k and d must be >= 1")
        if self.k * self.key_bits > TCAM_MASK_BITS:
            raise LayoutError(
                f"k*key_bits = {self.k * self.key_bits} exceeds the "
                f"{TCAM_MASK_BITS}-bit ternary mask limit"
            )

    @property
    def element_width(self) -> int:
        return self.key_bits + self.value_bits + self.scn_bits

    @property
    def set_width(self) -> int:
        return self.k * self.element_width

    def max_scn(self) -> int:
        return (1 << self.scn_bits) - 1


@dataclass
class OpCounter:
    """Per-packet operation accountant.

    ``tcam_matches``, ``register_reads`` and ``register_writes`` track the
    core match/set operations.  ``extra_reads``/``extra_writes`` track
    policy-specific auxiliary structures (log lookup table, admission-filter
    counters, maintenance sweeps) which sit outside the per-packet set-access
    cost model.
    """

    tcam_matches: int = 0
    register_reads: int = 0
    register_writes: int = 0
    extra_reads: int = 0
    extra_writes: int = 0

    def reset(self) -> None:
        self.tcam_matches = 0
        self.register_reads = 0
        self.register_writes = 0
        self.extra_reads = 0
        self.extra_writes = 0


class RegisterStore:
    """Fixed array of ``d`` sets plus the parallel keys register.

    Each set is held unpacked as field rows: ``rows[h]`` is
    ``[keys, values, scns]``, each a list of ``k`` ints, way 0 first.
    A lookup is one C-level search of the key row, a whole-set read or write
    copies the rows, and a fold works on the SCN row.  The packed set and
    keys-register words are checked views derived from the rows (``sets``,
    ``keys_register``, ``word``); the bit layout, the field-width validation
    and the operation accounting are the same as for packed storage.

    ``read_set_raw``/``write_set_raw`` model whole-set register accesses and
    are the unit of the operation accounting.  ``read_way`` and
    ``write_way_field`` are targeted accessors for hot paths; they carry the
    same one-read/one-write cost as the whole-set operation they stand in for.
    """

    def __init__(
        self,
        layout: LayoutConfig,
        counter: OpCounter | None = None,
        check_invariants: bool = False,
    ) -> None:
        self.layout = layout
        self.counter = counter if counter is not None else OpCounter()
        self.check_invariants = check_invariants
        self._widths = (layout.key_bits, layout.value_bits, layout.scn_bits)
        self.rows: list[list[list[int]]] = [
            [[0] * layout.k for _ in self._widths] for _ in range(layout.d)
        ]

    # -- encoding ----------------------------------------------------------

    def encode_set(self, rows: list[list[int]]) -> tuple[int, int]:
        """Pack field rows into (set_word, keys_word); validates widths."""
        lay = self.layout
        if len(rows) != len(self._widths) or any(len(row) != lay.k for row in rows):
            raise StorageError(f"expected {len(self._widths)} field rows of {lay.k} ways")
        word = 0
        keys_word = 0
        seen: set[int] = set()
        for i, way in enumerate(zip(*rows)):
            enc = shift = 0
            for field, (x, width) in enumerate(zip(way, self._widths)):
                if not 0 <= x < 1 << width:
                    name = ("key", "value", "scn")[field]
                    raise StorageError(f"{name} {x} exceeds {width} bits")
                enc |= x << shift
                shift += width
            key = way[0]
            if key:
                if key in seen:
                    raise StorageError(f"duplicate key {key} within one set")
                seen.add(key)
            word |= enc << (i * lay.element_width)
            keys_word |= key << (i * lay.key_bits)
        return word, keys_word

    def decode_set(self, word: int) -> list[list[int]]:
        """Unpack a set word into its field rows."""
        rows: list[list[int]] = [[] for _ in self._widths]
        for _ in range(self.layout.k):
            for row, width in zip(rows, self._widths):
                row.append(word & ((1 << width) - 1))
                word >>= width
        return rows

    # -- packed views -------------------------------------------------------

    def word(self, h: int) -> int:
        """Set ``h`` as one packed word: way 0 in the lowest-order slice."""
        return self.encode_set(self.rows[h])[0]

    @property
    def sets(self) -> list[int]:
        """Packed word of every set (a derived copy; writes go through methods)."""
        return [self.word(h) for h in range(self.layout.d)]

    @property
    def keys_register(self) -> list[int]:
        """Packed keys-register word of every set (a derived copy)."""
        return [self.encode_set(rows)[1] for rows in self.rows]

    def peek_set(self, h: int) -> list[CacheElement]:
        """Decoded set ``h``; bypasses operation accounting."""
        return [CacheElement.from_way(way) for way in zip(*self.rows[h])]

    # -- whole-set access ---------------------------------------------------

    def read_set_raw(self, h: int) -> list[list[int]]:
        """Whole-set read returning (copies of) the set's field rows."""
        self.counter.register_reads += 1
        return [row[:] for row in self.rows[h]]

    def write_set_raw(self, h: int, rows: list[list[int]]) -> None:
        """Whole-set write from field rows, which also rewrites the keys register.

        Trusts the caller to preserve element invariants; with
        ``check_invariants`` the set is fully re-validated.
        """
        self.counter.register_writes += 1
        self.rows[h] = [row[:] for row in rows]
        if self.check_invariants:
            self._check_rows(h)

    # -- ternary lookup -----------------------------------------------------

    def ternary_lookup(self, h: int, key: int) -> int:
        """One TCAM comparison against the keys register of set ``h``."""
        if key < 1:
            raise StorageError("key 0 would falsely match empty ways")
        if key >> self.layout.key_bits:
            raise StorageError(f"key {key} exceeds {self.layout.key_bits} bits")
        self.counter.tcam_matches += 1
        keys = self.rows[h][0]
        return keys.index(key) if key in keys else MISS

    # -- targeted hot-path access (same accounting unit as whole-set ops) ----

    def read_way(self, h: int, way: int) -> tuple[int, ...]:
        """Read one way as a flat tuple; counts as the whole-set register read."""
        self.counter.register_reads += 1
        return tuple([row[way] for row in self.rows[h]])

    def write_way_field(self, h: int, way: int, scn: int) -> None:
        """Patch the SCN word of one way; counts as the whole-set register write.

        Keys and values are only written with the whole set (write_set_raw),
        which keeps the keys register's distinct-key guarantee.
        """
        width = self.layout.scn_bits
        if not 0 <= scn < 1 << width:
            raise StorageError(f"scn {scn} exceeds {width} bits")
        self.counter.register_writes += 1
        self.rows[h][SCN_FIELD][way] = scn
        if self.check_invariants:
            self._check_rows(h)

    def writeback(self, h: int) -> None:
        """Unconditional set write-back with unchanged content."""
        self.counter.register_writes += 1

    # -- maintenance --------------------------------------------------------

    def map_scn(self, remap: Callable[[list[int]], list[int]]) -> None:
        """Sweep every set, replacing the live entries of its SCN row.

        ``remap`` receives a set's live entries (ways holding a key) in way
        order and returns their replacements.  Every rewritten set is
        re-validated.  The sweep reads and writes each set once outside the
        per-packet cost model, charged as extra ops.
        """
        for h, rows in enumerate(self.rows):
            live = [way for way, key in enumerate(rows[0]) if key]
            if live:
                row = rows[SCN_FIELD]
                for way, x in zip(live, remap([row[way] for way in live])):
                    row[way] = x
                self._check_rows(h)
        self.counter.extra_reads += self.layout.d
        self.counter.extra_writes += self.layout.d

    def clone(self) -> "RegisterStore":
        other = RegisterStore(self.layout, OpCounter(), self.check_invariants)
        other.rows = [[row[:] for row in rows] for rows in self.rows]
        return other

    def _check_rows(self, h: int) -> None:
        """Re-validate set ``h``: row shape, field widths, unique keys."""
        rows = self.rows[h]
        if len(rows) != len(self._widths) or any(len(row) != self.layout.k for row in rows):
            raise AssertionError(f"set {h} does not hold {self.layout.k} ways of every field")
        keys = [key for key in rows[0] if key]
        if (any(min(row) < 0 or max(row) >> width for row, width in zip(rows, self._widths))
                or len(set(keys)) != len(keys)):
            # encoding raises for the first fault in way order
            self.encode_set(rows)
