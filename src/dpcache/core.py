"""Register storage and bit-level primitives shared by every cache policy.

A cache region is one fixed array of ``d`` sets, each modelling one
fixed-width switch register.  A set holds ``k`` ways; on a switch each way
is a key, a value and one SCN (sequence change number) metadata word, each
of a fixed bit width, which ``set_width`` counts.  A value is always the key
truncated to its width, so nothing reads it, and the store keeps each set as
two field rows, keys and SCNs, checked against their widths.  Membership is
one ternary (TCAM-style) comparison, whose cost does not grow with ``k``: the
store keeps each set's live keys in a hash set beside its rows, so a miss is
one hash probe and a hit one search of the key row for its way.
A miss edits a set's rows in place and commits them with one write naming
the key that left.  A hit reads one ``(key, scn)`` way and writes its SCN
word back, changed or not.  No packet sweeps the region: a set is
normalised when a packet next reaches it.
Each region of a multi-region cache is its own store, so a way only carries
the SCN word of the region holding it.

Key 0 is reserved as the empty-way marker; live keys are always >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

MISS = -1

# Longest ternary mask supported by the match stage; caps k * key_bits.
TCAM_MASK_BITS = 2048

# Position of the SCN word in a way pair and in a set's field rows.
SCN_FIELD = 1


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
    """Running operation counts: a packet costs their change across its fetch.

    ``tcam_matches``, ``register_reads`` and ``register_writes`` count the
    core match/set operations; ``reset`` zeroes every count, and the replay
    never calls it.  ``extra_reads``/``extra_writes`` count
    policy-specific auxiliary structures (log lookup table, admission-filter
    counters) which sit outside the per-packet set-access cost model.
    Maintenance runs inside a set access and charges nothing.
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
    """Fixed array of ``d`` sets, each stored as field rows.

    ``rows[h]`` is ``[keys, scns]``, each a list of ``k`` ints, way 0 first;
    the rows are the storage, and a way is the pair ``(key, scn)``.
    ``members[h]`` indexes set ``h``'s live keys, always
    ``set(rows[h][0]) - {0}``; a miss's ``write_set_raw`` swaps two keys in
    it, and ``clone`` copies it.  A lookup that misses is one probe of it,
    and one that hits searches the key row once for the way.  Field widths
    are checked where a field enters the store: ``ternary_lookup`` checks
    the probed key, ``write_way_field`` the SCN, and ``_check_rows`` (after
    every ``normalise``) the whole set, with its distinct live keys.

    ``epochs[h]`` is the engine epoch set ``h`` was last normalised at: an
    engine that reads a stale set has ``normalise`` rewrite it first, in the
    same access.  ``peak_live``, the most live keys any set has held, rises
    when an empty way takes a miss; no key is ever deleted, so it is the
    most held now.

    ``read_set_raw``/``write_set_raw`` model whole-set register accesses and
    are the unit of the operation accounting: a miss edits the set's own
    rows in place between them, and every set read is written back in the
    same fetch.  ``read_way`` and ``write_way_field`` are targeted accessors
    for the hit path; they carry the same one-read/one-write cost as the
    whole-set operation they stand in for.  Every hit is that pair, even one
    that changes nothing (FIFO, a saturated count): it writes its SCN back.
    """

    def __init__(self, layout: LayoutConfig, counter: OpCounter | None = None) -> None:
        self.layout = layout
        self.counter = counter if counter is not None else OpCounter()
        self._widths = (layout.key_bits, layout.scn_bits)
        self.rows: list[list[list[int]]] = [
            [[0] * layout.k for _ in self._widths] for _ in range(layout.d)
        ]
        self.members: list[set[int]] = [set() for _ in range(layout.d)]
        self.epochs = [0] * layout.d
        self.peak_live = 0

    def live_keys(self) -> set[int]:
        """Every live key of every set; bypasses operation accounting."""
        return set().union(*self.members)

    def peek_set(self, h: int) -> list[tuple[int, int]]:
        """Set ``h`` as ``(key, scn)`` ways, way 0 first; bypasses operation accounting."""
        return list(zip(*self.rows[h]))

    # -- whole-set access ---------------------------------------------------

    def read_set_raw(self, h: int) -> list[list[int]]:
        """Whole-set read: the set's own field rows, for the caller to edit in place."""
        self.counter.register_reads += 1
        return self.rows[h]

    def write_set_raw(self, h: int, victim: int) -> None:
        """Whole-set write: commit set ``h`` as ``read_set_raw`` handed it out and a miss edited it.

        ``victim`` is the key that left (0 for an empty way) and the key at
        way 0 the one that entered; after an admission overrule they are the
        refused candidate and the fold's victim, put back.  The key index
        changes by those two keys.  The caller keeps the set's invariants;
        the tests re-validate every written set and its index, and check that
        every read is written back, through ``tests/checked.py``.
        """
        self.counter.register_writes += 1
        members = self.members[h]
        members.discard(victim)
        members.add(self.rows[h][0][0])
        if not victim and len(members) > self.peak_live:
            self.peak_live = len(members)

    # -- ternary lookup -----------------------------------------------------

    def ternary_lookup(self, h: int, key: int) -> int:
        """One TCAM comparison against the key row of set ``h``."""
        if key < 1:
            raise StorageError("key 0 would falsely match empty ways")
        if key >> self.layout.key_bits:
            raise StorageError(f"key {key} exceeds {self.layout.key_bits} bits")
        self.counter.tcam_matches += 1
        if key in self.members[h]:
            return self.rows[h][0].index(key)
        return MISS

    # -- targeted hot-path access (same accounting unit as whole-set ops) ----

    def read_way(self, h: int, way: int) -> tuple[int, int]:
        """Read one way as a ``(key, scn)`` pair; counts as the whole-set register read."""
        self.counter.register_reads += 1
        keys, scns = self.rows[h]
        return keys[way], scns[way]

    def write_way_field(self, h: int, way: int, scn: int) -> None:
        """Patch the SCN word of one way; counts as the whole-set register write.

        Keys are only written with the whole set (write_set_raw), which keeps
        the key row's distinct-key guarantee.
        """
        width = self.layout.scn_bits
        if not 0 <= scn < 1 << width:
            raise StorageError(f"scn {scn} exceeds {width} bits")
        self.counter.register_writes += 1
        self.rows[h][SCN_FIELD][way] = scn

    # -- lazy maintenance ---------------------------------------------------

    def normalise(self, h: int, epoch: int, rebase: Callable[[list[int], int], list[int]]) -> None:
        """Bring set ``h`` to ``epoch`` through ``rebase(scns, missed epochs)``, and
        re-validate it; part of the caller's set access, so it charges nothing."""
        rows = self.rows[h]
        rows[SCN_FIELD] = rebase(rows[SCN_FIELD], epoch - self.epochs[h])
        self.epochs[h] = epoch
        self._check_rows(h)

    def clone(self) -> "RegisterStore":
        """A copy with its own rows, key index and a fresh counter."""
        other = RegisterStore.__new__(RegisterStore)
        other.__dict__.update(self.__dict__)
        other.counter = OpCounter()
        other.rows = [[keys[:], scns[:]] for keys, scns in self.rows]
        other.members = [members.copy() for members in self.members]
        other.epochs = self.epochs[:]
        return other

    def _check_rows(self, h: int) -> None:
        """Re-validate set ``h``: row shape, field widths, unique keys.

        ``min``/``max`` of each row and a distinct-key count decide whether
        there is a fault; a way-order scan then raises for the first one.
        """
        rows = self.rows[h]
        k = self.layout.k
        if len(rows) != 2 or len(rows[0]) != k or len(rows[1]) != k:
            raise AssertionError(f"set {h} does not hold {k} ways of every field")
        keys, scns = rows
        key_bits, scn_bits = self._widths
        empty = keys.count(0)
        if (min(keys) < 0 or max(keys) >> key_bits or min(scns) < 0 or max(scns) >> scn_bits
                or len(set(keys)) - (empty > 0) != k - empty):
            seen: set[int] = set()
            for way in zip(*rows):
                for name, x, width in zip(("key", "scn"), way, self._widths):
                    if not 0 <= x < 1 << width:
                        raise StorageError(f"{name} {x} exceeds {width} bits")
                key = way[0]
                if key in seen:
                    raise StorageError(f"duplicate key {key} within one set")
                if key:
                    seen.add(key)
