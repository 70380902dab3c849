"""Stores that re-validate every set they write.

``checked(cache)`` takes an engine or a two-region cache and makes each of
its stores run ``_check_rows`` on the set after every ``write_set_raw`` and
``write_way_field``: field widths, row shape and distinct live keys, the
checks a production store leaves to its callers.  After the same writes it
checks the set's key index, ``members[h] == set(rows[h][0]) - {0}``, which a
miss's write updates by the key it names and the key at way 0 alone.
``load_set`` installs a fixture set, with its index, in any store.

A checked store also fails when a set handed out by ``read_set_raw`` is not
committed by ``write_set_raw`` before its next ``ternary_lookup`` or
``read_set_raw``: a read hands out the set's own rows, so a miss that
skipped its write would leave every row as it should be and show only in
the write count.  A read left open by the last fetch of a replay has no
later access to fail it, so ``assert_written(cache)`` checks for one after
the replay.  The store's class is swapped for ``CheckedStore``, so no method
is bound in the store's own ``__dict__``, and ``RegisterStore.clone``, which
copies that dict into a plain ``RegisterStore``, gives a clone that writes
only its own rows.
"""

from dpcache.core import SCN_FIELD, RegisterStore


class CheckedStore(RegisterStore):
    """A ``RegisterStore`` whose every set write is followed by ``_check_rows``,
    and whose every whole-set read is written back before the next access."""

    unwritten = None  # the set read by ``read_set_raw`` and not yet written
    unchanged_writes = 0  # ``write_way_field`` calls that left their SCN as it was

    def _check_written(self):
        if self.unwritten is not None:
            raise AssertionError(f"set {self.unwritten} was read and not written back")

    def ternary_lookup(self, h, key):
        self._check_written()
        return super().ternary_lookup(h, key)

    def read_set_raw(self, h):
        self._check_written()
        self.unwritten = h
        return super().read_set_raw(h)

    def write_set_raw(self, h, victim):
        super().write_set_raw(h, victim)
        if h == self.unwritten:
            self.unwritten = None
        self._check_rows(h)
        self._check_members(h)

    def write_way_field(self, h, way, scn):
        self.unchanged_writes += scn == self.rows[h][SCN_FIELD][way]
        super().write_way_field(h, way, scn)
        self._check_rows(h)
        self._check_members(h)

    def _check_members(self, h):
        live = set(self.rows[h][0]) - {0}
        if self.members[h] != live:
            raise AssertionError(f"set {h} indexes keys {sorted(self.members[h])}, "
                                 f"its key row holds {sorted(live)}")


def load_set(store, h, rows):
    """Install the fixture ``rows`` as set ``h`` with its key index and ``peak_live``; returns them.

    A store takes no set from outside, so tests install one here, charging
    nothing; a checked store re-validates the set.
    """
    store.rows[h] = rows
    store.members[h] = set(rows[0]) - {0}
    store.peak_live = max(store.peak_live, len(store.members[h]))
    if isinstance(store, CheckedStore):
        store._check_rows(h)
    return rows


def check_store(store):
    """Re-validate ``store``'s sets after every write from now on; returns it."""
    store.__class__ = CheckedStore
    return store


def stores(cache):
    """The store of an engine, or both region stores of a two-region cache."""
    return [engine.store for engine in
            ((cache.window, cache.main) if hasattr(cache, "window") else (cache,))]


def checked(cache):
    """Check every store of an engine or a two-region cache; returns the cache."""
    for store in stores(cache):
        check_store(store)
    return cache


def assert_written(cache):
    """Fail if a checked cache has a set read by ``read_set_raw`` and not yet written back."""
    for store in stores(cache):
        store._check_written()
