"""Stores that re-validate every set they write.

``checked(cache)`` takes an engine or a two-region cache and makes each of
its stores run ``_check_rows`` on the set after every ``write_set_raw`` and
``write_way_field``: field widths, row shape and distinct live keys, the
checks a production store leaves to its callers.  The store's class is
swapped for ``CheckedStore``, so nothing is bound in the store's own
``__dict__``, and ``RegisterStore.clone``, which copies that dict into a
plain ``RegisterStore``, gives a clone that writes only its own rows.
"""

from dpcache.core import RegisterStore


class CheckedStore(RegisterStore):
    """A ``RegisterStore`` whose every set write is followed by ``_check_rows``."""

    def write_set_raw(self, h, rows):
        super().write_set_raw(h, rows)
        self._check_rows(h)

    def write_way_field(self, h, way, scn):
        super().write_way_field(h, way, scn)
        self._check_rows(h)


def check_store(store):
    """Re-validate ``store``'s sets after every write from now on; returns it."""
    store.__class__ = CheckedStore
    return store


def checked(cache):
    """Check the store of an engine, or both region stores of a two-region cache; returns it."""
    for engine in (cache.window, cache.main) if hasattr(cache, "window") else (cache,):
        check_store(engine.store)
    return cache
