"""A bounded insertion-ordered memo dictionary.

The performance layer (PR 2) keeps many small content-addressed memos:
workload graphs, sharing-matrix pairs, per-array histograms, built
traces.  They all want the same policy — plain dict lookups, a capacity
bound, evict-oldest-inserted beyond it — which lives here once instead
of being re-rolled at every call site.

Entries whose keys embed ``id(...)`` of live objects must *pin* those
objects inside the stored value (store the object alongside the datum),
so a key can never outlive the identity it names.

Memos are shared across the cells an ``Engine(policy="threads")``
runs concurrently, so eviction is serialized: without the lock, two
threads at capacity could race to delete the same oldest key.  Values
are idempotent (pure functions of the key), so racing *inserts* of the
same key remain harmless.
"""

from __future__ import annotations

import threading

from repro.errors import ValidationError


class BoundedDict(dict):
    """A dict with a capacity; :meth:`put` evicts oldest-inserted first."""

    __slots__ = ("_max_entries", "_lock")

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        if max_entries <= 0:
            raise ValidationError(
                f"max_entries must be positive, got {max_entries}"
            )
        self._max_entries = max_entries
        self._lock = threading.Lock()

    @property
    def max_entries(self) -> int:
        """The capacity bound."""
        return self._max_entries

    def put(self, key: object, value: object) -> None:
        """Insert, evicting the oldest entry if at capacity.

        (CPython dicts iterate in insertion order, so ``next(iter(...))``
        is the oldest surviving insertion.)
        """
        with self._lock:
            if len(self) >= self._max_entries and key not in self:
                del self[next(iter(self))]
            self[key] = value
