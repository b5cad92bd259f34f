"""Copy-on-write index for the dict-layout interval tracker.

The OPT branch-and-bound search clones its flow state at every branch,
and on short trajectories that state is the dict layout of
:mod:`repro.core.intervals`.  A naive clone copies its ``link ->
class ids`` and ``node -> class ids`` indexes entry by entry, which is
O(total index entries) -- the dominant per-clone cost once a search
lineage has split the flow into many classes over long trajectories.

:class:`CowIndex` keeps the plain ``dict[key, list]`` layout (so the
append-heavy serial schedulers pay essentially nothing) but snapshots by
copying only the dict of list *references*.  After a snapshot both copies
treat every per-key list as frozen-shared; the first append to a key
re-copies just that key's list and reclaims exclusive ownership of it.
A branch that applies one update round therefore pays O(touched keys x
their list lengths), not O(whole index), and untouched keys stay
structurally shared across the entire clone tree.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Sequence, Set, TypeVar

T = TypeVar("T")
K = TypeVar("K")

_EMPTY: Sequence = ()


class CowIndex(Generic[K, T]):
    """Append-only multimap ``key -> list`` with O(keys) snapshots.

    Drop-in for the ``dict.setdefault(key, []).append(value)`` pattern::

        index.add(key, value)        # append
        for v in index.get(key): ..  # append order
        index[key]; key in index; iter(index); len(index)

    Never remove values; the tracker filters stale class ids via its
    ``_alive`` set instead, which is what makes pure appends sufficient.
    """

    __slots__ = ("_map", "_owned")

    def __init__(
        self,
        _map: Optional[Dict[K, List[T]]] = None,
        _owned: Optional[Set[K]] = None,
    ) -> None:
        self._map = {} if _map is None else _map
        # Keys whose list this instance may mutate in place.  Everything
        # else is (potentially) shared with snapshots and must be copied
        # before the first append.
        self._owned = set() if _owned is None else _owned

    def add(self, key: K, value: T) -> None:
        values = self._map.get(key)
        if values is None:
            values = []
            self._map[key] = values
            self._owned.add(key)
        elif key not in self._owned:
            values = list(values)
            self._map[key] = values
            self._owned.add(key)
        values.append(value)

    def add_all(self, keys, value: T) -> None:
        """Append ``value`` under every key in ``keys`` (one call, no
        per-entry Python function overhead -- the index-building hot path
        appends each new class id under O(trajectory length) keys)."""
        mapping = self._map
        owned = self._owned
        get = mapping.get
        for key in keys:
            values = get(key)
            if values is None:
                mapping[key] = values = []
                owned.add(key)
            elif key not in owned:
                mapping[key] = values = list(values)
                owned.add(key)
            values.append(value)

    def get(self, key: K, default: Sequence[T] = _EMPTY) -> Sequence[T]:
        return self._map.get(key, default)

    def __getitem__(self, key: K) -> Sequence[T]:
        return self._map[key]

    def __contains__(self, key: K) -> bool:
        return key in self._map

    def __iter__(self) -> Iterator[K]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def keys(self):
        return self._map.keys()

    def snapshot(self) -> "CowIndex[K, T]":
        """An independent copy sharing every per-key list structurally.

        Both this index and the snapshot relinquish in-place ownership of
        all current lists; each side re-copies a list lazily if and when
        it first appends to that key again.
        """
        self._owned.clear()
        return CowIndex(dict(self._map), set())
