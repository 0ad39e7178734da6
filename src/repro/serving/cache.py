"""LRU caches with hit/miss accounting.

:class:`LRUCache` backs the serving engine's query-plan and candidate
caches.  :class:`DegreeColumnCache` is every engine's membership cache: one
exact-degree column per ``(attribute, phrase)`` condition over the engine's
entity index, so a scan gathers and scatters arrays instead of walking
per-entity dict entries.  Invalidation is ``data_version``-driven
everywhere: an engine resets its caches together whenever the database
version moves.

Individual caches are not thread-safe; the serving engines only touch them
from the coordinating thread (shard workers run pure NumPy kernels and
never see a cache).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from repro.obs.metrics import Counter


class CacheStats:
    """Counters of one cache: lookups, hits, misses, evictions.

    Storage is a trio of live :class:`repro.obs.metrics.Counter` cells
    (:attr:`hits_cell` & co.) that a serving engine registers in its
    :class:`~repro.obs.MetricsRegistry`.  Attribute *reads* stay plain
    ``int`` value snapshots — ``before = cache.stats.hits`` must not
    alias a mutating cell — while attribute *writes* (``stats.hits += n``)
    land in the registered cell, so the registry and this legacy view can
    never disagree.
    """

    __slots__ = ("hits_cell", "misses_cell", "evictions_cell")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0) -> None:
        self.hits_cell = Counter("cache_hits", value=int(hits))
        self.misses_cell = Counter("cache_misses", value=int(misses))
        self.evictions_cell = Counter("cache_evictions", value=int(evictions))

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return int(self.hits_cell)

    @hits.setter
    def hits(self, value: int) -> None:
        self.hits_cell.reset(int(value))

    @property
    def misses(self) -> int:
        """Lookups that fell through to recomputation."""
        return int(self.misses_cell)

    @misses.setter
    def misses(self, value: int) -> None:
        self.misses_cell.reset(int(value))

    @property
    def evictions(self) -> int:
        """Entries evicted to respect ``maxsize``."""
        return int(self.evictions_cell)

    @evictions.setter
    def evictions(self, value: int) -> None:
        self.evictions_cell.reset(int(value))

    @property
    def lookups(self) -> int:
        """Total lookups counted (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return (self.hits, self.misses, self.evictions) == (
            other.hits,
            other.misses,
            other.evictions,
        )

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

    def as_dict(self) -> dict[str, float]:
        """The counters plus hit rate as one plain dict (for snapshots)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry on overflow.

    ``get`` refreshes recency; ``put`` inserts or refreshes.  A ``maxsize``
    of ``None`` disables eviction (unbounded cache).
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats()

    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return default

    def peek(self, key: Hashable, default: object = None) -> object:
        """Look up ``key`` without touching recency or counters."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def put_many(self, items: Sequence[tuple[Hashable, object]]) -> None:
        """Batch :meth:`put`; final contents and counters equal per-key puts."""
        entries = self._entries
        for key, value in items:
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
        overflow = 0 if self.maxsize is None else len(entries) - self.maxsize
        if overflow > 0:
            for _ in range(overflow):
                entries.popitem(last=False)
            self.stats.evictions += overflow  # one cell write per call, not per entry

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the lifetime)."""
        self._entries.clear()

    def retain(self, keep: Callable[[Hashable], bool]) -> None:
        """Drop every entry whose key fails ``keep`` (counters are kept)."""
        for key in [key for key in self._entries if not keep(key)]:
            del self._entries[key]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used."""
        return iter(self._entries.keys())


class DegreeColumnCache:
    """The membership cache: one exact-degree column per ``(attribute, phrase)``.

    The paper evaluates a condition ``A ≐ m`` as one degree per candidate
    entity, so the unit of reuse is a column.  Rows are the engine's *entity
    index* — ``database.entity_ids()`` order, installed by :meth:`reset` on
    every ``data_version`` move — and an entry is a ``float64[N]`` value
    column plus a ``bool[N]`` known mask; retrieval degrees use the key
    ``(None, predicate)``.  Callers resolve ids to rows once
    (:meth:`rows_of`), then :meth:`lookup` gathers ``(values, known)`` and
    :meth:`store` scatters exact degrees — no per-entity key is ever built.

    ``maxsize`` is a number of degrees, counted in allocated slots
    (``columns × N``, never fewer than one column); the least recently used
    column is dropped to make room, and an eviction adds the column's known
    degrees to ``stats.evictions`` once.  ``hits`` / ``misses`` count
    degrees looked up.  ``partitioner`` maps a row count to the K+1 bounds
    of K contiguous row ranges; :meth:`partition_stats` then reports the
    counters per range (they sum to the totals).

    :meth:`keys`, :meth:`peek` and ``len`` are the per-degree inspection
    surface: they speak ``(entity_id, attribute, phrase)``.
    """

    def __init__(
        self,
        maxsize: int | None = None,
        entity_ids: Sequence[Hashable] = (),
        partitioner: Callable[[int], Sequence[int]] | None = None,
    ) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._partitioner = partitioner or (lambda num_rows: (0, num_rows))
        #: Contiguous row ranges the counters are reported over.
        self.num_partitions = len(self._partitioner(0)) - 1
        self._columns: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self.stats = CacheStats()
        # hits / misses / evictions per partition, cumulative like ``stats``.
        self._partition_counts = np.zeros((3, self.num_partitions), dtype=np.int64)
        self.reset(entity_ids)

    # ---------------------------------------------------------- entity index
    def reset(self, entity_ids: Sequence[Hashable]) -> None:
        """Drop every column and install a new entity index (counters are kept)."""
        self.row_index: dict[Hashable, int] = {}
        self._entity_ids = np.empty(0, dtype=object)
        self._extend_index(entity_ids)

    def _extend_index(self, entity_ids: Sequence[Hashable]) -> None:
        """Append ``entity_ids`` to the index; columns are index-long, so they go."""
        self._columns.clear()
        self.row_index.update(zip(entity_ids, itertools.count(self.num_rows)))
        appended = np.fromiter(entity_ids, dtype=object, count=len(entity_ids))
        self._entity_ids = np.concatenate([self._entity_ids, appended])
        bounds = self._partitioner(self.num_rows)
        self._partition_of = np.repeat(np.arange(self.num_partitions), np.diff(bounds))

    @property
    def num_rows(self) -> int:
        """Rows of the entity index (the length of every column)."""
        return self._entity_ids.size

    def rows_of(self, entity_ids: Sequence[Hashable]) -> np.ndarray:
        """Entity-index row of every id, in order.

        An id the database does not list (a row inserted into the entities
        table directly) is appended to the index; columns are as long as the
        index, so they are dropped — :attr:`row_index` keeps its identity
        and every row handed out before stays valid.
        """
        index = self.row_index
        try:
            rows = [index[entity_id] for entity_id in entity_ids]
        except KeyError:
            self._extend_index(
                list(dict.fromkeys(e for e in entity_ids if e not in index))
            )
            rows = [index[entity_id] for entity_id in entity_ids]
        return np.fromiter(rows, dtype=np.intp, count=len(rows))

    def ids_of(self, rows: np.ndarray) -> list[Hashable]:
        """The entity ids at ``rows`` — the store boundary is id-based."""
        return self._entity_ids[rows].tolist()

    # --------------------------------------------------------------- columns
    def lookup(self, key: tuple, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, known)`` of column ``key`` at ``rows`` (fresh arrays).

        Counts one hit per known and one miss per unknown row and refreshes
        the column's recency; ``values`` is 0.0 where ``known`` is false.
        """
        column = self._columns.get(key)
        if column is None:
            values, known = np.zeros(rows.size), np.zeros(rows.size, dtype=bool)
        else:
            self._columns.move_to_end(key)
            values, known = column[0][rows], column[1][rows]
        hits = int(np.count_nonzero(known))
        self.stats.hits_cell.inc(hits)
        self.stats.misses_cell.inc(rows.size - hits)
        partitions = self._partition_of[rows]
        self._partition_counts[0] += self._per_partition(partitions[known])
        self._partition_counts[1] += self._per_partition(partitions[~known])
        return values, known

    def covers(self, key: tuple, rows: np.ndarray) -> bool:
        """Whether column ``key`` knows the degree at every one of ``rows``.

        No counters and no recency: a probe for whether a whole query can
        be answered from the cache.
        """
        column = self._columns.get(key)
        return column is not None and bool(column[1][rows].all())

    def store(self, key: tuple, rows: np.ndarray, exact_values: np.ndarray) -> None:
        """Write exact degrees at ``rows`` of column ``key``, allocating it if new.

        Only exact degrees may be stored — an upper bound is not a degree.
        Storing no rows allocates nothing.
        """
        if not len(rows):
            return
        column = self._columns.get(key)
        if column is None:
            self._make_room()
            column = self._columns[key] = (
                np.zeros(self.num_rows),
                np.zeros(self.num_rows, dtype=bool),
            )
        else:
            self._columns.move_to_end(key)
        column[0][rows] = exact_values
        column[1][rows] = True

    def _make_room(self) -> None:
        """Evict least-recently-used columns until one more fits ``maxsize``."""
        if self.maxsize is None:
            return
        most = max(1, self.maxsize // max(1, self.num_rows))
        while len(self._columns) >= most:
            _key, (_values, known) = self._columns.popitem(last=False)
            self.stats.evictions_cell.inc(int(np.count_nonzero(known)))
            self._partition_counts[2] += self._per_partition(self._partition_of[known])

    def _per_partition(self, partitions: np.ndarray) -> np.ndarray:
        return np.bincount(partitions, minlength=self.num_partitions)

    def clear(self) -> None:
        """Drop every column (index and counters are kept)."""
        self._columns.clear()

    @property
    def allocated_slots(self) -> int:
        """Degrees the allocated columns have room for (``columns × N``)."""
        return len(self._columns) * self.num_rows

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return sum(int(np.count_nonzero(known)) for _values, known in self._columns.values())

    def keys(self) -> Iterator[tuple]:
        """``(entity_id, attribute, phrase)`` of every known degree, LRU column first."""
        for (attribute, phrase), (_values, known) in self._columns.items():
            for entity_id in self.ids_of(np.flatnonzero(known)):
                yield (entity_id, attribute, phrase)

    def peek(self, key: tuple, default: object = None) -> object:
        """The degree under ``(entity_id, attribute, phrase)``; no counters, no recency."""
        entity_id, attribute, phrase = key
        row = self.row_index.get(entity_id)
        column = self._columns.get((attribute, phrase))
        if row is None or column is None or not column[1][row]:
            return default
        return float(column[0][row])

    # ---------------------------------------------------- per-degree batches
    # The LRUCache batch protocol over ``(entity_id, attribute, phrase)``
    # keys, for the call sites that still speak entity ids (the full-vector
    # and scalar ranking paths): each run of keys sharing a condition
    # becomes one column operation.
    def _runs(self, keys: Sequence[tuple]) -> Iterator[tuple[tuple, np.ndarray]]:
        for column_key, run in itertools.groupby(keys, key=itemgetter(1, 2)):
            yield column_key, self.rows_of([key[0] for key in run])

    def get_many(self, keys: Sequence[tuple], default: object = None) -> list[object]:
        """:meth:`lookup` per key: one degree (or ``default``) per key, in order."""
        degrees: list[object] = []
        for column_key, rows in self._runs(keys):
            degrees += self._with_default(*self.lookup(column_key, rows), default)
        return degrees

    @staticmethod
    def _with_default(values: np.ndarray, known: np.ndarray, default: object) -> list[object]:
        degrees = values.tolist()
        for position in np.flatnonzero(~known).tolist():
            degrees[position] = default
        return degrees

    def put_many(self, items: Sequence[tuple[tuple, float]]) -> None:
        """:meth:`store` per ``(key, exact degree)`` item."""
        position = 0
        for column_key, rows in self._runs([key for key, _degree in items]):
            degrees = [degree for _key, degree in items[position : position + rows.size]]
            self.store(column_key, rows, degrees)
            position += rows.size

    def partition_stats(self) -> list[dict[str, float]]:
        """Per-partition ``entries`` plus hit statistics, in row-range order."""
        entries = np.zeros(self.num_partitions, dtype=np.int64)
        for _values, known in self._columns.values():
            entries += self._per_partition(self._partition_of[known])
        return [
            {"entries": int(count), **CacheStats(*counters).as_dict()}
            for count, counters in zip(entries, self._partition_counts.T.tolist())
        ]
