"""LRU caches with hit/miss accounting.

:class:`LRUCache` backs the serving engine's query-plan, candidate and
membership-degree caches.  :class:`PartitionedLRUCache` splits one logical
cache into independent LRU partitions keyed by a router function — the
sharded serving engine partitions its membership cache so each shard's
degree entries live (and are evicted) in their own partition, while
invalidation stays ``data_version``-driven: the engine clears every
partition together whenever the database version moves, exactly like the
unsharded cache.

Individual caches are not thread-safe; the serving engines only touch them
from the coordinating thread (shard workers run pure NumPy kernels and
never see a cache).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Iterator, Sequence

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

    def peek_many(self, keys: Sequence[Hashable], default: object = None) -> list[object]:
        """Batch :meth:`peek`: one value (or ``default``) per key, in order.

        No recency updates, no counters — the probe the concurrent batch
        coordinator uses to plan prefetches without perturbing the cache
        statistics a serial execution would have produced.
        """
        get = self._entries.get
        return [get(key, default) for key in keys]

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_many(self, keys: Sequence[Hashable], default: object = None) -> list[object]:
        """Batch :meth:`get`: one value (or ``default``) per key, in order.

        Counts hits/misses and refreshes recency exactly like per-key
        ``get`` calls, with the per-key call layering hoisted out — the
        serving engines look up hundreds of membership degrees per
        predicate, which makes the bookkeeping itself a hot path.
        """
        entries = self._entries
        move_to_end = entries.move_to_end
        hits = 0
        values: list[object] = []
        append = values.append
        for key in keys:
            if key in entries:
                move_to_end(key)
                hits += 1
                append(entries[key])
            else:
                append(default)
        self.stats.hits += hits
        self.stats.misses += len(values) - hits
        return values

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

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used."""
        return iter(self._entries.keys())


def _default_router(key: Hashable) -> int:
    """Route a cache key by its first element (the entity id, by convention).

    The serving caches key membership degrees as ``(entity_id, attribute,
    phrase)`` tuples; routing on the entity id keeps all of one entity's
    degrees in one partition, which is the ownership unit the sharded
    engine cares about.  Non-tuple keys hash whole.
    """
    if isinstance(key, tuple) and key:
        return hash(key[0])
    return hash(key)


class PartitionedLRUCache:
    """One logical cache split into independent LRU partitions.

    ``maxsize`` bounds the *total* entry count; each partition gets an equal
    share (rounded up), so eviction pressure in one partition never evicts
    another partition's entries.  The interface mirrors :class:`LRUCache`
    (``get``/``put``/``peek``/``clear``/``len``/``in``); :attr:`stats`
    aggregates across partitions, and per-partition statistics stay
    available on the partitions themselves.
    """

    def __init__(
        self,
        num_partitions: int,
        maxsize: int | None = None,
        router: Callable[[Hashable], int] | None = None,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        per_partition = None
        if maxsize is not None:
            per_partition = -(-maxsize // num_partitions)  # ceil division
        self.partitions = [LRUCache(per_partition) for _ in range(num_partitions)]
        self._router = router or _default_router

    @property
    def num_partitions(self) -> int:
        """Number of independent LRU partitions."""
        return len(self.partitions)

    def partition_of(self, key: Hashable) -> LRUCache:
        """The partition owning ``key``."""
        return self.partitions[self._router(key) % len(self.partitions)]

    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key`` in its partition (counts and recency as ``LRUCache.get``)."""
        return self.partition_of(key).get(key, default)

    def peek(self, key: Hashable, default: object = None) -> object:
        """Look up ``key`` without touching recency or counters."""
        return self.partition_of(key).peek(key, default)

    def peek_many(self, keys: Sequence[Hashable], default: object = None) -> list[object]:
        """Batch :meth:`peek` with the per-key partition routing inlined.

        No recency updates, no counters; values (or ``default``) come back
        in key order exactly like :meth:`get_many`.
        """
        partitions = self.partitions
        num = len(partitions)
        router = self._router
        default_routing = router is _default_router
        values: list[object] = []
        append = values.append
        for key in keys:
            if default_routing:
                index = hash(key[0] if isinstance(key, tuple) and key else key) % num
            else:
                index = router(key) % num
            append(partitions[index]._entries.get(key, default))
        return values

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key`` in its partition (partition-local eviction)."""
        self.partition_of(key).put(key, value)

    def get_many(self, keys: Sequence[Hashable], default: object = None) -> list[object]:
        """Batch :meth:`get` with the per-key partition routing inlined.

        Equivalent to per-key ``get`` calls (same values, recency updates
        and per-partition counters); hit/miss counts are accumulated per
        partition and flushed once.
        """
        partitions = self.partitions
        num = len(partitions)
        router = self._router
        default_routing = router is _default_router
        hits = [0] * num
        misses = [0] * num
        values: list[object] = []
        append = values.append
        for key in keys:
            if default_routing:
                # Inlined _default_router: the per-key call layering is
                # measurable when batches span hundreds of entities.
                index = hash(key[0] if isinstance(key, tuple) and key else key) % num
            else:
                index = router(key) % num
            entries = partitions[index]._entries
            if key in entries:
                entries.move_to_end(key)
                hits[index] += 1
                append(entries[key])
            else:
                misses[index] += 1
                append(default)
        for index in range(num):
            if hits[index]:
                partitions[index].stats.hits += hits[index]
            if misses[index]:
                partitions[index].stats.misses += misses[index]
        return values

    def put_many(self, items: Sequence[tuple[Hashable, object]]) -> None:
        """Batch :meth:`put`: items grouped per partition, then batch-inserted."""
        num = len(self.partitions)
        router = self._router
        default_routing = router is _default_router
        grouped: list[list[tuple[Hashable, object]]] = [[] for _ in range(num)]
        for item in items:
            key = item[0]
            if default_routing:
                index = hash(key[0] if isinstance(key, tuple) and key else key) % num
            else:
                index = router(key) % num
            grouped[index].append(item)
        for partition, group in zip(self.partitions, grouped):
            if group:
                partition.put_many(group)

    def clear(self) -> None:
        """Drop every partition's entries together (one invalidation unit)."""
        for partition in self.partitions:
            partition.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self.partition_of(key)

    def __len__(self) -> int:
        return sum(len(partition) for partition in self.partitions)

    def keys(self) -> Iterator[Hashable]:
        """All keys, partition by partition (least- to most-recently used)."""
        for partition in self.partitions:
            yield from partition.keys()

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters summed over all partitions (a fresh snapshot)."""
        return CacheStats(
            hits=sum(partition.stats.hits for partition in self.partitions),
            misses=sum(partition.stats.misses for partition in self.partitions),
            evictions=sum(partition.stats.evictions for partition in self.partitions),
        )

    def partition_stats(self) -> list[dict[str, float]]:
        """Per-partition counter dicts (``entries`` plus the hit statistics).

        One dict per partition, in partition order — the shard-local view
        the sharded engine's ``stats_snapshot`` and the shard-service
        ``stats()`` RPC report, so operators can spot a hot or cold shard.
        """
        return [
            {"entries": len(partition), **partition.stats.as_dict()}
            for partition in self.partitions
        ]
