"""The subjective-query serving engine.

:class:`SubjectiveQueryEngine` wraps a :class:`SubjectiveQueryProcessor`
with the amortisation layers a query-serving deployment needs:

* a **plan cache** — an LRU over :func:`normalize_sql` keys holding the
  parsed statement and the predicate interpretations, so repeated (or
  reformatted) queries skip parsing and interpretation entirely;
* a **candidate cache** — objective pre-filter results per objective
  skeleton (table, alias, join and the WHERE clause with every subjective
  predicate's text blanked), so every query that differs from an earlier
  one only in its phrases skips the table scan/join/filter;
* a **membership cache** — one exact-degree column per ``(attribute,
  phrase)`` condition (``(None, predicate)`` for the text-retrieval
  fallback) over the engine's entity index
  (:class:`~repro.serving.cache.DegreeColumnCache`), shared across all
  queries touching the same condition;
* **columnar batch scoring** — uncached degrees are computed for all missing
  entities of a predicate in one :meth:`SubjectiveQueryProcessor.pair_degrees`
  call, which routes through the processor's
  :class:`repro.core.columnar.ColumnarSummaryStore`: a handful of NumPy
  kernel calls over dense per-attribute summary arrays, never
  entity-by-entity Python loops.

Every cache snapshots :attr:`SubjectiveDatabase.data_version`; any ingest
(entities, reviews, extractions, summaries, index rebuilds) moves the
version and the next query drops the cached plans and degrees.  Only what an
ingest can have changed goes: when the database's change journal explains
every bump since (reviews and replaced summaries only), the candidate sets
of join-free statements stay — those ingests never write the entities
table — and the columnar store patches just the replaced rows.  Results are
therefore
always identical to running the wrapped processor directly — the test suite
asserts equality and the throughput benchmark measures the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.core.columnar import AttributeColumns
from repro.core.database import SubjectiveDatabase
from repro.core.processor import QueryResult, SubjectiveQueryProcessor
from repro.engine.expressions import Expression
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.slowlog import SlowQueryLog, global_slow_query_log
from repro.obs.trace import span
from repro.serving.cache import DegreeColumnCache, LRUCache
from repro.serving.plans import QueryPlan, candidate_key, join_free, normalize_sql
from repro.utils.timing import now

_MISSING = object()


def crisp_leaf_vector(leaf: Expression, rows: Sequence[dict]) -> np.ndarray:
    """Exact 0.0/1.0 fuzzy value of a crisp objective leaf on every row.

    One boolean evaluation per row, without the scalar fuzzy-walk machinery.
    """
    return np.fromiter(
        (1.0 if leaf.evaluate(row) else 0.0 for row in rows), dtype=float, count=len(rows)
    )


@dataclass(frozen=True)
class CandidateSet:
    """Cached objective pre-filter result plus its derived views.

    Everything here is a function of the objective skeleton
    (:func:`repro.serving.plans.candidate_key`) and the data version alone,
    so it is computed once and shared by every plan with that skeleton:
    row → entity-id resolution and deduplication eagerly, and — on first
    use — each candidate's row in the membership cache's entity index and
    in an attribute's column arrays, and each crisp objective leaf's 0/1
    vector.  ``rows`` is shared between the results of all those queries
    and must be treated as read-only.
    """

    rows: list[dict]
    row_entities: list[Hashable]
    unique_ids: list[Hashable]
    _store_rows: dict = field(default_factory=dict, repr=False, compare=False)
    _entity_rows: list = field(default_factory=list, repr=False, compare=False)
    _crisp: dict = field(default_factory=dict, repr=False, compare=False)

    def crisp_vector(self, leaf: Expression) -> np.ndarray:
        """Read-only :func:`crisp_leaf_vector` of ``leaf`` over ``rows``.

        Evaluated once per leaf (leaves hash structurally, so every query
        sharing this candidate set shares the vector); the bound fold of
        the pruned scan reads it instead of re-evaluating the leaf row by
        row per query.
        """
        vector = self._crisp.get(leaf)
        if vector is None:
            vector = crisp_leaf_vector(leaf, self.rows)
            vector.flags.writeable = False
            self._crisp[leaf] = vector
        return vector

    def entity_rows(self, cache: DegreeColumnCache) -> np.ndarray:
        """Row of every unique candidate in ``cache``'s entity index, in order.

        Resolved once per entity index (the memo is checked against the
        index object, so rows can never be used against a newer index).
        """
        memo = self._entity_rows
        if not memo or memo[0] is not cache.row_index:
            memo[:] = [cache.row_index, cache.rows_of(self.unique_ids)]
        return memo[1]

    def store_rows(self, columns: AttributeColumns) -> np.ndarray | None:
        """Row of every candidate entity in ``columns``, in candidate order.

        ``None`` when some candidate has no row there.  Resolved once per
        row layout: the memo is checked against ``columns.row_of``, which a
        patched generation shares with the one it replaced and a rebuild
        replaces — so a rebuilt attribute can never be gathered with stale
        rows, and a candidate set that survives an ingest never pins the
        superseded generation's arrays.
        """
        memo = self._store_rows.get(columns.attribute)
        if memo is None or memo[0] is not columns.row_of:
            rows = [columns.row_of.get(entity_id) for entity_id in self.row_entities]
            index = None if None in rows else np.fromiter(rows, dtype=np.intp, count=len(rows))
            memo = self._store_rows[columns.attribute] = (columns.row_of, index)
        return memo[1]


class ServingStats:
    """Aggregate serving counters (cache counters live on the caches).

    Storage is a set of live :class:`repro.obs.metrics.Counter` cells
    (``*_cell`` attributes) the engine registers in its
    :class:`~repro.obs.MetricsRegistry`.  Attribute reads are plain
    value snapshots; writes (``stats.queries += 1``) land in the
    registered cell — the registry and this legacy view share storage.
    """

    __slots__ = (
        "queries_cell",
        "batch_queries_cell",
        "invalidations_cell",
        "total_seconds_cell",
    )

    def __init__(
        self,
        queries: int = 0,
        batch_queries: int = 0,
        invalidations: int = 0,
        total_seconds: float = 0.0,
    ) -> None:
        self.queries_cell = Counter("queries", value=int(queries))
        self.batch_queries_cell = Counter("batch_queries", value=int(batch_queries))
        self.invalidations_cell = Counter("invalidations", value=int(invalidations))
        self.total_seconds_cell = Counter("total_seconds", value=float(total_seconds))

    @property
    def queries(self) -> int:
        """Queries served through :meth:`SubjectiveQueryEngine.execute`."""
        return int(self.queries_cell)

    @queries.setter
    def queries(self, value: int) -> None:
        self.queries_cell.reset(int(value))

    @property
    def batch_queries(self) -> int:
        """Queries served inside :meth:`SubjectiveQueryEngine.run_batch` calls."""
        return int(self.batch_queries_cell)

    @batch_queries.setter
    def batch_queries(self, value: int) -> None:
        self.batch_queries_cell.reset(int(value))

    @property
    def invalidations(self) -> int:
        """Whole-cache invalidations triggered by ``data_version`` moves."""
        return int(self.invalidations_cell)

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self.invalidations_cell.reset(int(value))

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds spent serving queries."""
        return float(self.total_seconds_cell)

    @total_seconds.setter
    def total_seconds(self, value: float) -> None:
        self.total_seconds_cell.reset(float(value))

    def __repr__(self) -> str:
        return (
            f"ServingStats(queries={self.queries}, batch_queries={self.batch_queries}, "
            f"invalidations={self.invalidations}, total_seconds={self.total_seconds})"
        )

    @property
    def mean_latency(self) -> float:
        """Mean seconds per query served (0.0 before the first query)."""
        if self.queries == 0:
            return 0.0
        return self.total_seconds / self.queries


@dataclass
class BatchResult:
    """Results of one :meth:`SubjectiveQueryEngine.run_batch` call."""

    results: list[QueryResult]
    latencies: list[float]
    elapsed_seconds: float
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput over wall-clock time (0.0 for an empty batch)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.elapsed_seconds

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class SubjectiveQueryEngine:
    """Cached, batched serving front end over a subjective database.

    Parameters
    ----------
    database:
        The database to serve; a default processor is built over it.
        Ignored when ``processor`` is given.
    processor:
        An explicitly configured processor to wrap (custom membership
        function, fuzzy logic, thresholds, ...).
    plan_cache_size:
        Maximum cached query plans (normalised-SQL keyed LRU).
    membership_cache_size:
        Maximum cached membership degrees, counted in allocated column slots
        (columns × entities, at least one column); 9 bytes per slot.
    candidate_cache_size:
        Maximum cached objective candidate sets, keyed by
        :func:`repro.serving.plans.candidate_key`.  Cached rows are shared
        between the results of every query with the same objective skeleton
        and must be treated as read-only by callers.
    """

    def __init__(
        self,
        database: SubjectiveDatabase | None = None,
        processor: SubjectiveQueryProcessor | None = None,
        plan_cache_size: int | None = 256,
        membership_cache_size: int | None = 200_000,
        candidate_cache_size: int | None = 64,
    ) -> None:
        if processor is None:
            if database is None:
                raise ValueError("SubjectiveQueryEngine needs a database or a processor")
            processor = SubjectiveQueryProcessor(database)
        self.processor = processor
        self.database = processor.database
        self.plan_cache = LRUCache(plan_cache_size)
        self.membership_cache = self._build_membership_cache(membership_cache_size)
        self.candidate_cache = LRUCache(candidate_cache_size)
        self.stats = ServingStats()
        # One registry per engine: every serving counter below is (or is
        # viewed by) an instrument in it, and the legacy dict-returning
        # APIs (_cache_counters, stats_snapshot) are thin views over the
        # same cells.
        self.metrics = MetricsRegistry()
        self.metrics.register("queries", self.stats.queries_cell)
        self.metrics.register("batch_queries", self.stats.batch_queries_cell)
        self.metrics.register("invalidations", self.stats.invalidations_cell)
        self.metrics.register("total_seconds", self.stats.total_seconds_cell)
        self.metrics.register("plan_cache_hits", self.plan_cache.stats.hits_cell)
        self.metrics.register("plan_cache_misses", self.plan_cache.stats.misses_cell)
        self.metrics.register("plan_cache_evictions", self.plan_cache.stats.evictions_cell)
        self.metrics.register("candidate_cache_hits", self.candidate_cache.stats.hits_cell)
        self.metrics.register("candidate_cache_misses", self.candidate_cache.stats.misses_cell)
        self.metrics.register(
            "candidate_cache_evictions", self.candidate_cache.stats.evictions_cell
        )
        self.metrics.register("membership_cache_hits", self.membership_cache.stats.hits_cell)
        self.metrics.register("membership_cache_misses", self.membership_cache.stats.misses_cell)
        self.metrics.register(
            "membership_cache_evictions", self.membership_cache.stats.evictions_cell
        )
        self.latency_histogram = self.metrics.histogram(
            "query_latency_seconds", help="Per-query serving latency"
        )
        # The counter family the bound-based top-k planner reports at every
        # layer: entities scored exactly by a kernel vs. entities dismissed
        # on a bound alone.  The base engine never prunes, so its pruned
        # count stays 0 — but layer 1 reporting the same names keeps
        # run_batch() cache stats comparable across the whole stack.
        # Exposed as properties over registry cells so harness code that
        # assigns ``engine.entities_scored = 0`` resets the registered
        # cell instead of orphaning it.
        self._entities_scored_cell = self.metrics.counter("entities_scored")
        self._entities_pruned_cell = self.metrics.counter("entities_pruned")
        self.slow_query_log: SlowQueryLog = global_slow_query_log()
        self._data_version = self.database.data_version

    # ----------------------------------------------------- pruning counters
    @property
    def entities_scored(self) -> int:
        """Entities scored exactly by a kernel (reads the registry cell)."""
        return int(self._entities_scored_cell)

    @entities_scored.setter
    def entities_scored(self, value: int) -> None:
        self._entities_scored_cell.reset(int(value))

    @property
    def entities_pruned(self) -> int:
        """Entities dismissed on a bound alone (reads the registry cell)."""
        return int(self._entities_pruned_cell)

    @entities_pruned.setter
    def entities_pruned(self, value: int) -> None:
        self._entities_pruned_cell.reset(int(value))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release executor or worker resources held by the engine.

        The base engine holds none, so this is a no-op; the sharded engine
        shuts down its executor pool here and the cluster engine shuts
        down its node processes.  Always idempotent, so
        ``finally: engine.close()`` (or the context-manager form) is safe
        for every engine flavour.
        """

    def __enter__(self) -> "SubjectiveQueryEngine":
        """Enter a ``with`` block; the engine closes itself on exit."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Close the engine when the ``with`` block exits."""
        self.close()

    def _build_membership_cache(self, maxsize: int | None) -> DegreeColumnCache:
        """The membership-degree cache over the database's entities.

        The sharded engine reports its counters per shard row range;
        everything else about cache handling (column keys, miss batching,
        ``data_version`` invalidation) is shared.
        """
        return DegreeColumnCache(maxsize, self.database.entity_ids())

    # ------------------------------------------------------------ invalidation
    def invalidate(self) -> None:
        """Drop every cache, the columnar store's columns included."""
        self._drop_caches()
        if self.processor.columnar_store is not None:
            self.processor.columnar_store.invalidate()

    def _drop_caches(self, journaled: bool = False) -> None:
        """Drop the engine's own caches and adopt the current data version.

        ``journaled``: the database's change journal explains every bump
        since the engine's version — reviews and replaced summaries only,
        which never write the entities table.  The entity index and the
        candidate sets of join-free statements (all their pre-filter reads)
        then stay; a join may read ``reviews`` or a summary relation, so its
        set goes.
        """
        self.plan_cache.clear()
        if journaled:
            self.membership_cache.clear()
            self.candidate_cache.retain(join_free)
        else:
            self.membership_cache.reset(self.database.entity_ids())
            self.candidate_cache.clear()
        self.processor.interpreter.invalidate()
        self.stats.invalidations += 1
        self._data_version = self.database.data_version

    def _check_data_version(self) -> None:
        # The columnar store is left alone here: it checks the version on
        # its own next read and patches the replaced rows where it can.
        if self.database.data_version != self._data_version:
            self._drop_caches(self.database.changes_since(self._data_version) is not None)

    # ------------------------------------------------------------------ plans
    def plan(self, sql: str) -> QueryPlan:
        """The cached (or freshly built) plan for one SQL string."""
        self._check_data_version()
        key = normalize_sql(sql)
        plan = self.plan_cache.get(key)
        if plan is not None and plan.data_version != self._data_version:
            # Defensive: a plan that survived an invalidation is stale.
            plan = None
        if plan is None:
            statement = self.processor.prepare_statement(sql)
            interpretations = self.processor.interpret_predicates(statement)
            plan = QueryPlan(
                normalized_sql=key,
                statement=statement,
                interpretations=interpretations,
                data_version=self._data_version,
                candidate_key=candidate_key(statement),
            )
            self.plan_cache.put(key, plan)
        return plan

    # -------------------------------------------------------------- execution
    def execute(self, sql: str, top_k: int | None = None) -> QueryResult:
        """Serve one query through the caches; identical to processor output.

        When tracing is enabled (:func:`repro.obs.enable_tracing`) the
        query runs under a ``query`` span with ``plan`` / ``candidates``
        / ``score`` child spans — remote fan-out performed inside the
        score stage stamps its frames with that span's context.  Queries
        at or above the slow-query threshold are captured into
        :attr:`slow_query_log` with their span tree and pruning deltas.
        """
        self._check_data_version()
        slow_threshold = self.slow_query_log.threshold_seconds
        scored_before = pruned_before = 0
        if slow_threshold is not None:
            scored_before = int(self._entities_scored_cell)
            pruned_before = int(self._entities_pruned_cell)
        started = now()
        with span("query", sql=sql) as handle:
            with span("plan"):
                plan = self.plan(sql)
            with span("candidates"):
                candidates = self._candidate_rows(plan)
            with span("score"):
                result = self._rank(plan, candidates, sql=sql, top_k=top_k)
        elapsed = now() - started
        self.stats.queries += 1
        self.stats.total_seconds += elapsed
        self.latency_histogram.observe(elapsed)
        if slow_threshold is not None and elapsed >= slow_threshold:
            self.slow_query_log.maybe_record(
                sql=sql,
                seconds=elapsed,
                trace_id=handle.context.trace_id if handle is not None else 0,
                entities_scored=int(self._entities_scored_cell) - scored_before,
                entities_pruned=int(self._entities_pruned_cell) - pruned_before,
            )
        return result

    def run_batch(self, sqls: Sequence[str], top_k: int | None = None) -> BatchResult:
        """Execute many queries with shared plans, candidates and degrees.

        Sharing happens through the caches: the first query touching a
        (predicate, entity) combination pays for its batch scoring, every
        later query in the batch reuses the degrees.  Returns the ranked
        results in input order plus per-query latencies and the cache
        activity the batch generated.
        """
        self._check_data_version()
        before = self._cache_counters()
        results: list[QueryResult] = []
        latencies: list[float] = []
        started = now()
        for sql in sqls:
            query_started = now()
            results.append(self.execute(sql, top_k=top_k))
            latencies.append(now() - query_started)
        elapsed = now() - started
        self.stats.batch_queries += len(results)
        after = self._cache_counters()
        delta = {name: after[name] - before[name] for name in after}
        return BatchResult(
            results=results,
            latencies=latencies,
            elapsed_seconds=elapsed,
            cache_stats=delta,
        )

    # -------------------------------------------------------------- internals
    def _candidate_rows(self, plan: QueryPlan) -> CandidateSet:
        candidates = self.candidate_cache.get(plan.candidate_key)
        if candidates is None:
            rows = self.processor.candidate_rows(plan.statement)
            row_entities = self.processor.entity_ids_of(rows, plan.statement.alias)
            candidates = CandidateSet(
                rows=rows,
                row_entities=row_entities,
                unique_ids=list(dict.fromkeys(row_entities)),
            )
            self.candidate_cache.put(plan.candidate_key, candidates)
        return candidates

    def _rank(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        sql: str,
        top_k: int | None,
    ) -> QueryResult:
        degree_table: dict[str, dict[Hashable, float]] = {}
        for predicate, interpretation in plan.interpretations.items():
            degrees = self.processor.interpretation_degrees(
                candidates.unique_ids,
                interpretation,
                pair_scorer=self._cached_pair_degrees,
                retrieval_scorer=self._cached_retrieval_degrees,
            )
            degree_table[predicate] = dict(zip(candidates.unique_ids, degrees))
        return self.processor.rank_candidates(
            plan.statement,
            candidates.rows,
            plan.interpretations,
            degree_table=degree_table,
            sql=sql,
            top_k=top_k,
            row_entities=candidates.row_entities,
        )

    def _cached_degrees(
        self,
        entity_ids: Sequence[Hashable],
        attribute: str | None,
        phrase: str,
        compute,
    ) -> list[float]:
        """Serve degrees from the membership cache, batch-computing the misses."""
        cached = self.membership_cache.get_many(
            [(entity_id, attribute, phrase) for entity_id in entity_ids], _MISSING
        )
        missing = [
            entity_id for entity_id, value in zip(entity_ids, cached) if value is _MISSING
        ]
        if not missing:
            return cached
        computed = compute(missing)
        self.entities_scored += len(missing)
        self.membership_cache.put_many(
            [
                ((entity_id, attribute, phrase), degree)
                for entity_id, degree in zip(missing, computed)
            ]
        )
        filled = iter(computed)
        return [next(filled) if value is _MISSING else value for value in cached]

    def _cached_pair_degrees(
        self,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> list[float]:
        return self._cached_degrees(
            entity_ids,
            attribute,
            phrase,
            lambda missing: self.processor.pair_degrees(missing, attribute, phrase),
        )

    def _cached_retrieval_degrees(
        self,
        entity_ids: Sequence[Hashable],
        predicate: str,
    ) -> list[float]:
        # Text-retrieval degrees have no attribute; None keeps the key space
        # disjoint from pair degrees.
        return self._cached_degrees(
            entity_ids,
            None,
            predicate,
            lambda missing: self.processor.retrieval_degrees(missing, predicate),
        )

    def _cache_counters(self) -> dict[str, int]:
        # Values are snapshotted to plain ints — the counters are live
        # registry cells, and run_batch subtracts a before-dict from an
        # after-dict (two references to one mutating cell would always
        # subtract to zero).
        return {
            "plan_hits": int(self.plan_cache.stats.hits),
            "plan_misses": int(self.plan_cache.stats.misses),
            "membership_hits": int(self.membership_cache.stats.hits),
            "membership_misses": int(self.membership_cache.stats.misses),
            "candidate_hits": int(self.candidate_cache.stats.hits),
            "candidate_misses": int(self.candidate_cache.stats.misses),
            "entities_scored": int(self._entities_scored_cell),
            "entities_pruned": int(self._entities_pruned_cell),
        }

    def stats_snapshot(self) -> dict[str, object]:
        """One dict with serving counters and per-cache hit statistics.

        A thin plain-value view over the engine's :attr:`metrics`
        registry cells — always ``json.dumps``-safe (the worker/node
        stats handlers ship it over the wire verbatim).
        """
        return {
            "queries": int(self.stats.queries),
            "batch_queries": int(self.stats.batch_queries),
            "invalidations": int(self.stats.invalidations),
            "total_seconds": float(self.stats.total_seconds),
            "mean_latency": self.stats.mean_latency,
            "entities_scored": int(self._entities_scored_cell),
            "entities_pruned": int(self._entities_pruned_cell),
            "plan_cache": self.plan_cache.stats.as_dict(),
            "membership_cache": self.membership_cache.stats.as_dict(),
            "candidate_cache": self.candidate_cache.stats.as_dict(),
            "columnar_store": (
                self.processor.columnar_store.stats_snapshot()
                if self.processor.columnar_store is not None
                else None
            ),
        }
