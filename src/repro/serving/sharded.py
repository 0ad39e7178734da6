"""Entity-sharded serving: slice-partitioned columnar scoring with top-k merge.

Subjective-query evaluation is embarrassingly parallel over entities: every
scoring kernel of :mod:`repro.core.columnar` is row-independent, so any row
range of an attribute's column arrays can be scored on its own and the
results concatenated.  This module makes the shard the unit of placement:

* :func:`partition_bounds` — the one partitioning rule: K contiguous,
  exhaustive, disjoint row ranges whose sizes differ by at most one;
* :class:`ShardedColumnarStore` — partitions a
  :class:`~repro.core.columnar.ColumnarSummaryStore`'s E axis into K
  contiguous *slice views* (NumPy basic slices — no copies) and fans a
  predicate's uncached-degree computation out across them, serially or
  through a thread pool (threads release the GIL inside the NumPy
  kernels).  Multi-process placement lives behind the shard service of
  :mod:`repro.serving.cluster`;
* :func:`fuzzy_score_arrays` — the WHERE tree evaluated over degree
  *vectors* instead of row by row, using the fuzzy logic's array
  connectives (bit-identical elementwise to the scalar walk);
* :func:`merge_shard_topk` — per-shard top-k heaps merged into the global
  ranking under exactly the processor's ``(-score, str(entity_id))`` order
  with candidate position as the deterministic tie-break (the stable-sort
  order of the unsharded path);
* :class:`ShardedSubjectiveQueryEngine` — the serving front end wiring it
  together: the sharded store is installed as the processor's columnar
  store (so every degree the processor computes is shard-routed), the
  membership cache is partitioned per shard, and ranking runs per shard
  with a global merge.

Results are exactly — not approximately — those of the unsharded
:class:`~repro.serving.engine.SubjectiveQueryEngine`; the differential test
suite pins equality of rankings, scores and degrees for shard counts
{1, 2, 3, 7} on two domains.  Invalidation stays ``data_version``-driven:
one version bump drops shard slices, the base columns, and every membership
cache partition together.
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from repro.core.columnar import (
    PRUNE_MARGIN,
    AttributeColumns,
    ColumnarSummaryStore,
    columnar_kernel,
    gather_degrees,
    gather_rows,
    plan_slice_requests,
    scalar_fallback_scorer,
    slice_view,
)
from repro.core.database import SubjectiveDatabase
from repro.core.fuzzy import FuzzyLogic, ProductLogic, ZadehLogic
from repro.core.interpreter import InterpretationMethod
from repro.core.processor import (
    QueryResult,
    RankedEntity,
    SubjectiveQueryProcessor,
)
from repro.engine.expressions import (
    AndExpression,
    BetweenExpression,
    ComparisonExpression,
    Expression,
    InExpression,
    NotExpression,
    OrExpression,
    SubjectivePredicate,
)
from repro.obs.metrics import MetricsRegistry, cell_property
from repro.obs.trace import span
from repro.serving.cache import DegreeColumnCache
from repro.serving.engine import CandidateSet, SubjectiveQueryEngine, crisp_leaf_vector
from repro.serving.plans import QueryPlan
from repro.serving.protocol import TREE_AND, TREE_CRISP, TREE_NOT, TREE_OR, TREE_PREDICATE

BACKENDS = ("serial", "thread")


# --------------------------------------------------------------------------
# Partitioning rule
# --------------------------------------------------------------------------

def default_num_shards() -> int:
    """A sensible shard count for this machine: one per core, at least one.

    The default for both :class:`ShardedColumnarStore` and
    :class:`ShardedSubjectiveQueryEngine` when ``num_shards`` is not given.
    """
    return max(1, os.cpu_count() or 1)


def partition_bounds(num_rows: int, num_shards: int) -> list[int]:
    """K+1 monotone bounds splitting ``range(num_rows)`` into K contiguous slices.

    Shard ``i`` owns rows ``[bounds[i], bounds[i+1])``.  The slices are
    disjoint, cover every row exactly once, and differ in size by at most
    one (the first ``num_rows % num_shards`` shards get the extra row).
    Shards beyond ``num_rows`` are empty, never dropped, so shard indexes
    are stable regardless of the row count.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    base, extra = divmod(num_rows, num_shards)
    bounds = [0]
    for index in range(num_shards):
        bounds.append(bounds[-1] + base + (1 if index < extra else 0))
    return bounds


@dataclass(frozen=True)
class ShardSlice:
    """One shard's contiguous row range of an attribute's columns (a view)."""

    index: int
    start: int
    stop: int
    columns: AttributeColumns

    @property
    def num_entities(self) -> int:
        """Number of entity rows the shard owns (``stop - start``)."""
        return self.stop - self.start


# --------------------------------------------------------------------------
# Execution backends
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardTask:
    """One shard's scoring work for a single predicate computation.

    ``rows`` is ``None`` for a full-slice kernel pass, or the slice-relative
    row indices for a gathered pass over a sparse subset of the slice (the
    base store's sparse-gather heuristic, applied per shard).
    """

    shard: ShardSlice
    rows: list[int] | None


class _SerialBackend:
    """Run shard tasks inline on the coordinating thread."""

    kind = "serial"

    def map_local(self, fn: Callable[[ShardTask], np.ndarray], tasks: Sequence[ShardTask]):
        """Score every task inline, in task order."""
        return [fn(task) for task in tasks]

    def shutdown(self) -> None:
        """Nothing to shut down."""


class _ThreadBackend:
    """Fan shard tasks out over a thread pool.

    The kernels are NumPy-bound and release the GIL, so threads scale with
    cores without any data movement: every worker scores views into the
    parent's column arrays.  Actual concurrency is sized to the hardware:
    tasks are chunked into at most ``min(max_workers, cpu_count)`` groups
    (shard *placement* stays per-shard; only the executor refuses to
    oversubscribe), and a single-core host runs tasks inline — parallelism
    cannot help there, so the fan-out dispatch cost is not paid either.
    """

    kind = "thread"

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, max_workers)
        self.parallelism = max(1, min(self.max_workers, os.cpu_count() or 1))
        self._pool: ThreadPoolExecutor | None = None

    def map_local(self, fn: Callable[[ShardTask], np.ndarray], tasks: Sequence[ShardTask]):
        """Score tasks on the pool (inline when parallelism cannot help)."""
        if len(tasks) <= 1 or self.parallelism == 1:
            return [fn(task) for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.parallelism,
                thread_name_prefix="repro-shard",
            )
        if len(tasks) <= self.parallelism:
            return list(self._pool.map(fn, tasks))
        # More tasks than usable cores: strided chunks, one per worker, so
        # each task still runs exactly once and results keep task order.
        stride = self.parallelism

        def run_chunk(start: int) -> list[np.ndarray]:
            """Score every ``stride``-th task beginning at ``start``."""
            return [fn(task) for task in tasks[start::stride]]

        results: list[np.ndarray | None] = [None] * len(tasks)
        for start, chunk in enumerate(self._pool.map(run_chunk, range(stride))):
            results[start::stride] = chunk
        return results

    def shutdown(self) -> None:
        """Stop the thread pool (recreated lazily on the next fan-out)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _make_backend(name: str, max_workers: int):
    if name == "serial":
        return _SerialBackend()
    if name == "thread":
        return _ThreadBackend(max_workers)
    raise ValueError(f"unknown shard backend {name!r}; expected one of {BACKENDS}")


# --------------------------------------------------------------------------
# The sharded store
# --------------------------------------------------------------------------

class ShardedColumnarStore:
    """K contiguous slice views over a columnar store, with fan-out scoring.

    Implements the same ``pair_degrees`` protocol as
    :class:`~repro.core.columnar.ColumnarSummaryStore`, so a
    :class:`~repro.core.processor.SubjectiveQueryProcessor` can route
    through it unchanged.  Degrees are exactly those of the base store: the
    kernels are row-independent, so scoring each slice view separately
    performs the same per-row arithmetic as one full pass.

    Invalidation is ``data_version``-driven like every other serving-layer
    cache: a version bump drops the shard slices while the base store
    catches up through
    :meth:`~repro.core.columnar.ColumnarSummaryStore.sync` — patched rows
    where the change journal allows, a full drop otherwise.
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        num_shards: int | None = None,
        backend: str = "serial",
        base: ColumnarSummaryStore | None = None,
        max_workers: int | None = None,
    ) -> None:
        if num_shards is None:
            num_shards = default_num_shards()
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.database = database
        self.num_shards = num_shards
        self.base = base if base is not None else database.columnar_store()
        self.backend = _make_backend(backend, max_workers or num_shards)
        self._slices: dict[str, list[ShardSlice] | None] = {}
        self._version = database.data_version
        # Counter cells in the store's registry; the public attributes are
        # value-read/cell-write properties (cell_property) over them, so
        # existing ``store.fanouts += 1`` call sites and value reads keep
        # their old semantics while the registry exports the live cells.
        self.metrics = MetricsRegistry()
        self._invalidations_cell = self.metrics.counter("invalidations")
        self._fanouts_cell = self.metrics.counter(
            "fanouts", help="Sharded kernel passes (one per predicate computation)"
        )
        self._shard_kernel_calls_cell = self.metrics.counter(
            "shard_kernel_calls", help="Individual per-slice kernel executions"
        )
        self._entities_scored_cell = self.metrics.counter(
            "entities_scored", help="Rows scored exactly on the bounded path"
        )
        self._entities_pruned_cell = self.metrics.counter(
            "entities_pruned", help="Rows dismissed on a bound alone"
        )

    invalidations = cell_property("_invalidations_cell")
    fanouts = cell_property("_fanouts_cell")
    shard_kernel_calls = cell_property("_shard_kernel_calls_cell")
    entities_scored = cell_property("_entities_scored_cell")
    entities_pruned = cell_property("_entities_pruned_cell")

    # ------------------------------------------------------------ lifecycle
    def invalidate(self) -> None:
        """Drop shard slices and base columns together."""
        self.base.invalidate()
        self._retire_slices()

    def _check_version(self) -> None:
        if self._version != self.database.data_version:
            self.base.sync()  # patches the replaced rows where it can
            self._retire_slices()

    def _retire_slices(self) -> None:
        """Forget the slice views of the previous version."""
        self._slices.clear()
        self._version = self.database.data_version
        self.invalidations += 1

    @property
    def data_version(self) -> int:
        """The database version the current slices were built against."""
        return self._version

    def close(self) -> None:
        """Shut down executor workers (idempotent)."""
        self.backend.shutdown()

    # ----------------------------------------------------------- partitions
    def columns(self, attribute: str) -> AttributeColumns | None:
        """The unpartitioned column arrays (delegates to the base store)."""
        self._check_version()
        return self.base.columns(attribute)

    def shard_slices(self, attribute: str) -> list[ShardSlice] | None:
        """The K contiguous slice views of one attribute (empty slices kept).

        ``None`` when the attribute has no columns.  Slices are NumPy basic
        slices of the base arrays — building them copies nothing, and they
        are cached per attribute until the data version moves.
        """
        self._check_version()
        if attribute not in self._slices:
            columns = self.base.columns(attribute)
            if columns is None:
                self._slices[attribute] = None
            else:
                bounds = partition_bounds(columns.num_entities, self.num_shards)
                self._slices[attribute] = [
                    ShardSlice(index, start, stop, slice_view(columns, start, stop))
                    for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
                ]
        return self._slices[attribute]

    # -------------------------------------------------------------- scoring
    def pair_degrees(
        self,
        membership: object,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> list[float] | None:
        """Sharded analog of :meth:`ColumnarSummaryStore.pair_degrees`.

        Resident entities are grouped by shard and each shard's kernel runs
        over its slice view (gathered down to the requested rows when they
        are a sparse subset of the slice, mirroring the base store's
        heuristic per shard); the backend decides where the per-slice
        kernels execute.  Entities absent from the columns fall back to
        per-entity scalar scoring on the coordinating thread, exactly like
        the base store.  Returns ``None`` under the same conditions the
        base store does, so callers' fallback behaviour is unchanged.
        """
        self._check_version()
        kernel = columnar_kernel(membership, self.database)
        if kernel is None:
            return None
        if self.backend.kind == "thread" and self.backend.parallelism == 1:
            # The executor found no usable parallelism (single-core host):
            # per-slice dispatch would be pure overhead, so run the base
            # store's one-kernel pass — the kernels are row-independent, so
            # the arithmetic (and hence every degree) is identical.
            return self.base.pair_degrees(membership, entity_ids, attribute, phrase)
        columns = self.base.columns(attribute)
        if columns is None:
            return None
        rows = [columns.row_of.get(entity_id) for entity_id in entity_ids]
        resident = sorted({row for row in rows if row is not None})
        batch: np.ndarray | None = None
        if resident:
            batch = np.empty(columns.num_entities)
            tasks, scatters = self._plan_tasks(attribute, resident)
            embedder = getattr(membership, "embedder", None)
            if embedder is not None:
                # Warm the phrase-embedding memo once so concurrent shard
                # kernels all hit the cache instead of re-embedding.
                embedder.represent(phrase)
            results = self._run_tasks(kernel, phrase, tasks)
            for scatter_rows, result in zip(scatters, results):
                batch[scatter_rows] = result
            self.fanouts += 1
            self.shard_kernel_calls += len(tasks)
        return gather_degrees(
            batch,
            rows,
            entity_ids,
            scalar_fallback_scorer(membership, self.database, attribute, phrase, columns),
        )

    def pair_degrees_bounded(
        self,
        membership: object,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
        threshold: float,
    ):
        """Threshold-aware analog of :meth:`pair_degrees` for top-k pruning.

        Delegates to the base store's
        :meth:`~repro.core.columnar.ColumnarSummaryStore.pair_degrees_bounded`
        regardless of backend: the bounded path exists to *avoid* kernel
        work on cold selective queries, so the fan-out machinery (whose
        value is parallelising full passes) would only add dispatch
        overhead around a mostly-skipped computation.  Returns the base
        store's ``(values, exact_mask, scored, pruned)`` — or ``None`` when
        the membership function has no bound support, sending the caller
        back to the exact sharded path.
        """
        self._check_version()
        result = self.base.pair_degrees_bounded(
            membership, entity_ids, attribute, phrase, threshold
        )
        if result is not None:
            _values, _exact, scored, pruned = result
            self.entities_scored += scored
            self.entities_pruned += pruned
        return result

    def degree_envelope(self, membership: object, attribute: str, phrase: str):
        """Whole-store bound envelope, delegated straight to the base store.

        Like :meth:`pair_degrees_bounded` this stays off the fan-out
        machinery: the envelope read is a cached array, far below any
        dispatch overhead.
        """
        self._check_version()
        return self.base.degree_envelope(membership, attribute, phrase)

    def _plan_tasks(
        self, attribute: str, resident: list[int]
    ) -> tuple[list[ShardTask], list[object]]:
        """Group sorted resident rows by shard into kernel tasks plus scatter targets.

        Each task pairs a shard slice with the slice-relative rows to score
        (``None`` for a full-slice pass; the base store's sparse-gather
        heuristic is applied per shard).  Scatter targets place each task's
        result back into the store-wide degree array.  The grouping itself
        is :func:`repro.core.columnar.plan_slice_requests` — the same plan
        the cluster coordinator ships to its nodes.
        """
        slices = self.shard_slices(attribute)
        bounds = [shard.start for shard in slices] + [slices[-1].stop if slices else 0]
        tasks: list[ShardTask] = []
        scatters: list[object] = []
        for slice_id, _start, _stop, rows, scatter in plan_slice_requests(bounds, resident):
            tasks.append(ShardTask(shard=slices[slice_id], rows=rows))
            scatters.append(scatter)
        return tasks, scatters

    def _run_tasks(self, kernel, phrase: str, tasks: list[ShardTask]) -> list[np.ndarray]:
        def score(task: ShardTask) -> np.ndarray:
            """Run the kernel over one task's (possibly gathered) slice view."""
            view = task.shard.columns
            if task.rows is not None:
                view = gather_rows(view, task.rows)
            return kernel(view, phrase)

        return self.backend.map_local(score, tasks)

    # ------------------------------------------------------------ statistics
    def stats_snapshot(self) -> dict[str, object]:
        """Shard counters plus the wrapped base store's snapshot."""
        return {
            "num_shards": self.num_shards,
            "backend": self.backend.kind,
            "data_version": self._version,
            "invalidations": self.invalidations,
            "fanouts": self.fanouts,
            "shard_kernel_calls": self.shard_kernel_calls,
            "entities_scored": self.entities_scored,
            "entities_pruned": self.entities_pruned,
            "base": self.base.stats_snapshot(),
        }


# --------------------------------------------------------------------------
# Vectorized WHERE-tree scoring
# --------------------------------------------------------------------------

#: Objective leaves whose ``fuzzy`` is exactly ``1.0 if evaluate(row) else 0.0``.
_CRISP_LEAVES = (ComparisonExpression, InExpression, BetweenExpression)


class _NotVectorizable(Exception):
    """Internal: the WHERE tree (or logic) has no exact array form."""


def fuzzy_score_arrays(
    where: Expression | None,
    rows: Sequence[dict],
    degree_vectors: dict[str, np.ndarray],
    logic: FuzzyLogic,
) -> np.ndarray | None:
    """Fuzzy scores of every candidate row, evaluated as degree vectors.

    The WHERE tree is walked once; connectives combine length-N degree
    vectors through the logic's array forms, which fold operands in the
    same order and with the same validation as the scalar connectives — so
    ``result[i]`` is bit-identical to ``where.fuzzy(rows[i], ...)``.
    Objective leaves stay crisp per-row evaluations (exact 0.0/1.0).

    Returns ``None`` when the logic provides no array connectives; callers
    then score row by row through the scalar path.
    """
    if not getattr(logic, "supports_arrays", False):
        return None
    if where is None:
        return np.ones(len(rows))
    try:
        return _eval_array(where, rows, degree_vectors, logic)
    except _NotVectorizable:
        return None


def _eval_array(
    node: Expression,
    rows: Sequence[dict],
    degree_vectors: dict[str, np.ndarray],
    logic: FuzzyLogic,
) -> np.ndarray:
    if isinstance(node, SubjectivePredicate):
        vector = degree_vectors.get(node.text)
        if vector is None:
            raise _NotVectorizable(node.text)
        return vector
    if isinstance(node, AndExpression):
        return logic.conjunction_arrays(
            [_eval_array(operand, rows, degree_vectors, logic) for operand in node.operands]
        )
    if isinstance(node, OrExpression):
        return logic.disjunction_arrays(
            [_eval_array(operand, rows, degree_vectors, logic) for operand in node.operands]
        )
    if isinstance(node, NotExpression):
        return logic.negation_array(_eval_array(node.operand, rows, degree_vectors, logic))
    if isinstance(node, _CRISP_LEAVES):
        return crisp_leaf_vector(node, rows)
    # Any other node type (literal, column reference, future nodes):
    # evaluate its scalar fuzzy value row by row.  A per-row scorer keeps
    # unknown nested nodes correct too.
    return np.array(
        [
            node.fuzzy(row, _row_scorer(degree_vectors, index), logic)
            for index, row in enumerate(rows)
        ]
    )


def _row_scorer(degree_vectors: dict[str, np.ndarray], index: int):
    def scorer(predicate_text: str, _row: dict) -> float:
        """Scalar degree of one predicate for the row at ``index``."""
        vector = degree_vectors.get(predicate_text)
        if vector is None:
            raise _NotVectorizable(predicate_text)
        return float(vector[index])

    return scorer


# --------------------------------------------------------------------------
# Interval arithmetic over the WHERE tree (bound-based top-k pruning)
# --------------------------------------------------------------------------

def fuzzy_bound_arrays(
    where: Expression | None,
    rows: Sequence[dict],
    bound_vectors: "dict[str, tuple[np.ndarray, np.ndarray]]",
    logic: FuzzyLogic,
    prune_below: "float | None" = None,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``[lo, hi]`` envelope of :func:`fuzzy_score_arrays` per candidate row.

    The bound mirror of the vectorized WHERE walk: each subjective
    predicate contributes a ``(lo, hi)`` vector pair instead of one exact
    vector, and the connectives fold the lo and hi ends *separately*
    through the logic's array forms.  Both built-in logics are monotone
    nondecreasing in every operand (``supports_bounds``), so the folded
    ends bracket the exact score; where a predicate's interval is the
    degenerate ``[d, d]`` the folds reproduce the exact arithmetic
    operation for operation, making the envelope collapse to the exact
    score bit for bit.  Negation swaps the ends — the ``hi`` of ``not x``
    is ``1 - lo(x)`` — and crisp objective leaves stay exact 0/1 points.

    ``prune_below`` enables the AND short-circuit on the ``hi`` end: while
    folding a conjunction, once every row's running upper bound has dropped
    below it the remaining operands are skipped — a t-norm can only lower
    the bound further, so the partial fold is still a valid upper bound.
    The threshold is propagated into nested conjunctions only; OR and NOT
    operands, and the whole ``lo`` end, are always folded fully.

    Returns ``None`` when the logic lacks array or bound support, or the
    tree holds a node the interval walk cannot bracket.
    """
    end_of = _interval_ends(bound_vectors)

    def crisp(leaf: Expression) -> np.ndarray:
        return crisp_leaf_vector(leaf, rows)

    lo = _fold_bound_end(where, False, len(rows), end_of, logic, None, crisp)
    if lo is None:
        return None
    return lo, _fold_bound_end(where, True, len(rows), end_of, logic, prune_below, crisp)


def _interval_ends(
    bound_vectors: "dict[str, tuple[np.ndarray, np.ndarray]]",
) -> "Callable[[str, bool], np.ndarray]":
    """``end_of`` reading ready ``(lo, hi)`` pairs; a missing predicate is unboundable."""

    def end_of(text: str, upper: bool) -> np.ndarray:
        interval = bound_vectors.get(text)
        if interval is None:
            raise _NotVectorizable(text)
        return interval[1] if upper else interval[0]

    return end_of


def _fold_bound_end(
    where: Expression | None,
    upper: bool,
    count: int,
    end_of: "Callable[[str, bool], np.ndarray]",
    logic: FuzzyLogic,
    prune_below: "float | None",
    crisp: "Callable[[Expression], np.ndarray]",
) -> np.ndarray | None:
    """One end of the WHERE tree's interval over ``count`` rows.

    ``end_of(text, upper)`` supplies a predicate's ``hi`` (``upper``) or
    ``lo`` end and is asked only for the ends the fold reads — the ``hi``
    fold reads a ``lo`` only under a NOT, and never for operands an AND
    short-circuit skips — so a caller may gather ends lazily.  ``crisp``
    supplies an objective leaf's 0/1 vector.  ``None`` when the logic lacks
    array or bound support, or ``end_of`` raises :class:`_NotVectorizable`.
    """
    if not getattr(logic, "supports_arrays", False):
        return None
    if not getattr(logic, "supports_bounds", False):
        return None
    if where is None:
        return np.ones(count)
    try:
        return _eval_bound_end(where, upper, end_of, logic, prune_below, crisp)
    except _NotVectorizable:
        return None


def _eval_bound_end(
    node: Expression,
    upper: bool,
    end_of: "Callable[[str, bool], np.ndarray]",
    logic: FuzzyLogic,
    prune_below: "float | None",
    crisp: "Callable[[Expression], np.ndarray]",
) -> np.ndarray:
    """One end of ``node``'s interval: ``hi`` when ``upper``, else ``lo``."""
    if isinstance(node, SubjectivePredicate):
        return end_of(node.text, upper)
    if isinstance(node, AndExpression):
        ends: list[np.ndarray] = []
        for position, operand in enumerate(node.operands):
            ends.append(_eval_bound_end(operand, upper, end_of, logic, prune_below, crisp))
            if (
                prune_below is not None
                and position + 1 < len(node.operands)
                and float(np.max(logic.conjunction_arrays(ends), initial=0.0)) < prune_below
            ):
                break  # the skipped operands could only lower the cap further
        return logic.conjunction_arrays(ends)
    if isinstance(node, OrExpression):
        return logic.disjunction_arrays(
            [
                _eval_bound_end(operand, upper, end_of, logic, None, crisp)
                for operand in node.operands
            ]
        )
    if isinstance(node, NotExpression):
        return logic.negation_array(
            _eval_bound_end(node.operand, not upper, end_of, logic, None, crisp)
        )
    if isinstance(node, _BOUND_CRISP_LEAVES):
        return crisp(node)
    raise _NotVectorizable(type(node).__name__)


def _pair_combiner(logic: FuzzyLogic, combinator: str):
    """The array connective folding a predicate's per-pair vectors."""
    if combinator == "and":
        return logic.conjunction_arrays
    return logic.disjunction_arrays


def and_path_predicates(where: Expression | None) -> set[str]:
    """Subjective predicates reachable from the root through AND nodes only.

    Under a t-norm the query score can never exceed any single conjunct on
    such a path, so the running k-th score is a valid prune threshold for
    exactly these predicates; everything below an OR or NOT must be scored
    without one.
    """
    found: set[str] = set()

    def walk(node: Expression | None) -> None:
        if isinstance(node, SubjectivePredicate):
            found.add(node.text)
        elif isinstance(node, AndExpression):
            for operand in node.operands:
                walk(operand)

    walk(where)
    return found


def bounds_tree_supported(
    where: Expression | None, known_predicates: "set[str]"
) -> bool:
    """Whether every node of the WHERE tree has an exact interval form.

    The pruned ranking path refuses any tree it cannot bracket *before*
    doing any work, so a query with an exotic node falls back to the full
    path whole instead of mid-scan.
    """
    if where is None:
        return True
    if isinstance(where, SubjectivePredicate):
        return where.text in known_predicates
    if isinstance(where, (AndExpression, OrExpression)):
        return all(
            bounds_tree_supported(operand, known_predicates)
            for operand in where.operands
        )
    if isinstance(where, NotExpression):
        return bounds_tree_supported(where.operand, known_predicates)
    return isinstance(where, _CRISP_LEAVES)


# --------------------------------------------------------------------------
# Per-shard top-k merge
# --------------------------------------------------------------------------

def merge_shard_topk(
    scores: np.ndarray,
    row_entities: Sequence[Hashable],
    num_shards: int,
    limit: int,
) -> list[int]:
    """Global top-``limit`` candidate indices from per-shard top-k heaps.

    Candidate rows are partitioned into ``num_shards`` contiguous chunks;
    each chunk keeps a heap of its ``limit`` best rows, and the pre-sorted
    per-shard lists are merged lazily.  The key is the processor's ranking
    order — score descending, ``str(entity_id)`` ascending — with the
    global candidate position as final tie-break, which is exactly the
    order a stable global sort produces.  The property-based suite checks
    the merge against global sorting for random degree vectors with ties.
    """
    if limit <= 0:
        return []
    num_rows = len(row_entities)
    bounds = partition_bounds(num_rows, num_shards)

    def key(index: int) -> tuple[float, str, int]:
        """The processor's ranking sort key with position tie-break."""
        return (-scores[index], str(row_entities[index]), index)

    shard_heaps = [
        heapq.nsmallest(limit, range(start, stop), key=key)
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    ]
    return list(islice(heapq.merge(*shard_heaps, key=key), limit))


class _ReverseKey:
    """Max-heap adapter: inverts ``<`` so ``heapq`` keeps the *worst* kept row on top."""

    __slots__ = ("key", "payload")

    def __init__(self, key: tuple, payload: object) -> None:
        self.key = key
        self.payload = payload

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key


class TopKThreshold:
    """Incremental top-k under the processor's ranking order, publishing a prune threshold.

    The streaming counterpart of :func:`merge_shard_topk`: rows are offered
    one at a time under the same ``(-score, str(entity_id), index)`` key,
    and once ``limit`` rows are held, :attr:`threshold` exposes the running
    k-th best score.  Any candidate whose score *upper bound* is strictly
    below that threshold can be dismissed unscored — it cannot displace a
    kept row even through the tie-break, because the threshold only rises
    as better rows arrive, so the final k-th score is at least the
    threshold the candidate was compared against.  Rows whose bound equals
    the threshold must still be offered (the string/index tie-break could
    admit them).  The property suite pins ``selected()`` against
    :func:`merge_shard_topk` on random scores with ties.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit
        self._heap: list[_ReverseKey] = []

    @property
    def threshold(self) -> float | None:
        """The current k-th best score, or ``None`` until ``limit`` rows are held."""
        if len(self._heap) < self.limit:
            return None
        return -self._heap[0].key[0]

    def offer(
        self, score: float, entity_id: Hashable, index: int, payload: object
    ) -> None:
        """Offer one row; kept only while it beats the current k-th row."""
        item = _ReverseKey((-score, str(entity_id), index), payload)
        if len(self._heap) < self.limit:
            heapq.heappush(self._heap, item)
        elif item.key < self._heap[0].key:
            heapq.heapreplace(self._heap, item)

    def selected(self) -> list[object]:
        """Payloads of the kept rows in final ranking order."""
        return [item.payload for item in sorted(self._heap, key=lambda kept: kept.key)]


# --------------------------------------------------------------------------
# The pruned chunk scan (one loop for the engine and the cluster node)
# --------------------------------------------------------------------------

class PrunedPredicate(NamedTuple):
    """One subjective predicate as the pruned scan needs it.

    ``pairs`` are the interpretation's ``(attribute, phrase)`` conditions,
    folded with the ``combinator`` (``"and"`` or ``"or"``); ``on_and_path``
    says whether the predicate caps the whole query (:func:`and_path_predicates`).
    The cluster ships exactly these fields in a ``rank`` frame.
    """

    text: str
    combinator: str
    on_and_path: bool
    pairs: tuple[tuple[str, str], ...]


@dataclass
class PrunedRanking:
    """What one pruned scan kept, plus its counters.

    ``heap`` holds the kept rows; each payload is ``(candidate, score,
    vectors, index)`` — the candidate's index in the scan, its score, and
    its degree of predicate ``text`` as ``vectors[text][index]``.
    ``pruned`` counts rows the scan bound alone dismissed; rows pruned by
    a fetch are counted by the fetch.  ``nodes`` is the number of node
    lists merged (``None`` in-process).
    """

    heap: TopKThreshold
    candidates: int
    scanned: int
    offered: int
    pruned: int
    nodes: int | None = None


@dataclass(frozen=True)
class CrispSlot(Expression):
    """A crisp objective leaf known only by the index of its shipped 0/1 vector.

    A cluster node has no catalog rows, so the ``rank`` frame carries each
    crisp leaf's values as a bitmap and the node's WHERE tree points at it.
    """

    index: int


#: Leaves whose bound is their own exact 0/1 vector.
_BOUND_CRISP_LEAVES = (*_CRISP_LEAVES, CrispSlot)


def encode_where_tree(
    where: Expression, predicate_index: "dict[str, int]"
) -> "tuple[list[tuple[int, int]], list[Expression]]":
    """``(tokens, crisp leaves)``: the tree in prefix order, leaves by index.

    Each token is ``(kind, argument)``: the operand count of an AND / OR,
    0 for a NOT, a predicate's index in ``predicate_index``, or a crisp
    leaf's index in the returned list.  Trees :func:`bounds_tree_supported`
    accepts are the only ones that encode.
    """
    tokens: list[tuple[int, int]] = []
    crisp: list[Expression] = []

    def walk(node: Expression) -> None:
        if isinstance(node, SubjectivePredicate):
            tokens.append((TREE_PREDICATE, predicate_index[node.text]))
        elif isinstance(node, (AndExpression, OrExpression)):
            kind = TREE_AND if isinstance(node, AndExpression) else TREE_OR
            tokens.append((kind, len(node.operands)))
            for operand in node.operands:
                walk(operand)
        elif isinstance(node, NotExpression):
            tokens.append((TREE_NOT, 0))
            walk(node.operand)
        elif isinstance(node, _CRISP_LEAVES):
            tokens.append((TREE_CRISP, len(crisp)))
            crisp.append(node)
        else:
            raise ValueError(f"{type(node).__name__} has no rank-frame form")

    walk(where)
    return tokens, crisp


def decode_where_tree(tokens: Sequence[tuple[int, int]], texts: Sequence[str]) -> Expression:
    """The inverse of :func:`encode_where_tree`; crisp leaves become :class:`CrispSlot`.

    ``tokens`` must already be a well-formed tree
    (:func:`repro.serving.protocol.read_rank_request` checks it).
    """
    stream = iter(tokens)

    def read() -> Expression:
        kind, argument = next(stream)
        if kind == TREE_PREDICATE:
            return SubjectivePredicate(texts[argument])
        if kind == TREE_CRISP:
            return CrispSlot(argument)
        if kind == TREE_NOT:
            return NotExpression(read())
        operands = tuple(read() for _ in range(argument))
        return AndExpression(operands) if kind == TREE_AND else OrExpression(operands)

    return read()


#: Fuzzy logics a ``rank`` frame may name; a node rebuilds the logic from it.
RANK_LOGICS: "dict[str, type[FuzzyLogic]]" = {
    logic.name: logic for logic in (ZadehLogic, ProductLogic)
}


def fold_scan_bound(
    where: Expression,
    logic: FuzzyLogic,
    predicates: Sequence[PrunedPredicate],
    count: int,
    pair_end: "Callable[[str, str, bool], np.ndarray | None]",
    crisp: "Callable[[Expression], np.ndarray]",
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(hi, lo)``: bounds of the query score on each of ``count`` candidates, unscored.

    Both ends of the whole WHERE tree (:func:`_fold_bound_end`), so AND,
    OR and NOT shapes alike get a scan order and a sorted early stop from
    ``hi``, and a threshold seed from ``lo`` (:func:`rank_pruned_chunks`).
    ``pair_end(attribute, phrase, upper)`` supplies one end of a pair's
    degree envelope at every candidate, or ``None`` when it has none (the
    predicate is then ``[0, 1]``); pairs fold with their predicate's
    combinator, memoised per call and shared by the two folds (a NOT
    swaps the ends, so each fold may read either).  ``crisp`` supplies a
    crisp leaf's 0/1 vector.  ``None`` when the tree has no bound form.
    """
    by_text = {predicate.text: predicate for predicate in predicates}
    gathered: dict[tuple[str, bool], np.ndarray] = {}

    def end_of(text: str, upper: bool) -> np.ndarray:
        vector = gathered.get((text, upper))
        if vector is None:
            predicate = by_text[text]
            vectors: list[np.ndarray] = []
            for attribute, phrase in predicate.pairs:
                end = pair_end(attribute, phrase, upper)
                if end is None:
                    vector = np.ones(count) if upper else np.zeros(count)
                    break
                vectors.append(end)
            else:
                # Combined even when there is one pair, as the exact degree
                # is: under the product logic ``1 - (1 - v)`` may round an
                # ulp away from ``v``, and a collapsed envelope must equal
                # the exact score bit for bit.
                vector = _pair_combiner(logic, predicate.combinator)(vectors)
            gathered[(text, upper)] = vector
        return vector

    hi = _fold_bound_end(where, True, count, end_of, logic, None, crisp)
    if hi is None:
        return None
    return hi, _fold_bound_end(where, False, count, end_of, logic, None, crisp)


def scan_order_head(bound: np.ndarray, head: int) -> np.ndarray:
    """The first ``min(head, len(bound))`` entries of ``np.argsort(-bound, kind="stable")``.

    One partition finds the ``head``-th largest bound (``head`` ≥ 1);
    every index above it and the lowest-indexed ones level with it make
    the head, which is then sorted alone — descending bound, ties by
    index, the stable order.
    """
    total = bound.size
    if head >= total:
        return np.argsort(-bound, kind="stable")
    negated = -bound
    cut = np.partition(negated, head - 1)[head - 1]
    above = np.flatnonzero(negated < cut)
    level = np.flatnonzero(negated == cut)[: head - above.size]
    picked = np.concatenate([above, level])
    return picked[np.lexsort((picked, negated[picked]))]


def scan_order_rest(bound: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The stable descending order of the indices :func:`scan_order_head` left out."""
    rest = np.ones(bound.size, dtype=bool)
    rest[head] = False
    index = np.flatnonzero(rest)
    return index[np.argsort(-bound[index], kind="stable")]


def rank_pruned_chunks(
    where: Expression,
    logic: FuzzyLogic,
    predicates: Sequence[PrunedPredicate],
    limit: int,
    scan_bounds: "tuple[np.ndarray, np.ndarray] | None",
    fetch: "Callable[[str, str, np.ndarray, float], tuple[np.ndarray, np.ndarray] | None]",
    crisp: "Callable[[Expression, np.ndarray], np.ndarray]",
    tie_ids: Sequence[Hashable],
    tie_positions: "Sequence[int] | None" = None,
    chunk_size: int = 128,
    chunk_growth: int = 4,
) -> PrunedRanking | None:
    """Threshold-style pruned top-``limit`` over candidates ``0 .. len(tie_ids)-1``.

    ``scan_bounds`` is :func:`fold_scan_bound`'s ``(hi, lo)``: the whole
    tree's score upper and lower bound per candidate (no bounds at all
    scans unordered, without an early stop or a floor).
    Candidates are scanned in chunks in descending order of ``hi``,
    stopping once the head of the remainder is below the prune threshold
    ``T``: the larger of the heap's running k-th score and the *floor*,
    the k-th largest ``lo`` less :data:`~repro.core.columnar.PRUNE_MARGIN`.
    At least k candidates score at least their ``lo``, so the k-th best
    score is at least the floor, and a row whose ``hi`` is below it
    scores strictly below k others — it cannot enter the top k, whatever
    the tie-break.  The floor holds from the first chunk, before any row
    is scored; the margin covers the fold's rounding.
    ``fetch(attribute, phrase, indices, threshold)`` returns ``(values,
    exact)`` for the candidates at ``indices`` — exact degrees, or upper
    bounds below ``threshold`` — rows whose AND-path predicate bound falls
    below ``T`` are dropped from the remaining fetches, and rows whose
    folded score upper bound is below ``T`` never reach the heap.  Every
    row that survives all of this has exclusively exact degrees, so its
    folded upper bound *is* its exact score, and the kept rows are
    bit-identical to the unpruned ranking.  ``crisp(leaf, indices)``
    supplies a crisp leaf's 0/1 values.

    Only the first two chunks' rows are sorted up front
    (:func:`scan_order_head`); the rest of the order is sorted when the
    scan reaches it.  The heap key is ``(-score, str(tie_ids[i]),
    tie_positions[i])`` (``tie_positions`` defaults to ``i``), the
    processor's ranking order.  The in-process engine and the cluster
    node both run this loop; they differ only in ``fetch``.  ``None`` when
    a fetch or the fold finds no bound form — the caller takes the full
    path.
    """
    # AND-path predicates first: their bounds both narrow the alive set and
    # let the fetch skip rows, so they see the threshold before any
    # unboundable work happens.
    ordered = sorted(predicates, key=lambda predicate: not predicate.on_and_path)
    positions = tie_positions if tie_positions is not None else range(len(tie_ids))
    heap = TopKThreshold(limit)
    offered = scanned = pruned = 0
    total = len(tie_ids)
    chunk_size = max(1, chunk_size)
    growth = max(2, chunk_growth)
    floor = None
    if scan_bounds is not None:
        hi_bound, lo_bound = scan_bounds
        if total > limit:
            floor = float(np.partition(lo_bound, total - limit)[total - limit]) - PRUNE_MARGIN
        scan_order = scan_order_head(hi_bound, chunk_size * (1 + growth))
        scan_bound = hi_bound[scan_order]
    else:
        scan_order = np.arange(total)
        scan_bound = None
    # Chunks grow geometrically: the first (small) chunk seeds the heap so a
    # real threshold exists almost immediately, and the growth keeps the
    # per-chunk fixed cost logarithmic in the candidate count.
    chunk_start = 0
    while chunk_start < total:
        threshold = heap.threshold
        if floor is not None:
            threshold = floor if threshold is None else max(threshold, floor)
        prune_threshold = threshold if threshold is not None else 0.0
        chunk_stop = min(chunk_start + chunk_size, total)
        if chunk_stop > scan_order.size:
            # The scan outlived the sorted head: order the rest too.
            scan_order = np.concatenate([scan_order, scan_order_rest(hi_bound, scan_order)])
            scan_bound = hi_bound[scan_order]
        if (
            threshold is not None
            and scan_bound is not None
            and scan_bound[chunk_start] < prune_threshold
        ):
            # Descending bound order: everything from here on is provably
            # below the k-th score.
            pruned += total - chunk_start
            break
        chunk = scan_order[chunk_start:chunk_stop]
        size = chunk_stop - chunk_start
        alive = np.ones(size, dtype=bool)
        if threshold is not None and scan_bound is not None:
            alive = scan_bound[chunk_start:chunk_stop] >= prune_threshold
            pruned += size - int(np.count_nonzero(alive))
        scanned += int(np.count_nonzero(alive))
        bound_vectors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for predicate in ordered:
            alive_index = np.flatnonzero(alive)
            if alive_index.size == 0:
                break
            alive_rows = chunk[alive_index]
            # A pair-level threshold is sound only when the pair value caps
            # the predicate (t-norm combination, or a single pair) *and* the
            # predicate caps the query (AND path).
            pair_threshold = (
                prune_threshold
                if predicate.on_and_path
                and (predicate.combinator == "and" or len(predicate.pairs) == 1)
                else 0.0
            )
            pair_lows: list[np.ndarray] = []
            pair_highs: list[np.ndarray] = []
            for attribute, phrase in predicate.pairs:
                fetched = fetch(attribute, phrase, alive_rows, pair_threshold)
                if fetched is None:
                    return None  # no bound support after all: full path
                hi, exact = fetched
                pair_highs.append(hi)
                pair_lows.append(np.where(exact, hi, 0.0))
            combine = _pair_combiner(logic, predicate.combinator)
            predicate_lo = combine(pair_lows)
            predicate_hi = combine(pair_highs)
            # Scatter into chunk-wide vectors; dead rows keep the universally
            # sound [0, 1] default (their values are never read back — they
            # cannot re-enter the alive set).
            lo_full = np.zeros(size)
            hi_full = np.ones(size)
            lo_full[alive_index] = predicate_lo
            hi_full[alive_index] = predicate_hi
            bound_vectors[predicate.text] = (lo_full, hi_full)
            if predicate.on_and_path:
                # Under a t-norm the query score cannot exceed this
                # predicate, so rows whose cap is already below the k-th
                # score are out — skip them in later fetches.
                alive[alive_index] = predicate_hi >= prune_threshold
        if alive.any():
            hi_env = _fold_bound_end(
                where,
                True,
                size,
                _interval_ends(bound_vectors),
                logic,
                threshold,
                lambda leaf: crisp(leaf, chunk),
            )
            if hi_env is None:
                return None
            survivors = np.flatnonzero(alive & (hi_env >= prune_threshold))
            offered += survivors.size
            vectors = {text: ends[1] for text, ends in bound_vectors.items()}
            for index, score in zip(survivors.tolist(), hi_env[survivors].tolist()):
                row = int(chunk[index])
                heap.offer(
                    score, tie_ids[row], positions[row], payload=(row, score, vectors, index)
                )
        chunk_start = chunk_stop
        chunk_size *= growth
    return PrunedRanking(heap, total, scanned, offered, pruned)


# --------------------------------------------------------------------------
# The sharded serving engine
# --------------------------------------------------------------------------

class ShardedSubjectiveQueryEngine(SubjectiveQueryEngine):
    """Entity-sharded serving front end; results identical to the unsharded engine.

    Three layers become shard-aware:

    * **degrees** — the processor's columnar store is replaced by a
      :class:`ShardedColumnarStore`, so every uncached membership degree is
      computed per contiguous entity slice (optionally on an executor);
    * **membership cache** — the shared
      :class:`~repro.serving.cache.DegreeColumnCache`, its counters also
      reported per shard row range (:func:`partition_bounds` of the entity
      index), reset when :attr:`SubjectiveDatabase.data_version` moves;
    * **ranking** — each query's candidate rows are scored as degree
      vectors per shard (:func:`fuzzy_score_arrays`) and the per-shard
      top-k heaps are merged into the global ranking
      (:func:`merge_shard_topk`).  When the fuzzy logic has no exact array
      form, ranking transparently falls back to the unsharded scalar path —
      degrees stay shard-computed either way.

    Parameters mirror :class:`~repro.serving.engine.SubjectiveQueryEngine`
    plus ``num_shards`` (K contiguous slices of every attribute's E axis;
    defaults to :func:`default_num_shards` — one per core), ``backend``
    (``"serial"`` or ``"thread"``), ``max_workers``
    (defaults to ``num_shards``) and ``prune_topk`` (bound-based top-k
    pruning, on by default).

    With ``prune_topk`` on, eligible top-k queries take a threshold-style
    pruned scan first (:meth:`_rank_pruned`): candidates are walked in
    chunks, each chunk's membership degrees are fetched through the
    store's bounded path with the running k-th score as prune threshold,
    and entities whose score *upper bound* cannot reach the threshold are
    dismissed without ever running a scoring kernel.  Survivor scores are
    bit-identical to the exact path (the bound envelope collapses to the
    exact arithmetic on fully-scored rows), so the ranking — scores,
    degrees, tie-breaks — equals the unpruned result exactly; the
    differential suite pins this at several shard counts.  Any
    ineligibility (no limit, retrieval predicates, duplicate candidate
    rows, a logic or membership function without bound support, an exotic
    WHERE node) falls back to the ordinary exact path for the whole query.
    """

    #: Backend names this engine accepts; the cluster engine overrides it.
    engine_backends = BACKENDS

    def __init__(
        self,
        database: SubjectiveDatabase | None = None,
        processor: SubjectiveQueryProcessor | None = None,
        num_shards: int | None = None,
        backend: str = "serial",
        max_workers: int | None = None,
        plan_cache_size: int | None = 256,
        membership_cache_size: int | None = 200_000,
        candidate_cache_size: int | None = 64,
        prune_topk: bool = True,
    ) -> None:
        if num_shards is None:
            num_shards = default_num_shards()
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if backend not in self.engine_backends:
            raise ValueError(
                f"unknown shard backend {backend!r}; expected one of {self.engine_backends}"
            )
        self.num_shards = num_shards
        self.backend = backend
        self.prune_topk = prune_topk
        # Candidate rows in the *first* bounded-scan chunk; each later
        # chunk is ``prune_chunk_growth`` times larger.  The first chunk
        # stays small so the threshold exists almost immediately; the
        # geometric growth keeps the per-chunk fixed cost logarithmic in
        # the candidate count.
        self.prune_chunk_size = 128
        self.prune_chunk_growth = 4
        super().__init__(
            database=database,
            processor=processor,
            plan_cache_size=plan_cache_size,
            membership_cache_size=membership_cache_size,
            candidate_cache_size=candidate_cache_size,
        )
        self.sharded_store: ShardedColumnarStore | None = None
        if self.processor.use_columnar:
            base = self.processor.columnar_store
            if isinstance(base, ShardedColumnarStore):
                self.sharded_store = base
            else:
                self.sharded_store = self._build_sharded_store(base, max_workers)
            # Install the sharded store so every degree the processor
            # computes — through this engine or directly — is shard-routed.
            self.processor.columnar_store = self.sharded_store
        self._register_store_metrics()

    def _register_store_metrics(self) -> None:
        """Adopt the installed store's instruments under ``store_*`` names.

        Gives the engine's :attr:`metrics` registry one unified view of
        coordinator-side serving counters *and* the store/fleet counters
        (fanouts, RPC requests, hydrations, …) — the cells stay owned and
        incremented by the store, exactly like the cache cells.
        """
        store = self.sharded_store
        store_metrics = getattr(store, "metrics", None)
        if store_metrics is None:
            return
        for name, instrument in store_metrics:
            self.metrics.register(f"store_{name}", instrument)

    def _build_sharded_store(self, base: ColumnarSummaryStore | None, max_workers: int | None):
        """The shard-routed store this engine installs on its processor.

        The in-process engine wraps the base columnar store in a
        :class:`ShardedColumnarStore`; the cluster engine overrides this to
        return a :class:`repro.serving.cluster.ClusterShardStore` speaking
        the same ``pair_degrees`` protocol over TCP shard nodes.
        """
        return ShardedColumnarStore(
            self.database,
            num_shards=self.num_shards,
            backend=self.backend,
            base=base,
            max_workers=max_workers,
        )

    def _build_membership_cache(self, maxsize: int | None) -> DegreeColumnCache:
        return DegreeColumnCache(
            maxsize,
            self.database.entity_ids(),
            partitioner=partial(partition_bounds, num_shards=self.num_shards),
        )

    def close(self) -> None:
        """Shut down shard executor workers (idempotent)."""
        if self.sharded_store is not None:
            self.sharded_store.close()

    # -------------------------------------------------------------- ranking
    def _rank(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        sql: str,
        top_k: int | None,
    ) -> QueryResult:
        # A logic without array connectives takes the unsharded scalar path
        # outright (degrees are still shard-computed through the installed
        # sharded store).
        if not getattr(self.processor.logic, "supports_arrays", False):
            return super()._rank(plan, candidates, sql=sql, top_k=top_k)
        if self.prune_topk:
            pruned = self._rank_pruned(plan, candidates, sql=sql, top_k=top_k)
            if pruned is not None:
                return pruned
        unique_degrees = {
            predicate: self._interpretation_degree_vector(candidates.unique_ids, interpretation)
            for predicate, interpretation in plan.interpretations.items()
        }
        result = self._rank_sharded(plan, candidates, unique_degrees, sql=sql, top_k=top_k)
        if result is not None:
            return result
        # Scalar fallback (a WHERE node the array walk cannot serve):
        # identical path to the unsharded engine.
        degree_table = {
            predicate: dict(zip(candidates.unique_ids, degrees.tolist()))
            for predicate, degrees in unique_degrees.items()
        }
        return self.processor.rank_candidates(
            plan.statement,
            candidates.rows,
            plan.interpretations,
            degree_table=degree_table,
            sql=sql,
            top_k=top_k,
            row_entities=candidates.row_entities,
        )

    def _interpretation_degree_vector(
        self, unique_ids: Sequence[Hashable], interpretation
    ) -> np.ndarray:
        """Cached degrees of one interpreted predicate as a vector.

        Mirrors :meth:`SubjectiveQueryProcessor.interpretation_degrees`
        with the per-entity scalar combinator replaced by the fuzzy logic's
        array connectives — the same left-to-right fold over per-pair
        degree vectors, so every element is bit-identical to the scalar
        combination (the differential suite pins this).
        """
        if (
            interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
            or not interpretation.pairs
        ):
            return np.asarray(
                self._cached_retrieval_degrees(unique_ids, interpretation.predicate),
                dtype=float,
            )
        per_pair = [
            np.asarray(
                self._cached_pair_degrees(
                    unique_ids,
                    pair.attribute,
                    self.processor.phrase_for_pair(interpretation, pair.marker),
                ),
                dtype=float,
            )
            for pair in interpretation.pairs
        ]
        return _pair_combiner(self.processor.logic, interpretation.combinator)(per_pair)

    def _rank_sharded(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        unique_degrees: dict[str, np.ndarray],
        sql: str,
        top_k: int | None,
    ) -> QueryResult | None:
        statement = plan.statement
        rows = candidates.rows
        row_entities = candidates.row_entities
        if len(row_entities) == len(candidates.unique_ids):
            # No duplicate entities (the common, join-free case):
            # row_entities equals unique_ids element for element, so the
            # per-unique vectors already are the per-row vectors.
            degree_vectors = unique_degrees
        else:
            unique_index = {
                entity_id: position for position, entity_id in enumerate(candidates.unique_ids)
            }
            row_positions = np.fromiter(
                (unique_index[entity_id] for entity_id in row_entities),
                dtype=np.intp,
                count=len(row_entities),
            )
            degree_vectors = {
                predicate: degrees[row_positions] for predicate, degrees in unique_degrees.items()
            }
        scores = fuzzy_score_arrays(
            statement.where, rows, degree_vectors, self.processor.logic
        )
        if scores is None:
            return None
        limit = statement.limit or top_k or self.processor.top_k
        with span("merge", num_shards=self.num_shards, rows=len(row_entities)):
            selected = merge_shard_topk(scores, row_entities, self.num_shards, limit)
        entities = [
            RankedEntity(
                entity_id=row_entities[index],
                score=float(scores[index]),
                row=rows[index],
                predicate_degrees={
                    predicate: float(vector[index]) for predicate, vector in degree_vectors.items()
                },
            )
            for index in selected
        ]
        return QueryResult(sql=sql, entities=entities, interpretations=plan.interpretations)

    # -------------------------------------------------- bound-based pruning
    def _rank_pruned(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        sql: str,
        top_k: int | None,
    ) -> QueryResult | None:
        """Threshold-style pruned ranking; ``None`` when the query is ineligible.

        Checks that the query has a bound form — a limit below the
        candidate count, no duplicate candidates, a logic and membership
        with bounds, only marker-backed predicates, a boundable WHERE tree —
        and leaves the scan itself to :meth:`_scan_pruned`.  The kept rows
        are bit-identical to the unpruned ranking (:func:`rank_pruned_chunks`).
        """
        statement = plan.statement
        where = statement.where
        limit = statement.limit or top_k or self.processor.top_k
        row_entities = candidates.row_entities
        if not limit or limit < 1 or where is None:
            return None
        if len(row_entities) != len(candidates.unique_ids):
            return None  # duplicate entities (joins): row remap not worth bounding
        if len(row_entities) <= limit:
            return None  # every candidate is kept; nothing to prune
        if not getattr(self.processor.logic, "supports_bounds", False):
            return None
        if not self.processor.use_markers or not self.processor.use_columnar:
            return None
        if self.processor.columnar_store is None:
            return None
        for interpretation in plan.interpretations.values():
            if (
                interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
                or not interpretation.pairs
            ):
                return None  # retrieval degrees have no bound form
        if not bounds_tree_supported(where, set(plan.interpretations)):
            return None
        ranking = self._scan_pruned(plan, candidates, self._pruned_predicates(plan), limit)
        if ranking is None:
            return None
        rows = candidates.rows
        nodes = {} if ranking.nodes is None else {"nodes": ranking.nodes}
        # Result objects are built for the k winners only.
        with span(
            "merge",
            num_shards=self.num_shards,
            rows=ranking.offered,
            candidates=ranking.candidates,
            scanned=ranking.scanned,
            **nodes,
        ):
            entities = [
                RankedEntity(
                    entity_id=row_entities[position],
                    score=score,
                    row=rows[position],
                    predicate_degrees={
                        text: float(vector[index]) for text, vector in vectors.items()
                    },
                )
                for position, score, vectors, index in ranking.heap.selected()
            ]
        return QueryResult(sql=sql, entities=entities, interpretations=plan.interpretations)

    def _pruned_predicates(self, plan: QueryPlan) -> list[PrunedPredicate]:
        """The plan's predicates with their pairs resolved to ``(attribute, phrase)``."""
        and_path = and_path_predicates(plan.statement.where)
        return [
            PrunedPredicate(
                text,
                interpretation.combinator,
                text in and_path,
                tuple(
                    (pair.attribute, self.processor.phrase_for_pair(interpretation, pair.marker))
                    for pair in interpretation.pairs
                ),
            )
            for text, interpretation in plan.interpretations.items()
        ]

    def _scan_pruned(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        predicates: Sequence[PrunedPredicate],
        limit: int,
    ) -> PrunedRanking | None:
        """The pruned scan of one eligible query (the cluster engine ships it).

        In process the loop (:func:`rank_pruned_chunks`) runs here: it is
        ordered by :meth:`_scan_bounds` and fetches through the membership
        cache and the store's bounded path
        (:meth:`_bounded_cached_pair_degrees`).  ``None`` sends the query
        down the full path.
        """
        store = self.processor.columnar_store
        if not hasattr(store, "pair_degrees_bounded"):
            return None
        entity_rows = candidates.entity_rows(self.membership_cache)

        def fetch(attribute: str, phrase: str, indices: np.ndarray, threshold: float):
            """Bounded degrees of the candidates at ``indices``."""
            return self._bounded_cached_pair_degrees(
                entity_rows[indices], attribute, phrase, threshold
            )

        ranking = rank_pruned_chunks(
            plan.statement.where,
            self.processor.logic,
            predicates,
            limit,
            self._scan_bounds(plan, candidates, store),
            fetch,
            lambda leaf, indices: candidates.crisp_vector(leaf)[indices],
            candidates.row_entities,
            chunk_size=self.prune_chunk_size,
            chunk_growth=self.prune_chunk_growth,
        )
        if ranking is not None:
            self.entities_pruned += ranking.pruned
        return ranking

    def _scan_bounds(
        self, plan: QueryPlan, candidates: CandidateSet, store
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """``(hi, lo)`` bounds of the query score on every candidate, unscored.

        :func:`fold_scan_bound` over the store's cached whole-store
        envelopes, gathered at the candidate set's (cached) row indices.  A
        pair the store cannot bound (or with a candidate missing from its
        columns) leaves its predicate at ``[0, 1]``; crisp leaves read the
        candidate set's memoised 0/1 vectors.  ``None`` — scan unordered, no
        early stop, no floor — when the store has no envelopes.
        """
        whole_store_envelope = getattr(store, "degree_envelope", None)
        if whole_store_envelope is None:
            return None

        def pair_end(attribute: str, phrase: str, upper: bool) -> np.ndarray | None:
            """One envelope end of a condition at every candidate."""
            envelope = whole_store_envelope(self.processor.membership, attribute, phrase)
            if envelope is None:
                return None
            index = candidates.store_rows(store.columns(attribute))
            return None if index is None else envelope[1 if upper else 0][index]

        return fold_scan_bound(
            plan.statement.where,
            self.processor.logic,
            self._pruned_predicates(plan),
            len(candidates.rows),
            pair_end,
            candidates.crisp_vector,
        )

    def _bounded_cached_pair_degrees(
        self,
        entity_rows: np.ndarray,
        attribute: str,
        phrase: str,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Membership degrees with per-row exactness, pruned below ``threshold``.

        The bounded twin of the base engine's ``_cached_degrees``: cache
        hits are exact by construction (only exact degrees are ever
        cached), misses go through the store's bounded path, and of the
        returned values only the exact ones enter the cache — a pruned
        row's upper bound is *not* its degree and must be recomputed if a
        later query needs it.  Returns ``(values, exact)`` aligned with
        ``entity_rows``, or ``None`` when the store or membership function
        cannot bound this phrase.
        """
        cache = self.membership_cache
        key = (attribute, phrase)
        values, exact = cache.lookup(key, entity_rows)
        missing = np.flatnonzero(~exact)
        if not missing.size:
            return values, exact
        missing_rows = entity_rows[missing]
        result = self.processor.columnar_store.pair_degrees_bounded(
            self.processor.membership, cache.ids_of(missing_rows), attribute, phrase, threshold
        )
        if result is None:
            return None
        fetched, fetched_exact, scored, pruned = result
        self.entities_scored += scored
        self.entities_pruned += pruned
        fetched = np.asarray(fetched, dtype=float)
        fetched_exact = np.asarray(fetched_exact, dtype=bool)
        cache.store(key, missing_rows[fetched_exact], fetched[fetched_exact])
        values[missing] = fetched
        exact[missing] = fetched_exact
        return values, exact

    # ----------------------------------------------------------- statistics
    def _cache_counters(self) -> dict[str, int]:
        """Cache counters plus the installed store's transport counters.

        The hook that puts per-fleet RPC activity into ``run_batch``
        statistics: a store with a service boundary (the TCP cluster
        store) exposes ``transport_counters()`` —
        request/byte/reconnect totals — and ``run_batch`` reports their
        batch-local deltas alongside the cache hit/miss deltas.
        """
        counters = super()._cache_counters()
        store = self.sharded_store
        transport = getattr(store, "transport_counters", None)
        if transport is not None:
            counters.update(transport())
        return counters

    def partition_stats(self) -> list[dict[str, object]]:
        """Per-partition serving statistics: one dict per shard or node.

        For the in-process sharded engine these are the membership cache's
        per-shard partitions; engines whose store puts shards behind a
        service boundary override the *store* side — a store exposing its
        own ``partition_stats()`` (per-node RPC counters:
        requests, bytes, cache hits, reconnects) takes precedence here, so
        operators see the fleet, not just the local cache.
        """
        store = self.sharded_store
        stats = getattr(store, "partition_stats", None)
        if stats is not None:
            return stats()
        return self.membership_cache.partition_stats()

    def stats_snapshot(self) -> dict[str, object]:
        """Serving counters plus shard count, backend and per-partition cache stats."""
        snapshot = super().stats_snapshot()
        snapshot["num_shards"] = self.num_shards
        snapshot["backend"] = self.backend
        snapshot["membership_cache_partitions"] = self.membership_cache.partition_stats()
        return snapshot
