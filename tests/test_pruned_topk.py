"""Differential tests for bound-based top-k pruning.

The contract of the pruned ranking path is *exact* equality with the
unpruned engines: same ranked entity ids, bit-identical scores and
per-predicate degrees, at every serving layer (sharded serial/thread, TCP
cluster) and for shard counts {1, 2, 4} — while doing
strictly less exact-kernel work on selective top-k queries.  These tests
pin both halves of that contract: equality through the layer stack, and
``entities_scored`` strictly below the candidate count on a cold
selective query, with the skipped rows accounted as ``entities_pruned``.
The fallback edges (no LIMIT, text-retrieval predicates) must leave the
pruned path disengaged and the results untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HeuristicMembership,
    LearnedMembership,
    SubjectiveQueryProcessor,
    columnar,
)
from repro.core.columnar import (
    PRUNE_MARGIN,
    ColumnarSummaryStore,
    ScoreBounds,
    similarity_mass_bounds,
    slice_view,
)
from repro.core.database import ReviewRecord
from repro.core.fuzzy import ProductLogic
from repro.core.interpreter import InterpretationMethod
from repro.serving import (
    ClusterQueryEngine,
    ShardedSubjectiveQueryEngine,
    SubjectiveQueryEngine,
    partition_bounds,
)
from repro.serving.sharded import fuzzy_score_arrays
from repro.testing import assert_identical_results, build_synthetic_columnar_database

SHARD_COUNTS = [1, 2, 4]

#: Selective conjunctive top-k queries — the pruned path's home turf.
SELECTIVE_QUERIES = [
    'select * from Entities where "word003" and "word019" limit 5',
    'select * from Entities where "word007" limit 3',
    'select * from Entities where "word001" and "word002" and "word020" limit 4',
    "select * from Entities where city = 'london' and \"word004\" limit 5",
]

#: Trees with an OR or NOT between the root and a predicate: those
#: predicates take no AND-path threshold transfer, so their scan stops
#: early only through the whole-tree bound.  Top-level OR, NOT under OR, OR
#: of AND, NOT under OR under AND, an objective leaf under OR (ties at 1.0),
#: OR under an objective AND.
MIXED_QUERIES = [
    'select * from Entities where not "word002" or "word021" limit 4',
    'select * from Entities where "word005" or "word017" limit 6',
    'select * from Entities where ("word003" and "word019") or "word007" limit 5',
    'select * from Entities where "word001" and (not "word010" or "word021") limit 4',
    'select * from Entities where price < 60 or "word004" limit 5',
    "select * from Entities where city = 'rome' and (\"word004\" or \"word020\") limit 5",
]

#: Queries the pruned path must refuse up front (no limit; a gibberish
#: predicate that interprets to BM25 text retrieval).
FALLBACK_QUERIES = [
    'select * from Entities where "word003" and "word019"',
    'select * from Entities where "zxqv wobbly flurb" limit 5',
]


@pytest.fixture(scope="module")
def synthetic_database():
    return build_synthetic_columnar_database(num_entities=300, seed=11)


@pytest.fixture(scope="module")
def large_database():
    return build_synthetic_columnar_database(num_entities=1600, seed=11)


def _assert_matches_baseline(database, engine, sqls, context=""):
    baseline = SubjectiveQueryEngine(database=database)
    for sql in sqls:
        expected = baseline.execute(sql)
        actual = engine.execute(sql)
        assert_identical_results(expected, actual, context=f"{context} {sql!r}")
        # Warm (fully cached) executions must agree too.
        assert_identical_results(expected, engine.execute(sql), context=f"warm {sql!r}")


ALL_QUERIES = SELECTIVE_QUERIES + MIXED_QUERIES + FALLBACK_QUERIES


class TestShardedPruning:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_serial_identical(self, synthetic_database, num_shards):
        engine = ShardedSubjectiveQueryEngine(
            database=synthetic_database, num_shards=num_shards
        )
        assert engine.prune_topk
        _assert_matches_baseline(
            synthetic_database, engine, ALL_QUERIES, context=f"shards={num_shards}"
        )

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_thread_backend_identical(self, synthetic_database, num_shards):
        engine = ShardedSubjectiveQueryEngine(
            database=synthetic_database, num_shards=num_shards, backend="thread"
        )
        try:
            _assert_matches_baseline(
                synthetic_database, engine, SELECTIVE_QUERIES, context="thread"
            )
        finally:
            engine.close()

    def test_pruned_equals_unpruned_engine(self, synthetic_database):
        """prune_topk=False runs the legacy full path; results must agree."""
        pruned = ShardedSubjectiveQueryEngine(database=synthetic_database, num_shards=2)
        full = ShardedSubjectiveQueryEngine(
            database=synthetic_database, num_shards=2, prune_topk=False
        )
        for sql in ALL_QUERIES:
            assert_identical_results(full.execute(sql), pruned.execute(sql), context=sql)
        assert full.entities_pruned == 0
        assert pruned.entities_pruned > 0

    def test_entities_scored_strictly_lower(self, synthetic_database):
        """A cold selective top-k scores strictly fewer rows than it covers."""
        num_entities = len(synthetic_database.entities())
        pruned = ShardedSubjectiveQueryEngine(database=synthetic_database, num_shards=2)
        full = ShardedSubjectiveQueryEngine(
            database=synthetic_database, num_shards=2, prune_topk=False
        )
        sql = SELECTIVE_QUERIES[0]
        pruned.execute(sql)
        full.execute(sql)
        # The unpruned engine pays one cache miss per (entity, predicate);
        # the pruned engine must do strictly less exact work.
        assert full.entities_scored == 2 * num_entities
        assert 0 < pruned.entities_scored < full.entities_scored
        assert pruned.entities_pruned > 0
        stats = pruned.stats_snapshot()
        assert stats["entities_scored"] == pruned.entities_scored
        assert stats["entities_pruned"] == pruned.entities_pruned

    def test_a_cold_conjunction_scores_less_than_one_chunk(self, large_database):
        """The lower-envelope floor prunes before any row is scored: a cold
        ``"a" and "b" limit 10`` over 1600 entities scores fewer rows than
        the first chunk holds (seeding the threshold by scoring that chunk
        exactly costs at least ``prune_chunk_size``)."""
        engine = ShardedSubjectiveQueryEngine(database=large_database, num_shards=2)
        sql = 'select * from Entities where "word003" and "word019" limit 10'
        expected = SubjectiveQueryEngine(database=large_database).execute(sql)
        assert_identical_results(expected, engine.execute(sql))
        assert 0 < engine.entities_scored < engine.prune_chunk_size

    def test_retrieval_fallback_does_not_prune(self, hotel_database):
        """A BM25 text-retrieval interpretation refuses the pruned path."""
        engine = ShardedSubjectiveQueryEngine(database=hotel_database, num_shards=2)
        sql = FALLBACK_QUERIES[1]
        engine.execute(sql)
        plan = engine.plan(sql)
        assert (
            plan.interpretations["zxqv wobbly flurb"].method
            is InterpretationMethod.TEXT_RETRIEVAL
        )
        assert engine.entities_pruned == 0

    def test_run_batch_stats_surface_pruning(self, synthetic_database):
        engine = ShardedSubjectiveQueryEngine(database=synthetic_database, num_shards=2)
        batch = engine.run_batch(SELECTIVE_QUERIES[:2])
        assert batch.cache_stats["entities_pruned"] > 0
        assert batch.cache_stats["entities_scored"] > 0

    def test_ingest_resets_pruning_soundly(self, synthetic_database):
        """A data_version bump must not leave stale bounds behind."""
        database = build_synthetic_columnar_database(num_entities=120, seed=23)
        engine = ShardedSubjectiveQueryEngine(database=database, num_shards=2)
        baseline = SubjectiveQueryEngine(database=database)
        sql = SELECTIVE_QUERIES[0]
        assert_identical_results(baseline.execute(sql), engine.execute(sql))
        entity = database.entities()[0]
        database.add_review(ReviewRecord(10_000, entity.entity_id, "word003 word019 again"))
        assert_identical_results(
            baseline.execute(sql), engine.execute(sql), context="post-ingest"
        )


class TestClusterPruning:
    @pytest.mark.parametrize("num_nodes", SHARD_COUNTS)
    def test_cluster_identical(self, synthetic_database, num_nodes):
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=num_nodes, max_inflight_queries=1
        ) as engine:
            _assert_matches_baseline(
                synthetic_database,
                engine,
                SELECTIVE_QUERIES + MIXED_QUERIES,
                context=f"nodes={num_nodes}",
            )


    def test_replicated_cluster_identical(self, synthetic_database):
        """Replica routing feeds the pruned scan the same exact degrees."""
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=3, replication=2, max_inflight_queries=1
        ) as engine:
            _assert_matches_baseline(
                synthetic_database,
                engine,
                SELECTIVE_QUERIES + MIXED_QUERIES,
                context="nodes=3 replication=2",
            )
            assert engine.entities_pruned > 0

    def test_cluster_counts_pruning(self, synthetic_database):
        """Engine-level counters: the coordinator's pre-screen prunes before
        any fan-out, so on a small fixture the nodes may see no prunable row."""
        num_entities = len(synthetic_database.entities())
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=2, max_inflight_queries=1
        ) as engine:
            engine.execute(SELECTIVE_QUERIES[0])
            assert 0 < engine.entities_scored < 2 * num_entities
            assert engine.entities_pruned > 0

    def test_nodes_prune_with_their_own_slice_envelopes(self, synthetic_database):
        """Each node bounds its own slices: the ranked answer is the in-process
        one, and the pruning shows in the nodes' own counters."""
        in_process = ShardedSubjectiveQueryEngine(database=synthetic_database, num_shards=2)
        full = ShardedSubjectiveQueryEngine(
            database=synthetic_database, num_shards=2, prune_topk=False
        )
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=2, max_inflight_queries=1
        ) as engine:
            for sql in SELECTIVE_QUERIES:
                assert_identical_results(in_process.execute(sql), engine.execute(sql), sql)
                full.execute(sql)
            remote = engine.sharded_store.partition_stats()
            assert all(entry["entities_pruned"] > 0 for entry in remote)
            assert all(entry["entities_scored"] > 0 for entry in remote)
            assert sum(entry["entities_scored"] for entry in remote) < full.entities_scored

    def test_concurrent_batch_still_identical(self, synthetic_database):
        """Pruning is disabled inside the concurrent batch, not broken by it."""
        baseline = SubjectiveQueryEngine(database=synthetic_database)
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=2, max_inflight_queries=8
        ) as engine:
            batch = engine.run_batch(SELECTIVE_QUERIES + MIXED_QUERIES)
            for sql, actual in zip(SELECTIVE_QUERIES + MIXED_QUERIES, batch.results):
                assert_identical_results(baseline.execute(sql), actual, context=sql)
            # Serial execution afterwards re-enables the pruned path.
            engine.execute(SELECTIVE_QUERIES[0])


def _sharded(num_shards):
    return lambda database: ShardedSubjectiveQueryEngine(database=database, num_shards=num_shards)


def _cluster(database):
    return ClusterQueryEngine(database=database, num_nodes=2, max_inflight_queries=1)


def _replicated_cluster(database):
    return ClusterQueryEngine(
        database=database, num_nodes=3, replication=2, max_inflight_queries=1
    )


class TestMixedShapesOnEveryEngine:
    """OR / NOT shapes on the 1600-entity fixture: exact on every engine,
    and each one stops its scan early — the scan bound folds the whole tree,
    not just its AND path, and caps the exact score on every candidate."""

    @pytest.mark.parametrize(
        "make_engine",
        [_sharded(1), _sharded(2), _sharded(4), _cluster, _replicated_cluster],
        ids=["shards=1", "shards=2", "shards=4", "cluster", "cluster-replicated"],
    )
    def test_pruned_equals_unpruned_and_every_shape_scores_fewer(
        self, large_database, make_engine
    ):
        full = ShardedSubjectiveQueryEngine(
            database=large_database, num_shards=2, prune_topk=False
        )
        exact_store = ColumnarSummaryStore(large_database)
        with make_engine(large_database) as engine:
            fleet = isinstance(engine, ClusterQueryEngine)
            for sql in MIXED_QUERIES:
                scored, unpruned = engine.entities_scored, full.entities_scored
                assert_identical_results(full.execute(sql), engine.execute(sql), context=sql)
                scored = engine.entities_scored - scored
                unpruned = full.entities_scored - unpruned
                assert 0 < scored < unpruned, sql
                plan = engine.plan(sql)
                candidates = engine._candidate_rows(plan)
                exact = fuzzy_score_arrays(
                    plan.statement.where,
                    candidates.rows,
                    {
                        text: full._interpretation_degree_vector(
                            candidates.unique_ids, interpretation
                        )
                        for text, interpretation in plan.interpretations.items()
                    },
                    engine.processor.logic,
                )
                if not fleet:  # a fleet folds its scan bound on the nodes
                    hi, lo = engine._scan_bounds(
                        plan, candidates, engine.processor.columnar_store
                    )
                    assert np.all(hi >= exact) and np.all(lo <= exact), sql
            assert engine.entities_pruned > 0
            # Only exact degrees were cached: bounds of dismissed rows never are.
            membership = engine.processor.membership
            keys = list(engine.membership_cache.keys())
            assert not keys if fleet else keys  # a ranking fleet caches no degree here
            for entity_id, attribute, phrase in keys:
                (exact,) = exact_store.pair_degrees(membership, [entity_id], attribute, phrase)
                assert engine.membership_cache.peek((entity_id, attribute, phrase)) == exact


class TestNodeSideScan:
    """The fleet ships the pruned scan: each node ranks its own slices."""

    def test_fleet_scan_matches_in_process_and_saves_requests(self, synthetic_database):
        in_process = ShardedSubjectiveQueryEngine(database=synthetic_database, num_shards=2)
        expected = [in_process.execute(sql) for sql in SELECTIVE_QUERIES]

        def run(prune_topk):
            with _cluster(synthetic_database) as engine:
                engine.execute(SELECTIVE_QUERIES[0])  # fleet up and hydrated
                engine.sharded_store.invalidate_node_caches()
                engine.membership_cache.clear()
                engine.prune_topk = prune_topk
                requests = engine.sharded_store.rpc_requests
                results = [engine.execute(sql) for sql in SELECTIVE_QUERIES]
                return results, engine.sharded_store.rpc_requests - requests

        results, requests = run(True)
        unpruned_results, unpruned_requests = run(False)
        for sql, want, got, unpruned in zip(
            SELECTIVE_QUERIES, expected, results, unpruned_results
        ):
            assert_identical_results(want, got, context=sql)
            assert_identical_results(want, unpruned, context=f"unpruned {sql}")
        # One rank frame per node per query, against one score frame per
        # predicate pair and slice.
        assert requests == 2 * len(SELECTIVE_QUERIES) < unpruned_requests


#: Envelope fixtures: the synthetic one carries no phrase vectors, so its
#: deviations are 0 and every envelope collapses to the exact degree; the
#: hotel and restaurant fixtures have real centroids and exercise the
#: bound arithmetic.
ENVELOPE_DATABASES = ["synthetic_database", "hotel_database", "restaurant_database"]

#: Phrases that are no marker's name, polar and neutral, beside the markers.
NON_MARKER_PHRASES = [
    "really clean rooms",
    "terrible dirty rooms",
    "friendly staff",
    "average experience",
    "word003 word040",
]


def _envelope_membership(database, kind):
    """A heuristic membership, or a logistic one fitted on the database's summaries."""
    heuristic = HeuristicMembership(embedder=database.phrase_embedder)
    if kind == "heuristic":
        return heuristic
    summaries = [
        summary
        for attribute in database.schema.subjective_names
        for summary in database.summaries_for_attribute(attribute).values()
    ]
    phrase = summaries[0].markers[0].name
    degrees = heuristic.degrees(summaries, phrase)
    labels = [int(degree > np.median(degrees)) for degree in degrees]
    labels[0] = 1 - labels[-1]  # both classes, whatever the fixture
    return LearnedMembership(embedder=database.phrase_embedder).fit(
        [(summary, phrase, label) for summary, label in zip(summaries, labels)]
    )


def _envelope_cases(database):
    """``(attribute, store, columns, phrases)`` for every attribute with columns."""
    store = ColumnarSummaryStore(database)
    for attribute in database.schema.subjective_names:
        columns = store.columns(attribute)
        if columns is not None:
            markers = [marker.name for marker in columns.markers]
            yield attribute, store, columns, markers + NON_MARKER_PHRASES


def _row_major_mass_bounds(bounds, phrase_vector):
    """:func:`similarity_mass_bounds` as it read before the marker-major layout.

    Every E×M step on the entity-major column arrays, reduced over axis 1:
    the reference the marker-major arithmetic must match.
    """
    columns = bounds.columns
    unit = phrase_vector / np.linalg.norm(phrase_vector)
    name_similarities = columns.name_units @ unit
    positives_lo = np.clip(name_similarities, 0.0, None) ** 2
    positives_hi = np.clip(name_similarities[np.newaxis, :] + bounds.deviations.T, 0.0, None) ** 2
    lo_sum = float(positives_lo.sum())
    hi_sums = positives_hi.sum(axis=1)
    numerator_hi = np.einsum("em,em->e", positives_hi, columns.fractions)
    numerator_lo = columns.fractions @ positives_lo
    expected_hi = np.where(positives_hi > 0.0, columns.fractions, 0.0).max(axis=1, initial=0.0)
    if lo_sum > 0.0:
        expected_hi = np.minimum(expected_hi, numerator_hi / lo_sum)
    safe_hi_sums = np.where(hi_sums > 0.0, hi_sums, 1.0)
    expected_lo = np.where(hi_sums > 0.0, numerator_lo / safe_hi_sums, 0.0)
    denominators = bounds.fraction_peaks + 1e-9
    hi = np.minimum(1.0, expected_hi / denominators + PRUNE_MARGIN)
    lo = np.maximum(0.0, np.minimum(1.0, expected_lo / denominators) - PRUNE_MARGIN)
    if lo_sum <= 0.0:
        hi = np.maximum(hi, 0.5)
        lo = np.minimum(lo, 0.5)
    certainly_neutral = (hi_sums <= 0.0) | (columns.totals == 0.0)
    return np.where(certainly_neutral, 0.5, lo), np.where(certainly_neutral, 0.5, hi)


class TestBoundEnvelopes:
    @pytest.mark.parametrize("kind", ["heuristic", "learned"])
    @pytest.mark.parametrize("fixture_name", ENVELOPE_DATABASES)
    def test_degree_bounds_contain_exact_degrees(self, request, fixture_name, kind):
        """The membership envelope brackets every exact columnar degree."""
        database = request.getfixturevalue(fixture_name)
        membership = _envelope_membership(database, kind)
        checked = 0
        for attribute, store, columns, phrases in _envelope_cases(database):
            bounds = store.score_bounds(attribute)
            assert bounds is not None
            for phrase in phrases:
                envelope = membership.degree_bounds(bounds, phrase)
                assert envelope is not None
                lo, hi = envelope
                exact = np.asarray(membership.degrees_columnar(columns, phrase))
                assert np.all(lo <= exact), (attribute, phrase)
                assert np.all(exact <= hi), (attribute, phrase)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("kind", ["heuristic", "learned"])
    @pytest.mark.parametrize("fixture_name", ENVELOPE_DATABASES)
    def test_slice_envelopes_contain_exact_degrees(self, request, fixture_name, kind):
        """A node's envelope — ``degree_bounds`` over one slice's own bound
        summaries — brackets every exact degree of the slice too."""
        database = request.getfixturevalue(fixture_name)
        membership = _envelope_membership(database, kind)
        for attribute, _store, columns, phrases in _envelope_cases(database):
            cuts = partition_bounds(columns.num_entities, 3)
            for start, stop in zip(cuts, cuts[1:]):
                part = slice_view(columns, start, stop)
                for phrase in phrases:
                    lo, hi = membership.degree_bounds(ScoreBounds.of_columns(part), phrase)
                    exact = np.asarray(membership.degrees_columnar(part, phrase))
                    assert np.all(lo <= exact) and np.all(exact <= hi), (
                        attribute,
                        start,
                        phrase,
                    )

    @pytest.mark.parametrize("fixture_name", ["hotel_database", "restaurant_database"])
    def test_marker_major_mass_bounds_match_the_row_major_formula(
        self, request, fixture_name
    ):
        """The marker-major envelope is the row-major one up to summation order."""
        database = request.getfixturevalue(fixture_name)
        embedder = database.phrase_embedder
        deviating = checked = 0
        for attribute, store, _columns, phrases in _envelope_cases(database):
            bounds = store.score_bounds(attribute)
            deviating += int(np.count_nonzero(bounds.deviations))
            for phrase in phrases:
                vector = embedder.represent(phrase)
                if not np.linalg.norm(vector):
                    continue
                got = similarity_mass_bounds(bounds, vector)
                want = _row_major_mass_bounds(bounds, vector)
                for mine, theirs in zip(got, want):
                    assert np.abs(mine - theirs).max() <= 1e-12, (attribute, phrase)
                checked += 1
        assert checked > 0
        assert deviating > 0  # real centroids: the bound arithmetic is exercised

    def test_a_polar_envelope_equals_the_recomputed_one(self, hotel_database, monkeypatch):
        """A polar phrase reads the aligned mass of its sign from the bounds,
        bit for bit what recomputing it from the columns gives."""
        membership = HeuristicMembership(embedder=hotel_database.phrase_embedder)
        polar = ["really clean rooms", "terrible dirty rooms", "friendly staff"]
        cases = list(_envelope_cases(hotel_database))
        kept = {
            (attribute, phrase): membership.degree_bounds(store.score_bounds(attribute), phrase)
            for attribute, store, _columns, _phrases in cases
            for phrase in polar
        }
        monkeypatch.setattr(
            ScoreBounds,
            "aligned_mass",
            lambda bounds, polarity: columnar.aligned_mass(bounds.columns, polarity),
        )
        for attribute, store, columns, _phrases in cases:
            bounds = store.score_bounds(attribute)
            for sign in (1.0, -1.0):
                assert np.array_equal(
                    columnar.aligned_mass(columns, sign),
                    bounds.aligned_positive if sign > 0 else bounds.aligned_negative,
                )
            for phrase in polar:
                recomputed = membership.degree_bounds(bounds, phrase)
                for mine, theirs in zip(kept[(attribute, phrase)], recomputed):
                    assert np.array_equal(mine, theirs), (attribute, phrase)


    def test_one_pair_scan_bounds_fold_like_the_exact_score(self):
        """A one-pair predicate's exact degree is its combinator applied to the
        pair — under the product logic ``1 - (1 - v)``, which may round an ulp
        away from ``v`` — and the scan bounds fold the same way, so where an
        envelope collapses onto the degree the bounds still bracket the exact
        score with no margin."""
        database = build_synthetic_columnar_database(num_entities=200, seed=17)
        processor = SubjectiveQueryProcessor(database, logic=ProductLogic())
        engine = ShardedSubjectiveQueryEngine(processor=processor, num_shards=2)
        store = engine.processor.columnar_store
        for index in range(32):
            sql = f'select * from Entities where "word{index:03d}" limit 1'
            plan = engine.plan(sql)
            candidates = engine._candidate_rows(plan)
            degrees = {
                text: engine._interpretation_degree_vector(candidates.unique_ids, interpretation)
                for text, interpretation in plan.interpretations.items()
            }
            exact = fuzzy_score_arrays(
                plan.statement.where, candidates.rows, degrees, processor.logic
            )
            hi, lo = engine._scan_bounds(plan, candidates, store)
            assert np.all(lo <= exact) and np.all(exact <= hi), sql

    def test_score_bounds_slices_match_whole(self, synthetic_database):
        """Sliced bound summaries equal slices of the whole-column summary."""
        store = ColumnarSummaryStore(synthetic_database)
        whole = store.score_bounds("quality")
        part = store.score_bounds("quality", 10, 60)
        assert part.num_entities == 50
        # The per-marker matrices are marker-major: rows slice along axis 1.
        assert part.deviations.shape == (len(whole.columns.markers), 50)
        assert np.array_equal(part.deviations, whole.deviations[:, 10:60])
        assert np.array_equal(part.fractions_mt, whole.fractions_mt[:, 10:60])
        assert np.array_equal(part.fraction_peaks, whole.fraction_peaks[10:60])
        assert np.array_equal(part.aligned_negative, whole.aligned_negative[10:60])
