"""Property-based tests (hypothesis) for core invariants.

Covers the algebraic laws of the fuzzy-logic variants, the mass-conservation
invariants of marker summaries, BM25 non-negativity and self-retrieval, the
tokenizer's idempotence, NDCG bounds, the SQL builder/parser round trip, and
the sharded serving engine's partition/merge invariants (every row covered
exactly once; per-shard top-k merge equal to global-sort top-k under ties),
and the pruned scan's bound and top-k on random WHERE shapes.
"""

from __future__ import annotations

import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.columnar import PRUNE_MARGIN
from repro.core.fuzzy import ProductLogic, ZadehLogic
from repro.engine.expressions import (
    AndExpression,
    NotExpression,
    OrExpression,
    SubjectivePredicate,
)
from repro.serving.sharded import (
    PrunedPredicate,
    TopKThreshold,
    fold_scan_bound,
    fuzzy_bound_arrays,
    fuzzy_score_arrays,
    merge_shard_topk,
    partition_bounds,
    rank_pruned_chunks,
    scan_order_head,
    scan_order_rest,
)
from repro.core.markers import Marker, MarkerSummary
from repro.core.query import SubjectiveQueryBuilder
from repro.engine.sqlparser import parse_query
from repro.ml.metrics import dcg, extract_spans, ndcg_at_k
from repro.text.bm25 import Bm25Index
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocabulary

degrees = st.floats(min_value=0.0, max_value=1.0)
degree_lists = st.lists(degrees, min_size=1, max_size=6)
words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
texts = st.lists(words, min_size=1, max_size=12).map(" ".join)


class TestFuzzyLogicLaws:
    @given(degree_lists)
    def test_product_conjunction_bounded_by_min(self, values):
        assert ProductLogic().conjunction(values) <= min(values) + 1e-12

    @given(degree_lists)
    def test_product_disjunction_at_least_max(self, values):
        assert ProductLogic().disjunction(values) >= max(values) - 1e-12

    @given(degree_lists)
    def test_results_stay_in_unit_interval(self, values):
        for logic in (ProductLogic(), ZadehLogic()):
            assert 0.0 <= logic.conjunction(values) <= 1.0
            assert 0.0 <= logic.disjunction(values) <= 1.0

    @given(degrees)
    def test_double_negation(self, value):
        for logic in (ProductLogic(), ZadehLogic()):
            assert abs(logic.negation(logic.negation(value)) - value) < 1e-9

    @given(degrees, degrees)
    def test_de_morgan_product(self, a, b):
        logic = ProductLogic()
        left = logic.disjunction([a, b])
        right = logic.negation(logic.conjunction([logic.negation(a), logic.negation(b)]))
        assert abs(left - right) < 1e-9

    @given(degrees, degrees, degrees)
    def test_zadeh_conjunction_associative(self, a, b, c):
        logic = ZadehLogic()
        assert logic.conjunction([logic.conjunction([a, b]), c]) == \
            logic.conjunction([a, logic.conjunction([b, c])])

    @given(degree_lists)
    def test_zadeh_tighter_than_product_on_conjunction(self, values):
        assert ProductLogic().conjunction(values) <= ZadehLogic().conjunction(values) + 1e-12


class TestMarkerSummaryInvariants:
    contributions = st.lists(
        st.tuples(st.sampled_from(["good", "ok", "bad"]),
                  st.floats(min_value=0.0, max_value=5.0),
                  st.floats(min_value=-1.0, max_value=1.0)),
        min_size=0, max_size=30,
    )

    def make_summary(self):
        return MarkerSummary(
            "attr", [Marker("good", 0, 0.8), Marker("ok", 1, 0.0), Marker("bad", 2, -0.8)]
        )

    @given(contributions)
    def test_total_equals_sum_of_counts(self, rows):
        summary = self.make_summary()
        for marker, weight, sentiment in rows:
            summary.add_phrase({marker: weight}, sentiment=sentiment)
        assert abs(summary.total() - sum(summary.counts().values())) < 1e-9

    @given(contributions)
    def test_fractions_sum_to_one_or_zero(self, rows):
        summary = self.make_summary()
        for marker, weight, sentiment in rows:
            summary.add_phrase({marker: weight}, sentiment=sentiment)
        total_fraction = sum(summary.fractions().values())
        assert abs(total_fraction - (1.0 if summary.total() > 0 else 0.0)) < 1e-9

    @given(contributions)
    def test_overall_sentiment_bounded(self, rows):
        summary = self.make_summary()
        for marker, weight, sentiment in rows:
            summary.add_phrase({marker: weight}, sentiment=sentiment)
        assert -1.0 - 1e-9 <= summary.overall_sentiment() <= 1.0 + 1e-9

    @given(contributions, contributions)
    def test_merge_adds_masses(self, first_rows, second_rows):
        first, second = self.make_summary(), self.make_summary()
        for marker, weight, sentiment in first_rows:
            first.add_phrase({marker: weight}, sentiment=sentiment)
        for marker, weight, sentiment in second_rows:
            second.add_phrase({marker: weight}, sentiment=sentiment)
        expected = first.total() + second.total()
        first.merge(second)
        assert abs(first.total() - expected) < 1e-9


class TestTextInvariants:
    @given(texts)
    def test_tokenize_idempotent(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(texts)
    def test_tokens_are_lowercase(self, text):
        assert all(token == token.lower() for token in tokenize(text))

    @given(st.lists(texts, min_size=1, max_size=8))
    def test_vocabulary_counts_match_corpus(self, documents):
        vocabulary = Vocabulary(min_count=1)
        tokenised = [tokenize(document) for document in documents]
        vocabulary.add_corpus(tokenised)
        vocabulary.build()
        assert vocabulary.total_count() == sum(len(tokens) for tokens in tokenised)

    @given(st.lists(texts, min_size=1, max_size=8), texts)
    @settings(max_examples=30)
    def test_bm25_scores_nonnegative(self, documents, query):
        index = Bm25Index()
        for doc_id, document in enumerate(documents):
            index.add_document(doc_id, document)
        for hit in index.search(query, top_k=10):
            assert hit.score >= 0.0

    @given(st.lists(texts, min_size=2, max_size=6))
    @settings(max_examples=30)
    def test_bm25_document_scores_itself_positively(self, documents):
        index = Bm25Index(drop_stopwords=False)
        for doc_id, document in enumerate(documents):
            index.add_document(doc_id, document)
        if tokenize(documents[0]):
            assert index.score(0, documents[0]) >= 0.0


class TestMetricInvariants:
    gains = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10)

    @given(gains)
    def test_dcg_nonnegative(self, values):
        assert dcg(values) >= 0.0

    @given(gains)
    def test_ndcg_bounded(self, values):
        ideal = sorted(values, reverse=True)
        score = ndcg_at_k(values, ideal, k=len(values))
        assert 0.0 <= score <= 1.0 + 1e-9

    @given(gains)
    def test_ideal_ordering_achieves_one(self, values):
        ordered = sorted(values, reverse=True)
        if sum(ordered) == 0:
            return
        assert abs(ndcg_at_k(ordered, ordered, k=len(ordered)) - 1.0) < 1e-9

    @given(st.lists(st.sampled_from(["O", "AS", "OP"]), min_size=0, max_size=20))
    def test_extracted_spans_are_disjoint_and_typed(self, tags):
        spans = extract_spans(tags)
        for start, end, label in spans:
            assert 0 <= start < end <= len(tags)
            assert all(tags[i] == label for i in range(start, end))
        ordered = sorted(spans)
        for (s1, e1, _l1), (s2, _e2, _l2) in zip(ordered, ordered[1:]):
            assert e1 <= s2


class TestQueryBuilderRoundTrip:
    predicate_texts = st.lists(
        st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=20)
        .filter(lambda s: s.strip()),
        min_size=1, max_size=5,
    )

    @given(predicate_texts, st.integers(min_value=1, max_value=50))
    @settings(max_examples=50)
    def test_subjective_predicates_round_trip(self, predicates, limit):
        builder = SubjectiveQueryBuilder("Entities")
        for predicate in predicates:
            builder.where_subjective(predicate)
        builder.limit(limit)
        statement = parse_query(builder.to_sql())
        parsed = statement.subjective_predicates()
        assert [" ".join(p.split()) for p in parsed] == \
            [" ".join(p.split()) for p in predicates]
        assert statement.limit == limit

    @given(st.floats(min_value=0, max_value=1000),
           st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    @settings(max_examples=50)
    def test_numeric_conditions_round_trip(self, value, operator):
        sql = SubjectiveQueryBuilder("T").where_compare("price", operator, round(value, 2)).to_sql()
        statement = parse_query(sql)
        assert statement.where.operator == operator


class TestShardPartitioning:
    """Invariants of the sharded engine's one partitioning rule."""

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=12))
    def test_partition_covers_every_row_exactly_once(self, num_rows, num_shards):
        bounds = partition_bounds(num_rows, num_shards)
        assert len(bounds) == num_shards + 1
        assert bounds[0] == 0 and bounds[-1] == num_rows
        # Contiguous, disjoint, exhaustive and in row order: concatenating
        # the slices reproduces range(num_rows) exactly.
        covered = [row for start, stop in zip(bounds, bounds[1:]) for row in range(start, stop)]
        assert covered == list(range(num_rows))
        # Balanced: slice sizes differ by at most one.
        sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
    def test_slice_views_agree_with_partition(self, num_rows, num_shards):
        bounds = partition_bounds(num_rows, num_shards)
        # Empty shards are kept, never dropped, so shard indexes are stable.
        assert len(bounds) - 1 == num_shards


class TestShardTopkMerge:
    """Merging per-shard top-k heaps equals global-sort top-k, ties included."""

    # Scores drawn from a tiny pool so ties are common; entity ids from a
    # tiny alphabet so duplicate ids (join fan-out) occur too.
    cases = st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
            st.text(alphabet="abc", min_size=1, max_size=2),
        ),
        min_size=0,
        max_size=40,
    )

    @given(cases, st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=45))
    def test_merge_equals_stable_global_sort(self, rows, num_shards, limit):
        scores = np.array([score for score, _ in rows], dtype=float)
        entities = [entity for _, entity in rows]
        expected = sorted(
            range(len(rows)), key=lambda i: (-scores[i], str(entities[i]))
        )[:limit]
        assert merge_shard_topk(scores, entities, num_shards, limit) == expected

    @given(cases)
    def test_zero_or_negative_limit_is_empty(self, rows):
        scores = np.array([score for score, _ in rows], dtype=float)
        entities = [entity for _, entity in rows]
        assert merge_shard_topk(scores, entities, 3, 0) == []
        assert merge_shard_topk(scores, entities, 3, -1) == []


class TestBoundIntervalContainment:
    """``fuzzy_bound_arrays`` envelopes always bracket the exact score.

    This is the soundness contract the pruned top-k path rests on: for any
    WHERE tree of subjective predicates and any per-predicate ``[lo, hi]``
    interval containing the exact degree, the folded envelope contains the
    exact ``fuzzy_score_arrays`` value — with or without the AND
    short-circuit — and degenerate ``[d, d]`` intervals collapse to the
    exact score bit for bit.
    """

    predicate_names = ("p0", "p1", "p2", "p3")

    trees = st.recursive(
        st.sampled_from(predicate_names).map(SubjectivePredicate),
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: AndExpression(tuple(ops))
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: OrExpression(tuple(ops))
            ),
            children.map(NotExpression),
        ),
        max_leaves=6,
    )

    def _draw_vectors(self, data, num_rows):
        pads = st.floats(min_value=0.0, max_value=0.5)
        exact = {}
        bounds = {}
        for name in self.predicate_names:
            values = np.array(
                data.draw(st.lists(degrees, min_size=num_rows, max_size=num_rows))
            )
            lo_pad = np.array(
                data.draw(st.lists(pads, min_size=num_rows, max_size=num_rows))
            )
            hi_pad = np.array(
                data.draw(st.lists(pads, min_size=num_rows, max_size=num_rows))
            )
            exact[name] = values
            bounds[name] = (
                np.clip(values - lo_pad, 0.0, 1.0),
                np.clip(values + hi_pad, 0.0, 1.0),
            )
        return exact, bounds

    @given(trees, st.data())
    @settings(max_examples=60, deadline=None)
    def test_envelope_contains_exact_score(self, tree, data):
        num_rows = data.draw(st.integers(min_value=1, max_value=5))
        rows = [{} for _ in range(num_rows)]
        exact, bounds = self._draw_vectors(data, num_rows)
        prune_below = data.draw(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))
        )
        for logic in (ProductLogic(), ZadehLogic()):
            envelope = fuzzy_bound_arrays(
                tree, rows, bounds, logic, prune_below=prune_below
            )
            score = fuzzy_score_arrays(tree, rows, exact, logic)
            assert envelope is not None and score is not None
            lo, hi = envelope
            assert np.all(lo <= score + 1e-12)
            assert np.all(score <= hi + 1e-12)

    @given(trees, st.data())
    @settings(max_examples=60, deadline=None)
    def test_degenerate_intervals_collapse_bitwise(self, tree, data):
        """Exact ``[d, d]`` inputs make the envelope the exact score, == not ≈."""
        num_rows = data.draw(st.integers(min_value=1, max_value=5))
        rows = [{} for _ in range(num_rows)]
        exact = {
            name: np.array(
                data.draw(st.lists(degrees, min_size=num_rows, max_size=num_rows))
            )
            for name in self.predicate_names
        }
        point_bounds = {
            name: (values, values.copy()) for name, values in exact.items()
        }
        for logic in (ProductLogic(), ZadehLogic()):
            lo, hi = fuzzy_bound_arrays(tree, rows, point_bounds, logic)
            score = fuzzy_score_arrays(tree, rows, exact, logic)
            assert np.array_equal(hi, score)
            assert np.array_equal(lo, score)


class TestScanBoundOnRandomTrees:
    """The pruned scan is sound for *any* WHERE shape.

    For random trees over real predicates and objective leaves, the scan's
    ordering bound (the whole tree folded over the store's envelopes, before
    any kernel runs; present for every tree, since every predicate here has
    an envelope) is at least the exact score on every candidate row — NOT
    must swap the ends and every ``hi`` must be a ``hi`` —, its ``lo`` fold
    (the floor's seed) at most the exact score up to the floor's margin,
    and the pruned top-k equals
    :func:`merge_shard_topk` over the exact scores — ties included (min/max
    logic and crisp leaves under OR both produce them).
    """

    leaves = st.sampled_from(
        ['"word001"', '"word004"', '"word018"', '"word027"', "price < 120", "city = 'rome'"]
    )
    trees = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: "(" + " and ".join(ops) + ")"
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: "(" + " or ".join(ops) + ")"
            ),
            children.map(lambda op: f"(not {op})"),
        ),
        max_leaves=5,
    )

    @pytest.fixture(scope="class")
    def engines(self):
        from repro.core import SubjectiveQueryProcessor
        from repro.serving import ShardedSubjectiveQueryEngine
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=200, seed=17)
        return [
            ShardedSubjectiveQueryEngine(
                processor=SubjectiveQueryProcessor(database, logic=logic), num_shards=2
            )
            for logic in (ProductLogic(), ZadehLogic())
        ]

    @given(trees, st.integers(min_value=1, max_value=7))
    @settings(max_examples=100, deadline=None)  # ~half the trees keep > limit candidates
    def test_bound_dominates_exact_score_and_topk_matches_merge(self, engines, tree, limit):
        sql = f"select * from Entities where {tree} limit {limit}"
        for engine in engines:
            plan = engine.plan(sql)
            candidates = engine._candidate_rows(plan)
            if not plan.interpretations or len(candidates.rows) <= limit:
                continue  # nothing subjective to bound, or nothing to prune
            engine.membership_cache.clear()  # the pruned scan starts cold
            served = engine.execute(sql)
            exact = {
                predicate: engine._interpretation_degree_vector(
                    candidates.unique_ids, interpretation
                )
                for predicate, interpretation in plan.interpretations.items()
            }
            scores = fuzzy_score_arrays(
                plan.statement.where, candidates.rows, exact, engine.processor.logic
            )
            store = engine.sharded_store
            assert all(
                store.degree_envelope(
                    engine.processor.membership,
                    pair.attribute,
                    engine.processor.phrase_for_pair(interpretation, pair.marker),
                )
                is not None
                for interpretation in plan.interpretations.values()
                for pair in interpretation.pairs
            )
            bounds = engine._scan_bounds(plan, candidates, store)
            assert bounds is not None
            hi, lo = bounds
            assert np.all(hi >= scores)
            # ``lo`` seeds the scan's floor less PRUNE_MARGIN: where an
            # envelope collapses to the exact degree, a row gather's kernel
            # may round an ulp below the whole-store one.
            assert np.all(lo - PRUNE_MARGIN <= scores)
            expected = merge_shard_topk(scores, candidates.row_entities, 2, limit)
            assert served.entity_ids == [candidates.row_entities[i] for i in expected]
            assert [entity.score for entity in served] == [float(scores[i]) for i in expected]


class TestGeneratedWhereTreeDifferential:
    """Generated WHERE trees answer like a fresh processor on every engine.

    Hypothesis draws nested AND / OR / NOT trees over four phrases (two per
    attribute) and ``price`` / ``city`` leaves, with a limit of 1, 3 or more
    than the entity count.  Each tree runs, under both logics, on the
    in-process sharded engine at 1 and 4 shards with pruning on and off,
    and on 2-node clusters of in-process nodes, with and without
    replication; every answer must equal a fresh processor's bit for bit,
    and a fleet must have ranked every prunable query on its nodes.  The
    pruned engines scan in 8-row first chunks, so the 120-entity fixture
    exercises the scan order and its early stop, not just one chunk.
    """

    NUM_ENTITIES = 120
    leaves = st.sampled_from(
        [
            '"word001"',
            '"word004"',
            '"word018"',
            '"word027"',
            "price < 90",
            "price < 140",
            "city = 'rome'",
            "city = 'paris'",
        ]
    )
    trees = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: "(" + " and ".join(ops) + ")"
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: "(" + " or ".join(ops) + ")"
            ),
            children.map(lambda op: f"(not {op})"),
        ),
        max_leaves=6,
    )
    limits = st.sampled_from([1, 3, NUM_ENTITIES + 5])

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.core import SubjectiveQueryProcessor
        from repro.serving import (
            ClusterQueryEngine,
            ShardedSubjectiveQueryEngine,
            start_local_node,
        )
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=self.NUM_ENTITIES, seed=41)
        engines, servers, fleets = [], [], {}
        for logic in (ProductLogic(), ZadehLogic()):
            for num_shards in (1, 4):
                for prune_topk in (True, False):
                    engines.append(
                        ShardedSubjectiveQueryEngine(
                            processor=SubjectiveQueryProcessor(database, logic=logic),
                            num_shards=num_shards,
                            prune_topk=prune_topk,
                        )
                    )
            for replication in (1, 2):
                processor = SubjectiveQueryProcessor(database, logic=logic)
                nodes = [
                    start_local_node(processor.membership, node_id=index)[0]
                    for index in range(2)
                ]
                servers.extend(nodes)
                engines.append(
                    ClusterQueryEngine(
                        processor=processor,
                        addresses=[server.address for server in nodes],
                        num_shards=4,
                        replication=replication,
                    )
                )
                fleets[id(engines[-1])] = nodes
        for engine in engines:
            engine.prune_chunk_size = 8
        yield database, engines, fleets
        for engine in engines:
            engine.close()
        for server in servers:
            server.stop()

    @pytest.mark.timeout(300)
    @given(trees, limits)
    @settings(max_examples=40, deadline=None)
    def test_every_engine_answers_like_a_fresh_processor(self, fleet, tree, limit):
        from repro.core import SubjectiveQueryProcessor
        from repro.testing import assert_identical_results

        database, engines, fleets = fleet
        sql = f"select * from Entities where {tree} limit {limit}"
        expected = {
            logic.name: SubjectiveQueryProcessor(database, logic=logic).execute(sql)
            for logic in (ProductLogic(), ZadehLogic())
        }
        for engine in engines:
            engine.membership_cache.clear()  # the pruned scan starts cold
            logic = engine.processor.logic
            context = (
                f"{type(engine).__name__} {logic.name} shards={engine.num_shards} "
                f"prune={engine.prune_topk} {sql!r}"
            )
            nodes = fleets.get(id(engine), [])
            ranked = sum(node.rank_requests for node in nodes)
            assert_identical_results(expected[logic.name], engine.execute(sql), context)
            ranked = sum(node.rank_requests for node in nodes) - ranked
            plan = engine.plan(sql)
            if nodes and plan.interpretations:
                prunable = len(engine._candidate_rows(plan).row_entities) > limit
                assert (ranked > 0) == prunable, context  # the leg is not vacuous


class TestDegreeColumnCacheAgainstDictModel:
    """Any interleaving of store / lookup / peek / clear equals a plain dict model.

    The model is an ``OrderedDict`` of ``column key → {row: value}`` with
    the same capacity rule (``max(1, maxsize // N)`` columns, least recently
    used first out), so after every operation: a degree reported known is
    the last value stored for that row and key, a row never stored is never
    known, the allocated slots stay within ``max(maxsize, N)``, ``hits +
    misses`` is the number of rows looked up, and ``evictions`` is the known
    degrees of exactly the columns dropped — in total and per partition.
    The per-degree batch forms (``put_many`` / ``get_many`` / ``peek_many``)
    are drawn in place of ``store`` / ``lookup`` / ``peek`` at random.
    """

    KEYS = [("quality", "a"), ("quality", "b"), ("service", "a"), (None, "free text")]

    @staticmethod
    def operations(num_rows: int):
        rows = st.lists(st.integers(0, num_rows - 1), unique=True, max_size=num_rows)
        key = st.integers(0, len(TestDegreeColumnCacheAgainstDictModel.KEYS) - 1)
        return st.lists(
            st.one_of(
                st.tuples(st.just("store"), key, rows, st.floats(0.0, 1.0), st.booleans()),
                st.tuples(st.just("lookup"), key, rows, st.booleans()),
                st.tuples(st.just("peek"), key, rows),
                st.tuples(st.just("clear")),
            ),
            max_size=40,
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cache_equals_model(self, data):
        from collections import OrderedDict

        from repro.serving.cache import DegreeColumnCache
        from repro.serving.sharded import partition_bounds

        num_rows = data.draw(st.integers(1, 9))
        maxsize = data.draw(st.one_of(st.none(), st.integers(1, 4 * num_rows)))
        num_partitions = data.draw(st.integers(1, 3))
        entity_ids = [f"e{row}" for row in range(num_rows)]
        cache = DegreeColumnCache(
            maxsize,
            entity_ids,
            partitioner=(
                None
                if num_partitions == 1
                else lambda count: partition_bounds(count, num_partitions)
            ),
        )
        most = None if maxsize is None else max(1, maxsize // num_rows)
        model: OrderedDict[tuple, dict[int, float]] = OrderedDict()
        looked_up = evicted = 0
        for operation in data.draw(self.operations(num_rows)):
            if operation[0] == "clear":
                cache.clear()
                model.clear()
                continue
            key = self.KEYS[operation[1]]
            if operation[0] == "store":
                _, _, rows, base, by_ids = operation
                values = [base / (1 + row) for row in rows]
                if by_ids:
                    cache.put_many([((entity_ids[row], *key), v) for row, v in zip(rows, values)])
                else:
                    cache.store(key, np.asarray(rows, dtype=np.intp), np.asarray(values))
                if rows:
                    if key not in model:
                        while most is not None and len(model) >= most:
                            evicted += len(model.popitem(last=False)[1])
                        model[key] = {}
                    model.move_to_end(key)
                    model[key].update(zip(rows, values))
            elif operation[0] == "lookup":
                _, _, rows, by_ids = operation
                column = model.get(key, {})
                if key in model and (rows or not by_ids):  # no key names no column
                    model.move_to_end(key)
                looked_up += len(rows)
                if by_ids:
                    degrees = cache.get_many([(entity_ids[row], *key) for row in rows], "absent")
                    assert degrees == [column.get(row, "absent") for row in rows]
                else:
                    values, known = cache.lookup(key, np.asarray(rows, dtype=np.intp))
                    assert known.tolist() == [row in column for row in rows]
                    assert values.tolist() == [column.get(row, 0.0) for row in rows]
            else:
                rows = operation[2]
                column = model.get(key, {})
                for row in rows:
                    assert cache.peek((entity_ids[row], *key)) == column.get(row)
                degrees = cache.peek_many([(entity_ids[row], *key) for row in rows], "absent")
                assert degrees == [column.get(row, "absent") for row in rows]
            stats = cache.stats
            assert stats.hits + stats.misses == looked_up
            assert stats.evictions == evicted
            assert cache.allocated_slots <= max(maxsize or 0, num_rows) or maxsize is None
            assert len(cache) == sum(len(column) for column in model.values())
            assert list(cache.keys()) == [
                (entity_ids[row], *column_key)
                for column_key, column in model.items()
                for row in sorted(column)
            ]
            partitions = cache.partition_stats()
            assert len(partitions) == num_partitions
            for field, total in (
                ("entries", len(cache)),
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("evictions", stats.evictions),
            ):
                assert sum(partition[field] for partition in partitions) == total

    def test_an_unlisted_entity_is_appended_to_the_index(self):
        from repro.serving.cache import DegreeColumnCache

        cache = DegreeColumnCache(8, ["a", "b"])
        index = cache.row_index
        cache.store(("q", "x"), cache.rows_of(["a"]), [0.5])
        rows = cache.rows_of(["b", "stranger", "a", "stranger"])
        assert rows.tolist() == [1, 2, 0, 2]
        assert cache.row_index is index and cache.num_rows == 3
        assert len(cache) == 0  # columns are as long as the index: dropped
        cache.store(("q", "x"), rows[:2], [0.25, 0.75])
        assert cache.peek(("stranger", "q", "x")) == 0.75
        assert cache.ids_of(rows) == ["b", "stranger", "a", "stranger"]


class TestMembershipColumnsHoldExactDegreesOnly:
    """On the 1600-entity fixture, whatever mix of pruned queries ran.

    Every known degree of every column equals
    ``ColumnarSummaryStore.pair_degrees`` for that entity — a pruned row's
    upper bound is never stored — and an answer served from warm columns is
    bit-identical to the cold answer, through ``execute`` and ``run_batch``
    alike, on the serial-sharded and cluster engines.
    """

    words = st.sampled_from(["word001", "word004", "word005", "word017", "word020", "word021"])
    shapes = st.sampled_from(
        [
            '"{a}" and "{b}"',
            '"{a}" or "{b}"',
            'not "{a}" or "{b}"',
            "city = 'london' and \"{a}\"",
            'price < 60 or "{a}"',
            '"{a}" and ("{b}" or "{a}")',
        ]
    )
    queries = st.builds(
        lambda shape, a, b, limit: (
            f"select * from Entities where {shape.format(a=a, b=b)} limit {limit}"
        ),
        shapes,
        words,
        words,
        st.integers(3, 7),
    )

    @pytest.fixture(scope="class")
    def database(self):
        from repro.testing import build_synthetic_columnar_database

        return build_synthetic_columnar_database(num_entities=1600, seed=11)

    @pytest.fixture(scope="class")
    def engines(self, database):
        from repro.serving import ClusterQueryEngine, ShardedSubjectiveQueryEngine

        engines = [
            ShardedSubjectiveQueryEngine(database=database, num_shards=2),
            ClusterQueryEngine(database=database, num_nodes=2),
        ]
        yield engines
        for engine in engines:
            engine.close()

    @staticmethod
    def _answer(result):
        return [
            (entity.entity_id, entity.score, entity.predicate_degrees, entity.row)
            for entity in result.entities
        ]

    @given(st.lists(queries, min_size=1, max_size=4))
    @settings(max_examples=12, deadline=None)
    def test_known_degrees_are_exact_and_warm_equals_cold(self, database, engines, sqls):
        from repro.core.columnar import ColumnarSummaryStore
        from repro.serving import ClusterQueryEngine

        exact_store = ColumnarSummaryStore(database)
        # A selective conjunction first, so every mix prunes at least once.
        sqls = ['select * from Entities where "word001" and "word002" limit 4', *sqls]
        for engine in engines:
            cache = engine.membership_cache
            cache.clear()
            pruned_before = engine.entities_pruned
            cold = [self._answer(engine.execute(sql)) for sql in sqls]
            assert engine.entities_pruned > pruned_before  # bounds were returned ...
            all_rows = np.arange(cache.num_rows)
            columns = {(attribute, phrase) for _entity, attribute, phrase in cache.keys()}
            # A fleet ranks pruned queries on its nodes and caches no degree here.
            assert not columns if isinstance(engine, ClusterQueryEngine) else columns
            for attribute, phrase in columns:  # ... and none of them was stored
                known = np.flatnonzero(cache.lookup((attribute, phrase), all_rows)[1])
                values, _ = cache.lookup((attribute, phrase), known)
                assert values.tolist() == exact_store.pair_degrees(
                    engine.processor.membership, cache.ids_of(known), attribute, phrase
                )
            warm = [self._answer(engine.execute(sql)) for sql in sqls]
            assert warm == cold
            batch = engine.run_batch(sqls + sqls)
            assert [self._answer(result) for result in batch.results] == cold + cold

    @given(words, st.floats(0.05, 0.95))
    @settings(max_examples=12, deadline=None)
    def test_a_returned_bound_is_never_written(self, database, engines, word, quantile):
        """The engine's bounded fetch.  A fleet has none — its nodes fetch
        (``test_serving_service``: a pruned rank row is never memoised)."""
        from repro.core.columnar import ColumnarSummaryStore

        key = ("quality", word)
        for engine in engines[:1]:
            cache = engine.membership_cache
            cache.clear()
            rows = np.arange(cache.num_rows)
            full = np.asarray(
                ColumnarSummaryStore(database).pair_degrees(
                    engine.processor.membership, cache.ids_of(rows), *key
                )
            )
            threshold = float(np.quantile(full, quantile))
            values, exact = engine._bounded_cached_pair_degrees(rows, *key, threshold)
            assert not exact.all()  # some rows came back as bounds ...
            assert np.array_equal(values[exact], full[exact])
            assert np.all(values[~exact] >= full[~exact])
            assert np.array_equal(cache.lookup(key, rows)[1], exact)  # ... and stayed unknown
            # With no threshold the same rows are scored, not served the bound.
            values, exact = engine._bounded_cached_pair_degrees(rows, *key, 0.0)
            assert exact.all() and np.array_equal(values, full)
            assert cache.lookup(key, rows)[1].all()


class TestTopKThresholdHeap:
    """The incremental threshold heap equals the batch top-k merge, ties included."""

    cases = st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
            st.text(alphabet="abc", min_size=1, max_size=2),
        ),
        min_size=0,
        max_size=40,
    )

    @given(cases, st.integers(min_value=1, max_value=8))
    def test_incremental_selection_equals_merge(self, rows, limit):
        scores = np.array([score for score, _ in rows], dtype=float)
        entities = [entity for _, entity in rows]
        heap = TopKThreshold(limit)
        for index, (score, entity) in enumerate(rows):
            heap.offer(score, entity, index, index)
        assert heap.selected() == merge_shard_topk(scores, entities, 3, limit)

    @given(cases, st.integers(min_value=1, max_value=8))
    def test_threshold_is_monotone_and_is_kth_score(self, rows, limit):
        heap = TopKThreshold(limit)
        published = None
        for index, (score, entity) in enumerate(rows):
            heap.offer(score, entity, index, index)
            threshold = heap.threshold
            if published is not None:
                assert threshold is not None and threshold >= published
            published = threshold
        if len(rows) < limit:
            assert heap.threshold is None
        else:
            kth_index = heap.selected()[-1]
            assert heap.threshold == rows[kth_index][0]


#: Few distinct values, so bounds and degrees tie often.
_TIE_LEVELS = st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.8, 1.0])


class TestPrunedScanOrderAndFloor:
    """The partial-sort scan order and the lower-envelope floor change no answer.

    The head order is the stable descending order for tie-heavy bounds at
    every length around the head; and on random envelopes that bracket
    random exact degrees — exact ties at the k-th score included — the
    pruned scan keeps the same rows with the floor as without it, and
    scores no more of them.
    """

    LIMIT = 3
    HEAD = 8

    @given(
        st.sampled_from([0, 1, LIMIT, HEAD - 1, HEAD, HEAD + 1, 60]).flatmap(
            lambda total: st.lists(_TIE_LEVELS, min_size=total, max_size=total)
        )
    )
    def test_head_then_rest_is_the_stable_order(self, values):
        bound = np.array(values, dtype=float)
        head = scan_order_head(bound, self.HEAD)
        assert head.size == min(self.HEAD, bound.size)
        order = np.concatenate([head, scan_order_rest(bound, head)])
        assert np.array_equal(order, np.argsort(-bound, kind="stable"))

    # One row: two predicate degrees, each bracketed by a lower and an upper
    # slack (0 collapses that end onto the exact degree).
    slack = st.sampled_from([0.0, 0.0, 1e-6, 0.1, 0.3])
    rows = st.lists(
        st.tuples(_TIE_LEVELS, _TIE_LEVELS, slack, slack, slack, slack),
        min_size=1,
        max_size=40,
    )

    @given(
        rows,
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["and", "or", "single"]),
        st.sampled_from([ProductLogic(), ZadehLogic()]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_floor_keeps_the_answer_and_never_scores_more(
        self, rows, limit, shape, logic, rng
    ):
        exact = {
            "a": np.array([row[0] for row in rows]),
            "b": np.array([row[1] for row in rows]),
        }
        lower = {
            "a": np.clip(exact["a"] - [row[2] for row in rows], 0.0, 1.0),
            "b": np.clip(exact["b"] - [row[3] for row in rows], 0.0, 1.0),
        }
        upper = {
            "a": np.clip(exact["a"] + [row[4] for row in rows], 0.0, 1.0),
            "b": np.clip(exact["b"] + [row[5] for row in rows], 0.0, 1.0),
        }
        texts = ["a"] if shape == "single" else ["a", "b"]
        where = (
            SubjectivePredicate("a")
            if shape == "single"
            else (AndExpression if shape == "and" else OrExpression)(
                tuple(SubjectivePredicate(text) for text in texts)
            )
        )
        predicates = [
            PrunedPredicate(text, "or", shape != "or", (("x", text),)) for text in texts
        ]
        ids = [f"e{index % 7}" for index in range(len(rows))]
        rng.shuffle(ids)

        def run(with_floor: bool):
            scored = [0]

            def fetch(_attribute, phrase, indices, threshold):
                wanted = upper[phrase][indices] >= threshold
                scored[0] += int(np.count_nonzero(wanted))
                return (
                    np.where(wanted, exact[phrase][indices], upper[phrase][indices]),
                    wanted,
                )

            def pair_end(_attribute, phrase, is_upper):
                return (upper if is_upper else lower)[phrase]

            hi, lo = fold_scan_bound(where, logic, predicates, len(rows), pair_end, None)
            ranking = rank_pruned_chunks(
                where,
                logic,
                predicates,
                limit,
                (hi, lo if with_floor else np.zeros_like(lo)),
                fetch,
                None,
                ids,
                chunk_size=2,
                chunk_growth=2,
            )
            kept = [(row, score) for row, score, _vectors, _index in ranking.heap.selected()]
            return kept, scored[0]

        with_floor, scored_with = run(True)
        without_floor, scored_without = run(False)
        assert with_floor == without_floor
        assert scored_with <= scored_without
        scores = fuzzy_score_arrays(where, [{}] * len(rows), exact, logic)
        expected = merge_shard_topk(scores, ids, 1, limit)
        assert [row for row, _score in with_floor] == expected


class TestFuzzyArrayConnectives:
    """Array connectives are bit-identical to the scalar folds, element-wise.

    This is the exactness contract the sharded engine's vectorized WHERE
    scoring rests on: fold order and validation match the scalar forms, so
    == (not approx) must hold.
    """

    matrices = st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(
            st.lists(degrees, min_size=width, max_size=width), min_size=1, max_size=5
        )
    )

    @given(matrices)
    def test_arrays_equal_scalar_folds(self, rows):
        operands = [np.array(column) for column in zip(*rows)]
        for logic in (ProductLogic(), ZadehLogic()):
            conjunction = logic.conjunction_arrays(operands)
            disjunction = logic.disjunction_arrays(operands)
            for index, row in enumerate(rows):
                assert conjunction[index] == logic.conjunction(row)
                assert disjunction[index] == logic.disjunction(row)

    @given(st.lists(degrees, min_size=1, max_size=8))
    def test_negation_array_equals_scalar(self, values):
        logic = ProductLogic()
        negated = logic.negation_array(np.array(values))
        for index, value in enumerate(values):
            assert negated[index] == logic.negation(value)


class TestFrameCodecRoundTrip:
    """Frame codec properties: round trips are exact, damage is typed.

    The length-prefixed frame protocol (shared by the TCP cluster transport
    and the gateway through ``repro.serving.protocol``) must
    deliver arbitrary payload sequences byte-exactly, refuse oversized
    announcements before allocating, and raise a typed ``RpcError`` — never
    hang or resynchronise silently — on any truncation.
    """

    payloads = st.lists(st.binary(min_size=0, max_size=512), min_size=1, max_size=6)

    @given(payloads)
    @settings(max_examples=40, deadline=None)
    def test_frame_sequences_round_trip(self, frames):
        import socket as socket_module

        from repro.serving.protocol import recv_frame, send_frame

        left, right = socket_module.socketpair()
        try:
            for payload in frames:
                send_frame(left, payload, 1024)
            for payload in frames:
                assert recv_frame(right, 1024) == payload
            left.close()
            assert recv_frame(right, 1024) is None  # clean EOF
        finally:
            left.close()
            right.close()

    @given(st.binary(min_size=1, max_size=256), st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncation_is_typed_never_silent(self, payload, data):
        import socket as socket_module
        import struct as struct_module

        from repro.serving.protocol import RpcError, recv_frame

        wire = struct_module.pack("!I", len(payload)) + payload
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        left, right = socket_module.socketpair()
        try:
            left.sendall(wire[:cut])
            left.close()
            if cut == 0:
                assert recv_frame(right, 1024) is None
            else:
                with pytest.raises(RpcError):
                    recv_frame(right, 1024)
        finally:
            right.close()

    @given(st.text(min_size=1, max_size=32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reader_rejects_truncated_string_fields(self, text, data):
        from repro.serving.protocol import Reader, RpcError, pack_str

        packed = pack_str(text)
        cut = data.draw(st.integers(min_value=0, max_value=len(packed) - 1))
        with pytest.raises(RpcError):
            Reader(packed[:cut]).read_str()

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.text(min_size=0, max_size=32),
        st.text(min_size=0, max_size=32),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.one_of(st.none(), st.lists(st.integers(min_value=0, max_value=10_000), max_size=32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_request_fields_round_trip(self, slice_id, attribute, phrase, start, stop, rows):
        from repro.serving.protocol import OP_SCORE, Reader, encode_score_request

        reader = Reader(encode_score_request(slice_id, attribute, phrase, start, stop, rows))
        assert reader.read_u8() == OP_SCORE
        assert reader.read_u32() == slice_id
        assert reader.read_str() == attribute
        assert reader.read_str() == phrase
        assert reader.read_u32() == start
        assert reader.read_u32() == stop
        if rows is None:
            assert reader.read_u8() == 0
        else:
            assert reader.read_u8() == 1
            assert reader.read_u32_array(reader.read_u32()) == rows
        assert reader.remaining == 0

    @given(
        st.booleans(),
        st.one_of(st.none(), st.tuples(st.integers(1, 2**64 - 1), st.integers(1, 2**64 - 1))),
        st.binary(min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_after_a_request_are_refused(self, rank, trace, junk):
        """Both request decoders read every field and then demand the end."""
        from repro.serving.protocol import (
            TREE_PREDICATE,
            ProtocolError,
            Reader,
            ScoreRequest,
            encode_rank_request,
            encode_score_request,
            read_rank_request,
            read_score_request,
        )

        if rank:
            frame = encode_rank_request(
                3,
                "product",
                8,
                4,
                [("a", "and", True, (("room", "clean"),))],
                [(TREE_PREDICATE, 0)],
                [(0, 0, 9)],
                np.array([1, 4]),
                np.array([0, 1]),
                [],
                trace=trace,
            )
            read = read_rank_request
        else:
            fields = (7, "room", "clean", 2, 9, [0, 3])
            frame = encode_score_request(*fields, trace=trace)
            read = read_score_request
            assert read(Reader(frame[1:])) == ScoreRequest(*fields, trace)
        # After an explicit trace field — present, or the zero "absent"
        # marker — any further byte makes the frame malformed.
        closed = frame if trace is not None else frame + b"\x00"
        assert read(Reader(closed[1:])).trace == trace
        with pytest.raises(ProtocolError):
            read(Reader(closed[1:] + junk))

    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False, width=64), st.booleans()), max_size=40
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_response_round_trips_bit_exactly(self, rows, scored, pruned):
        """Values (bounds and degrees alike), mask and counters survive the wire."""
        from repro.serving.protocol import (
            STATUS_OK,
            Reader,
            encode_score_bounded_response,
            read_score_bounded_response,
        )

        values = np.array([value for value, _ in rows], dtype=np.float64)
        mask = np.array([exact for _, exact in rows], dtype=bool)
        reader = Reader(encode_score_bounded_response(values, mask, scored, pruned))
        assert reader.read_u8() == STATUS_OK
        got_values, got_mask, got_scored, got_pruned = read_score_bounded_response(reader)
        assert got_values.tobytes() == values.astype(np.float64).tobytes()
        assert got_mask.tolist() == mask.tolist()
        assert (got_scored, got_pruned, reader.remaining) == (scored, pruned, 0)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(4, 0)  # the retired v4: no longer negotiated, a typed refusal
    @settings(max_examples=40, deadline=None)
    def test_version_mismatch_hello_is_typed(self, skew, data_version):
        from repro.serving.protocol import (
            PROTOCOL_VERSION,
            HandshakeError,
            encode_hello_ack,
            read_hello_ack,
        )

        ack = encode_hello_ack(PROTOCOL_VERSION, data_version, [0, 1], local_store=True)
        assert read_hello_ack(ack) == (PROTOCOL_VERSION, data_version, [0, 1], True)
        if skew != PROTOCOL_VERSION:
            with pytest.raises(HandshakeError):
                read_hello_ack(encode_hello_ack(skew, data_version, []))
        # A truncated acknowledgement is typed too, never a hang.
        with pytest.raises(HandshakeError):
            read_hello_ack(ack[: len(ack) - 3])


#: The column arrays of a full snapshot, in image order.
SNAPSHOT_ARRAYS = (
    "marker_sentiments",
    "fractions",
    "average_sentiments",
    "totals",
    "unmatched",
    "overall_sentiments",
    "centroids_unit",
    "name_units",
)

#: Random snapshot shapes shared by the round-trip and delta properties.
SNAPSHOT_SHAPES = st.tuples(
    st.integers(min_value=0, max_value=7),   # entities
    st.integers(min_value=1, max_value=5),   # markers
    st.integers(min_value=0, max_value=6),   # embedding dimension
)
SNAPSHOT_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _random_snapshot(draw_shape, data):
    """One randomized ``ColumnSnapshot`` over drawn array contents."""
    from repro.core.columnar import AttributeColumns, ColumnSnapshot
    from repro.core.markers import Marker

    num_entities, num_markers, dimension = draw_shape

    def array(shape):
        count = int(np.prod(shape)) if shape else 1
        values = data.draw(
            st.lists(SNAPSHOT_FINITE, min_size=count, max_size=count)
        )
        return np.array(values, dtype=np.float64).reshape(shape)

    entity_ids = [f"e{index}" for index in range(num_entities)]
    columns = AttributeColumns(
        attribute="quality",
        entity_ids=entity_ids,
        markers=[Marker(f"m{index}", index, 0.1 * index) for index in range(num_markers)],
        marker_sentiments=array((num_markers,)),
        fractions=array((num_entities, num_markers)),
        average_sentiments=array((num_entities, num_markers)),
        totals=array((num_entities,)),
        unmatched=array((num_entities,)),
        overall_sentiments=array((num_entities,)),
        centroids_unit=array((num_entities, num_markers, dimension)),
        name_units=array((num_markers, dimension)),
    )
    version = data.draw(st.integers(min_value=0, max_value=2**63))
    return ColumnSnapshot.of_slice(columns, 3, 0, num_entities, version)


class TestRankFramesAgainstHostileBytes:
    """Truncated, bit-flipped and random ``rank`` frames, at the codec and the node.

    A request either decodes into a frame that satisfies every checked
    invariant or raises :class:`ProtocolError` — never a ``struct.error``
    or another untyped exception — and a node answers it, quickly, with a
    transported error or a well-formed top-k of the candidates it was sent,
    then keeps serving: the next valid frame gets the valid answer.  A
    mangled response raises :class:`ProtocolError` or decodes into a
    consistent reply; a truncated frame of either kind never decodes.
    """

    @pytest.fixture(scope="class")
    def node(self):
        from repro.core import SubjectiveQueryProcessor
        from repro.core.columnar import ColumnarSummaryStore, ColumnSnapshot
        from repro.serving import ShardService, partition_bounds
        from repro.serving.protocol import TREE_AND, TREE_CRISP, TREE_NOT, TREE_PREDICATE
        from repro.serving.protocol import encode_rank_request
        from repro.serving.service import HydratedSlices
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(
            num_entities=40, markers_per_attribute=4, dimension=8, seed=5
        )
        store = ColumnarSummaryStore(database)
        hydrated = HydratedSlices()
        bounds = partition_bounds(40, 2)
        slices = [
            (index, start, stop) for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        ]
        for attribute in ("quality", "service"):
            for slice_id, start, stop in slices:
                hydrated.install(
                    ColumnSnapshot.of_slice(
                        store.columns(attribute), slice_id, start, stop, database.data_version
                    )
                )
        service = ShardService(0, SubjectiveQueryProcessor(database).membership, hydrated)
        rows = np.arange(3, 40, 2)
        frame = encode_rank_request(
            3,
            "product",
            4,
            4,
            [
                ("a", "and", True, (("quality", "word001"),)),
                ("b", "or", False, (("service", "word005"), ("service", "word006"))),
            ],
            [(TREE_AND, 2), (TREE_PREDICATE, 0), (TREE_NOT, 0), (TREE_AND, 2),
             (TREE_PREDICATE, 1), (TREE_CRISP, 0)],
            slices,
            rows,
            rows * 2,
            [rows % 3 != 0],
        )
        answer = service.handle_frame(frame)[0]
        assert answer[0] == 0
        return service, frame, answer

    @staticmethod
    def _mangle(data, frame: bytes) -> tuple[str, bytes]:
        from repro.testing import corrupt_frame

        how = data.draw(st.sampled_from(["truncate", "flip", "random"]))
        if how == "truncate":
            return how, frame[: data.draw(st.integers(0, len(frame) - 1))]
        if how == "flip":
            position = data.draw(st.integers(0, len(frame) - 1))
            return how, corrupt_frame(frame, position, 1 << data.draw(st.integers(0, 7)))
        return how, frame[:1] + data.draw(st.binary(max_size=120))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_mangled_request_is_refused_or_served_and_the_node_lives(self, node, data):
        from repro.serving.protocol import (
            STATUS_ERROR,
            STATUS_OK,
            ProtocolError,
            Reader,
            read_rank_request,
            read_rank_response,
        )
        from repro.utils.timing import now

        service, frame, answer = node
        how, mangled = self._mangle(data, frame)
        try:
            request = read_rank_request(Reader(mangled[1:]))
        except ProtocolError:
            request = None
        if how == "truncate":
            assert request is None
        started = now()
        response, stop = service.handle_frame(mangled)
        assert now() - started < 5.0 and not stop
        assert response[0] in (STATUS_OK, STATUS_ERROR)
        if response[0] == STATUS_OK:
            assert mangled[0] == frame[0] and request is not None
            reply = read_rank_response(Reader(response[1:]))
            assert len(reply.positions) <= request.limit
            assert set(reply.positions.tolist()) <= set(request.positions.tolist())
            assert reply.degrees.shape == (len(reply.positions), len(request.predicates))
            assert np.all((reply.scores >= 0.0) & (reply.scores <= 1.0))
        # The node still serves: the valid frame gets the valid top-k (its
        # counters may differ — the node's memo is warm by now).
        again = read_rank_response(Reader(service.handle_frame(frame)[0][1:]))
        first = read_rank_response(Reader(answer[1:]))
        for field in ("positions", "scores", "degrees"):
            assert np.array_equal(getattr(again, field), getattr(first, field)), field

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_mangled_response_is_refused_or_consistent(self, node, data):
        from repro.serving.protocol import ProtocolError, Reader, read_rank_response

        _service, _frame, answer = node
        how, mangled = self._mangle(data, answer)
        try:
            reply = read_rank_response(Reader(mangled[1:]))
        except ProtocolError:
            return
        assert how != "truncate"
        count = len(reply.positions)
        assert reply.scores.shape == (count,) and reply.degrees.shape[0] == count


class TestColumnSnapshotRoundTrip:
    """Column snapshots: pack/unpack is bit-exact, corruption is typed.

    The cluster hydration path rests on two properties checked here over
    randomized array contents: determinism (same state, same bytes — twice
    packed is byte-equal) with a bit-exact array round trip, and integrity
    (any single flipped byte, truncation, or version skew raises a typed
    ``SnapshotError``, never unpacks silently-wrong arrays).
    """

    shapes = SNAPSHOT_SHAPES
    finite = SNAPSHOT_FINITE

    def _random_snapshot(self, draw_shape, data):
        return _random_snapshot(draw_shape, data)

    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_bit_exact_and_deterministic(self, shape, data):
        from repro.core.columnar import ColumnSnapshot

        snapshot = self._random_snapshot(shape, data)
        blob = snapshot.pack()
        assert snapshot.pack() == blob  # deterministic bytes
        back = ColumnSnapshot.unpack(blob)
        assert back.data_version == snapshot.data_version
        assert (back.slice_id, back.start, back.stop) == (3, 0, shape[0])
        assert back.columns.entity_ids == snapshot.columns.entity_ids
        assert back.columns.markers == snapshot.columns.markers
        for name in (
            "marker_sentiments",
            "fractions",
            "average_sentiments",
            "totals",
            "unmatched",
            "overall_sentiments",
            "centroids_unit",
            "name_units",
        ):
            packed = getattr(snapshot.columns, name)
            unpacked = getattr(back.columns, name)
            assert unpacked.shape == packed.shape, name
            assert np.array_equal(unpacked, packed), name

    @given(shapes, st.data())
    @settings(max_examples=20, deadline=None)
    def test_unpacked_arrays_are_read_only_views_of_the_payload(self, shape, data):
        """Unpacking copies nothing — unless the payload is misaligned, which
        is copied once into aligned memory with every bit kept."""
        from repro.core.columnar import ColumnSnapshot, SnapshotDelta, gather_rows

        snapshot = self._random_snapshot(shape, data)
        rows = list(range(0, shape[0], 2))
        delta = SnapshotDelta(
            5, 6, 3, 0, shape[0], tuple(rows), gather_rows(snapshot.columns, rows)
        )
        for original, unpack, names in (
            (snapshot, ColumnSnapshot.unpack, SNAPSHOT_ARRAYS),
            (delta, SnapshotDelta.unpack, SNAPSHOT_ARRAYS[1:-1]),
        ):
            blob = original.pack()
            payload = np.frombuffer(blob, dtype=np.uint8)
            shifted = memoryview(b"\0" + blob)[1:]  # one byte off the allocation's alignment
            views, copies = unpack(blob).columns, unpack(shifted).columns
            for name in names:
                expected = np.asarray(getattr(original.columns, name))
                view = np.asarray(getattr(views, name))
                copy = np.asarray(getattr(copies, name))
                assert copy.flags.aligned, name
                assert np.array_equal(view, expected) and np.array_equal(copy, expected), name
                if expected.size:  # an empty RowBlocks joins to fresh zeros
                    assert not view.flags.writeable and not copy.flags.writeable, name
                    assert np.shares_memory(view, payload), name
                    assert not np.shares_memory(copy, np.frombuffer(shifted, dtype=np.uint8))

    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_single_byte_flip_is_typed_error(self, shape, data):
        from repro.core.columnar import ColumnSnapshot
        from repro.errors import SnapshotError

        blob = bytearray(self._random_snapshot(shape, data).pack())
        position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        blob[position] ^= flip
        with pytest.raises(SnapshotError):
            ColumnSnapshot.unpack(bytes(blob))

    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_truncation_is_typed_error(self, shape, data):
        from repro.core.columnar import ColumnSnapshot
        from repro.errors import SnapshotError

        blob = self._random_snapshot(shape, data).pack()
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(SnapshotError):
            ColumnSnapshot.unpack(blob[:cut])


def _random_columns(num_entities: int, num_markers: int, dimension: int, seed: int):
    """One attribute's columns filled from a seeded RNG (fast at any E)."""
    from repro.core.columnar import AttributeColumns

    rng = np.random.default_rng(seed)
    return AttributeColumns(
        attribute="quality",
        entity_ids=[f"e{index}" for index in range(num_entities)],
        markers=[Marker(f"m{index}", index, 0.1 * index) for index in range(num_markers)],
        marker_sentiments=rng.uniform(-1.0, 1.0, num_markers),
        fractions=rng.random((num_entities, num_markers)),
        average_sentiments=rng.uniform(-1.0, 1.0, (num_entities, num_markers)),
        totals=rng.random(num_entities),
        unmatched=rng.random(num_entities),
        overall_sentiments=rng.uniform(-1.0, 1.0, num_entities),
        centroids_unit=rng.normal(size=(num_entities, num_markers, dimension)),
        name_units=rng.normal(size=(num_markers, dimension)),
    )


def _next_generation(columns, rows: list[int], seed: int):
    """``columns`` with ``rows`` (ascending) replaced, as a store patch publishes it."""
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    fractions = np.array(columns.fractions)
    fractions[rows] = rng.random((len(rows), columns.num_markers))
    centroids = rng.normal(size=(len(rows), columns.num_markers, columns.dimension))
    return replace(
        columns,
        fractions=fractions,
        centroids_unit=columns.centroids_unit.with_rows(rows, centroids),
    )


def _contiguous_copy(columns):
    """A deep copy of ``columns``: every array copied, the tensor one fresh buffer."""
    from dataclasses import replace

    return replace(
        columns,
        entity_ids=list(columns.entity_ids),
        **{
            name: np.array(getattr(columns, name))
            for name in (
                "marker_sentiments",
                "fractions",
                "average_sentiments",
                "totals",
                "unmatched",
                "overall_sentiments",
                "centroids_unit",
                "name_units",
            )
        },
    )


class TestCentroidBlocks:
    """The blocked centroid tensor against contiguous NumPy, bit for bit.

    :class:`~repro.core.columnar.RowBlocks` holds the E×M×D tensor as
    512-row blocks that column generations share.  Windows, gathers,
    indexing, patches, snapshot bytes, the similarity kernel and
    ``SnapshotDelta.between`` must give exactly what the same operation on
    one contiguous array gives, for row counts on, next to and off the
    block grid and for slice edges anywhere; a patch must copy only the
    blocks holding its rows and leave the generation it came from as it
    was.  The mapped-file case opens a 10k-entity store, relocatable via
    ``REPRO_STORAGE_DIR``.
    """

    sizes = st.one_of(
        st.sampled_from([0, 1, 511, 512, 513, 1600]), st.integers(min_value=0, max_value=1600)
    )
    shapes = st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3))

    @staticmethod
    def _rows(data, num_entities: int, **kwargs) -> list[int]:
        if not num_entities:
            return []
        return data.draw(
            st.lists(st.integers(min_value=0, max_value=num_entities - 1), **kwargs)
        )

    @given(sizes, shapes, st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_windows_gathers_and_indexing_equal_numpy(self, num_entities, shape, seed, data):
        from repro.core.columnar import RowBlocks

        array = np.random.default_rng(seed).normal(size=(num_entities, *shape))
        blocks = RowBlocks.of_array(array)
        patched = sorted(set(self._rows(data, num_entities, max_size=4)))
        generations = [(blocks, array)]
        if patched:
            values = np.full((len(patched), *shape), 7.0)
            expected = array.copy()
            expected[patched] = values
            generations.append((blocks.with_rows(patched, values), expected))
        start = data.draw(st.integers(min_value=0, max_value=num_entities))
        stop = data.draw(st.integers(min_value=start, max_value=num_entities))
        rows = self._rows(data, num_entities, max_size=60)
        for generation, reference in generations:
            assert generation.shape == reference.shape
            assert np.asarray(generation).tobytes() == reference.tobytes()
            window = generation.window(start, stop)
            assert window.shape == reference[start:stop].shape
            assert np.asarray(window).tobytes() == reference[start:stop].tobytes()
            assert generation[start:stop].tobytes() == reference[start:stop].tobytes()
            assert generation.take(rows).tobytes() == reference[rows].tobytes()
            assert generation[rows].tobytes() == reference[rows].tobytes()
            if rows:
                assert generation.take([rows[0]])[0].tobytes() == reference[rows[0]].tobytes()
                local = [row - start for row in rows if start <= row < stop]
                assert window.take(local).tobytes() == reference[start:stop][local].tobytes()

    @given(sizes.filter(bool), shapes, st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_patch_copies_only_the_blocks_holding_its_rows(
        self, num_entities, shape, seed, data
    ):
        from repro.core.columnar import BOUNDS_BLOCK_ROWS, RowBlocks

        array = np.random.default_rng(seed).normal(size=(num_entities, *shape))
        frozen = array.copy()
        base = RowBlocks.of_array(array)
        rows = sorted(set(self._rows(data, num_entities, min_size=1, max_size=8)))
        values = np.random.default_rng(seed + 1).normal(size=(len(rows), *shape))
        new = base.with_rows(rows, values)
        expected = frozen.copy()
        expected[rows] = values
        assert np.asarray(new).tobytes() == expected.tobytes()
        assert np.asarray(base).tobytes() == frozen.tobytes()  # the base keeps its values
        touched = {row // BOUNDS_BLOCK_ROWS for row in rows}
        # Only a generation that is one run can be read without a copy.
        unjoined = np.asarray(base, copy=False)
        assert unjoined.tobytes() == frozen.tobytes()
        assert not array.size or np.shares_memory(unjoined, array)
        if len(new.runs()) > 1:
            with pytest.raises(ValueError):
                np.asarray(new, copy=False)
        for index, (old_block, new_block) in enumerate(zip(base.blocks, new.blocks)):
            assert (old_block is new_block) == (index not in touched), index
        assert new.unshared_blocks(base) == len(touched)
        for index in (rows[0], slice(0, num_entities, 2)):
            with pytest.raises(TypeError):
                new[index]
        changed = new.rows_differing(base)
        assert np.flatnonzero(changed).tolist() == [
            row for row in rows if (expected[row] != frozen[row]).any()
        ]

    # Marker counts that are multiples of 4: the BLAS GEMV computes the last
    # (rows·M mod 4) outputs of a call in a tail loop whose sums may differ
    # in the last bit, so a kernel over a slice or a gather reproduces the
    # full pass bit for bit only when every call's rows·M is a multiple of 4
    # — with or without blocks.  Every schema here has M = 4 or 16.
    kernel_shapes = st.tuples(st.sampled_from([4, 8]), st.integers(min_value=0, max_value=5))

    @given(sizes, kernel_shapes, st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=30, deadline=None)
    def test_generations_pack_score_and_diff_as_their_deep_copies(
        self, num_entities, shape, seed, data
    ):
        from repro.core.columnar import (
            ColumnSnapshot,
            SnapshotDelta,
            phrase_marker_similarities,
            slice_view,
        )

        num_markers, dimension = shape
        base = _random_columns(num_entities, num_markers, dimension, seed)
        rows = sorted(set(self._rows(data, num_entities, max_size=6)))
        new = _next_generation(base, rows, seed + 1)
        start = data.draw(st.integers(min_value=0, max_value=num_entities))
        stop = data.draw(st.integers(min_value=start, max_value=num_entities))
        phrase = np.random.default_rng(seed + 2).normal(size=dimension)
        for version, columns in enumerate((base, new)):
            copy = _contiguous_copy(columns)
            for whole, other in ((columns, copy), (slice_view(columns, start, stop), None)):
                other = other if other is not None else slice_view(copy, start, stop)
                assert (
                    phrase_marker_similarities(whole, phrase).tobytes()
                    == phrase_marker_similarities(other, phrase).tobytes()
                )
            snapshot = ColumnSnapshot.of_slice(columns, 1, start, stop, version)
            assert snapshot.pack() == ColumnSnapshot.of_slice(copy, 1, start, stop, version).pack()
        old_snapshot = ColumnSnapshot.of_slice(base, 1, start, stop, 0)
        new_snapshot = ColumnSnapshot.of_slice(new, 1, start, stop, 1)
        shared = SnapshotDelta.between(old_snapshot, new_snapshot, max_fraction=1.0)
        copied = SnapshotDelta.between(
            ColumnSnapshot.of_slice(_contiguous_copy(base), 1, start, stop, 0),
            ColumnSnapshot.of_slice(_contiguous_copy(new), 1, start, stop, 1),
            max_fraction=1.0,
        )
        assert shared.rows == copied.rows
        assert shared.pack() == copied.pack()
        assert shared.apply(old_snapshot).pack() == new_snapshot.pack()

    def test_a_one_row_ingest_at_10k_copies_one_block_on_the_store_and_the_nodes(self):
        """Over mapped columns: blocks are views of the file, a patch copies one of them."""
        import os
        import tempfile

        from repro.core import SubjectiveQueryProcessor
        from repro.core.columnar import ColumnarSummaryStore
        from repro.core.database import SubjectiveDatabase
        from repro.serving import start_local_node
        from repro.serving.cluster import ClusterShardStore
        from repro.storage import generate_synthetic_store
        from repro.storage.synthetic import SYNTHETIC_ATTRIBUTE

        base_dir = os.environ.get("REPRO_STORAGE_DIR") or None
        if base_dir:
            os.makedirs(base_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base_dir) as directory:
            generate_synthetic_store(directory, num_entities=10_000, num_markers=6, dimension=4)
            database = SubjectiveDatabase.open(directory)
            attribute = SYNTHETIC_ATTRIBUTE
            store = database.columnar_store()
            mapped = store.columns(attribute)
            assert len(mapped.centroids_unit.blocks) == 20
            assert len(mapped.centroids_unit.runs()) == 1  # one view of the mapped section
            assert all(not block.flags.owndata for block in mapped.centroids_unit.blocks)
            processor = SubjectiveQueryProcessor(database)
            servers = [
                start_local_node(processor.membership, node_id=index)[0] for index in range(2)
            ]
            fleet = ClusterShardStore(
                database,
                base=store,
                addresses=[server.address for server in servers],
                num_slices=4,
            )
            try:
                ids = list(mapped.entity_ids)
                fleet.pair_degrees(processor.membership, ids, attribute, "word001")
                markers = database.schema.subjective(attribute).markers
                summary = MarkerSummary(attribute, list(markers))
                summary.add_phrase(markers[0].name, sentiment=0.5, vector=np.ones(4))
                database.store_summary(ids[6000], summary)
                degrees = fleet.pair_degrees(processor.membership, ids, attribute, "word001")
                assert degrees == ColumnarSummaryStore(database).pair_degrees(
                    processor.membership, ids, attribute, "word001"
                )
                assert store.stats_snapshot()["tensor_blocks_copied"] == 1
                assert fleet.transport_counters()["snapshot_delta_hydrations"] == 4
                copied = [server.stats()["tensor_blocks_copied"] for server in servers]
                assert sorted(copied) == [0, 1]  # one patched slice, one block of it
                patched = store.columns(attribute)
                assert patched.centroids_unit.unshared_blocks(mapped.centroids_unit) == 1
            finally:
                fleet.close()
                for server in servers:
                    server.stop()


class TestSnapshotDeltaFrames:
    """Delta snapshot frames: equivalence and integrity.

    The cold-path optimisation must be invisible to the data: a delta
    applied to its base is **byte-identical** to the full snapshot it
    stands in for (for any changed-row subset), and any single-byte flip
    in either frame shape is a typed error.
    """

    # At least one entity so a changed-row subset can exist.
    shapes = st.tuples(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=6),
    )

    def _delta_pair(self, shape, data):
        """(base, new, delta) with a drawn subset of rows perturbed."""
        from repro.core.columnar import ColumnSnapshot, SnapshotDelta
        from dataclasses import replace

        base = _random_snapshot(shape, data)
        num_entities = shape[0]
        # At most half the rows: stays under between()'s delta-eligibility
        # fraction, so the pair always yields a delta.
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_entities - 1),
                min_size=0,
                max_size=num_entities // 2,
                unique=True,
            )
        )
        columns = base.columns
        perturbed = replace(
            columns,
            fractions=columns.fractions.copy(),
            average_sentiments=columns.average_sentiments.copy(),
            totals=columns.totals.copy(),
            unmatched=columns.unmatched.copy(),
            overall_sentiments=columns.overall_sentiments.copy(),
        )
        centroids = np.array(columns.centroids_unit)
        for row in subset:
            perturbed.fractions[row] += 1.0
            perturbed.totals[row] += 2.0
            if centroids.size:
                centroids[row] += 0.5
        perturbed = replace(perturbed, centroids_unit=centroids)
        new = ColumnSnapshot(
            data_version=base.data_version + 1,
            slice_id=base.slice_id,
            start=base.start,
            stop=base.stop,
            columns=perturbed,
        )
        delta = SnapshotDelta.between(base, new)
        assert delta is not None
        assert set(delta.rows) == set(subset)
        return base, new, delta

    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_delta_applied_to_base_equals_full_snapshot(self, shape, data):
        from repro.core.columnar import SnapshotDelta

        base, new, delta = self._delta_pair(shape, data)
        blob = delta.pack()
        assert delta.pack() == blob  # deterministic bytes
        applied = SnapshotDelta.unpack(blob).apply(base)
        assert applied.pack() == new.pack()

    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_single_byte_flip_in_full_or_delta_frame_is_typed(self, shape, data):
        from repro.core.columnar import ColumnSnapshot, SnapshotDelta
        from repro.errors import SnapshotError

        base, _new, delta = self._delta_pair(shape, data)
        full = bytearray(base.pack())
        position = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        full[position] ^= flip
        with pytest.raises(SnapshotError):
            ColumnSnapshot.unpack(bytes(full))

        frame = bytearray(delta.pack())
        position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[position] ^= flip
        with pytest.raises(SnapshotError):
            SnapshotDelta.unpack(bytes(frame))

    @given(shapes, st.data(), st.sampled_from([0x01, 0x02, 0x80, 0x70]))
    @settings(max_examples=20, deadline=None)
    def test_unknown_flag_bits_are_typed_even_with_a_valid_checksum(self, shape, data, bit):
        """0x01 (the retired zlib body), 0x02 (the retired f32 centroid
        encoding) and every unassigned bit are refused, not ignored — also
        when the frame re-checksums cleanly."""
        import struct
        import zlib

        from repro.core.columnar import ColumnSnapshot, SnapshotDelta
        from repro.errors import SnapshotError

        base, _new, delta = self._delta_pair(shape, data)
        for unpack, blob in (
            (ColumnSnapshot.unpack, base.pack()),
            (SnapshotDelta.unpack, delta.pack()),
        ):
            assert unpack(blob) is not None
            stored = bytearray(blob[10:])  # magic (4) | version (2) | crc32 (4) | stored
            stored[0] |= bit
            forged = blob[:6] + struct.pack("!I", zlib.crc32(bytes(stored))) + bytes(stored)
            with pytest.raises(SnapshotError, match="unknown flag"):
                unpack(forged)

    @given(shapes, st.data())
    @settings(max_examples=20, deadline=None)
    def test_frame_shapes_never_cross_unpack(self, shape, data):
        """A delta frame refuses ColumnSnapshot.unpack and vice versa."""
        from repro.core.columnar import ColumnSnapshot, SnapshotDelta
        from repro.errors import SnapshotError

        base, _new, delta = self._delta_pair(shape, data)
        with pytest.raises(SnapshotError, match="delta"):
            ColumnSnapshot.unpack(delta.pack())
        with pytest.raises(SnapshotError, match="full"):
            SnapshotDelta.unpack(base.pack())

    @given(SNAPSHOT_SHAPES, st.data())
    @settings(max_examples=20, deadline=None)
    def test_an_unchanged_generation_ships_an_empty_delta_sharing_the_base(self, shape, data):
        """``unchanged`` is what ``between`` finds for one generation cut again
        at a later version, and applying it shares the base's arrays."""
        from repro.core.columnar import ColumnSnapshot, SnapshotDelta

        base = _random_snapshot(shape, data)
        version = base.data_version + 1
        new = ColumnSnapshot.of_slice(base.columns, base.slice_id, 0, shape[0], version)
        delta = SnapshotDelta.unchanged(base, version)
        assert delta.pack() == SnapshotDelta.between(base, new).pack()
        applied = SnapshotDelta.unpack(delta.pack()).apply(base)
        assert applied.pack() == new.pack()
        assert applied.columns is base.columns


def _frame_image(flags: int, meta: object, arrays) -> bytes:
    """One column image framed from the format's definition alone.

    Shares no code with the writer under test: ``b"OPSN" | u16 2 | crc32 |
    flags`` (big-endian, the CRC over every byte after it), the u32 length
    of the meta JSON (sorted keys, compact separators) and the JSON as
    given, then each array as native float64 at the next 64-byte-aligned
    offset of the image.
    """
    import json
    import struct
    import zlib

    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = struct.pack("!I", len(meta_bytes)) + meta_bytes
    for array in arrays:
        body += bytes(-(11 + len(body)) % 64)
        body += np.ascontiguousarray(array, dtype=np.float64).tobytes()
    stored = bytes([flags]) + body
    return b"OPSN" + struct.pack("!HI", 2, zlib.crc32(stored)) + stored


def _json_paths(node, path=()):
    """Every path into a JSON tree, the root's ``()`` included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, (*path, key))


def _replaced(node, path, value):
    """A copy of a JSON tree with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


#: JSON values a hostile writer could put anywhere in an image's meta.
HOSTILE_JSON = st.one_of(
    st.integers(min_value=-3, max_value=9),
    st.sampled_from([2**32, 2**64, -(2**63), 10**30]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-2, max_value=4), max_size=3),
    st.sampled_from([["a"], [[]], {}, [["x", 1, 0.5]], {"a": 1}]),
)


class TestHostileImageMeta:
    """One meta value of a valid image replaced, the CRC resealed: typed errors only.

    Snapshots, deltas and column files share one reader, so a meta that
    passes the checksum is still untrusted: any node of its JSON tree — the
    root, a field, a section shape, a marker triple, a row — replaced by a
    hostile value must come out as :class:`SnapshotError` /
    :class:`StorageError`, or as a valid decode whose arrays are exactly
    the packed ones.  Each case first pins that :func:`_frame_image`, which
    frames the image from the format's definition, reproduces the
    production bytes.  Column files are written under ``REPRO_STORAGE_DIR``
    when it is set.
    """

    @staticmethod
    def _meta(columns, **fields):
        return {
            "attribute": columns.attribute,
            "entity_ids": list(columns.entity_ids),
            "markers": [[m.name, m.position, m.sentiment] for m in columns.markers],
            "dimension": columns.dimension,
            "dtype": np.dtype(np.float64).str,
            **fields,
        }

    @staticmethod
    def _hostile(meta, data):
        path = data.draw(st.sampled_from(list(_json_paths(meta))))
        return _replaced(meta, path, data.draw(HOSTILE_JSON))

    @staticmethod
    def _assert_arrays(columns, expected, names):
        for name in names:
            array = np.asarray(getattr(columns, name))
            assert array.shape == expected[name].shape, name
            assert np.array_equal(array, expected[name]), name

    @given(SNAPSHOT_SHAPES, st.data())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_meta(self, shape, data):
        from repro.core.columnar import ColumnSnapshot
        from repro.errors import SnapshotError

        snapshot = _random_snapshot(shape, data)
        arrays = {name: np.asarray(getattr(snapshot.columns, name)) for name in SNAPSHOT_ARRAYS}
        meta = self._meta(
            snapshot.columns,
            data_version=snapshot.data_version,
            slice_id=snapshot.slice_id,
            start=snapshot.start,
            stop=snapshot.stop,
            sections=[[name, list(array.shape)] for name, array in arrays.items()],
        )
        assert _frame_image(0, meta, arrays.values()) == snapshot.pack()
        try:
            hostile = _frame_image(0, self._hostile(meta, data), arrays.values())
            back = ColumnSnapshot.unpack(hostile)
        except SnapshotError:
            return
        assert back.stop - back.start == back.columns.num_entities
        self._assert_arrays(back.columns, arrays, SNAPSHOT_ARRAYS)

    @given(SNAPSHOT_SHAPES, st.data())
    @settings(max_examples=60, deadline=None)
    def test_delta_meta(self, shape, data):
        from repro.core.columnar import SnapshotDelta, gather_rows
        from repro.errors import SnapshotError

        snapshot = _random_snapshot(shape, data)
        rows = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=max(0, shape[0] - 1)))))
        rows = [row for row in rows if row < shape[0]]
        delta = SnapshotDelta(
            7, 8, 3, 0, shape[0], tuple(rows), gather_rows(snapshot.columns, rows)
        )
        names = SNAPSHOT_ARRAYS[1:-1]
        arrays = {name: np.asarray(getattr(delta.columns, name)) for name in names}
        meta = self._meta(
            delta.columns,
            base_version=7,
            data_version=8,
            slice_id=3,
            start=0,
            stop=shape[0],
            rows=rows,
            sections=[[name, list(array.shape)] for name, array in arrays.items()],
        )
        assert _frame_image(4, meta, arrays.values()) == delta.pack()
        try:
            back = SnapshotDelta.unpack(_frame_image(4, self._hostile(meta, data), arrays.values()))
        except SnapshotError:
            return
        assert len(back.rows) == back.columns.num_entities
        assert all(0 <= row < back.stop - back.start for row in back.rows)
        assert list(back.rows) == sorted(set(back.rows))
        self._assert_arrays(back.columns, arrays, names)

    @given(SNAPSHOT_SHAPES, st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_file_meta(self, shape, data):
        import os
        import tempfile

        from repro.errors import StorageError
        from repro.storage import MappedColumnFile, pack_column_file

        snapshot = _random_snapshot(shape, data)
        num_entities, num_markers, dimension = shape
        arrays = {name: np.asarray(getattr(snapshot.columns, name)) for name in SNAPSHOT_ARRAYS}
        arrays.update(
            counts=np.ones((num_entities, num_markers)),
            sentiment_sums=np.zeros((num_entities, num_markers)),
            vector_sums=np.zeros((num_entities, num_markers, dimension)),
            num_phrases=np.arange(float(num_entities)),
            num_reviews=np.ones(num_entities),
            vector_dims=np.full(num_entities, float(dimension)),
            kind_codes=np.zeros(num_entities),
        )
        fields = self._meta(snapshot.columns, version=4)
        del fields["dtype"]
        meta = self._meta(
            snapshot.columns,
            version=4,
            sections=[[name, list(array.shape)] for name, array in arrays.items()],
        )
        image = pack_column_file(fields, arrays)
        assert _frame_image(8, meta, arrays.values()) == b"".join(map(bytes, image.chunks))
        base_dir = os.environ.get("REPRO_STORAGE_DIR") or None
        if base_dir:
            os.makedirs(base_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base_dir) as directory:
            path = os.path.join(directory, "hostile.snap")
            with open(path, "wb") as handle:
                handle.write(_frame_image(8, self._hostile(meta, data), arrays.values()))
            try:
                mapped = MappedColumnFile(path)
                _ = (mapped.attribute, mapped.version, mapped.markers, mapped.dimension)
                columns, raw = mapped.columns(), mapped.raw()
            except StorageError:
                return
            assert mapped.num_entities == len(mapped.entity_ids) == columns.num_entities
            self._assert_arrays(columns, arrays, SNAPSHOT_ARRAYS)
            self._assert_arrays(raw, arrays, ("counts", "vector_sums", "kind_codes"))


class TestGatewayCoalescingKey:
    """Two requests coalesce **iff** their normalized SQL (and top-k) match."""

    # SQL-ish strings: unquoted keyword/identifier regions interleaved with
    # double-quoted subjective predicates (which may contain odd spacing).
    fragments = st.lists(
        st.one_of(
            st.sampled_from(["select *", "FROM Entities", "where", "and", "limit 5"]),
            st.text(alphabet="ab \t", min_size=1, max_size=6).map(lambda s: f'"{s}"'),
        ),
        min_size=1,
        max_size=6,
    )
    sqls = fragments.map(" ".join)
    topks = st.one_of(st.none(), st.integers(min_value=1, max_value=50))

    @given(sqls, st.data())
    def test_whitespace_respelling_always_coalesces(self, sql, data):
        from repro.serving import coalescing_key, normalize_sql

        # Re-spell the whitespace between tokens (outside quotes the key
        # must not care) without touching quoted regions.
        respelled = []
        quoted = False
        for char in sql:
            if char == '"':
                quoted = not quoted
                respelled.append(char)
            elif char in " \t" and not quoted:
                respelled.append(data.draw(st.sampled_from([" ", "  ", "\t", " \t "])))
            else:
                respelled.append(char)
        variant = "".join(respelled)
        assert normalize_sql(variant) == normalize_sql(sql)
        assert coalescing_key(variant) == coalescing_key(sql)

    @given(sqls, sqls, topks, topks)
    def test_keys_equal_iff_normalized_sql_and_topk_equal(self, a, b, top_a, top_b):
        from repro.serving import coalescing_key, normalize_sql

        same = normalize_sql(a) == normalize_sql(b) and top_a == top_b
        assert (coalescing_key(a, top_a) == coalescing_key(b, top_b)) == same

    @given(sqls, st.integers(min_value=1, max_value=50))
    def test_topk_always_separates(self, sql, top_k):
        from repro.serving import coalescing_key

        assert coalescing_key(sql, top_k) != coalescing_key(sql, None)
        assert coalescing_key(sql, top_k) != coalescing_key(sql, top_k + 1)


class TestAdmissionControlInvariants:
    """Admission control may refuse work but can never lose accepted work."""

    operations = st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=4)),
        min_size=0,
        max_size=60,
    )

    @given(
        operations,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=5),
    )
    def test_every_admission_is_tracked_until_released(self, ops, depth, per_conn):
        from repro.serving import AdmissionController

        control = AdmissionController(
            max_queue_depth=depth, max_inflight_per_connection=per_conn
        )
        # A mirror ledger of outstanding admissions per connection: the
        # controller must agree with it after every operation.
        ledger: dict[int, int] = {}
        for is_admit, connection in ops:
            if is_admit:
                reason = control.try_admit(connection)
                if reason is None:
                    ledger[connection] = ledger.get(connection, 0) + 1
                elif reason == "gateway":
                    assert sum(ledger.values()) == depth
                else:
                    assert reason == "connection"
                    assert ledger.get(connection, 0) == per_conn
            elif ledger.get(connection, 0) > 0:
                control.release(connection)
                ledger[connection] -= 1
            assert control.queue_depth == sum(ledger.values())
            assert control.queue_depth <= depth
            for conn, count in ledger.items():
                assert control.inflight_of(conn) == count
                assert count <= per_conn
        # Every accepted request can still be released: none were dropped.
        for connection, count in ledger.items():
            for _ in range(count):
                control.release(connection)
        assert control.queue_depth == 0


# --------------------------------------------------------------------------
# Incremental ingest: patched column generations equal fresh builds
# --------------------------------------------------------------------------

def _small_ingest_database(seed: int = 5):
    """Eight entities with summaries plus ``bare``, an entity that has none."""
    from repro.testing import build_synthetic_columnar_database

    database = build_synthetic_columnar_database(
        num_entities=8, markers_per_attribute=4, dimension=8, seed=seed
    )
    database.add_entity("bare", {"city": "rome", "price": 10.0})
    return database


def _replacement_summary(database, attribute: str, phrases, unmatched: float = 0.0):
    """A conforming summary of ``(marker index, sentiment, with vector)`` phrases."""
    markers = list(database.schema.subjective(attribute).markers)
    summary = MarkerSummary(attribute, markers, embedding_dimension=database.embedding_dimension)
    for index, sentiment, with_vector in phrases:
        name = markers[index % len(markers)].name
        vector = database.phrase_vector(name) * (1.0 + index) if with_vector else None
        summary.add_phrase(name, sentiment=sentiment, vector=vector)
    summary.add_unmatched(unmatched)
    return summary


def _assert_equals_a_fresh_store(store, database) -> None:
    """Every array of every attribute's columns and bounds, bit for bit."""
    from dataclasses import fields

    from repro.core.columnar import ColumnarSummaryStore, RowBlocks

    fresh = ColumnarSummaryStore(database)
    for attribute in database.schema.subjective_attributes:
        got, want = store.columns(attribute.name), fresh.columns(attribute.name)
        assert (got is None) == (want is None)
        if want is None:
            continue
        bounds = (store.score_bounds(attribute.name), fresh.score_bounds(attribute.name))
        for left, right in ((got, want), bounds):
            for field in fields(right):
                mine, theirs = getattr(left, field.name), getattr(right, field.name)
                if isinstance(theirs, (np.ndarray, RowBlocks)):
                    assert np.array_equal(mine, theirs), (attribute.name, field.name)
                elif field.name != "columns":
                    assert mine == theirs, (attribute.name, field.name)


_ingest_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # entity
        st.one_of(
            st.none(),  # a review only
            st.tuples(
                st.sampled_from(["quality", "service"]),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=3),
                        st.floats(min_value=-1.0, max_value=1.0),
                        st.booleans(),
                    ),
                    max_size=4,
                ),
                st.sampled_from([0.0, 1.0, 2.5]),
            ),
        ),
        st.booleans(),  # read (and compare) right after this op
    ),
    min_size=1,
    max_size=8,
)


class TestPatchedColumnsEqualFreshBuild:
    """``ColumnarSummaryStore.sync``: patch where the journal allows, else rebuild."""

    @given(_ingest_ops)
    @settings(max_examples=25, deadline=None)
    def test_any_journaled_sequence_patches_to_the_fresh_arrays(self, ops):
        from repro.core.columnar import ColumnarSummaryStore
        from repro.core.database import ReviewRecord

        database = _small_ingest_database()
        store = ColumnarSummaryStore(database)
        _assert_equals_a_fresh_store(store, database)  # builds columns and bounds
        for serial, (entity, change, read) in enumerate(ops):
            entity_id = f"e{entity:05d}"
            if change is None:
                database.add_review(ReviewRecord(10_000 + serial, entity_id, "word001 word002"))
            else:
                attribute, phrases, unmatched = change
                database.store_summary(
                    entity_id, _replacement_summary(database, attribute, phrases, unmatched)
                )
            if read:
                _assert_equals_a_fresh_store(store, database)
        _assert_equals_a_fresh_store(store, database)
        assert store.data_version == database.data_version
        assert (store.builds, store.invalidations) == (2, 0)

    @pytest.mark.parametrize(
        "fallback",
        [
            "add_entity",
            "first_summary_of_an_entity_without_a_row",
            "non_conforming_markers",
            "clear_summaries",
            "rebuild_text_indexes",
            "more_changes_than_the_journal_holds",
        ],
    )
    def test_each_fallback_ends_in_a_full_rebuild(self, fallback):
        from repro.core import database as database_module
        from repro.core.columnar import ColumnarSummaryStore
        from repro.core.database import ReviewRecord

        database = _small_ingest_database()
        store = ColumnarSummaryStore(database)
        _assert_equals_a_fresh_store(store, database)

        def replacement(attribute, *phrase):
            return _replacement_summary(database, attribute, [phrase])

        # A patchable change rides along: the fallback must not lose it.
        database.store_summary("e00001", replacement("service", 1, 0.5, True))
        if fallback == "add_entity":
            database.add_entity("late")
        elif fallback == "first_summary_of_an_entity_without_a_row":
            database.store_summary("bare", replacement("quality", 0, 0.9, True))
        elif fallback == "non_conforming_markers":
            markers = list(database.schema.subjective("quality").markers)[:-1]
            database.store_summary("e00002", MarkerSummary("quality", markers))
        elif fallback == "clear_summaries":
            database.clear_summaries()
            database.store_summary("e00003", replacement("quality", 2, -0.4, False))
        elif fallback == "rebuild_text_indexes":
            database.rebuild_text_indexes()
        else:
            for serial in range(database_module.CHANGE_JOURNAL_ENTRIES):
                database.add_review(ReviewRecord(20_000 + serial, "e00004", "word003"))
        journal_explains = fallback in (
            "first_summary_of_an_entity_without_a_row",
            "non_conforming_markers",
        )  # there the journal names the key and the store finds it cannot patch it
        assert (database.changes_since(store.data_version) is not None) == journal_explains
        _assert_equals_a_fresh_store(store, database)
        assert (store.invalidations, store.patches) == (1, 0)

    def test_a_store_opened_from_disk_at_an_older_version_rebuilds(self):
        import tempfile

        from repro.core.columnar import ColumnarSummaryStore
        from repro.core.database import SubjectiveDatabase

        with tempfile.TemporaryDirectory() as directory:
            _small_ingest_database().save(directory)
            database = SubjectiveDatabase.open(directory)
            database.store_summary(
                "e00001", _replacement_summary(database, "service", [(1, 0.5, True)])
            )
            store = database.columnar_store()  # mapped files are one version behind
            _assert_equals_a_fresh_store(store, database)
            assert (store.mmap_serves, store.builds, store.patches) == (0, 2, 0)

            # Opened at the saved version it serves the maps, then patches in RAM.
            database = SubjectiveDatabase.open(directory)
            store = database.columnar_store()
            mapped = store.columns("service")
            database.store_summary(
                "e00001", _replacement_summary(database, "service", [(1, 0.5, True)])
            )
            patched = store.columns("service")
            assert (store.mmap_serves, store.patches, store.invalidations) == (1, 1, 0)
            assert isinstance(mapped.fractions, np.memmap)
            assert not isinstance(patched.fractions, np.memmap)
            # Same rows as a fresh build, entity by entity: a rebuild over the
            # lazily loaded summaries lists the replaced entity first.
            fresh = ColumnarSummaryStore(database).columns("service")
            order = [fresh.row_of[entity_id] for entity_id in patched.entity_ids]
            for name in ("fractions", "average_sentiments", "totals", "centroids_unit"):
                assert np.array_equal(getattr(patched, name), getattr(fresh, name)[order])
            row = patched.row_of["e00001"]
            assert not np.array_equal(patched.fractions[row], mapped.fractions[row])


class TestGeneratedIngestDifferential:
    """Generated ingest sequences, checked on engines and on nodes after every step.

    Hypothesis draws steps of one optional ingest — ``add_review``,
    ``store_summary`` or ``add_entity`` on a random entity — followed by one
    query: the benchmark's four shapes or a JOIN over ``reviews``.  After
    every step the in-process sharded engine and a 2-node cluster answer it
    exactly as a fresh processor does (candidate sets kept across journaled
    ingests included), and every bound summary a node holds — patched from
    delta rows or built — equals ``ScoreBounds.of_columns`` of the slice it
    covers, bit for bit, and every envelope and exact degree a node keeps
    for ``rank`` frames belongs to the slice it holds now.  The cluster
    ranks each prunable query on the nodes.  The nodes are in-process
    ``ShardNodeServer`` threads so their state can be read; the database
    persists across examples, so later examples start from what earlier
    ones ingested.
    """

    SHAPES = (
        '"{a}" and "{b}"',
        '"{a}" or "{b}"',
        "city = 'paris' and \"{a}\" and \"{b}\"",
        'price < 100 and "{a}"',
    )
    JOIN = (
        "select * from Entities e join reviews r on e.eid = r.eid "
        'where "{a}" and "{b}" limit 4'
    )
    words = st.sampled_from([f"word{index:03d}" for index in range(32)])
    ingests = st.one_of(
        st.none(),
        st.tuples(st.just("review"), st.integers(0, 10_000)),
        st.tuples(
            st.just("summary"),
            st.integers(0, 10_000),
            st.sampled_from(["quality", "service"]),
            st.lists(
                st.tuples(st.integers(0, 3), st.floats(-1.0, 1.0), st.booleans()), max_size=3
            ),
        ),
        st.just(("entity",)),
    )
    steps = st.lists(
        st.tuples(ingests, st.integers(0, len(SHAPES)), words, words), min_size=1, max_size=6
    )

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.core import SubjectiveQueryProcessor
        from repro.serving import (
            ClusterQueryEngine,
            ShardedSubjectiveQueryEngine,
            start_local_node,
        )
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=30, dimension=8, seed=29)
        processor = SubjectiveQueryProcessor(database)
        servers = [start_local_node(processor.membership, node_id=index)[0] for index in range(2)]
        engines = [
            ShardedSubjectiveQueryEngine(database=database, num_shards=2),
            ClusterQueryEngine(
                processor=processor, addresses=[server.address for server in servers], num_shards=4
            ),
        ]
        yield database, engines, servers
        for engine in engines:
            engine.close()
        for server in servers:
            server.stop()

    @staticmethod
    def _ingest(database, ingest) -> None:
        from repro.core.database import ReviewRecord

        if ingest is None:
            return
        entity_ids = database.entity_ids()
        if ingest[0] == "review":
            entity_id = entity_ids[ingest[1] % len(entity_ids)]
            review_id = 1_000_000 + database.num_reviews()
            database.add_review(ReviewRecord(review_id, entity_id, "word001 word040"))
        elif ingest[0] == "summary":
            _, pick, attribute, phrases = ingest
            summary = _replacement_summary(database, attribute, phrases)
            database.store_summary(entity_ids[pick % len(entity_ids)], summary)
        else:
            database.add_entity(f"late{len(entity_ids)}", {"city": "paris", "price": 80.0})

    @staticmethod
    def _assert_carried_bounds_are_fresh(servers) -> None:
        from dataclasses import fields

        from repro.core.columnar import ScoreBounds

        for server in servers:
            source = server.source
            for key, carried in source._bounds.items():
                columns = source._slices[key].columns
                assert carried.columns is columns, key
                fresh = ScoreBounds.of_columns(columns)
                for field in fields(fresh):
                    mine, theirs = getattr(carried, field.name), getattr(fresh, field.name)
                    if isinstance(theirs, np.ndarray):
                        assert np.array_equal(mine, theirs), (key, field.name)
                    elif field.name != "columns":
                        assert mine == theirs, (key, field.name)

    @staticmethod
    def _assert_rank_memos_are_fresh(servers) -> None:
        """Every envelope and exact degree a node keeps for ``rank`` frames
        belongs to the slice it holds now: a node that kept a stale one
        across a re-hydration (delta or full) fails here."""
        for server in servers:
            source = server.source
            for (attribute, slice_id), memo in server._ranked.items():
                for phrase, _start, _stop in memo.keys():
                    state = memo.peek((phrase, _start, _stop))
                    held = source._slices.get((attribute, slice_id))
                    assert held is not None and state.columns is held.columns, (
                        attribute, slice_id, phrase
                    )
                    exact = server.membership.degrees_columnar(held.columns, phrase)
                    known = state.known
                    assert np.array_equal(state.values[known], exact[known]), phrase
                    assert np.all(state.lo <= exact) and np.all(exact <= state.hi), phrase

    @staticmethod
    def _rankable(engine, sql) -> bool:
        """Whether the fleet ranks ``sql`` on its nodes: more candidates than
        the limit, every one with a row, in one row order for every attribute
        (an entity added without summaries has none), and not every degree
        already in the coordinator's cache (a JOIN's unpruned ranking may
        have left them there)."""
        from repro.core.interpreter import InterpretationMethod

        plan = engine.plan(sql)
        candidates = engine._candidate_rows(plan)
        interpretations = list(plan.interpretations.values())
        if not interpretations or any(
            interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
            or not interpretation.pairs
            for interpretation in interpretations
        ):
            return False
        columns = [
            engine.sharded_store.base.columns(pair.attribute)
            for interpretation in interpretations
            for pair in interpretation.pairs
        ]
        cache = engine.membership_cache
        rows = candidates.entity_rows(cache)
        cached = all(
            cache.covers((pair.attribute, engine.processor.phrase_for_pair(
                interpretation, pair.marker
            )), rows)
            for interpretation in interpretations
            for pair in interpretation.pairs
        )
        return (
            len(candidates.row_entities) > plan.statement.limit
            and all(other.entity_ids == columns[0].entity_ids for other in columns)
            and candidates.store_rows(columns[0]) is not None
            and not cached
        )

    @pytest.mark.timeout(300)
    @given(steps)
    @settings(max_examples=12, deadline=None)
    def test_every_step_answers_like_a_fresh_processor(self, fleet, steps):
        from repro.core import SubjectiveQueryProcessor
        from repro.serving import ClusterQueryEngine
        from repro.testing import assert_identical_results

        database, engines, servers = fleet
        for ingest, shape, a, b in steps:
            self._ingest(database, ingest)
            if shape == len(self.SHAPES):
                sql = self.JOIN.format(a=a, b=b)
            else:
                sql = f"select * from Entities where {self.SHAPES[shape].format(a=a, b=b)} limit 5"
            expected = SubjectiveQueryProcessor(database).execute(sql)
            for engine in engines:
                ranked = sum(server.rank_requests for server in servers)
                assert_identical_results(
                    expected, engine.execute(sql), f"{type(engine).__name__} {ingest} {sql!r}"
                )
                ranked = sum(server.rank_requests for server in servers) - ranked
                if isinstance(engine, ClusterQueryEngine) and shape < len(self.SHAPES):
                    # A prunable query ranks on the nodes — over the slices the
                    # ingest just re-hydrated, so stale node state would show.
                    # (Read after the query: the version check it ran has
                    # dropped caches the ingest outdated.)
                    assert (ranked > 0) == self._rankable(engine, sql), sql
            self._assert_carried_bounds_are_fresh(servers)
            self._assert_rank_memos_are_fresh(servers)


# --------------------------------------------------------------------------
# Persistent storage tier invariants
# --------------------------------------------------------------------------

def _storage_tree_digest(directory: str) -> dict[str, bytes]:
    """Raw bytes of every column/model file, keyed by relative path."""
    import os

    tree: dict[str, bytes] = {}
    for subdir in ("columns", "models"):
        root = os.path.join(directory, subdir)
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as handle:
                tree[f"{subdir}/{name}"] = handle.read()
    return tree


class TestPersistentStorageProperties:
    """save/open invariants of :mod:`repro.storage` under random databases."""

    @given(
        st.integers(min_value=3, max_value=14),
        st.integers(min_value=0, max_value=2**31),
        st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_save_open_save_is_byte_stable(self, num_entities, seed, with_embedder):
        import tempfile

        from repro.core.database import SubjectiveDatabase
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(
            num_entities=num_entities, markers_per_attribute=4, dimension=8, seed=seed
        )
        if not with_embedder:
            database.phrase_embedder = None  # the embedder-less save path
        with tempfile.TemporaryDirectory() as directory:
            database.save(directory)
            first = _storage_tree_digest(directory)
            booted = SubjectiveDatabase.open(directory)
            booted.save(directory)
            assert _storage_tree_digest(directory) == first
            assert booted.data_version == database.data_version

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=4), max_size=3),  # shape
                st.sampled_from(["<f8", ">f8", "<f4", "<i8"]),
                st.sampled_from(["C", "F"]),
            ),
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_streamed_column_file_equals_the_reference_layout(self, layout, seed):
        import tempfile

        from test_storage_persistent import assert_image_is_reference

        rng = np.random.default_rng(seed)
        sections = {}
        for index, (shape, dtype, order) in enumerate(layout):
            values = np.round(rng.normal(size=shape) * 8.0, 2)
            if values.size and dtype.endswith("f8"):
                flat = values.reshape(-1)  # a view: shape came from a fresh C array
                flat[0] = rng.choice([-0.0, np.nan, np.inf, 5e-324])
            sections[f"s{index}"] = np.asarray(values.astype(dtype), order=order)
        meta = {"attribute": "random", "version": int(seed % 7), "entity_ids": ["a", 3]}
        with tempfile.TemporaryDirectory() as directory:
            assert_image_is_reference(meta, sections, directory)

    @given(st.integers(min_value=0, max_value=2**31), st.data())
    @settings(max_examples=8, deadline=None)
    def test_catalog_versions_are_monotonic_under_ingest(self, seed, data):
        import tempfile

        from repro.core.markers import MarkerSummary
        from repro.storage import StorageCatalog
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(
            num_entities=8, markers_per_attribute=4, dimension=8, seed=seed
        )
        with tempfile.TemporaryDirectory() as directory:
            database.save(directory)
            with StorageCatalog(directory) as catalog:
                data_version = catalog.data_version
                versions = {row["name"]: row["version"] for row in catalog.attribute_rows()}
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                entity = f"e{data.draw(st.integers(min_value=0, max_value=7)):05d}"
                attribute = data.draw(st.sampled_from(["quality", "service"]))
                summary = MarkerSummary(
                    attribute, list(database.schema.subjective(attribute).markers)
                )
                summary.add_phrase(
                    summary.markers[data.draw(st.integers(min_value=0, max_value=3))].name,
                    sentiment=data.draw(st.floats(min_value=-1.0, max_value=1.0)),
                )
                database.store_summary(entity, summary)
                database.save(directory)
                with StorageCatalog(directory) as catalog:
                    next_data_version = catalog.data_version
                    next_versions = {
                        row["name"]: row["version"] for row in catalog.attribute_rows()
                    }
                assert next_data_version > data_version
                assert next_versions.keys() == versions.keys()
                for name, version in versions.items():
                    assert next_versions[name] >= version
                data_version, versions = next_data_version, next_versions

    @given(st.integers(min_value=0, max_value=2**31), st.data())
    @settings(max_examples=8, deadline=None)
    def test_mmap_gather_equals_in_memory_gather(self, seed, data):
        import tempfile

        from repro.core.columnar import gather_rows
        from repro.core.database import SubjectiveDatabase
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(
            num_entities=12, markers_per_attribute=4, dimension=8, seed=seed
        )
        with tempfile.TemporaryDirectory() as directory:
            database.save(directory)
            booted = SubjectiveDatabase.open(directory)
            attribute = data.draw(st.sampled_from(["quality", "service"]))
            ram = database.columnar_store().columns(attribute)
            mapped = booted.columnar_store().columns(attribute)
            rows = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=ram.num_entities - 1),
                    min_size=1,
                    max_size=ram.num_entities,
                )
            )
            expected = gather_rows(ram, rows)
            actual = gather_rows(mapped, rows)
            for name in (
                "fractions",
                "average_sentiments",
                "totals",
                "unmatched",
                "overall_sentiments",
                "centroids_unit",
            ):
                np.testing.assert_array_equal(
                    getattr(expected, name), getattr(actual, name), err_msg=name
                )
