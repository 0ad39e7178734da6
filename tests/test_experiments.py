"""Tests for the experiment harness (small-scale runs of each table/figure).

Each experiment is exercised at a reduced scale against the session-scoped
hotel setup; the assertions check the *shape* of the paper's findings rather
than absolute numbers.
"""

import pytest

from repro.experiments.common import (
    ExperimentTable,
    mean_and_interval,
    result_quality,
    sample_membership_examples,
    train_learned_membership,
)
from repro.experiments.exp_appendix_b_index import run_index_experiment
from repro.experiments.exp_appendix_c_pairing import run_pairing_experiment
from repro.experiments.exp_attribute_classifier import run_attribute_classifier_experiment
from repro.experiments.exp_fig7_fuzzy import format_fuzzy_comparison, run_fuzzy_comparison
from repro.experiments.exp_fig8_case import run_case_study
from repro.experiments.exp_table2_cooccurrence import run_cooccurrence_examples
from repro.experiments.exp_table3_survey import format_survey_experiment, run_survey_experiment
from repro.experiments.exp_table4_stats import run_review_statistics
from repro.experiments.exp_table5_quality import format_quality_experiment, run_quality_experiment
from repro.experiments.exp_table6_extractor import run_extractor_experiment
from repro.experiments.exp_table7_markers import run_marker_experiment
from repro.experiments.exp_table8_interpretation import run_interpretation_experiment


class TestCommonHelpers:
    def test_experiment_table_formatting(self):
        table = ExperimentTable("Demo", ["a", "b"])
        table.add_row(1, 0.51234)
        text = table.format()
        assert "Demo" in text and "0.512" in text
        assert table.to_dicts() == [{"a": 1, "b": 0.51234}]
        assert table.column("a") == [1]

    def test_experiment_table_rejects_bad_rows(self):
        table = ExperimentTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_mean_and_interval(self):
        mean, interval = mean_and_interval([1.0, 1.0, 1.0])
        assert mean == 1.0 and interval == 0.0
        assert mean_and_interval([]) == (0.0, 0.0)
        assert mean_and_interval([2.0])[0] == 2.0

    def test_result_quality_perfect_vs_reversed(self):
        candidates = ["a", "b", "c", "d"]
        gains = {"a": 2, "b": 1, "c": 0, "d": 0}

        class FakePredicate:
            pass

        def sat(_predicate, entity):
            return gains[entity]

        perfect = result_quality(["a", "b", "c", "d"], [FakePredicate()], candidates, sat, k=4)
        reversed_quality = result_quality(["d", "c", "b", "a"], [FakePredicate()], candidates, sat, k=4)
        assert perfect == pytest.approx(1.0)
        assert reversed_quality < perfect

    def test_domain_setup_candidates(self, hotel_setup):
        for option in hotel_setup.options:
            candidates = hotel_setup.candidate_entities(option)
            assert set(candidates) <= set(hotel_setup.corpus.entity_pairs().__iter__().__next__()[0]) \
                or all(isinstance(entity, str) for entity in candidates)

    def test_membership_sampling_and_training(self, hotel_setup):
        examples = sample_membership_examples(hotel_setup, num_examples=50, seed=1)
        assert len(examples) == 50
        assert {label for *_x, label in examples} <= {0, 1}
        membership, accuracy = train_learned_membership(hotel_setup, num_examples=200, seed=1)
        assert 0.0 <= accuracy <= 1.0


class TestSurveyAndStats:
    def test_survey_shape(self):
        result = run_survey_experiment(num_workers=10, seed=0)
        table = result.as_table()
        assert len(table.rows) == 7
        percentages = dict(zip(table.column("Domain"), table.column("%Subj. Attr")))
        assert percentages["Vacation"] > percentages["Car"]
        assert all(50.0 < value < 100.0 for value in percentages.values())
        assert "Table 3" in format_survey_experiment(result)

    def test_review_statistics(self, hotel_corpus, restaurant_corpus):
        result = run_review_statistics(hotel_corpus=hotel_corpus,
                                       restaurant_corpus=restaurant_corpus)
        assert len(result.rows) == 4
        by_option = {row.option: row for row in result.rows}
        assert by_option["london_under_300"].num_entities > 0
        assert all(row.avg_words > 0 for row in result.rows if row.num_reviews)


class TestQualityExperiment:
    def test_shape_on_small_setup(self, hotel_setup):
        result = run_quality_experiment("hotels", setup=hotel_setup, queries_per_cell=3)
        table = result.as_table()
        assert len(table.rows) == 6  # six methods
        # Every quality value is a valid NDCG.
        for row in table.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0
        assert "OpineDB" in format_quality_experiment(result)

    def test_opinedb_beats_weak_baselines_on_average(self, hotel_setup):
        result = run_quality_experiment("hotels", setup=hotel_setup, queries_per_cell=4)
        def average(method):
            return sum(c.quality for c in result.cells if c.method == method) / \
                max(1, sum(1 for c in result.cells if c.method == method))
        assert average("OpineDB") > average("ByPrice")
        assert average("OpineDB") > average("ByRating")

    #: Per-method mean quality at ``queries_per_cell=4`` on the session's
    #: hotel fixture.  The workload seeds are digests of (option, difficulty),
    #: so these hold under every ``PYTHONHASHSEED`` (CI runs this file under
    #: two); a drift means the experiment or the processor changed.
    PINNED_MEANS = {
        "OpineDB": 0.8962116730578579,
        "GZ12 (IR-based)": 0.8099289024877474,
        "ByPrice": 0.7458580323638951,
        "ByRating": 0.8052772905725692,
        "1-Attribute": 0.9000851016850007,
        "2-Attribute": 0.9420511751642016,
    }

    def test_table_values_are_pinned(self, hotel_setup):
        result = run_quality_experiment("hotels", setup=hotel_setup, queries_per_cell=4)
        means = {
            method: sum(values) / len(values)
            for method in self.PINNED_MEANS
            for values in [[c.quality for c in result.cells if c.method == method]]
        }
        assert means == pytest.approx(self.PINNED_MEANS, abs=1e-9)


class TestExtractorExperiment:
    def test_our_model_beats_baseline(self):
        result = run_extractor_experiment(repeats=1, scale=0.05, epochs=3)
        for dataset in {score.dataset for score in result.scores}:
            assert result.f1(dataset, "ours") >= result.f1(dataset, "baseline") - 0.05
        assert result.small_train_f1 is None or 0.0 <= result.small_train_f1 <= 1.0
        table = result.as_table()
        assert len(table.rows) == 4


class TestMarkerExperiment:
    def test_markers_do_not_slow_down_processing(self, hotel_setup):
        # The 3–6× speedups of Table 7 require corpora with many reviews per
        # entity (the benchmark measures that); on this tiny fixture we only
        # require that the marker-based variant is not slower than scanning
        # the raw extractions, and that its result quality is valid.
        result = run_marker_experiment(
            domains=("hotels",), setups={"hotels": hotel_setup},
            queries_per_set=3, membership_examples=200,
        )
        for option in hotel_setup.options:
            assert result.speedup(option) > 0.5
            assert 0.0 <= result.row(option, "10-mkrs").ndcg_at_10 <= 1.0
            assert 0.0 <= result.row(option, "no-mkrs").ndcg_at_10 <= 1.0
        assert "Speedup" in result.as_table().format()


class TestInterpretationExperiment:
    def test_accuracies_and_combination(self, hotel_setup):
        result = run_interpretation_experiment(
            domains=("hotels",), setups={"hotels": hotel_setup}, max_predicates=40,
        )
        w2v = result.accuracy("Hotel queries", "w2v")
        combined = result.accuracy("Hotel queries", "w2v+co-occur")
        assert 0.5 <= w2v <= 1.0
        assert combined >= w2v - 0.05
        assert len(result.as_table().rows) == 1

    def test_cooccurrence_examples(self, hotel_setup):
        result = run_cooccurrence_examples(domains=("hotels",), setups={"hotels": hotel_setup})
        assert result.examples
        assert 0.0 <= result.plausible_fraction <= 1.0


class TestFigureExperiments:
    def test_fuzzy_comparison_shape(self):
        result = run_fuzzy_comparison(num_entities=500, seed=0)
        # The fuzzy rule accepts a superset-sized population and the hard rule
        # misses some entities the fuzzy rule keeps (the shaded area of Fig 7).
        assert result.accepted_fuzzy > result.accepted_hard
        assert result.missed_by_hard > 0
        assert len(result.grid) == len(result.fuzzy_boundary) == len(result.hard_boundary)
        assert "fuzzy" in format_fuzzy_comparison(result)

    def test_fuzzy_boundary_below_hard_boundary_when_a2_high(self):
        result = run_fuzzy_comparison(num_entities=100, seed=1)
        assert result.fuzzy_boundary[-1] <= result.hard_boundary[-1] + 1e-9

    def test_case_study(self, hotel_setup):
        result = run_case_study(setup=hotel_setup)
        assert result.opine_truth >= result.ir_truth - 0.25
        assert result.as_table().rows

    def test_appendix_b_index(self, hotel_setup):
        result = run_index_experiment(setup=hotel_setup, max_predicates=30)
        assert 0.0 <= result.fast_hit_rate <= 1.0
        assert result.agreement >= 0.5
        assert result.num_predicates == 30

    def test_appendix_c_pairing(self):
        result = run_pairing_experiment(num_sentences=150, num_labelled_pairs=300, seed=0)
        assert result.rule_based_f1 > 0.5
        assert result.supervised_accuracy > 0.6
        assert result.as_table().rows

    def test_attribute_classifier_experiment(self):
        result = run_attribute_classifier_experiment(
            domains=("hotels",), num_entities=10, reviews_per_entity=6, test_size=200,
            target_expanded=1500,
        )
        assert result.accuracy("hotels") > 0.6
        assert result.scores[0].num_expanded > 100
