"""Unit tests for the embedding trainers and the phrase embedder."""

import numpy as np
import pytest

from repro.text.embeddings import PhraseEmbedder, PpmiSvdEmbeddings, WordEmbeddings, cosine
from repro.text.idf import DocumentFrequencies
from repro.text.sgns import SkipGramEmbeddings
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocabulary

from tests.conftest import SMALL_CORPUS


class TestWordEmbeddings:
    def make(self):
        vocabulary = Vocabulary(min_count=1)
        vocabulary.add_corpus([["a", "b", "c"]])
        vocabulary.build()
        matrix = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        return WordEmbeddings(vocabulary, matrix)

    def test_rows_are_unit_norm(self):
        embeddings = self.make()
        for token in ("a", "b", "c"):
            assert np.linalg.norm(embeddings.vector(token)) == pytest.approx(1.0)

    def test_unknown_token_returns_none(self):
        assert self.make().vector("zzz") is None

    def test_similarity_of_parallel_vectors(self):
        embeddings = self.make()
        assert embeddings.similarity("a", "c") == pytest.approx(1.0)

    def test_similarity_unknown_is_zero(self):
        assert self.make().similarity("a", "zzz") == 0.0

    def test_most_similar_excludes_self(self):
        neighbours = self.make().most_similar("a", top_n=2)
        assert all(token != "a" for token, _score in neighbours)

    def test_mismatched_sizes_rejected(self):
        vocabulary = Vocabulary(min_count=1)
        vocabulary.add_corpus([["a", "b"]])
        vocabulary.build()
        with pytest.raises(ValueError):
            WordEmbeddings(vocabulary, np.zeros((3, 2)))


class TestPpmiSvd:
    def test_trains_on_small_corpus(self):
        embeddings = PpmiSvdEmbeddings(dimension=16, min_count=1).fit(SMALL_CORPUS)
        assert embeddings.dimension <= 16
        assert len(embeddings) > 10

    def test_semantic_neighbours(self):
        embeddings = PpmiSvdEmbeddings(dimension=16, min_count=1).fit(SMALL_CORPUS)
        # "clean" and "spotless" share contexts (room) in the small corpus.
        assert embeddings.similarity("clean", "spotless") > embeddings.similarity("clean", "breakfast") - 1e-9

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError):
            PpmiSvdEmbeddings(min_count=1).fit(["single"])

    def test_deterministic(self):
        first = PpmiSvdEmbeddings(dimension=8, min_count=1).fit(SMALL_CORPUS)
        second = PpmiSvdEmbeddings(dimension=8, min_count=1).fit(SMALL_CORPUS)
        assert first.similarity("clean", "dirty") == pytest.approx(
            second.similarity("clean", "dirty")
        )

    def test_two_fits_are_byte_identical(self):
        """ARPACK starts from a fixed vector, so refits agree to the last bit."""
        first = PpmiSvdEmbeddings(dimension=8, min_count=1).fit(SMALL_CORPUS)
        second = PpmiSvdEmbeddings(dimension=8, min_count=1).fit(SMALL_CORPUS)
        assert list(first.vocabulary) == list(second.vocabulary)
        for token in first.vocabulary:
            assert first.vector(token).tobytes() == second.vector(token).tobytes(), token


class TestSkipGram:
    def test_trains_and_exposes_vectors(self):
        embeddings = SkipGramEmbeddings(dimension=12, min_count=1, epochs=1).fit(SMALL_CORPUS)
        assert embeddings.vector("clean") is not None
        assert embeddings.dimension == 12

    def test_seed_controls_determinism(self):
        first = SkipGramEmbeddings(dimension=8, min_count=1, epochs=1, seed=1).fit(SMALL_CORPUS)
        second = SkipGramEmbeddings(dimension=8, min_count=1, epochs=1, seed=1).fit(SMALL_CORPUS)
        assert first.similarity("clean", "room") == pytest.approx(
            second.similarity("clean", "room")
        )


class TestPhraseEmbedder:
    def make(self):
        embeddings = PpmiSvdEmbeddings(dimension=16, min_count=1).fit(SMALL_CORPUS)
        frequencies = DocumentFrequencies()
        frequencies.add_corpus([tokenize(text) for text in SMALL_CORPUS])
        return PhraseEmbedder(embeddings, frequencies)

    def test_identical_phrases_have_similarity_one(self):
        embedder = self.make()
        assert embedder.similarity("clean room", "clean room") == pytest.approx(1.0)

    def test_unknown_phrase_gives_zero_vector(self):
        embedder = self.make()
        assert np.linalg.norm(embedder.represent("xyzzy qwerty")) == 0.0

    def test_similarity_with_unknown_phrase_is_zero(self):
        embedder = self.make()
        assert embedder.similarity("clean room", "xyzzy qwerty") == 0.0

    def test_shared_words_increase_similarity(self):
        embedder = self.make()
        assert embedder.similarity("clean room", "very clean room") > \
            embedder.similarity("clean room", "stale coffee")

    def test_dimension_property(self):
        embedder = self.make()
        assert embedder.dimension == embedder.represent("clean").shape[0]


class TestCosine:
    def test_zero_vector_returns_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_identical(self):
        v = np.array([0.3, 0.4])
        assert cosine(v, v) == pytest.approx(1.0)
