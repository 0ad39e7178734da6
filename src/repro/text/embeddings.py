"""Distributional word embeddings and the IDF-weighted phrase representation.

The paper trains gensim word2vec on the review corpus and represents query
predicates / linguistic variations with an IDF-weighted sum of word vectors
(Equation 1).  Here the default embedding model is PPMI + truncated SVD —
a classical count-based factorisation that is deterministic, trains in
seconds on review-scale corpora, and is known to approximate skip-gram with
negative sampling (Levy & Goldberg, 2014).  A true SGNS trainer is provided
in :mod:`repro.text.sgns` for parity.

Classes
-------
WordEmbeddings
    Embedding lookup shared by all trainers (token -> dense vector).
PpmiSvdEmbeddings
    Count-based trainer producing :class:`WordEmbeddings`.
PhraseEmbedder
    Implements ``rep(p) = sum_w w2v(w) * idf(w)`` and cosine similarity
    between phrases (Equations 1 and 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import svds

from repro.errors import NotFittedError
from repro.text.idf import DocumentFrequencies
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import iter_token_windows, tokenize
from repro.text.vocab import Vocabulary


class WordEmbeddings:
    """A matrix of word vectors with a vocabulary lookup.

    The rows of ``matrix`` are L2-normalised on construction so cosine
    similarity reduces to a dot product.
    """

    def __init__(self, vocabulary: Vocabulary, matrix: np.ndarray) -> None:
        if len(vocabulary) != matrix.shape[0]:
            raise ValueError(
                "vocabulary size and matrix row count differ: "
                f"{len(vocabulary)} vs {matrix.shape[0]}"
            )
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self._vocabulary = vocabulary
        self._matrix = matrix / norms

    @classmethod
    def from_normalized(
        cls, vocabulary: Vocabulary, matrix: np.ndarray
    ) -> "WordEmbeddings":
        """Wrap an already-L2-normalised matrix without re-normalising it.

        The persistent storage tier saves the normalised matrix verbatim
        and must restore the exact same bytes (possibly as a read-only
        ``numpy.memmap`` view); running the constructor's normalisation
        again would both copy the matrix and perturb rows whose norm is
        not bit-exactly 1.0 after the first pass.
        """
        if len(vocabulary) != matrix.shape[0]:
            raise ValueError(
                "vocabulary size and matrix row count differ: "
                f"{len(vocabulary)} vs {matrix.shape[0]}"
            )
        instance = cls.__new__(cls)
        instance._vocabulary = vocabulary
        instance._matrix = matrix
        return instance

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self._vocabulary

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def vector(self, token: str) -> np.ndarray | None:
        """Return the (unit-norm) vector of ``token`` or ``None`` if unseen."""
        token_id = self._vocabulary.id_of(token)
        if token_id is None:
            return None
        return self._matrix[token_id]

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity between two tokens (0.0 if either is unseen)."""
        u = self.vector(first)
        v = self.vector(second)
        if u is None or v is None:
            return 0.0
        return float(np.dot(u, v))

    def most_similar(self, token: str, top_n: int = 10) -> list[tuple[str, float]]:
        """Return the ``top_n`` nearest vocabulary tokens to ``token``."""
        anchor = self.vector(token)
        if anchor is None:
            return []
        scores = self._matrix @ anchor
        order = np.argsort(-scores)
        result: list[tuple[str, float]] = []
        for index in order:
            candidate = self._vocabulary.token_of(int(index))
            if candidate == token:
                continue
            result.append((candidate, float(scores[index])))
            if len(result) >= top_n:
                break
        return result

    def expand(self, token: str, top_n: int = 5, threshold: float = 0.4) -> list[str]:
        """Return near-synonyms of ``token`` above a similarity threshold.

        Used by the seed-expansion step of the attribute classifier
        (Section 4.2) and by the IR baseline's query expansion.
        """
        return [
            candidate
            for candidate, score in self.most_similar(token, top_n)
            if score >= threshold
        ]


@dataclass
class PpmiSvdEmbeddings:
    """Count-based word-embedding trainer (PPMI matrix + truncated SVD).

    Parameters
    ----------
    dimension:
        Size of the dense vectors (bounded by the vocabulary size − 1).
    window:
        Symmetric co-occurrence window in tokens.
    min_count:
        Tokens rarer than this are dropped from the vocabulary.
    shift:
        The "negative sampling" shift ``log k`` subtracted from PMI values;
        1.0 corresponds to plain PPMI.
    """

    dimension: int = 64
    window: int = 4
    min_count: int = 2
    shift: float = 1.0

    def fit(self, documents: Iterable[str | Sequence[str]]) -> WordEmbeddings:
        """Train embeddings on a corpus of raw strings or token lists."""
        tokenised = [
            tokenize(document) if isinstance(document, str) else list(document)
            for document in documents
        ]
        vocabulary = Vocabulary(min_count=self.min_count)
        vocabulary.add_corpus(tokenised)
        vocabulary.build()
        if len(vocabulary) < 2:
            raise ValueError("corpus too small to train embeddings")

        pair_counts: Counter = Counter()
        word_counts: Counter = Counter()
        for tokens in tokenised:
            ids = vocabulary.encode(tokens)
            for center, context in iter_token_windows(ids, self.window):
                for other in context:
                    pair_counts[(center, other)] += 1
                    word_counts[center] += 1

        total = sum(pair_counts.values())
        if total == 0:
            raise ValueError("corpus produced no co-occurrence pairs")

        rows, cols, values = [], [], []
        for (center, other), count in pair_counts.items():
            p_joint = count / total
            p_center = word_counts[center] / total
            p_other = word_counts[other] / total
            pmi = np.log(p_joint / (p_center * p_other))
            value = pmi - np.log(self.shift) if self.shift > 1.0 else pmi
            if value > 0:
                rows.append(center)
                cols.append(other)
                values.append(value)
        size = len(vocabulary)
        ppmi = coo_matrix(
            (values, (rows, cols)), shape=(size, size), dtype=np.float64
        ).tocsr()

        k = min(self.dimension, size - 1)
        # ARPACK's starting vector is random unless given; a fixed one makes
        # two fits of one corpus byte-identical.  It is what ``rng=0`` draws,
        # passed as ``v0`` because older SciPy has no ``rng`` argument.
        start = np.random.default_rng(0).standard_normal(size)
        u, s, _vt = svds(ppmi, k=k, v0=start)
        # svds returns singular values in ascending order; flip for stability.
        order = np.argsort(-s)
        matrix = u[:, order] * np.sqrt(s[order])
        return WordEmbeddings(vocabulary, matrix)


class PhraseEmbedder:
    """IDF-weighted phrase representation and phrase similarity (Eqs. 1–2).

    ``rep(p) = sum_{w in p} w2v(w) * idf(w)`` where unknown words contribute
    nothing.  Stopwords are down-weighted implicitly through their low IDF.
    """

    #: Maximum number of phrase representations memoised per embedder.
    CACHE_LIMIT = 100_000

    def __init__(
        self,
        embeddings: WordEmbeddings,
        document_frequencies: DocumentFrequencies,
        drop_stopwords: bool = False,
    ) -> None:
        self._embeddings = embeddings
        self._df = document_frequencies
        self._drop_stopwords = drop_stopwords
        self._cache: dict[str, np.ndarray] = {}

    @property
    def dimension(self) -> int:
        return self._embeddings.dimension

    @property
    def embeddings(self) -> WordEmbeddings:
        return self._embeddings

    def represent(self, phrase: str) -> np.ndarray:
        """Return the (possibly zero) representation vector of ``phrase``.

        Representations are memoised (phrases repeat heavily across marker
        summaries and query predicates); callers must not mutate the returned
        array in place.
        """
        cached = self._cache.get(phrase)
        if cached is not None:
            return cached
        tokens = tokenize(phrase)
        if self._drop_stopwords:
            tokens = [token for token in tokens if token not in STOPWORDS]
        vector = np.zeros(self._embeddings.dimension, dtype=np.float64)
        for token in tokens:
            word_vector = self._embeddings.vector(token)
            if word_vector is None:
                continue
            vector += word_vector * self._df.idf(token)
        if len(self._cache) < self.CACHE_LIMIT:
            self._cache[phrase] = vector
        return vector

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity of two phrase representations (Eq. 2)."""
        u = self.represent(first)
        v = self.represent(second)
        return cosine(u, v)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity robust to zero vectors (returns 0.0)."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def require_fitted(model: object, attribute: str) -> None:
    """Raise :class:`NotFittedError` when ``attribute`` is missing/None."""
    if getattr(model, attribute, None) is None:
        raise NotFittedError(
            f"{type(model).__name__} must be fitted before use"
        )
