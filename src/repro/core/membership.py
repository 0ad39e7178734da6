"""Membership functions: from marker summaries to degrees of truth (Section 3.3).

Given an interpreted predicate ``A ≐ m`` (attribute A, marker m, original
query phrase q) and an entity's marker summary for A, a membership function
returns a degree of truth in [0, 1].

Three implementations are provided:

``HeuristicMembership``
    A training-free function combining two signals read off the summary:
    (a) *sentiment-aligned mass* — how much of the summary's phrase mass sits
    on markers whose polarity agrees with the polarity of the query phrase
    ("really clean" is positive, so mass on positive markers counts); and
    (b) *similarity mass* — how much of the mass sits on the markers most
    similar to the phrase in embedding space (which handles non-polar
    phrases like "firm beds").  It is the bootstrap used to label training
    data cheaply and the default when no labelled tuples are available.

``LearnedMembership``
    The paper's approach: a binary logistic-regression classifier trained on
    labelled ``(marker summary, phrase, label)`` tuples; its positive-class
    probability is the degree of truth.  Features come only from the
    precomputed marker summary (marker masses, per-marker sentiments,
    marker/phrase similarities), which is what makes query processing fast.

``RawExtractionMembership``
    The "no markers" ablation of Table 7: the same logistic-regression
    model, but with features computed at query time by scanning all the raw
    extracted phrases of the entity/attribute (number and fraction of
    phrases similar to the query predicate, their average sentiment, ...).
    It is substantially slower, which is exactly the effect Table 7 measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import columnar
from repro.core.columnar import AttributeColumns
from repro.core.database import ExtractionRecord, SubjectiveDatabase
from repro.core.markers import MarkerSummary
from repro.errors import NotFittedError
from repro.ml.logistic import LogisticRegression, _sigmoid
from repro.text.embeddings import PhraseEmbedder, cosine
from repro.text.sentiment import SentimentAnalyzer

#: Number of features produced by :func:`summary_feature_vector`.
SUMMARY_FEATURE_COUNT = 12

_ANALYZER = SentimentAnalyzer()
_POLARITY_CACHE: dict[str, float] = {}


def _phrase_polarity(phrase: str) -> float:
    """Memoised sentiment polarity of a phrase (phrases repeat across entities)."""
    cached = _POLARITY_CACHE.get(phrase)
    if cached is None:
        cached = _ANALYZER.polarity(phrase)
        if len(_POLARITY_CACHE) < 100_000:
            _POLARITY_CACHE[phrase] = cached
    return cached


@dataclass
class PhraseContext:
    """Per-phrase quantities hoisted out of per-entity scoring.

    Scoring one predicate against many candidate entities repeats the same
    phrase-level work (sentiment polarity, phrase embedding, similarity to
    each marker name) for every entity.  A context computes each of those
    once; the per-entity remainder then only touches that entity's summary
    arrays.  Contexts are what make :meth:`MembershipFunction.degrees` a
    single pass over precomputed arrays rather than N independent scorings.
    """

    #: Memoised marker-name similarities are capped per context; marker-name
    #: vocabularies are tiny in practice, so the cap only guards pathological
    #: callers that stream unbounded marker names through one context.
    NAME_CACHE_LIMIT = 4096

    phrase: str
    polarity: float
    vector: np.ndarray | None
    embedder: PhraseEmbedder | None
    _name_similarities: dict[str, float] = field(default_factory=dict)

    def name_similarity(self, marker_name: str) -> float:
        """Memoised similarity of the query phrase to one marker name."""
        cached = self._name_similarities.get(marker_name)
        if cached is None:
            if self.embedder is None or self.vector is None:
                cached = 0.0
            else:
                cached = cosine(self.vector, self.embedder.represent(marker_name))
            if len(self._name_similarities) < self.NAME_CACHE_LIMIT:
                self._name_similarities[marker_name] = cached
        return cached

    def prime_name_similarities(self, columns: AttributeColumns) -> None:
        """Prefill the name-similarity memo from columnar marker-name units.

        One M×D matrix–vector product against the store's shared
        prenormalized marker-name matrix replaces M separate cosine calls
        when a scalar-path context scores an attribute the columnar store
        has already materialised.
        """
        if self.vector is None or columns.dimension != self.vector.shape[0]:
            return
        norm = float(np.linalg.norm(self.vector))
        if norm == 0.0:
            similarities = np.zeros(columns.num_markers)
        else:
            similarities = columns.name_units @ (self.vector / norm)
        for marker, similarity in zip(columns.markers, similarities):
            if len(self._name_similarities) >= self.NAME_CACHE_LIMIT:
                break
            self._name_similarities.setdefault(marker.name, float(similarity))


def _context_for(phrase: str, embedder: PhraseEmbedder | None) -> PhraseContext:
    return PhraseContext(
        phrase=phrase,
        polarity=_phrase_polarity(phrase),
        vector=embedder.represent(phrase) if embedder is not None else None,
        embedder=embedder,
    )


def _marker_similarities_ctx(summary: MarkerSummary, ctx: PhraseContext) -> list[float]:
    """Similarity of the query phrase to each marker (name and centroid)."""
    if ctx.embedder is None:
        return [0.0] * len(summary.markers)
    arrays = summary.arrays()
    similarities = []
    for index, marker in enumerate(summary.markers):
        name_similarity = ctx.name_similarity(marker.name)
        vector_sum = arrays.vector_sums[index]
        if vector_sum is None:
            centroid_similarity = 0.0
        else:
            count = arrays.counts[index]
            centroid = vector_sum / count if count != 0.0 else vector_sum
            centroid_similarity = cosine(ctx.vector, centroid)
        similarities.append(max(name_similarity, centroid_similarity))
    return similarities


def _marker_similarities(
    summary: MarkerSummary, phrase: str, embedder: PhraseEmbedder | None
) -> list[float]:
    """Similarity of the query phrase to each marker (name and centroid)."""
    return _marker_similarities_ctx(summary, _context_for(phrase, embedder))


def _marker_polarities(summary: MarkerSummary) -> list[float]:
    """Polarity of each marker: observed average sentiment, else the marker's own."""
    arrays = summary.arrays()
    polarities = []
    for index, marker in enumerate(summary.markers):
        observed = float(arrays.average_sentiments[index])
        if abs(observed) < 1e-9 and arrays.counts[index] == 0.0:
            observed = marker.sentiment
        polarities.append(observed if abs(observed) > 1e-9 else marker.sentiment)
    return polarities


def _aligned_mass(summary: MarkerSummary, phrase_polarity: float) -> float:
    """Share of the summary's mass on markers agreeing with the phrase polarity.

    Each marker contributes its fraction weighted by ``0.5·(1 + sign·pol)``,
    so a summary fully concentrated on strongly agreeing markers scores near
    1 and one concentrated on strongly disagreeing markers scores near 0.
    """
    arrays = summary.arrays()
    if arrays.total == 0.0:
        return 0.0
    sign = 1.0 if phrase_polarity >= 0 else -1.0
    polarities = _marker_polarities(summary)
    alignments = [0.5 * (1.0 + sign * max(-1.0, min(1.0, polarity)))
                  for polarity in polarities]
    return float(np.dot(arrays.fractions, alignments))


def _similarity_mass_ctx(
    summary: MarkerSummary, ctx: PhraseContext
) -> tuple[float, list[float]]:
    """Mass concentrated on the markers most similar to the phrase, in [0, 1]."""
    similarities = _marker_similarities_ctx(summary, ctx)
    arrays = summary.arrays()
    fractions = arrays.fractions
    positives = np.clip(np.array(similarities), 0.0, None) ** 2
    if positives.sum() <= 0 or arrays.total == 0.0:
        return 0.5, similarities
    weights = positives / positives.sum()
    expected = float(np.dot(weights, fractions))
    peak = float(np.max(fractions)) if len(fractions) else 1.0
    return min(1.0, expected / (peak + 1e-9)), similarities


def _similarity_mass(
    summary: MarkerSummary, phrase: str, embedder: PhraseEmbedder | None
) -> tuple[float, list[float]]:
    """Mass concentrated on the markers most similar to the phrase, in [0, 1]."""
    return _similarity_mass_ctx(summary, _context_for(phrase, embedder))


def summary_feature_vector(
    summary: MarkerSummary,
    phrase: str,
    embedder: PhraseEmbedder | None,
    phrase_sentiment: float | None = None,
) -> np.ndarray:
    """Fixed-length feature vector of a (marker summary, phrase) pair.

    The features only read the precomputed summary statistics (marker
    masses, per-marker average sentiment, centroids), never the underlying
    extractions — that is the efficiency argument of Section 3.3.  They are
    aggregated so the vector length does not depend on the number of
    markers, letting a single model serve attributes with different marker
    counts.
    """
    return _summary_features_ctx(
        summary, _context_for(phrase, embedder), phrase_sentiment
    )


def _summary_features_ctx(
    summary: MarkerSummary,
    ctx: PhraseContext,
    phrase_sentiment: float | None = None,
) -> np.ndarray:
    """Feature vector against a prebuilt phrase context (hoisted batch path)."""
    if phrase_sentiment is None:
        phrase_sentiment = ctx.polarity
    total = summary.total()
    fractions = [summary.fraction(name) for name in summary.marker_names]
    sentiments = [summary.average_sentiment(name) for name in summary.marker_names]
    similarity_mass, similarities = _similarity_mass_ctx(summary, ctx)
    aligned = _aligned_mass(summary, phrase_sentiment)
    best = int(np.argmax(similarities)) if similarities else 0
    overall_sentiment = summary.overall_sentiment()
    unmatched_fraction = (
        summary.num_unmatched / (summary.num_unmatched + total)
        if (summary.num_unmatched + total) > 0
        else 0.0
    )
    return np.array(
        [
            math.log1p(total),
            aligned,
            similarity_mass,
            fractions[best] if fractions else 0.0,
            similarities[best] if similarities else 0.0,
            sentiments[best] if sentiments else 0.0,
            overall_sentiment,
            phrase_sentiment,
            phrase_sentiment * overall_sentiment,
            unmatched_fraction,
            float(np.dot(fractions, sentiments)) if fractions else 0.0,
            1.0 if total == 0 else 0.0,
        ]
    )


class MembershipFunction:
    """Interface: degree of truth of a phrase given a marker summary."""

    def degree(self, summary: MarkerSummary | None, phrase: str) -> float:
        """Return a degree of truth in [0, 1]; ``summary`` may be ``None``."""
        raise NotImplementedError

    def degrees(
        self, summaries: Sequence[MarkerSummary | None], phrase: str
    ) -> np.ndarray:
        """Degrees of truth of one phrase against many summaries.

        The batch-over-entities primitive driven by the query processor and
        the serving engine.  The default loops over :meth:`degree`;
        implementations override it to hoist phrase-level work out of the
        per-entity loop.  Must return exactly the values :meth:`degree` would
        return element-wise.
        """
        return np.array([self.degree(summary, phrase) for summary in summaries])


@dataclass
class HeuristicMembership(MembershipFunction):
    """Training-free membership: sentiment-aligned mass blended with similarity mass.

    The sentiment-aligned score is shrunk towards the neutral prior 0.5 with
    ``smoothing_pseudocount`` pseudo-observations, so an entity whose summary
    holds a single agreeing phrase does not outrank one with twenty phrases
    that are almost all agreeing.
    """

    embedder: PhraseEmbedder | None = None
    empty_degree: float = 0.25
    polar_sentiment_weight: float = 0.75
    neutral_sentiment_weight: float = 0.3
    smoothing_pseudocount: float = 3.0

    def degree(self, summary: MarkerSummary | None, phrase: str) -> float:
        return self._degree_in_context(summary, _context_for(phrase, self.embedder))

    def degrees(
        self, summaries: Sequence[MarkerSummary | None], phrase: str
    ) -> np.ndarray:
        """Batch scoring: the phrase context is built once for all summaries."""
        ctx = _context_for(phrase, self.embedder)
        return np.array(
            [self._degree_in_context(summary, ctx) for summary in summaries]
        )

    def degrees_columnar(self, columns: AttributeColumns, phrase: str) -> np.ndarray:
        """Attribute-wide scoring: one phrase against every entity in ``columns``.

        The columnar mirror of :meth:`degree` — marker similarities as one
        tensor–vector product, aligned/similarity mass as matrix reductions,
        smoothing and blending as elementwise kernels.  Returns a length-E
        vector aligned with ``columns.entity_ids``, equal to the scalar path
        up to floating-point round-off of the batched linear algebra.
        """
        vector = self.embedder.represent(phrase) if self.embedder is not None else None
        polarity = _phrase_polarity(phrase)
        similarities = columnar.phrase_marker_similarities(columns, vector)
        similarity_mass = columnar.similarity_mass(columns, similarities)
        if abs(polarity) >= 0.05:
            sentiment_weight = self.polar_sentiment_weight
            sentiment_scores = columnar.aligned_mass(columns, polarity)
        else:
            sentiment_weight = self.neutral_sentiment_weight
            sentiment_scores = 0.5 * (1.0 + columns.overall_sentiments)
        totals = columns.totals
        k = self.smoothing_pseudocount
        sentiment_scores = (sentiment_scores * totals + 0.5 * k) / (totals + k)
        degrees = (
            sentiment_weight * sentiment_scores
            + (1.0 - sentiment_weight) * similarity_mass
        )
        return np.where(totals == 0.0, self.empty_degree, np.clip(degrees, 0.0, 1.0))

    def degree_bounds(
        self, bounds: "columnar.ScoreBounds", phrase: str
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Sound per-entity ``[lo, hi]`` envelope of :meth:`degrees_columnar`.

        The sentiment half of the blend reads only the E×M fraction and
        sentiment matrices, so it is computed *exactly* (a polar phrase
        reads the aligned mass of its sign that ``bounds`` keeps, the same
        bits :func:`repro.core.columnar.aligned_mass` returns); only the similarity
        mass — the half that needs the E×M×D centroid tensor — is bracketed
        through :func:`repro.core.columnar.similarity_mass_bounds`.  Every
        exact degree therefore lies inside the returned envelope, which is
        what lets the top-k planner prune entities whose ``hi`` cannot reach
        the running k-th score without ever computing their exact degree.
        """
        columns = bounds.columns
        vector = self.embedder.represent(phrase) if self.embedder is not None else None
        polarity = _phrase_polarity(phrase)
        mass_lo, mass_hi = columnar.similarity_mass_bounds(bounds, vector)
        if abs(polarity) >= 0.05:
            sentiment_weight = self.polar_sentiment_weight
            sentiment_scores = bounds.aligned_mass(polarity)
        else:
            sentiment_weight = self.neutral_sentiment_weight
            sentiment_scores = 0.5 * (1.0 + columns.overall_sentiments)
        totals = columns.totals
        k = self.smoothing_pseudocount
        sentiment_scores = (sentiment_scores * totals + 0.5 * k) / (totals + k)
        base = sentiment_weight * sentiment_scores
        lo = np.clip(base + (1.0 - sentiment_weight) * mass_lo, 0.0, 1.0)
        hi = np.clip(base + (1.0 - sentiment_weight) * mass_hi, 0.0, 1.0)
        empty = totals == 0.0
        lo = np.where(empty, self.empty_degree, lo)
        hi = np.where(empty, self.empty_degree, hi)
        return lo, hi

    def context_for(self, phrase: str) -> PhraseContext:
        """A phrase context usable with :meth:`context_degree` (fallback path)."""
        return _context_for(phrase, self.embedder)

    def context_degree(self, summary: MarkerSummary | None, ctx: PhraseContext) -> float:
        """Score one summary against a shared (possibly primed) context."""
        return self._degree_in_context(summary, ctx)

    def _degree_in_context(
        self, summary: MarkerSummary | None, ctx: PhraseContext
    ) -> float:
        if summary is None:
            return self.empty_degree
        arrays = summary.arrays()
        if arrays.total == 0.0:
            return self.empty_degree
        similarity_mass, _similarities = _similarity_mass_ctx(summary, ctx)
        if abs(ctx.polarity) >= 0.05:
            sentiment_weight = self.polar_sentiment_weight
            sentiment_score = _aligned_mass(summary, ctx.polarity)
        else:
            sentiment_weight = self.neutral_sentiment_weight
            sentiment_score = 0.5 * (1.0 + summary.overall_sentiment())
        total = arrays.total
        k = self.smoothing_pseudocount
        sentiment_score = (sentiment_score * total + 0.5 * k) / (total + k)
        degree = sentiment_weight * sentiment_score + (1.0 - sentiment_weight) * similarity_mass
        return min(1.0, max(0.0, degree))


@dataclass
class LearnedMembership(MembershipFunction):
    """Logistic-regression membership trained on labelled (summary, phrase) tuples."""

    embedder: PhraseEmbedder | None = None
    model: LogisticRegression = field(default_factory=LogisticRegression)
    _fitted: bool = field(default=False, init=False)

    def _features(self, summary: MarkerSummary, phrase: str) -> np.ndarray:
        return summary_feature_vector(summary, phrase, self.embedder)

    def fit(
        self,
        examples: Sequence[tuple[MarkerSummary, str, int]],
    ) -> "LearnedMembership":
        """Train on ``(summary, phrase, label)`` tuples with binary labels."""
        if not examples:
            raise ValueError("no training examples provided")
        features = np.vstack(
            [self._features(summary, phrase) for summary, phrase, _label in examples]
        )
        labels = [int(label) for _summary, _phrase, label in examples]
        if len(set(labels)) < 2:
            raise ValueError("training labels must include both classes")
        self.model.fit(features, labels)
        self._fitted = True
        return self

    def accuracy(self, examples: Sequence[tuple[MarkerSummary, str, int]]) -> float:
        """Classification accuracy on held-out labelled tuples."""
        if not self._fitted:
            raise NotFittedError("LearnedMembership is not fitted")
        features = np.vstack(
            [self._features(summary, phrase) for summary, phrase, _label in examples]
        )
        labels = [int(label) for _summary, _phrase, label in examples]
        return self.model.score(features, labels)

    def degree(self, summary: MarkerSummary | None, phrase: str) -> float:
        if not self._fitted:
            raise NotFittedError("LearnedMembership is not fitted")
        if summary is None:
            return 0.25
        features = self._features(summary, phrase)
        return float(self.model.positive_probability(features.reshape(1, -1))[0])

    def degrees(
        self, summaries: Sequence[MarkerSummary | None], phrase: str
    ) -> np.ndarray:
        """Batch scoring: one phrase context, one stacked logistic evaluation.

        The phrase-level work (polarity, embedding, marker-name similarities)
        is hoisted into a single context, the per-summary feature vectors are
        vstacked, and the model runs once over the whole matrix instead of
        once per entity.  Values match :meth:`degree` element-wise up to
        floating-point round-off of the batched linear algebra.
        """
        if not self._fitted:
            raise NotFittedError("LearnedMembership is not fitted")
        degrees = np.full(len(summaries), 0.25)
        ctx = _context_for(phrase, self.embedder)
        present = [i for i, summary in enumerate(summaries) if summary is not None]
        if present:
            features = np.vstack(
                [_summary_features_ctx(summaries[i], ctx) for i in present]
            )
            degrees[present] = self.model.positive_probability(features)
        return degrees

    def degrees_columnar(self, columns: AttributeColumns, phrase: str) -> np.ndarray:
        """Attribute-wide scoring: E×12 feature matrix, one logistic pass."""
        if not self._fitted:
            raise NotFittedError("LearnedMembership is not fitted")
        vector = self.embedder.represent(phrase) if self.embedder is not None else None
        features = columnar.summary_feature_matrix(
            columns, vector, _phrase_polarity(phrase)
        )
        return self.model.positive_probability(features)

    def degree_bounds(
        self, bounds: "columnar.ScoreBounds", phrase: str
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Sound per-entity ``[lo, hi]`` envelope of :meth:`degrees_columnar`.

        Interval arithmetic through the logistic head: most of the 12
        summary features are exact functions of the E×M matrices, and the
        uncertain ones (similarity mass, best-marker fraction / similarity /
        sentiment) are replaced by per-row boxes from the precomputed
        :class:`repro.core.columnar.ScoreBounds`.  Each feature interval is
        pushed through its effective linear coefficient (weights folded with
        the stored standardization), the interval decision values are padded
        against float round-off, and the monotone sigmoid maps them to
        degree bounds.  Returns ``None`` for configurations the envelope
        cannot cover (unfitted or non-binary model, feature-count mismatch,
        marker-less columns) — callers fall back to full scoring.
        """
        if not self._fitted:
            return None
        model = self.model
        if (
            model.weights_ is None
            or model.classes_ is None
            or len(model.classes_) != 2
        ):
            return None
        columns = bounds.columns
        if columns.num_markers == 0:
            return None
        vector = self.embedder.represent(phrase) if self.embedder is not None else None
        polarity = _phrase_polarity(phrase)
        num_entities = columns.num_entities
        aligned = bounds.aligned_mass(polarity)
        mass_lo, mass_hi = columnar.similarity_mass_bounds(bounds, vector)
        norm = float(np.linalg.norm(vector)) if vector is not None else 0.0
        if vector is None or columns.dimension == 0 or norm == 0.0:
            similarity_lo = np.zeros(num_entities)
            similarity_hi = np.zeros(num_entities)
        else:
            name_similarities = columns.name_units @ (vector / norm)  # (M,)
            similarity_lo = np.full(num_entities, float(name_similarities.max()))
            similarity_hi = (
                bounds.deviations + name_similarities[:, np.newaxis]
            ).max(axis=0)
        denominators = columns.unmatched + columns.totals
        unmatched_fractions = np.where(
            denominators > 0.0,
            columns.unmatched / np.where(denominators > 0.0, denominators, 1.0),
            0.0,
        )
        phrase_sentiments = np.full(num_entities, polarity)
        dots = np.einsum(
            "em,em->e", columns.fractions, columns.average_sentiments
        )
        empties = (columns.totals == 0.0).astype(np.float64)
        shared = {
            0: np.log1p(columns.totals),
            1: aligned,
            6: columns.overall_sentiments,
            7: phrase_sentiments,
            8: polarity * columns.overall_sentiments,
            9: unmatched_fractions,
            10: dots,
            11: empties,
        }
        feature_lo = np.empty((num_entities, SUMMARY_FEATURE_COUNT))
        feature_hi = np.empty((num_entities, SUMMARY_FEATURE_COUNT))
        for index, column in shared.items():
            feature_lo[:, index] = column
            feature_hi[:, index] = column
        feature_lo[:, 2], feature_hi[:, 2] = mass_lo, mass_hi
        feature_lo[:, 3], feature_hi[:, 3] = bounds.fraction_mins, bounds.fraction_peaks
        feature_lo[:, 4], feature_hi[:, 4] = similarity_lo, similarity_hi
        feature_lo[:, 5], feature_hi[:, 5] = bounds.sentiment_mins, bounds.sentiment_maxs
        weights = np.asarray(model.weights_[0], dtype=np.float64)
        if model.fit_intercept:
            if weights.shape[0] != SUMMARY_FEATURE_COUNT + 1:
                return None
            coefficients = weights[:SUMMARY_FEATURE_COUNT].copy()
            constant = float(weights[SUMMARY_FEATURE_COUNT])
        else:
            if weights.shape[0] != SUMMARY_FEATURE_COUNT:
                return None
            coefficients = weights.copy()
            constant = 0.0
        if model.standardize and model._mean is not None and model._std is not None:
            constant -= float(np.dot(coefficients, model._mean / model._std))
            coefficients = coefficients / model._std
        products_lo = feature_lo * coefficients
        products_hi = feature_hi * coefficients
        z_lo = constant + np.minimum(products_lo, products_hi).sum(axis=1) - 1e-6
        z_hi = constant + np.maximum(products_lo, products_hi).sum(axis=1) + 1e-6
        return _sigmoid(z_lo), _sigmoid(z_hi)


def raw_extraction_features(
    extractions: Sequence[ExtractionRecord],
    phrase: str,
    embedder: PhraseEmbedder | None,
    similarity_threshold: float = 0.4,
) -> np.ndarray:
    """Query-time features computed from the raw extraction list (no markers).

    Mirrors the engineered feature set the paper describes for the
    marker-free variant: counts and fractions of extracted phrases similar
    to the query predicate, their sentiment, and overall statistics.  The
    cost is a full scan of the entity's extractions per query predicate.
    """
    total = len(extractions)
    phrase_polarity = _phrase_polarity(phrase)
    if total == 0:
        return np.zeros(9)
    if embedder is not None:
        # One stacked cosine kernel over all extraction-phrase vectors; the
        # embedder memoises represent() so repeated scans of the same entity
        # pay only the matrix product, never re-embedding.
        phrase_vector = embedder.represent(phrase)
        phrase_norm = float(np.linalg.norm(phrase_vector))
        if phrase_norm == 0.0:
            similarities = [0.0] * total
        else:
            matrix = np.vstack(
                [embedder.represent(record.phrase) for record in extractions]
            )
            norms = np.linalg.norm(matrix, axis=1)
            scale = np.where(norms > 0.0, norms * phrase_norm, 1.0)
            products = (matrix @ phrase_vector) / scale
            similarities = np.where(norms > 0.0, products, 0.0).tolist()
    else:
        similarities = [0.0] * total
    similar = [
        (record, sim)
        for record, sim in zip(extractions, similarities)
        if sim >= similarity_threshold
    ]
    sentiments = [record.sentiment for record in extractions]
    similar_sentiments = [record.sentiment for record, _sim in similar]
    sign = 1.0 if phrase_polarity >= 0 else -1.0
    aligned = sum(0.5 * (1.0 + sign * max(-1.0, min(1.0, s))) for s in sentiments) / total
    positive_fraction = sum(1 for s in sentiments if s > 0.05) / total
    return np.array(
        [
            math.log1p(total),
            aligned,
            len(similar) / total,
            float(np.mean(similar_sentiments)) if similar_sentiments else 0.0,
            float(np.mean(sentiments)),
            positive_fraction,
            max(similarities) if similarities else 0.0,
            float(np.mean(similarities)) if similarities else 0.0,
            phrase_polarity,
        ]
    )


@dataclass
class RawExtractionMembership(MembershipFunction):
    """The Table-7 "no markers" variant: LR over raw-extraction features.

    Requires the owning :class:`SubjectiveDatabase` so it can scan the
    extraction lists at query time; the attribute of the interpreted
    predicate must be supplied through :meth:`degree_for_attribute` (the
    generic :meth:`degree` signature has no attribute, so it is not
    supported on this class).
    """

    database: SubjectiveDatabase
    embedder: PhraseEmbedder | None = None
    model: LogisticRegression = field(default_factory=LogisticRegression)
    _fitted: bool = field(default=False, init=False)

    def fit(
        self,
        examples: Sequence[tuple[object, str, str, int]],
    ) -> "RawExtractionMembership":
        """Train on ``(entity_id, attribute, phrase, label)`` tuples."""
        if not examples:
            raise ValueError("no training examples provided")
        features = np.vstack(
            [
                raw_extraction_features(
                    self.database.extractions(entity_id=entity, attribute=attribute),
                    phrase,
                    self.embedder,
                )
                for entity, attribute, phrase, _label in examples
            ]
        )
        labels = [int(label) for _entity, _attribute, _phrase, label in examples]
        if len(set(labels)) < 2:
            raise ValueError("training labels must include both classes")
        self.model.fit(features, labels)
        self._fitted = True
        return self

    def accuracy(self, examples: Sequence[tuple[object, str, str, int]]) -> float:
        """Classification accuracy on held-out (entity, attribute, phrase, label) tuples."""
        if not self._fitted:
            raise NotFittedError("RawExtractionMembership is not fitted")
        features = np.vstack(
            [
                raw_extraction_features(
                    self.database.extractions(entity_id=entity, attribute=attribute),
                    phrase,
                    self.embedder,
                )
                for entity, attribute, phrase, _label in examples
            ]
        )
        labels = [int(label) for _entity, _attribute, _phrase, label in examples]
        return self.model.score(features, labels)

    def degree_for_attribute(self, entity_id: object, attribute: str, phrase: str) -> float:
        """Degree of truth computed by scanning the raw extractions."""
        if not self._fitted:
            raise NotFittedError("RawExtractionMembership is not fitted")
        extractions = self.database.extractions(entity_id=entity_id, attribute=attribute)
        features = raw_extraction_features(extractions, phrase, self.embedder)
        return float(self.model.positive_probability(features.reshape(1, -1))[0])

    def degree(self, summary: MarkerSummary | None, phrase: str) -> float:
        """Summary-based signature for interface compatibility.

        The marker-free model has no use for the summary; callers should use
        :meth:`degree_for_attribute`.  Provided so the class can stand in
        where a :class:`MembershipFunction` is expected.
        """
        raise NotImplementedError(
            "RawExtractionMembership requires degree_for_attribute(entity, attribute, phrase)"
        )
