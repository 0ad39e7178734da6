"""The subjective query interpreter (Section 3.2, Figure 5).

Given a natural-language query predicate ("has really clean rooms", "is a
romantic getaway"), the interpreter produces an *interpretation*: an
expression over ``A.m`` pairs (subjective attribute A, marker m), or a
decision to fall back to text retrieval.  Three methods are tried in order:

1. **word2vec method** — find the linguistic variation across all subjective
   attributes that is most similar to the predicate (IDF-weighted embedding
   cosine, Eqs. 1–2); if the best similarity clears the threshold θ1, the
   interpretation is that variation's attribute and marker.
2. **co-occurrence method** — retrieve the top-k *positive* reviews relevant
   to the predicate (ranking by ``BM25 · senti``, Eq. 3), collect the
   extractions appearing in them, score attributes by ``freq_k(A) · idf(A)``
   and return a disjunction (or conjunction, when the attributes co-occur in
   the same reviews) of the top-n attributes with their most frequent
   markers.  Used when the w2v similarity is below θ1; falls through when
   its own confidence is below θ2.
3. **text retrieval** — no schema interpretation; the processor scores
   entities by BM25 over their concatenated reviews.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.database import SubjectiveDatabase
from repro.errors import InterpretationError
from repro.text.similarity import NearestPhraseIndex

#: How far below the screened maximum a variation may score and still have
#: its exact similarity computed.  The screen and the scalar cosine differ by
#: a few ulps (≈ 1e-15 on unit-scale values), so every variation that can
#: attain the exact maximum is a candidate.
_SCREEN_TOLERANCE = 1e-9


class InterpretationMethod(enum.Enum):
    """Which of the three interpretation strategies produced the result."""

    WORD2VEC = "word2vec"
    COOCCURRENCE = "cooccurrence"
    TEXT_RETRIEVAL = "text_retrieval"


@dataclass(frozen=True)
class AttributeMarker:
    """One ``A.m`` pair: a subjective attribute and one of its markers."""

    attribute: str
    marker: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.attribute}.{self.marker!r}"


@dataclass(frozen=True)
class Interpretation:
    """The interpreter's output for one query predicate.

    ``pairs`` is empty exactly when ``method`` is TEXT_RETRIEVAL.
    ``combinator`` states how multiple pairs combine ("or" by default; "and"
    when the co-occurrence method finds the attributes mentioned together).
    ``confidence`` is the score that cleared (or failed) the thresholds and
    ``matched_variation`` records the linguistic variation that matched for
    the word2vec method (useful for explaining results).
    """

    predicate: str
    method: InterpretationMethod
    pairs: tuple[AttributeMarker, ...] = ()
    combinator: str = "or"
    confidence: float = 0.0
    matched_variation: str | None = None

    @property
    def is_schema_interpretation(self) -> bool:
        return self.method is not InterpretationMethod.TEXT_RETRIEVAL

    @property
    def top_attribute(self) -> str | None:
        """Attribute of the first (highest-scoring) pair, if any."""
        return self.pairs[0].attribute if self.pairs else None


@dataclass
class SubjectiveQueryInterpreter:
    """Three-stage predicate interpretation with fallback thresholds.

    Parameters
    ----------
    database:
        The subjective database whose schema, linguistic domains, reviews
        and extractions ground the interpretation.
    w2v_threshold:
        θ1 of Figure 5 — minimum phrase similarity for the word2vec method.
    cooccurrence_threshold:
        θ2 of Figure 5 — minimum (normalised) attribute score for the
        co-occurrence method.
    top_k_reviews:
        How many positive reviews the co-occurrence method inspects.
    top_n_attributes:
        How many attributes a co-occurrence interpretation may contain.
    use_fast_index:
        Whether to use the Appendix-B single-substitution index in front of
        the full similarity search.
    """

    database: SubjectiveDatabase
    w2v_threshold: float = 0.5
    cooccurrence_threshold: float = 0.1
    top_k_reviews: int = 30
    top_n_attributes: int = 2
    use_fast_index: bool = False

    _variation_index: NearestPhraseIndex | None = field(default=None, init=False, repr=False)
    _variation_owner: dict[str, list[tuple[str, str]]] = field(
        default_factory=dict, init=False, repr=False
    )
    # (embedder, owner map, variations in owner order, their unit vectors):
    # the word2vec method's screen, rebuilt when either key object changes.
    _variation_units: tuple | None = field(default=None, init=False, repr=False)
    _cache: dict[str, Interpretation] = field(default_factory=dict, init=False, repr=False)
    _attribute_reviews: dict[str, set[int]] | None = field(
        default=None, init=False, repr=False
    )

    # ---------------------------------------------------------------- setup
    def _ensure_variation_lookup(self) -> None:
        if self._variation_owner:
            return
        owner: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for attribute, variation in self.database.all_variations():
            marker = self.database.variation_marker(attribute, variation)
            if marker is None:
                continue
            owner[variation].append((attribute, marker))
        self._variation_owner = dict(owner)
        if self.use_fast_index and self._variation_owner:
            if self.database.phrase_embedder is None:
                raise InterpretationError("text models must be fitted before interpretation")
            self._variation_index = NearestPhraseIndex(
                self.database.phrase_embedder, list(self._variation_owner)
            )

    def _attribute_review_sets(self) -> dict[str, set[int]]:
        """For each attribute, the set of reviews with at least one extraction of it."""
        if self._attribute_reviews is None:
            sets: dict[str, set[int]] = defaultdict(set)
            for record in self.database.extractions():
                sets[record.attribute].add(record.review_id)
            self._attribute_reviews = dict(sets)
        return self._attribute_reviews

    def invalidate(self) -> None:
        """Drop cached lookups (call after summaries/domains change)."""
        self._variation_owner = {}
        self._variation_units = None
        self._variation_index = None
        self._cache.clear()
        self._attribute_reviews = None

    # ---------------------------------------------------------------- public
    def interpret(self, predicate: str) -> Interpretation:
        """Interpret one query predicate, trying w2v, then co-occurrence, then IR."""
        cached = self._cache.get(predicate)
        if cached is not None:
            return cached
        self._ensure_variation_lookup()
        interpretation = self._word2vec_method(predicate)
        if interpretation is None or interpretation.confidence < self.w2v_threshold:
            cooccurrence = self._cooccurrence_method(predicate)
            if cooccurrence is not None and cooccurrence.confidence >= self.cooccurrence_threshold:
                interpretation = cooccurrence
            elif interpretation is None or interpretation.confidence < self.w2v_threshold:
                interpretation = Interpretation(
                    predicate=predicate,
                    method=InterpretationMethod.TEXT_RETRIEVAL,
                    confidence=interpretation.confidence if interpretation else 0.0,
                )
        self._cache[predicate] = interpretation
        return interpretation

    def interpret_word2vec(self, predicate: str) -> Interpretation | None:
        """The word2vec method alone (used by the Table 8 experiment)."""
        self._ensure_variation_lookup()
        return self._word2vec_method(predicate)

    def interpret_cooccurrence(self, predicate: str) -> Interpretation | None:
        """The co-occurrence method alone (used by the Table 8 experiment)."""
        self._ensure_variation_lookup()
        return self._cooccurrence_method(predicate)

    # ----------------------------------------------------------- w2v method
    def _word2vec_method(self, predicate: str) -> Interpretation | None:
        if not self._variation_owner:
            return None
        embedder = self.database.phrase_embedder
        if embedder is None:
            raise InterpretationError("text models must be fitted before interpretation")

        if self._variation_index is not None:
            match = self._variation_index.query(predicate)
            if match is None:
                return None
            best_variation, best_similarity = match.phrase, match.score
        else:
            best_variation, best_similarity = self._best_variation(embedder, predicate)
            if best_variation is None:
                return None
        owners = self._variation_owner.get(best_variation, [])
        if not owners:
            return None
        pairs = tuple(
            AttributeMarker(attribute, marker) for attribute, marker in owners[:1]
        )
        return Interpretation(
            predicate=predicate,
            method=InterpretationMethod.WORD2VEC,
            pairs=pairs,
            combinator="or",
            confidence=float(best_similarity),
            matched_variation=best_variation,
        )

    def _best_variation(self, embedder, predicate: str) -> tuple[str | None, float]:
        """The variation most similar to ``predicate`` and its similarity.

        Exactly what :func:`best_variation_by_scan` returns — the first
        strict maximum of ``embedder.similarity`` in ``_variation_owner``
        order, or ``(None, -1.0)`` — but the scan runs as one product of the
        unit variation matrix with the unit predicate vector; only the
        variations within :data:`_SCREEN_TOLERANCE` of its maximum get the
        scalar similarity, so the winner and its value are bit-identical.
        """
        cached = self._variation_units
        if cached is None or cached[0] is not embedder or cached[1] is not self._variation_owner:
            names = list(self._variation_owner)
            matrix = np.vstack([embedder.represent(name) for name in names])
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            cached = (embedder, self._variation_owner, names, matrix / norms)
            self._variation_units = cached
        _, _, names, units = cached
        vector = embedder.represent(predicate)
        norm = float(np.linalg.norm(vector))
        screened = units @ (vector / norm) if norm else np.zeros(len(names))
        candidates = np.flatnonzero(screened >= screened.max() - _SCREEN_TOLERANCE)
        return best_variation_by_scan(embedder, predicate, [names[i] for i in candidates.tolist()])

    # -------------------------------------------------- co-occurrence method
    def _cooccurrence_method(self, predicate: str) -> Interpretation | None:
        database = self.database
        if database.review_index is None:
            return None
        hits = database.review_index.search(predicate, top_k=self.top_k_reviews * 4)
        if not hits:
            return None
        # Eq. 3: rank by BM25 * sentiment, keeping only positive reviews.
        scored = []
        for hit in hits:
            review = database.review(hit.doc_id)
            positiveness = database.sentiment.positiveness(review.text)
            if positiveness <= 0.5:
                continue
            scored.append((hit.doc_id, hit.score * positiveness))
        scored.sort(key=lambda item: -item[1])
        top_reviews = [doc_id for doc_id, _score in scored[: self.top_k_reviews]]
        if not top_reviews:
            return None

        # Count attribute/marker frequencies among the extractions of the
        # retrieved reviews, and track per-review attribute sets to decide
        # between a disjunction and a conjunction.
        attribute_counts: Counter = Counter()
        marker_counts: dict[str, Counter] = defaultdict(Counter)
        review_attribute_sets: list[set[str]] = []
        for review_id in top_reviews:
            attributes_here: set[str] = set()
            for record in database.extractions(review_id=review_id):
                attribute_counts[record.attribute] += 1
                if record.marker is not None:
                    marker_counts[record.attribute][record.marker] += 1
                attributes_here.add(record.attribute)
            review_attribute_sets.append(attributes_here)
        if not attribute_counts:
            return None

        # idf(A): how discriminative attribute A is across all reviews.
        total_reviews = max(1, database.num_reviews())
        attribute_review_sets = self._attribute_review_sets()
        scores: dict[str, float] = {}
        for attribute, frequency in attribute_counts.items():
            df = len(attribute_review_sets.get(attribute, ()))
            idf = math.log((1 + total_reviews) / (1 + df)) + 1.0
            scores[attribute] = frequency * idf

        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        top = ranked[: self.top_n_attributes]
        max_possible = max(1.0, self.top_k_reviews * (math.log(1 + total_reviews) + 1.0))
        confidence = top[0][1] / max_possible

        pairs = []
        for attribute, _score in top:
            markers = marker_counts.get(attribute)
            if markers:
                marker = markers.most_common(1)[0][0]
            else:
                marker = database.schema.subjective(attribute).markers[0].name
            pairs.append(AttributeMarker(attribute, marker))

        combinator = "or"
        if len(pairs) > 1:
            top_attributes = {pair.attribute for pair in pairs}
            joint = sum(
                1 for attributes in review_attribute_sets
                if top_attributes <= attributes
            )
            if review_attribute_sets and joint / len(review_attribute_sets) >= 0.5:
                combinator = "and"

        return Interpretation(
            predicate=predicate,
            method=InterpretationMethod.COOCCURRENCE,
            pairs=tuple(pairs),
            combinator=combinator,
            confidence=float(confidence),
        )


def best_variation_by_scan(embedder, predicate: str, variations) -> tuple[str | None, float]:
    """The first strict maximum of ``embedder.similarity`` over ``variations``.

    The scalar scan the word2vec method is defined by: ``(None, -1.0)`` when
    no similarity exceeds -1.  :meth:`SubjectiveQueryInterpreter._best_variation`
    runs it over its screened candidates only.
    """
    best_variation, best_similarity = None, -1.0
    for variation in variations:
        similarity = embedder.similarity(predicate, variation)
        if similarity > best_similarity:
            best_variation, best_similarity = variation, similarity
    return best_variation, best_similarity
