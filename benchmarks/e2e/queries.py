"""Seeded query generation and the serial-processor oracle.

Predicates are two-word phrases ``"<modifier> <marker>"``: the synthetic
database's word2vec interpreter resolves each to a marker pair, yet every
distinct phrase is a new ``(entity, attribute, phrase)`` membership-cache key.
A stream of fresh phrases is therefore cold *by construction*, without the
benchmark touching any engine internals.

``NOT`` shapes are excluded on purpose: ``... and not "x"`` returns **zero
rows** from the serial processor on this database (README finding), and an
empty answer exercises nothing after candidate selection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from benchmarks.e2e import spec

#: The synthetic vocabulary is ``word000..word119``; the first 32 words are
#: the ``quality`` / ``service`` markers, the rest serve as modifiers.
MARKERS = tuple(f"word{index:03d}" for index in range(32))
MODIFIERS = tuple(f"word{index:03d}" for index in range(32, 120))

#: Equal shares, round-robin, so any prefix of a stream has the same mix.
SHAPES = (
    '"{a}" and "{b}"',
    '"{a}" or "{b}"',
    "city = 'paris' and \"{a}\" and \"{b}\"",
    'price < 100 and "{a}"',
)

#: Bare-marker queries: hydrate and build without touching any stream phrase.
WARMUP_QUERIES = (
    f'select * from Entities where "{MARKERS[0]}" and "{MARKERS[16]}" limit {spec.TOP_K}',
    f"select * from Entities where city = 'paris' and \"{MARKERS[1]}\" limit {spec.TOP_K}",
)


def render(shape: str, a: str, b: str) -> str:
    """One query of ``shape`` over phrases ``a`` and ``b``."""
    return f"select * from Entities where {shape.format(a=a, b=b)} limit {spec.TOP_K}"


class PhraseDeck:
    """Every ``modifier marker`` phrase in seeded random order, reshuffled when spent.

    2816 phrases against a 200k-entry membership cache (20 phrases at 10k
    entities): a phrase drawn again after a reshuffle was evicted long ago.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._phrases = [f"{modifier} {marker}" for modifier in MODIFIERS for marker in MARKERS]
        self._position = len(self._phrases)

    def draw(self) -> str:
        if self._position == len(self._phrases):
            self._rng.shuffle(self._phrases)
            self._position = 0
        self._position += 1
        return self._phrases[self._position - 1]


def cold_stream(seed: int) -> Iterator[str]:
    """The endless distinct-phrase query stream of one seed."""
    deck = PhraseDeck(random.Random(f"cold-{seed}"))
    index = 0
    while True:
        yield render(SHAPES[index % len(SHAPES)], deck.draw(), deck.draw())
        index += 1


def zipf_pool() -> list[str]:
    """32 distinct queries over 12 phrases, shapes in equal shares.

    12 phrases x 10k entities = 120k membership entries, which fits the 200k
    cache: once warmed, every request is a cache hit.  The pool is part of the
    workload's definition, not of the seed: which query happens to sit at the
    Zipf head sets the service-time mix, and letting that vary doubled the
    seed-to-seed spread of the latency percentiles.  The seed draws the
    schedule and the arrival times.
    """
    rng = random.Random("pool")
    deck = PhraseDeck(rng)
    phrases = [deck.draw() for _ in range(spec.GATEWAY_POOL_PHRASES)]
    pool: list[str] = []
    while len(pool) < spec.GATEWAY_POOL_SIZE:
        a, b = rng.sample(phrases, 2)
        sql = render(SHAPES[len(pool) % len(SHAPES)], a, b)
        if sql not in pool:
            pool.append(sql)
    return pool


def zipf_schedule(pool: Sequence[str], rng: random.Random, count: int) -> list[str]:
    """``count`` draws from ``pool``, rank ``r`` with weight ``1 / (r + 1) ** s``."""
    weights = [1.0 / (rank + 1) ** spec.GATEWAY_ZIPF_S for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=count)


# ----------------------------------------------------------------------- oracle
@dataclass(frozen=True)
class Answer:
    """One ranked answer in a bit-exact, JSON-safe form.

    Floats are kept as ``float.hex`` strings so that equality means equal
    bits (``-0.0`` vs ``0.0`` included) and the value survives the JSON pipe
    from a child process unchanged.
    """

    entity_ids: tuple[str, ...]
    scores: tuple[str, ...]
    degrees: tuple[tuple[tuple[str, str], ...], ...]

    @classmethod
    def of(cls, entity_ids: Iterable, scores: Iterable[float],
           degrees: Iterable[dict[str, float]]) -> "Answer":
        return cls(
            tuple(str(entity_id) for entity_id in entity_ids),
            tuple(float(score).hex() for score in scores),
            tuple(
                tuple(sorted((name, float(value).hex()) for name, value in row.items()))
                for row in degrees
            ),
        )

    @classmethod
    def of_result(cls, result) -> "Answer":
        """From an engine or processor ``QueryResult``."""
        entities = result.entities
        return cls.of(
            (entity.entity_id for entity in entities),
            (entity.score for entity in entities),
            (entity.predicate_degrees for entity in entities),
        )

    @classmethod
    def of_reply(cls, reply) -> "Answer":
        """From a ``GatewayReply``."""
        return cls.of(reply.entity_ids, reply.scores, reply.predicate_degrees)

    def to_json(self) -> list:
        return [list(self.entity_ids), list(self.scores),
                [[list(pair) for pair in row] for row in self.degrees]]

    @classmethod
    def from_json(cls, document: list) -> "Answer":
        ids, scores, degrees = document
        return cls(tuple(ids), tuple(scores),
                   tuple(tuple((name, value) for name, value in row) for row in degrees))


class Oracle:
    """A fresh serial ``SubjectiveQueryProcessor`` over one database state."""

    def __init__(self, database) -> None:
        from repro.core import SubjectiveQueryProcessor

        self._processor = SubjectiveQueryProcessor(database)

    def answer(self, sql: str) -> Answer:
        return Answer.of_result(self._processor.execute(sql))


class KnownAnswers(dict):
    """Oracle answers computed elsewhere (``sql -> Answer``), usable by :func:`verify`."""

    def answer(self, sql: str) -> Answer:
        return self[sql]


@dataclass
class Verdict:
    """Outcome of comparing served answers with the oracle."""

    checked: int = 0
    mismatched: int = 0
    short: int = 0
    first_problem: str = ""

    def note(self, kind: str, sql: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if not self.first_problem:
            self.first_problem = f"{kind}: {sql}"

    @property
    def failures(self) -> int:
        return self.mismatched + self.short


def verify(served: Sequence[tuple[str, Answer]], oracle: "Oracle | KnownAnswers",
           verdict: Verdict) -> Verdict:
    """Compare each ``(sql, answer)`` with the oracle, bit for bit.

    An oracle answer with other than ``TOP_K`` rows counts too: the generator
    promises workloads on which every query has a full answer.
    """
    for sql, answer in served:
        expected = oracle.answer(sql)
        verdict.checked += 1
        if len(expected.entity_ids) != spec.TOP_K:
            verdict.note("short", sql)
        elif answer != expected:
            verdict.note("mismatched", sql)
    return verdict


def evenly_spaced(items: Sequence, count: int) -> list:
    """Up to ``count`` items spread evenly over ``items``, first item included."""
    if len(items) <= count:
        return list(items)
    return [items[index * len(items) // count] for index in range(count)]
