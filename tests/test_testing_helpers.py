"""The differential suites' oracle helpers must be able to fail.

:func:`repro.testing.assert_engines_agree` and
:func:`repro.testing.assert_identical_results` carry the bit-identity
contract of every serving suite; a helper that silently passed would turn
every differential test into a no-op.  These tests drive them with engines
that are deliberately wrong in one way each — a dropped entity, a score one
ulp off, a warm answer that drifts — and pin that each is caught, and that
the engine under test is closed whatever happens.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.serving import SubjectiveQueryEngine
from repro.testing import assert_engines_agree, assert_identical_results, corrupt_frame

SQLS = [
    'select * from Entities where "has really clean rooms" limit 5',
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
]


class _Tampered:
    """A serial engine whose answers pass through ``tamper(result, call)``."""

    def __init__(self, database, tamper=None):
        self.inner = SubjectiveQueryEngine(database=database)
        self.tamper = tamper
        self.calls = 0
        self.closed = 0

    def execute(self, sql):
        result = self.inner.execute(sql)
        self.calls += 1
        return self.tamper(result, self.calls) if self.tamper else result

    def close(self):
        self.closed += 1


def _with_entities(result, entities):
    return dataclasses.replace(result, entities=entities)


def _maker(engines, tamper=None):
    def make(database):
        engines.append(_Tampered(database, tamper))
        return engines[-1]

    return make


def test_an_identical_engine_passes_cold_and_warm_and_is_closed(hotel_database):
    engines = []
    assert_engines_agree(hotel_database, _maker(engines), SQLS)
    assert engines[0].calls == 2 * len(SQLS)
    assert engines[0].closed == 1


def test_a_dropped_entity_is_caught_and_the_engine_still_closed(hotel_database):
    engines = []
    tamper = lambda result, _call: _with_entities(result, result.entities[:-1])  # noqa: E731
    with pytest.raises(AssertionError):
        assert_engines_agree(hotel_database, _maker(engines, tamper), SQLS)
    assert engines[0].closed == 1


def test_a_score_one_ulp_off_is_caught(hotel_database):
    def tamper(result, _call):
        first = result.entities[0]
        nudged = dataclasses.replace(first, score=math.nextafter(first.score, math.inf))
        return _with_entities(result, [nudged, *result.entities[1:]])

    with pytest.raises(AssertionError):
        assert_engines_agree(hotel_database, _maker([], tamper), SQLS[:1])


def test_a_drifting_warm_answer_is_caught(hotel_database):
    """The cold answer is right; only the cached repeat differs."""

    def tamper(result, call):
        if call % 2:
            return result
        first = result.entities[0]
        degrees = {key: value / 2 for key, value in first.predicate_degrees.items()}
        drifted = dataclasses.replace(first, predicate_degrees=degrees)
        return _with_entities(result, [drifted, *result.entities[1:]])

    engines = []
    with pytest.raises(AssertionError, match="warm"):
        assert_engines_agree(hotel_database, _maker(engines, tamper), SQLS[:1])
    assert engines[0].calls == 2


def test_rows_are_part_of_identity(hotel_database):
    result = SubjectiveQueryEngine(database=hotel_database).execute(SQLS[0])
    first = result.entities[0]
    altered = dataclasses.replace(first, row={**first.row, "city": "elsewhere"})
    assert_identical_results(result, result)
    with pytest.raises(AssertionError):
        assert_identical_results(result, _with_entities(result, [altered, *result.entities[1:]]))


def test_corrupt_frame_flips_exactly_one_byte_and_refuses_no_ops():
    payload = bytes(range(8))
    mutated = corrupt_frame(payload, -1, flip=0x80)
    assert [index for index in range(8) if mutated[index] != payload[index]] == [7]
    assert mutated[7] == payload[7] ^ 0x80
    with pytest.raises(ValueError):
        corrupt_frame(payload, 0, flip=0)
    with pytest.raises(ValueError):
        corrupt_frame(payload, 0, flip=256)
    with pytest.raises(ValueError):
        corrupt_frame(b"", 0)
