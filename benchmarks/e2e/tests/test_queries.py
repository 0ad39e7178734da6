"""The seeded generator: determinism, shape shares, and full oracle answers."""

from itertools import islice

import pytest

from benchmarks.e2e import queries, spec


def take(seed: int, count: int) -> list[str]:
    return list(islice(queries.cold_stream(seed), count))


def test_stream_is_deterministic_per_seed_and_differs_across_seeds():
    assert take(3, 40) == take(3, 40)
    assert take(3, 40) != take(4, 40)
    import random

    pool = queries.zipf_pool()
    assert pool == queries.zipf_pool()  # the pool is fixed; the seed draws the schedule
    draw = lambda seed: queries.zipf_schedule(pool, random.Random(seed), 50)  # noqa: E731
    assert draw(3) == draw(3) != draw(4)


def test_stream_phrases_are_fresh_and_shapes_come_in_equal_shares():
    stream = take(0, 400)
    assert len(set(stream)) == len(stream)
    phrases = [part for sql in stream for part in sql.split('"')[1::2]]
    assert len(set(phrases)) == len(phrases)  # no phrase reused: cold by construction
    for offset, shape in enumerate(queries.SHAPES):
        marker = shape.split('"')[0]
        assert all(marker in sql for sql in stream[offset::4])
    assert not any(" not " in sql for sql in stream)


def test_pool_has_32_distinct_queries_over_12_phrases():
    pool = queries.zipf_pool()
    assert len(pool) == len(set(pool)) == spec.GATEWAY_POOL_SIZE
    phrases = {part for sql in pool for part in sql.split('"')[1::2]}
    assert len(phrases) <= spec.GATEWAY_POOL_PHRASES


def test_zipf_schedule_prefers_low_ranks():
    import random

    pool = queries.zipf_pool()
    schedule = queries.zipf_schedule(pool, random.Random(1), 4000)
    assert schedule.count(pool[0]) > 3 * schedule.count(pool[15]) > 0


@pytest.fixture(scope="module")
def small_database():
    from repro.testing import build_synthetic_columnar_database

    return build_synthetic_columnar_database(**{**spec.DATABASE, "num_entities": 300})


def test_every_generated_query_has_a_full_oracle_answer(small_database):
    oracle = queries.Oracle(small_database)
    for sql in (*take(0, 16), *queries.zipf_pool(), *queries.WARMUP_QUERIES):
        assert len(oracle.answer(sql).entity_ids) == spec.TOP_K, sql


def test_not_shapes_are_empty_which_is_why_they_are_excluded(small_database):
    oracle = queries.Oracle(small_database)
    a, b = "word040 word003", "word041 word020"
    assert oracle.answer(queries.render('"{a}" and not "{b}"', a, b)).entity_ids == ()


def test_verify_counts_mismatches_bit_for_bit(small_database):
    oracle = queries.Oracle(small_database)
    sql = take(0, 1)[0]
    good = oracle.answer(sql)
    flipped = float.fromhex(good.scores[0]) + 2.0**-52
    bad = queries.Answer(good.entity_ids, (flipped.hex(), *good.scores[1:]), good.degrees)
    verdict = queries.verify([(sql, good), (sql, bad)], oracle, queries.Verdict())
    assert (verdict.checked, verdict.mismatched, verdict.short) == (2, 1, 0)
    assert queries.Answer.from_json(good.to_json()) == good
