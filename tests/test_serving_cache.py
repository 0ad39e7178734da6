"""Unit tests for the serving cache primitive and SQL normalisation."""

import pytest

from repro.serving import LRUCache, normalize_sql


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1

    def test_hit_and_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh via put: "b" becomes the LRU entry
        cache.put("c", 3)
        assert list(cache.keys()) == ["a", "c"]
        assert cache.get("a") == 10

    def test_peek_does_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.stats.lookups == 0
        cache.put("c", 3)       # "a" was not refreshed, so it is evicted
        assert "a" not in cache

    def test_unbounded_when_maxsize_none(self):
        cache = LRUCache(None)
        for index in range(1000):
            cache.put(index, index)
        assert len(cache) == 1000
        assert cache.stats.evictions == 0

    def test_clear_keeps_lifetime_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_put_many_equals_per_key_puts(self):
        items = [(key, key * 10) for key in (1, 2, 3, 2, 4, 5)]
        batched, single = LRUCache(maxsize=3), LRUCache(maxsize=3)
        for cache in (batched, single):
            cache.put("old", 0)
        batched.put_many(items)
        for key, value in items:
            single.put(key, value)
        assert list(batched.keys()) == list(single.keys()) == [2, 4, 5]
        assert batched.stats == single.stats
        assert batched.stats.evictions == 3

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestNormalizeSql:
    def test_collapses_whitespace_and_keyword_case(self):
        assert normalize_sql("SELECT  *\n FROM   Entities") == "select * from Entities"

    def test_equivalent_queries_share_a_key(self):
        first = 'select * from Entities where city = \'london\' and "clean rooms" limit 5'
        second = 'SELECT *  FROM  Entities WHERE city = \'london\'  AND "clean rooms" LIMIT 5'
        assert normalize_sql(first) == normalize_sql(second)

    def test_identifier_case_is_preserved(self):
        # Column resolution is case-sensitive: City and city are different
        # queries and must not share a plan-cache key.
        first = "select * from Entities where City = 'london'"
        second = "select * from Entities where city = 'london'"
        assert normalize_sql(first) != normalize_sql(second)
        assert "City" in normalize_sql(first)

    def test_subjective_predicates_preserved_verbatim(self):
        sql = 'select * from entities where "Really  CLEAN rooms"'
        assert '"Really  CLEAN rooms"' in normalize_sql(sql)

    def test_string_literals_preserved_verbatim(self):
        sql = "select * from entities where city = 'LONDON  x'"
        assert "'LONDON  x'" in normalize_sql(sql)

    def test_distinct_queries_get_distinct_keys(self):
        first = 'select * from entities where "clean rooms" limit 5'
        second = 'select * from entities where "clean rooms" limit 6'
        assert normalize_sql(first) != normalize_sql(second)

    def test_operators_and_identifiers_unspaced(self):
        assert (
            normalize_sql("select * from t where price_pn<400 and h.stars>=3")
            == "select * from t where price_pn<400 and h.stars>=3"
        )
