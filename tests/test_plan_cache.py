"""Plan cache: LRU mechanics, generation invalidation, pipeline wiring.

The cache's correctness story is layered: the fingerprint pins the query
shape (tested in ``test_fingerprint.py``), Theorem 1 makes replay safe
(tested end to end by the plancache conformance mode), and *this* file
pins the machinery — eviction order, generation stamps, the default
cache, and exactly what the pipeline stores for reorderable versus
order-sensitive queries.
"""

from __future__ import annotations

import pytest

from repro.algebra import (
    Comparison,
    Const,
    CustomPredicate,
    Database,
    IsNull,
    Relation,
    bag_equal,
    eq,
)
from repro.algebra.operators import ORACLE_OPS
from repro.core import Rel, Restrict, jn, oj
from repro.datagen import example1_storage
from repro.engine import Storage, execute
from repro.engine.batch.kernels import _FILTER_CACHE
from repro.optimizer import PlanCache, optimize_query
from repro.optimizer.pipeline import optimize_and_run
from repro.optimizer.plancache import (
    DEFAULT_CAPACITY,
    default_plan_cache,
    reset_default_plan_cache,
)

P12 = eq("R1.k", "R2.k")
P23 = eq("R2.j", "R3.j")

GEN_A = ("s", 1)
GEN_B = ("s", 2)


def reorderable_query():
    return Restrict(
        jn("R1", oj("R2", "R3", P23), P12), Comparison("R3.j", "=", Const(5))
    )


def blocked_query():
    return Restrict(jn("R1", oj("R2", "R3", P23), P12), IsNull("R3.j"))


# -- cache mechanics ----------------------------------------------------------


def test_lru_eviction_order_and_hit_promotion():
    cache = PlanCache(capacity=2)
    cache.store("a", GEN_A, 1)
    cache.store("b", GEN_A, 2)
    assert cache.lookup("a", GEN_A) == 1  # promotes "a" to MRU
    cache.store("c", GEN_A, 3)  # evicts "b", the LRU
    assert "b" not in cache and "a" in cache and "c" in cache
    stats = cache.stats()
    assert stats.evictions == 1 and stats.size == 2 and stats.capacity == 2


def test_generation_mismatch_invalidates_and_drops_entry():
    cache = PlanCache(capacity=4)
    cache.store("a", GEN_A, 1)
    assert cache.lookup("a", GEN_B) is None
    assert "a" not in cache  # stale entry removed, not retried
    stats = cache.stats()
    assert stats.invalidations == 1 and stats.misses == 1 and stats.hits == 0
    # Re-store under the new generation; old generation now misses.
    cache.store("a", GEN_B, 2)
    assert cache.lookup("a", GEN_B) == 2
    assert cache.lookup("a", GEN_A) is None


def test_stats_count_every_lookup_outcome():
    cache = PlanCache(capacity=1)
    cache.store("a", GEN_A, 1)
    cache.lookup("a", GEN_A)
    cache.lookup("missing", GEN_A)
    cache.lookup("a", GEN_B)
    cache.store("a", GEN_A, 1)
    cache.store("b", GEN_A, 2)  # evicts
    stats = cache.stats()
    assert stats.hits == 1
    assert stats.misses == 2  # plain miss + invalidation-miss
    assert stats.invalidations == 1
    assert stats.evictions == 1


def test_stats_summary_and_snapshot_agree():
    cache = PlanCache(capacity=3)
    cache.store("a", GEN_A, 1)
    cache.lookup("a", GEN_A)
    cache.lookup("b", GEN_A)
    snap = cache.snapshot()
    assert snap == {
        "hits": 1,
        "misses": 1,
        "invalidations": 0,
        "evictions": 0,
        "stores": 1,
        "size": 1,
        "capacity": 3,
    }
    assert "50.0%" in cache.summary()


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# -- the default cache (no environment switch) --------------------------------


def test_env_zero_disables_active_cache(monkeypatch):
    # The REPRO_PLAN_CACHE switch is gone: setting it changes nothing, and
    # the per-call opt-out is use_cache=False.
    monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
    reset_default_plan_cache()
    storage = example1_storage(20)
    optimize_query(reorderable_query(), storage)
    assert optimize_query(reorderable_query(), storage).cache_hit
    assert not optimize_query(reorderable_query(), storage, use_cache=False).cache_hit


def test_env_integer_sets_default_capacity(monkeypatch):
    # Setting the retired variable changes nothing: the default cache
    # always has DEFAULT_CAPACITY entries.
    monkeypatch.setenv("REPRO_PLAN_CACHE", "7")
    reset_default_plan_cache()
    assert default_plan_cache().capacity == DEFAULT_CAPACITY
    # The autouse fixture resets the default afterwards.


# -- pipeline integration -----------------------------------------------------


def test_pipeline_hit_replays_identical_plan():
    storage = example1_storage(300)
    cache = PlanCache(capacity=8)
    first = optimize_query(reorderable_query(), storage, cache=cache)
    second = optimize_query(reorderable_query(), storage, cache=cache)
    assert not first.cache_hit and second.cache_hit
    assert first.fingerprint == second.fingerprint is not None
    assert second.reordered and second.chosen == first.chosen
    assert bag_equal(
        execute(second.chosen, storage).relation,
        execute(first.chosen, storage).relation,
    )


def test_pipeline_hit_skips_certificate_statistics_and_dp(monkeypatch):
    """A hit does none of a miss's planning work: no Theorem 1
    certificate, no statistics (estimator), no DP, and the same tree."""
    from repro.optimizer import pipeline
    from repro.optimizer.dp import DPOptimizer

    calls = {"certificate": 0, "statistics": 0, "dp": 0}

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        pipeline, "theorem1_applies", spy("certificate", pipeline.theorem1_applies)
    )
    monkeypatch.setattr(
        pipeline, "CardinalityEstimator", spy("statistics", pipeline.CardinalityEstimator)
    )
    monkeypatch.setattr(DPOptimizer, "optimize", spy("dp", DPOptimizer.optimize))

    storage = example1_storage(300)
    cache = PlanCache(capacity=8)
    miss = optimize_query(reorderable_query(), storage, cache=cache)
    assert not miss.cache_hit
    assert calls == {"certificate": 1, "statistics": 1, "dp": 1}
    hit = optimize_query(reorderable_query(), storage, cache=cache)
    assert hit.cache_hit
    assert calls == {"certificate": 1, "statistics": 1, "dp": 1}
    assert hit.chosen == miss.chosen


def test_pipeline_insert_invalidates():
    storage = example1_storage(200)
    cache = PlanCache(capacity=8)
    optimize_query(reorderable_query(), storage, cache=cache)
    storage["R1"].insert(next(iter(storage["R1"].rows)))
    third = optimize_query(reorderable_query(), storage, cache=cache)
    assert not third.cache_hit
    assert cache.stats().invalidations == 1
    # And the refreshed entry hits again.
    assert optimize_query(reorderable_query(), storage, cache=cache).cache_hit


def test_pipeline_distinct_storages_never_share_entries():
    cache = PlanCache(capacity=8)
    s1 = example1_storage(100)
    s2 = example1_storage(100)  # identical contents, different instance
    optimize_query(reorderable_query(), s1, cache=cache)
    crossed = optimize_query(reorderable_query(), s2, cache=cache)
    assert not crossed.cache_hit
    assert cache.stats().invalidations == 1


def test_pipeline_blocked_query_caches_verdict_only():
    """Order-sensitive queries replay the (cheap) verdict, never a tree."""
    storage = example1_storage(200)
    cache = PlanCache(capacity=8)
    first = optimize_query(blocked_query(), storage, cache=cache)
    # IS NULL blocks pushdown entirely: no graph stage, nothing cached.
    if first.fingerprint is None:
        assert len(cache) == 0
        return
    second = optimize_query(blocked_query(), storage, cache=cache)
    assert second.cache_hit and not second.reordered
    assert second.chosen == second.pushed


def test_use_cache_false_bypasses_everything():
    storage = example1_storage(100)
    cache = PlanCache(capacity=8)
    optimize_query(reorderable_query(), storage, cache=cache)
    bypassed = optimize_query(reorderable_query(), storage, cache=cache, use_cache=False)
    assert not bypassed.cache_hit
    assert cache.stats().hits == 0


def test_default_cache_used_when_none_passed():
    storage = example1_storage(100)
    first = optimize_query(reorderable_query(), storage)
    second = optimize_query(reorderable_query(), storage)
    assert not first.cache_hit and second.cache_hit
    assert default_plan_cache().stats().hits == 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))


# -- opaque predicates ----------------------------------------------------------


def _opaque_in(values):
    """An opaque ``In`` filter on ``R.a``; every call makes a new function."""
    allowed = frozenset(values)
    return CustomPredicate("In", lambda row: row["R.a"] in allowed, ["R.a"])


def _one_column_db():
    return Database({"R": Relation.from_dicts(["R.a"], [{"R.a": v} for v in range(1, 6)])})


def _values(relation):
    return sorted(row["R.a"] for row in relation.distinct_rows())


def test_opaque_filters_with_different_functions_do_not_share_a_compiled_filter():
    """Two ``In`` filters that differ only in their function are two
    predicates: the second must not run the first one's compiled filter."""
    db = _one_column_db()
    storage = Storage.from_database(db)
    assert _values(execute(Restrict(Rel("R"), _opaque_in({1, 2})), storage).relation) == [1, 2]
    query = Restrict(Rel("R"), _opaque_in({3, 4, 5}))
    assert _values(query.eval(db, ops=ORACLE_OPS)) == [3, 4, 5]
    assert _values(execute(query, storage).relation) == [3, 4, 5]


def test_opaque_filters_with_different_functions_do_not_share_a_cached_plan():
    db = _one_column_db()
    storage = Storage.from_database(db)
    cache = PlanCache()
    first, run = optimize_and_run(Restrict(Rel("R"), _opaque_in({1, 2})), storage, cache=cache)
    assert _values(run.relation) == [1, 2]
    _FILTER_CACHE.clear()
    second, run = optimize_and_run(Restrict(Rel("R"), _opaque_in({3, 4, 5})), storage, cache=cache)
    assert second.fingerprint != first.fingerprint
    assert _values(run.relation) == [3, 4, 5]
