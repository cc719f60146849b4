"""Unit tests for the staged query pipeline (``repro.serve``):
EngineConfig knobs, per-definition Bloom pruning, stage middleware, the
explanation trace, and the searcher pool."""

import pytest

from repro.core import QunitCollection
from repro.core.derivation import imdb_expert_qunits
from repro.core.search import QunitSearchEngine
from repro.core.store import CollectionStore, LoadOptions
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.serve.pipeline import EngineConfig
from repro.serve.pool import SearcherPool


class TestEngineConfig:
    def test_defaults_match_historical_behavior(self):
        config = EngineConfig()
        assert config.min_match_score == QunitSearchEngine.MIN_MATCH_SCORE
        assert config.backfill_budget is None
        assert config.result_cache_size == 0
        assert config.max_query_terms is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(backfill_budget=-1)
        with pytest.raises(ValueError):
            EngineConfig(candidate_limit=0)
        with pytest.raises(ValueError):
            EngineConfig(result_cache_size=-5)
        with pytest.raises(ValueError):
            EngineConfig(max_query_terms=0)

    def test_min_match_score_is_configurable(self, expert_collection):
        # A threshold above every match score rejects all structural
        # candidates; answers must come from flat IR backfill only.
        strict = QunitSearchEngine(expert_collection, flavor="expert",
                                   config=EngineConfig(min_match_score=0.99))
        explanation = strict.explain("star wars cast")
        assert all(rejected for _n, _s, rejected in explanation.candidates)
        answers = strict.search("star wars cast", limit=3)
        assert answers  # backfill still serves the query

    def test_backfill_budget_zero_disables_backfill(self, imdb_db,
                                                    expert_collection):
        from tests.test_mixed_text import distinctive_tokens

        # Distinctive plot words: no structural match, but real IR hits —
        # answered exclusively by backfill.
        query = " ".join(distinctive_tokens(imdb_db, "Star Wars"))
        baseline = QunitSearchEngine(expert_collection, flavor="expert")
        assert baseline.search(query, limit=3)
        capped = QunitSearchEngine(expert_collection, flavor="expert",
                                   config=EngineConfig(backfill_budget=0))
        assert capped.search(query, limit=3) == []

    def test_backfill_budget_caps_but_keeps_structural(
            self, expert_collection):
        engine = QunitSearchEngine(expert_collection, flavor="expert",
                                   config=EngineConfig(backfill_budget=0))
        answer = engine.best("star wars cast")
        assert answer.meta("definition") == "movie_full_credits"


class TestDefinitionBloom:
    def test_no_bloom_before_any_index_exists(self, imdb_db):
        collection = QunitCollection(imdb_db, imdb_expert_qunits(),
                                     max_instances_per_definition=20)
        assert collection.definition_bloom("movie_full_credits") is None

    def test_bloom_built_lazily_from_live_index(self, imdb_db):
        collection = QunitCollection(imdb_db, imdb_expert_qunits(),
                                     max_instances_per_definition=20)
        index = collection.definition_index("movie_full_credits")
        bloom = collection.definition_bloom("movie_full_credits")
        assert bloom is not None
        for term in list(index.snapshot().terms())[:20]:
            assert term in bloom  # no false negatives

    def test_bloom_rebuilt_after_index_version_bump(self, imdb_db):
        collection = QunitCollection(imdb_db, imdb_expert_qunits(),
                                     max_instances_per_definition=20)
        index = collection.definition_index("movie_full_credits")
        first = collection.definition_bloom("movie_full_credits")
        index.add(Document.create("extra::doc",
                                  {"body": "zweihander flumph"}))
        rebuilt = collection.definition_bloom("movie_full_credits")
        assert rebuilt is not first
        assert "zweihander" in rebuilt

    def test_unknown_definition_fails_loudly(self, imdb_db):
        from repro.errors import DerivationError

        collection = QunitCollection(imdb_db, imdb_expert_qunits())
        with pytest.raises(DerivationError):
            collection.definition_bloom("nope")

    def test_loaded_collection_restores_persisted_blooms(self, imdb_db,
                                                         tmp_path):
        live = QunitCollection(imdb_db, imdb_expert_qunits(),
                               max_instances_per_definition=20)
        CollectionStore(tmp_path / "gen").save(live)
        loaded = CollectionStore(tmp_path / "gen").load(
            imdb_db, LoadOptions(lazy=False))
        for name in loaded.definitions:
            bloom = loaded.definition_bloom(name)
            assert bloom is not None
            snapshot = loaded._loaded_snapshots[name]
            for term in list(snapshot.terms())[:10]:
                assert term in bloom

    def test_delta_advanced_snapshot_discards_stale_persisted_bloom(
            self, imdb_db, tmp_path):
        # A persisted filter describes the base vocabulary only; once the
        # collection journal appends documents, restoring it would let
        # the plan stage prune retrieval for journal-only terms (real
        # missing answers).  Both load modes must discard it and rebuild
        # from the journal-folded snapshot.
        import json

        from repro.core.qunit import QunitInstance
        from repro.ir.persist import read_snapshot_header
        from repro.ir.shard import TermBloomFilter

        name = "movie_plot"
        out = tmp_path / "gen"
        store = CollectionStore(out)
        live = QunitCollection(imdb_db, imdb_expert_qunits(),
                               max_instances_per_definition=20)
        store.save(live)

        def persisted_bloom() -> TermBloomFilter:
            manifest = json.loads((out / "collection.json").read_text())
            header = read_snapshot_header(
                out / manifest["snapshots"]["definitions"][name])
            return TermBloomFilter.from_dict(header["bloom"])

        assert "zweihander" not in persisted_bloom()
        writer = store.writer(live)
        writer.stage_instance(QunitInstance(
            live.definition(name), {"x": "Zweihander"},
            [{"movie.title": "Zweihander",
              "movie_info.info": "a zweihander duel at dawn",
              "info_type.name": "plot"}]))
        writer.commit()
        # The base file (and its header filter) is untouched: stale.
        assert "zweihander" not in persisted_bloom()

        eager = store.load(imdb_db, LoadOptions(lazy=False))
        assert "zweihander" in eager.definition_bloom(name)

        lazy = store.load(imdb_db, LoadOptions(lazy=True))
        # Still pending: no header filter is better than the stale one.
        pending = lazy.definition_bloom(name)
        assert pending is None or "zweihander" in pending
        lazy.definition_searcher(name)  # first demand folds the journal
        assert "zweihander" in lazy.definition_bloom(name)

        # Compaction rewrites the base, refreshing the persisted filter.
        assert store.compact() >= 1
        assert "zweihander" in persisted_bloom()

    def test_bloom_pruned_engine_answers_identical(self, imdb_db, tmp_path):
        # The loaded engine plans with persisted per-definition Blooms
        # (skipping provably-unmatchable definition retrieval); answers
        # must be identical to the live, bloom-less engine.
        live_collection = QunitCollection(imdb_db, imdb_expert_qunits(),
                                          max_instances_per_definition=20)
        live = QunitSearchEngine(live_collection, flavor="expert")
        CollectionStore(tmp_path / "gen").save(live_collection)
        loaded = QunitSearchEngine.load(imdb_db, tmp_path / "gen",
                                        flavor="expert")
        queries = ["star wars cast", "george clooney", "tom hanks movies",
                   "science fiction movies", "zzzz qqqq"]
        for query in queries:
            a = [(x.meta("instance_id"), x.score)
                 for x in live.search(query, limit=4)]
            b = [(x.meta("instance_id"), x.score)
                 for x in loaded.search(query, limit=4)]
            assert a == b


class TestMiddleware:
    def test_result_cache_serves_identical_answers(self, expert_collection):
        engine = QunitSearchEngine(
            expert_collection, flavor="expert",
            config=EngineConfig(result_cache_size=8))
        first_answers, first_explanation = \
            engine.search_with_explanation("star wars cast", limit=3)
        assert "result cache" not in " ".join(first_explanation.notes)
        again_answers, again_explanation = \
            engine.search_with_explanation("star wars cast", limit=3)
        assert [(a.meta("instance_id"), a.score) for a in again_answers] == \
               [(a.meta("instance_id"), a.score) for a in first_answers]
        assert any("result cache" in note
                   for note in again_explanation.notes)

    def test_result_cache_keyed_on_limit(self, expert_collection):
        engine = QunitSearchEngine(
            expert_collection, flavor="expert",
            config=EngineConfig(result_cache_size=8))
        assert len(engine.search("star wars cast", limit=1)) == 1
        assert len(engine.search("star wars cast", limit=3)) == 3

    def test_admission_rejects_overlong_queries(self, expert_collection):
        engine = QunitSearchEngine(
            expert_collection, flavor="expert",
            config=EngineConfig(max_query_terms=4))
        answers, explanation = engine.search_with_explanation(
            "one two three four five six", limit=3)
        assert answers == []
        assert explanation.query_class == "rejected"
        assert any("admission" in note for note in explanation.notes)
        # Within the limit: served normally.
        assert engine.best("star wars cast").meta("definition") == \
               "movie_full_credits"

    def test_admitted_and_rejected_mix_keeps_batch_order(
            self, expert_collection):
        engine = QunitSearchEngine(
            expert_collection, flavor="expert",
            config=EngineConfig(max_query_terms=4))
        results = engine.search_many_with_explanations(
            ["star wars cast", "a b c d e f g", "george clooney"], limit=2)
        assert results[0][0] and results[2][0]
        assert results[1][0] == []
        assert results[1][1].query_class == "rejected"


class TestExplanationTrace:
    def test_stage_timings_cover_every_stage(self, expert_engine):
        explanation = expert_engine.explain("star wars cast")
        assert [timing.stage for timing in explanation.stages] == \
               ["segment", "match", "plan", "execute", "assemble"]
        assert all(timing.seconds >= 0 for timing in explanation.stages)

    def test_plan_and_strategy_surface(self, expert_engine):
        explanation = expert_engine.explain("star wars cast")
        assert explanation.plan  # at least the flat backfill line
        assert explanation.strategy == "auto"
        assert any("materialize movie_full_credits" in line
                   for line in explanation.plan)

    def test_rejected_candidates_included_with_flag(self, expert_engine):
        explanation = expert_engine.explain("star wars cast")
        assert explanation.candidates[0][0] == "movie_full_credits"
        assert explanation.candidates[0][2] is False
        assert any(rejected for _n, score, rejected
                   in explanation.candidates if score <
                   QunitSearchEngine.MIN_MATCH_SCORE)

    def test_cache_counters_move(self, imdb_db):
        engine = QunitSearchEngine(
            QunitCollection(imdb_db, imdb_expert_qunits(),
                            max_instances_per_definition=20),
            flavor="expert")
        # Pure garbage free text: no structural match, so the answer (or
        # lack of one) comes from the flat backfill searcher.
        first = engine.explain("zzzz qqqq wwww")
        assert first.cache_misses >= 1
        second = engine.explain("zzzz qqqq wwww")
        assert second.cache_hits >= 1

    def test_cache_counters_cover_definition_searchers(self, imdb_db):
        # A structural query answered without any flat dispatch must
        # still report its definition-searcher cache traffic — the
        # counters sum over every searcher the batch touched.
        engine = QunitSearchEngine(
            QunitCollection(imdb_db, imdb_expert_qunits(),
                            max_instances_per_definition=20),
            flavor="expert")
        first = engine.explain("star wars cast")
        assert first.shard_tasks == 0  # structural answers filled the limit
        assert first.cache_misses >= 1
        second = engine.explain("star wars cast")
        assert second.cache_hits >= 1

    def test_cold_explain_reports_requested_strategy(self, imdb_db):
        # The trace names the strategy the request asked for, unresolved,
        # whether or not the flat index exists yet.
        engine = QunitSearchEngine(
            QunitCollection(imdb_db, imdb_expert_qunits(),
                            max_instances_per_definition=20),
            flavor="expert")
        collection = engine.collection
        # A fully-bound query is planned (and answered) without ever
        # building the flat index.
        explanation = engine.explain("star wars cast", limit=1)
        assert explanation.strategy == "auto"
        assert any("fully bound" in line for line in explanation.plan)
        assert collection._global_index is None
        # Free text that matches no definition runs the flat backfill.
        assert engine.explain("zzzz qqqq wwww").strategy == "auto"
        assert collection._global_index is not None

    def test_render_is_printable(self, expert_engine):
        text = expert_engine.explain("star wars cast").render()
        assert "plan     :" in text
        assert "stages   :" in text
        assert "retrieval:" in text


class TestSearcherPool:
    def _searcher(self):
        index = InvertedIndex(Analyzer(stem=False))
        index.add(Document.create("d0", {"body": "hello world"}))
        from repro.ir.retrieval import Searcher

        return Searcher(index)

    def test_get_builds_once_and_reuses(self):
        pool = SearcherPool(max_size=4)
        built = []

        def factory():
            built.append(1)
            return self._searcher()

        first = pool.get("k", factory)
        second = pool.get("k", factory)
        assert first is second
        assert len(built) == 1
        assert "k" in pool and len(pool) == 1

    def test_overflow_evicts_least_recently_used(self):
        pool = SearcherPool(max_size=2)
        a = pool.get("a", self._searcher)
        pool.get("b", self._searcher)
        pool.get("a", lambda: pytest.fail("'a' must be cached"))
        pool.get("c", self._searcher)  # evicts "b", the LRU entry
        assert "a" in pool and "c" in pool and "b" not in pool
        assert pool.get("a", lambda: pytest.fail("evicted wrongly")) is a

    def test_close_is_idempotent(self):
        pool = SearcherPool()
        pool.get("a", self._searcher)
        pool.close()
        pool.close()

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SearcherPool(max_size=0)


class _TrackedSearcher:
    """A stand-in searcher that records whether it has been closed."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestSearcherPoolLeases:
    """The acquire/release lease protocol: an evicted-but-leased
    searcher must stay open until the batch holding it finishes."""

    def test_eviction_defers_close_until_last_release(self):
        pool = SearcherPool(max_size=1)
        held = pool.acquire("a", _TrackedSearcher)
        pool.get("b", _TrackedSearcher)  # evicts "a" while leased
        assert "a" not in pool
        assert not held.closed  # the lease keeps it open
        pool.release(held)
        assert held.closed  # last release lands the deferred close

    def test_unleased_eviction_closes_immediately(self):
        pool = SearcherPool(max_size=1)
        victim = pool.get("a", _TrackedSearcher)
        pool.get("b", _TrackedSearcher)
        assert victim.closed

    def test_leases_nest(self):
        pool = SearcherPool(max_size=1)
        first = pool.acquire("a", _TrackedSearcher)
        second = pool.acquire("a", lambda: pytest.fail("must be cached"))
        assert first is second
        pool.get("b", _TrackedSearcher)  # evict while doubly leased
        pool.release(first)
        assert not first.closed  # one lease still outstanding
        pool.release(first)
        assert first.closed

    def test_release_of_still_pooled_searcher_keeps_it_open(self):
        pool = SearcherPool(max_size=4)
        held = pool.acquire("a", _TrackedSearcher)
        pool.release(held)
        assert not held.closed
        assert "a" in pool  # back to plain evictable pool residency

    def test_release_without_acquire_raises(self):
        pool = SearcherPool()
        searcher = pool.get("a", _TrackedSearcher)
        with pytest.raises(ValueError):
            pool.release(searcher)

    def test_close_sweep_respects_leases(self):
        pool = SearcherPool(max_size=4)
        held = pool.acquire("a", _TrackedSearcher)
        other = pool.get("b", _TrackedSearcher)
        pool.close()
        assert other.closed  # unleased: swept immediately
        assert not held.closed  # leased: survives the sweep...
        pool.release(held)
        assert held.closed  # ...until its last release

    def test_key_is_rebuildable_after_leased_eviction(self):
        pool = SearcherPool(max_size=1)
        old = pool.acquire("a", _TrackedSearcher)
        pool.get("b", _TrackedSearcher)
        rebuilt = pool.get("a", _TrackedSearcher)  # evicts "b"
        assert rebuilt is not old
        pool.release(old)
        assert old.closed and not rebuilt.closed
