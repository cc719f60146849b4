"""Tests for the top-k fast path: bounded heap, snapshots, caching, batch."""

import pytest

from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.ir.retrieval import Searcher
from repro.ir.scoring import Bm25Scorer, PriorWeightedScorer, TfIdfScorer
from repro.ir.topk import (
    STRATEGIES,
    TopKHeap,
    merge_ranked,
    retrieve,
    topk_scores,
)


def build_index(bodies: dict[str, str], weights: dict[str, float] | None = None):
    index = InvertedIndex(Analyzer(stem=False))
    for doc_id, body in bodies.items():
        index.add(Document.create(
            doc_id, {"body": body},
            {"body": weights[doc_id]} if weights and doc_id in weights else None,
        ))
    return index


class TestTopKHeap:
    def test_keeps_best_k(self):
        heap = TopKHeap(2)
        for doc_id, score in [("a", 1.0), ("b", 5.0), ("c", 3.0), ("d", 4.0)]:
            heap.offer(doc_id, score)
        assert heap.ranked() == [("b", 5.0), ("d", 4.0)]

    def test_tie_break_prefers_smaller_doc_id(self):
        heap = TopKHeap(2)
        for doc_id in ["c", "a", "b"]:
            heap.offer(doc_id, 1.0)
        assert heap.ranked() == [("a", 1.0), ("b", 1.0)]

    def test_worst_tracks_kth_best(self):
        heap = TopKHeap(2)
        heap.offer("a", 3.0)
        heap.offer("b", 1.0)
        assert heap.worst() == (1.0, "b")
        heap.offer("c", 2.0)
        assert heap.worst() == (2.0, "c")

    def test_zero_capacity(self):
        heap = TopKHeap(0)
        heap.offer("a", 1.0)
        assert heap.ranked() == []
        assert heap.full

    def test_worst_on_empty_raises(self):
        with pytest.raises(IndexError):
            TopKHeap(3).worst()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TopKHeap(-1)


class TestMergeRanked:
    """Cross-shard merge of independently ranked lists (disjoint doc_ids)."""

    def test_merges_to_global_topk(self):
        shard_a = [("d1", 5.0), ("d4", 2.0)]
        shard_b = [("d2", 4.0), ("d3", 3.0)]
        assert merge_ranked([shard_a, shard_b], 3) == \
               [("d1", 5.0), ("d2", 4.0), ("d3", 3.0)]

    def test_k_zero(self):
        assert merge_ranked([[("a", 1.0)], [("b", 2.0)]], 0) == []

    def test_k_one(self):
        assert merge_ranked([[("b", 1.0)], [("a", 3.0)], []], 1) == [("a", 3.0)]

    def test_k_one_tie_breaks_on_doc_id(self):
        assert merge_ranked([[("b", 2.0)], [("a", 2.0)]], 1) == [("a", 2.0)]
        assert merge_ranked([[("a", 2.0)], [("b", 2.0)]], 1) == [("a", 2.0)]

    def test_cross_shard_ties_sorted_by_doc_id(self):
        shards = [[("c", 1.0)], [("a", 1.0)], [("b", 1.0)]]
        assert merge_ranked(shards, 2) == [("a", 1.0), ("b", 1.0)]

    def test_empty_inputs(self):
        assert merge_ranked([], 3) == []
        assert merge_ranked([[], []], 3) == []


class TestSnapshot:
    def test_postings_sorted_and_cached(self):
        index = build_index({"b": "star", "a": "star wars"})
        snapshot = index.snapshot()
        postings = snapshot.postings("star")
        assert [p.doc_id for p in postings] == ["a", "b"]
        assert snapshot.postings("star") is postings

    def test_snapshot_cached_until_add(self):
        index = build_index({"a": "star"})
        first = index.snapshot()
        assert index.snapshot() is first
        index.add(Document.create("b", {"body": "wars"}))
        second = index.snapshot()
        assert second is not first
        assert second.version == index.version == first.version + 1

    def test_contribution_bounds(self):
        index = build_index({"a": "star", "b": "star star star"})
        snapshot = index.snapshot()
        scorer = Bm25Scorer()
        cached = snapshot.term_contributions(scorer, "star")
        assert cached.doc_ids == ("a", "b")
        assert cached.bound == max(cached.contributions)
        assert snapshot.term_contributions(scorer, "star") is cached

    def test_equal_parameter_scorers_share_cache(self):
        index = build_index({"a": "star"})
        snapshot = index.snapshot()
        first = snapshot.term_contributions(Bm25Scorer(), "star")
        second = snapshot.term_contributions(Bm25Scorer(), "star")
        assert first is second

    def test_snapshot_is_a_frozen_self_contained_copy(self):
        from repro.errors import IndexError_

        index = build_index({"a": "star"})
        snapshot = index.snapshot()
        index.add(Document.create("b", {"body": "star wars"}))
        # The old snapshot keeps serving exactly the contents it froze —
        # it never mixes in (or even sees) the post-add state.
        assert [p.doc_id for p in snapshot.postings("star")] == ["a"]
        assert snapshot.postings("wars") == ()
        assert snapshot.document_frequency("star") == 1
        assert snapshot.document_count == 1
        assert "b" not in snapshot
        with pytest.raises(IndexError_):
            snapshot.document_length("b")
        # A fresh snapshot reflects the add.
        assert index.snapshot().document_frequency("wars") == 1

    def test_snapshot_serves_without_the_index(self):
        index = build_index({"a": "star wars", "b": "star"})
        snapshot = index.snapshot()
        del index
        searcher = Searcher(snapshot)
        assert [h.doc_id for h in searcher.search("star")] == ["b", "a"]
        assert snapshot.document("a").doc_id == "a"
        assert snapshot.snapshot() is snapshot

    def test_unknown_term_contributions_empty(self):
        index = build_index({"a": "star"})
        cached = index.snapshot().term_contributions(TfIdfScorer(), "zzz")
        assert cached.doc_ids == ()
        assert cached.bound == 0.0


class TestTopKScores:
    def test_matches_exhaustive_order(self):
        index = build_index({"a": "star wars", "b": "star", "c": "wars wars"})
        scorer = Bm25Scorer()
        ranked = topk_scores(index.snapshot(), scorer, ["star", "wars"], 2)
        full = sorted(scorer.scores(index, ["star", "wars"]).items(),
                      key=lambda item: (-item[1], item[0]))
        assert ranked == full[:2]

    def test_limit_zero(self):
        index = build_index({"a": "star"})
        assert topk_scores(index.snapshot(), Bm25Scorer(), ["star"], 0) == []

    def test_early_termination_does_not_lose_late_term_docs(self):
        # "rare" appears only in low-ranked docs and only via the second
        # term; pruning must still admit/score them correctly when the
        # bound allows.
        bodies = {f"d{i}": "common " * (10 - i) for i in range(8)}
        bodies["z1"] = "rare"
        bodies["z2"] = "rare common"
        index = build_index(bodies)
        scorer = Bm25Scorer()
        terms = ["common", "rare"]
        ranked = topk_scores(index.snapshot(), scorer, terms, 3)
        full = sorted(scorer.scores(index, terms).items(),
                      key=lambda item: (-item[1], item[0]))
        assert ranked == full[:3]


class TestRetrieve:
    def test_retrieve_dispatches_every_strategy(self):
        snapshot = build_index({"a": "star wars", "b": "star trek",
                                "c": "ocean wars", "d": "star ocean"}
                               ).snapshot()
        terms = ["star", "wars", "ocean"]
        expected = topk_scores(snapshot, Bm25Scorer(), terms, 3)
        assert STRATEGIES == ("auto", "hybrid")
        for strategy in STRATEGIES:
            assert retrieve(snapshot, Bm25Scorer(), terms, 3,
                            strategy) == expected

    def test_retrieve_rejects_unknown_strategy(self):
        snapshot = build_index({"a": "star"}).snapshot()
        with pytest.raises(ValueError, match="strategy"):
            retrieve(snapshot, Bm25Scorer(), ["star"], 5, "bogus")


class TestSearcherFastPath:
    def test_search_uses_fast_path_and_matches_reference(self):
        index = build_index({"a": "star wars", "b": "star trek", "c": "trek"})
        searcher = Searcher(index)
        fast = searcher.search("star trek", limit=2)
        slow = searcher.search_exhaustive("star trek", limit=2)
        assert [(h.doc_id, h.score, h.rank) for h in fast] == \
               [(h.doc_id, h.score, h.rank) for h in slow]

    def test_unsupported_scorer_falls_back(self):
        class OpaqueScorer(Bm25Scorer):
            def supports_topk(self):
                return False

        index = build_index({"a": "star wars", "b": "star"})
        searcher = Searcher(index, OpaqueScorer())
        reference = Searcher(index).search("star wars", limit=2)
        assert [(h.doc_id, h.score) for h in searcher.search("star wars", limit=2)] == \
               [(h.doc_id, h.score) for h in reference]

    def test_cache_hit_returns_same_results(self):
        index = build_index({"a": "star wars", "b": "star"})
        searcher = Searcher(index)
        first = searcher.search("star", limit=2)
        second = searcher.search("star", limit=2)
        assert [(h.doc_id, h.score) for h in first] == \
               [(h.doc_id, h.score) for h in second]

    def test_cache_invalidated_by_add(self):
        index = build_index({"b": "star"})
        searcher = Searcher(index)
        assert [h.doc_id for h in searcher.search("star")] == ["b"]
        index.add(Document.create("a", {"body": "star star"}))
        assert [h.doc_id for h in searcher.search("star")] == ["a", "b"]

    def test_cache_eviction_respects_size(self):
        index = build_index({"a": "star wars trek ocean"})
        searcher = Searcher(index, cache_size=2)
        for query in ["star", "wars", "trek", "ocean"]:
            searcher.search(query)
        assert len(searcher._cache) == 2

    def test_cache_disabled(self):
        index = build_index({"a": "star"})
        searcher = Searcher(index, cache_size=0)
        searcher.search("star")
        assert searcher._cache == {}

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            Searcher(build_index({"a": "star"}), cache_size=-1)

    def test_prior_weighted_fast_path(self):
        index = build_index({"a": "star wars", "b": "star"})
        scorer = PriorWeightedScorer(Bm25Scorer(), {"b": 9.0})
        searcher = Searcher(index, scorer)
        fast = searcher.search("star", limit=2)
        slow = searcher.search_exhaustive("star", limit=2)
        assert [(h.doc_id, h.score) for h in fast] == \
               [(h.doc_id, h.score) for h in slow]
        assert fast[0].doc_id == "b"  # the prior flips the ranking


class TestSearchMany:
    def test_batch_matches_singles(self):
        index = build_index({"a": "star wars", "b": "star trek", "c": "ocean"})
        searcher = Searcher(index)
        queries = ["star", "ocean", "star", "zzz"]
        batch = searcher.search_many(queries, limit=2)
        assert len(batch) == len(queries)
        for query, hits in zip(queries, batch):
            single = searcher.search(query, limit=2)
            assert [(h.doc_id, h.score) for h in hits] == \
                   [(h.doc_id, h.score) for h in single]
        assert batch[3] == []

    def test_exhaustive_negative_limit_rejected(self):
        searcher = Searcher(build_index({"a": "star"}))
        with pytest.raises(ValueError):
            searcher.search_exhaustive("star", limit=-1)
