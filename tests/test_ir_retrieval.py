"""Tests for ranked retrieval."""

import pytest

from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.ir.retrieval import Searcher


@pytest.fixture()
def searcher():
    index = InvertedIndex(Analyzer(stem=False))
    index.add(Document.create("sw", {"title": "star wars",
                                     "body": "luke skywalker han solo"},
                              {"title": 3.0}))
    index.add(Document.create("ca", {"title": "cast away",
                                     "body": "tom hanks island"},
                              {"title": 3.0}))
    index.add(Document.create("oe", {"title": "oceans eleven",
                                     "body": "george clooney heist vegas"},
                              {"title": 3.0}))
    return Searcher(index)


class TestSearch:
    def test_best_hit(self, searcher):
        best = searcher.best("star wars")
        assert best is not None and best.doc_id == "sw"

    def test_ranks_are_sequential(self, searcher):
        hits = searcher.search("star wars tom hanks")
        assert [h.rank for h in hits] == list(range(len(hits)))

    def test_scores_descending(self, searcher):
        hits = searcher.search("star wars island")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_limit_respected(self, searcher):
        assert len(searcher.search("star island heist", limit=2)) == 2

    def test_limit_zero(self, searcher):
        assert searcher.search("star", limit=0) == []

    def test_negative_limit_rejected(self, searcher):
        with pytest.raises(ValueError):
            searcher.search("star", limit=-1)

    def test_no_match_returns_empty(self, searcher):
        assert searcher.search("zzzz qqqq") == []
        assert searcher.best("zzzz") is None

    def test_empty_query(self, searcher):
        assert searcher.search("") == []

    def test_stopword_only_query(self):
        index = InvertedIndex()  # default analyzer removes stopwords
        index.add(Document.create("d", {"body": "content"}))
        assert Searcher(index).search("the of and") == []

    def test_deterministic_tie_break(self):
        index = InvertedIndex(Analyzer(stem=False))
        index.add(Document.create("b", {"body": "same text"}))
        index.add(Document.create("a", {"body": "same text"}))
        hits = Searcher(index).search("same")
        assert [h.doc_id for h in hits] == ["a", "b"]

    def test_title_weight_beats_body(self, searcher):
        # "cast" appears in ca's title; a body-only match would lose.
        hits = searcher.search("cast")
        assert hits[0].doc_id == "ca"


@pytest.fixture()
def snapshot():
    index = InvertedIndex(Analyzer(stem=False))
    for doc_id, body in [
        ("d0", "apple banana cherry"),
        ("d1", "apple apple banana"),
        ("d2", "cherry date elderberry"),
        ("d3", "apple banana cherry date elderberry"),
        ("d4", "banana banana banana"),
        ("d5", "fig"),
        ("d6", "apple cherry"),
        ("d7", "date date banana"),
    ]:
        index.add(Document.create(doc_id, {"body": body}))
    return index.snapshot()


class TestSearcherStrategy:
    def test_invalid_strategy_rejected(self, snapshot):
        with pytest.raises(ValueError, match="strategy"):
            Searcher(snapshot, strategy="bogus")

    def test_search_matches_exhaustive(self, snapshot):
        searcher = Searcher(snapshot, strategy="auto", cache_size=0)
        for query in ("apple banana cherry date", "banana", ""):
            fast = [(h.doc_id, h.score) for h in searcher.search(query, 5)]
            slow = [(h.doc_id, h.score)
                    for h in searcher.search_exhaustive(query, 5)]
            assert fast == slow

    def test_hybrid_weight_zero_matches_exhaustive(self, snapshot):
        # With the vector term weighted out, hybrid degenerates to the
        # pure lexical ranking — rank AND score identical.
        searcher = Searcher(snapshot, strategy="hybrid", cache_size=0,
                            vector_weight=0.0)
        for query in ("apple banana cherry date", "banana", ""):
            fast = [(h.doc_id, h.score) for h in searcher.search(query, 5)]
            slow = [(h.doc_id, h.score)
                    for h in searcher.search_exhaustive(query, 5)]
            assert fast == slow

    def test_hybrid_recovers_misspelled_query(self, snapshot):
        # A query whose tokens match nothing lexically can still surface
        # documents through char n-gram similarity — the quality delta
        # hybrid exists for.  "aple banan" shares no index term, so the
        # lexical ranking is empty; the fused ranking is not.
        lexical = Searcher(snapshot, strategy="auto", cache_size=0)
        assert lexical.search("aple banan", 5) == []
        hybrid = Searcher(snapshot, strategy="hybrid", cache_size=0)
        hits = hybrid.search("aple banan", 5)
        assert hits
        assert {h.doc_id for h in hits} <= {f"d{i}" for i in range(8)}

    def test_sharded_search_many_matches_serial(self, snapshot):
        queries = ["apple banana cherry date", "banana fig", "date", ""]
        serial = Searcher(snapshot, cache_size=0)
        expected = [[(h.doc_id, h.score) for h in hits]
                    for hits in serial.search_many(queries, 5)]
        with Searcher(snapshot, shards=3, parallelism="serial",
                      cache_size=0) as sharded:
            got = [[(h.doc_id, h.score) for h in hits]
                   for hits in sharded.search_many(queries, 5)]
        assert got == expected

    def test_collection_threads_strategy_to_searchers(self):
        from repro.core import QunitCollection
        from repro.core.derivation import imdb_expert_qunits
        from repro.datasets.imdb import generate_imdb

        db = generate_imdb(scale=0.1, seed=7)
        collection = QunitCollection(db, imdb_expert_qunits(),
                                     max_instances_per_definition=20,
                                     strategy="hybrid")
        assert collection.searcher().strategy == "hybrid"
        assert collection.definition_searcher(
            next(iter(collection.definitions))).strategy == "hybrid"


class TestCliStrategy:
    def test_search_and_load_accept_strategy(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["search", "q", "--strategy", "hybrid"])
        assert args.strategy == "hybrid"
        args = parser.parse_args(["load", "dir", "--strategy", "auto"])
        assert args.strategy == "auto"

    def test_bench_diff_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench-diff", "old", "new", "--threshold", "0.5"])
        assert args.command == "bench-diff"
        assert args.threshold == 0.5
