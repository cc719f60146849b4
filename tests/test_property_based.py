"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presentation import ConversionTemplate
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.ir.metrics import dcg, majority_agreement, ndcg, precision_at_k, recall_at_k
from repro.ir.retrieval import Searcher
from repro.ir.scoring import Bm25Scorer, PriorWeightedScorer, TfIdfScorer
from repro.utils.rng import DeterministicRng, zipf_weights
from repro.utils.text import normalize
from repro.xmlview.operators import lca
from repro.xmlview.tree import XmlNode

# -- strategies ---------------------------------------------------------------

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
texts = st.lists(words, min_size=0, max_size=12).map(" ".join)
deweys = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=8).map(tuple)
# Vector entries: signed zeros are common (sparse query vectors), the
# rest bounded so no product overflows.
vector_entries = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def vector_cases(draw):
    """``(doc_ids, flat matrix, dims, query vector)`` with duplicate rows
    (so scores tie and break on doc_id) and doc_ids in an order unrelated
    to row order."""
    dims = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(vector_entries, min_size=dims, max_size=dims)
    rows = draw(st.lists(row, min_size=0, max_size=6))
    if rows:
        rows += [rows[i] for i in draw(st.lists(
            st.integers(min_value=0, max_value=len(rows) - 1), max_size=4))]
    order = draw(st.permutations(range(len(rows))))
    doc_ids = tuple(f"d{i}" for i in order)
    query_vector = tuple(draw(st.lists(vector_entries, min_size=dims,
                                       max_size=dims)))
    return doc_ids, [d for r in rows for d in r], dims, query_vector


class TestTextProperties:
    @given(st.text(max_size=60))
    def test_normalize_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)

    @given(st.text(max_size=60))
    def test_normalize_ascii_lowercase(self, text):
        result = normalize(text)
        assert result == result.lower()
        assert all(ord(ch) < 128 for ch in result)

    @given(st.text(max_size=60))
    def test_normalize_no_double_spaces(self, text):
        assert "  " not in normalize(text)


class TestRngProperties:
    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.0, max_value=3.0))
    def test_zipf_weights_sum_to_one(self, n, exponent):
        assert math.isclose(sum(zipf_weights(n, exponent)), 1.0, rel_tol=1e-9)

    @given(st.integers(), st.text(max_size=12))
    def test_fork_deterministic(self, seed, label):
        assert DeterministicRng(seed).fork(label).seed == \
               DeterministicRng(seed).fork(label).seed

    @given(st.lists(words, min_size=1, max_size=20, unique=True),
           st.integers(min_value=0, max_value=20))
    def test_weighted_sample_size_and_distinctness(self, items, k):
        k = min(k, len(items))
        sample = DeterministicRng(0).weighted_sample(
            items, [1.0] * len(items), k)
        assert len(sample) == k
        assert len(set(sample)) == k
        assert set(sample) <= set(items)


class TestLcaProperties:
    @given(deweys, deweys)
    def test_lca_commutative(self, a, b):
        assert lca(a, b) == lca(b, a)

    @given(deweys, deweys)
    def test_lca_is_common_prefix(self, a, b):
        common = lca(a, b)
        assert a[:len(common)] == common
        assert b[:len(common)] == common

    @given(deweys)
    def test_lca_idempotent(self, a):
        assert lca(a, a) == a

    @given(deweys, deweys, deweys)
    def test_lca_associative(self, a, b, c):
        assert lca(lca(a, b), c) == lca(a, lca(b, c))


class TestIndexProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=8))
    def test_index_validates_after_any_build(self, bodies):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        index.validate()
        assert index.document_count == len(bodies)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=8), texts)
    def test_scorers_only_score_matching_docs(self, bodies, query):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        terms = index.analyzer.tokens(query)
        for scorer in (TfIdfScorer(), Bm25Scorer()):
            scores = scorer.scores(index, terms)
            for doc_id, value in scores.items():
                assert value > 0
                document = index.document(doc_id)
                doc_tokens = set(index.analyzer.tokens(document.full_text()))
                assert doc_tokens & set(terms)


def _scorer_for(kind: str, doc_count: int):
    """A scorer family member; priors derived deterministically from ids."""
    if kind == "tfidf":
        return TfIdfScorer()
    if kind == "bm25":
        return Bm25Scorer()
    if kind == "bm25-tuned":
        return Bm25Scorer(k1=0.4, b=0.2)
    priors = {f"d{i}": 1.0 + (i % 5) * 0.7 for i in range(0, doc_count, 2)}
    base = TfIdfScorer() if kind == "prior-tfidf" else Bm25Scorer()
    return PriorWeightedScorer(base, priors, default=0.5)


class TestTopKFastPathProperties:
    """The fast path must be *rank-identical* to exhaustive retrieval:
    same (doc_id, score) lists, same (-score, doc_id) tie-break, across
    documents, fractional field weights, scorers, and limits."""

    @settings(max_examples=60, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=10),
        weights=st.lists(
            st.sampled_from([0.1, 0.2, 0.5, 1.0, 2.5]), min_size=10, max_size=10),
        query=texts,
        kind=st.sampled_from(
            ["tfidf", "bm25", "bm25-tuned", "prior-tfidf", "prior-bm25"]),
        limit=st.integers(min_value=0, max_value=12),
    )
    def test_fast_path_rank_identical_to_exhaustive(
            self, bodies, weights, query, kind, limit):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body},
                                      {"body": weights[i]}))
        searcher = Searcher(index, _scorer_for(kind, len(bodies)))
        fast = searcher.search(query, limit)
        slow = searcher.search_exhaustive(query, limit)
        assert [(h.doc_id, h.score, h.rank) for h in fast] == \
               [(h.doc_id, h.score, h.rank) for h in slow]
        # And again through the cache / batch API.
        rerun, = searcher.search_many([query], limit)
        assert [(h.doc_id, h.score) for h in rerun] == \
               [(h.doc_id, h.score) for h in fast]

    @settings(max_examples=40, deadline=None)
    @given(
        # Duplicated bodies force score ties, so the (-score, doc_id)
        # tie-break is exercised hard.
        body_pool=st.lists(texts, min_size=1, max_size=4),
        count=st.integers(min_value=2, max_value=12),
        query=texts,
        limit=st.integers(min_value=1, max_value=8),
    )
    def test_fast_path_identical_under_duplicate_scores(
            self, body_pool, count, query, limit):
        index = InvertedIndex(Analyzer(stem=False))
        for i in range(count):
            index.add(Document.create(
                f"d{i}", {"body": body_pool[i % len(body_pool)]}))
        searcher = Searcher(index, strategy="auto", cache_size=0)
        expected = [(h.doc_id, h.score, h.rank)
                    for h in searcher.search_exhaustive(query, limit)]
        got = [(h.doc_id, h.score, h.rank)
               for h in searcher.search(query, limit)]
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=8),
        queries=st.lists(texts, min_size=0, max_size=5),
        limit=st.integers(min_value=1, max_value=6),
    )
    def test_search_many_equals_mapped_search(self, bodies, queries, limit):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        searcher = Searcher(index)
        batch = searcher.search_many(queries, limit)
        singles = [searcher.search(query, limit) for query in queries]
        assert [[(h.doc_id, h.score) for h in hits] for hits in batch] == \
               [[(h.doc_id, h.score) for h in hits] for hits in singles]


class TestPersistenceProperties:
    """save → load → search must be *float-exact* rank-identical to the
    in-memory path, for any documents, weights, scorer, and query."""

    @settings(max_examples=40, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=8),
        weights=st.lists(
            st.sampled_from([0.1, 0.5, 1.0, 2.5]), min_size=8, max_size=8),
        query=texts,
        kind=st.sampled_from(["tfidf", "bm25", "bm25-tuned"]),
        limit=st.integers(min_value=0, max_value=10),
    )
    def test_loaded_snapshot_rank_identical(
            self, bodies, weights, query, kind, limit):
        import tempfile
        from pathlib import Path

        from repro.ir.persist import load_snapshot, save_snapshot

        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body},
                                      {"body": weights[i]}))
        with tempfile.TemporaryDirectory() as tmp:
            path = save_snapshot(index.snapshot(), Path(tmp) / "prop.snap")
            loaded = load_snapshot(path)
        scorer = _scorer_for(kind, len(bodies))
        live = Searcher(index, scorer).search(query, limit)
        cold = Searcher(loaded, scorer).search(query, limit)
        assert [(h.doc_id, h.score, h.rank) for h in cold] == \
               [(h.doc_id, h.score, h.rank) for h in live]


class TestShardingProperties:
    """Sharded retrieval must be *float-exact* rank-identical to the serial
    single-snapshot path — same scores, same (-score, doc_id) tie-breaks —
    for any shard count, scorer, and query mix."""

    @settings(max_examples=40, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=10),
        query=texts,
        kind=st.sampled_from(
            ["tfidf", "bm25", "bm25-tuned", "prior-tfidf", "prior-bm25"]),
        shards=st.integers(min_value=1, max_value=6),
        limit=st.integers(min_value=0, max_value=12),
    )
    def test_sharded_rank_identical_to_serial(
            self, bodies, query, kind, shards, limit):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        scorer = _scorer_for(kind, len(bodies))
        serial = Searcher(index, scorer).search(query, limit)
        with Searcher(index, scorer, shards=shards,
                      parallelism="serial") as sharded_searcher:
            sharded = sharded_searcher.search(query, limit)
        assert [(h.doc_id, h.score, h.rank) for h in sharded] == \
               [(h.doc_id, h.score, h.rank) for h in serial]

    @settings(max_examples=20, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=8),
        queries=st.lists(texts, min_size=0, max_size=5),
        shards=st.integers(min_value=2, max_value=4),
        limit=st.integers(min_value=1, max_value=6),
    )
    def test_sharded_search_many_equals_serial_batch(
            self, bodies, queries, shards, limit):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        serial = Searcher(index).search_many(queries, limit)
        with Searcher(index, shards=shards,
                      parallelism="serial") as sharded_searcher:
            sharded = sharded_searcher.search_many(queries, limit)
        assert [[(h.doc_id, h.score) for h in hits] for hits in sharded] == \
               [[(h.doc_id, h.score) for h in hits] for hits in serial]

    @settings(max_examples=40, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=12),
        queries=st.lists(texts, min_size=0, max_size=6),
        kind=st.sampled_from(["tfidf", "bm25", "prior-bm25"]),
        shards=st.integers(min_value=1, max_value=6),
        limit=st.integers(min_value=0, max_value=10),
    )
    def test_bloom_routing_rank_identical_to_broadcast(
            self, bodies, queries, kind, shards, limit):
        # Bloom filters have no false negatives, so routing a batch only
        # to shards that might match must reproduce the broadcast results
        # exactly — same (doc_id, score) lists, tie-breaks included.
        from repro.ir.shard import ShardedTopK

        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        snapshot = index.snapshot()
        scorer = _scorer_for(kind, len(bodies))
        term_lists = [snapshot.analyzer.tokens(query) for query in queries]
        with ShardedTopK(snapshot, shards, "serial") as routed, \
                ShardedTopK(snapshot, shards, "serial",
                            route=False) as broadcast:
            assert routed.topk_many(scorer, term_lists, limit) == \
                   broadcast.topk_many(scorer, term_lists, limit)


class TestHybridProperties:
    """The invariants that replace rank-identical-to-exhaustive for the
    fused ``"hybrid"`` strategy (see the ``repro.ir.retrieval`` module
    docs): weight-0 degenerates to lexical verbatim; fused rankings are
    deterministic and invariant under shard count and executor; vector
    partitions merge float-exactly to the global cosine scan; and the
    embedder is bit-identical across processes."""

    @staticmethod
    def _index(bodies):
        index = InvertedIndex(Analyzer(stem=False))
        for i, body in enumerate(bodies):
            index.add(Document.create(f"d{i}", {"body": body}))
        return index

    @settings(max_examples=30, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=10),
        query=texts,
        shards=st.integers(min_value=0, max_value=5),
        limit=st.integers(min_value=0, max_value=10),
    )
    def test_weight_zero_identical_to_lexical(
            self, bodies, query, shards, limit):
        # vector_weight == 0 must return the lexical ranking verbatim —
        # same docs, same scores, same tie-breaks — at any shard count.
        index = self._index(bodies)
        lexical = Searcher(index).search(query, limit)
        with Searcher(index, shards=shards, parallelism="serial",
                      strategy="hybrid", vector_weight=0.0) as hybrid:
            fused = hybrid.search(query, limit)
        assert [(h.doc_id, h.score, h.rank) for h in fused] == \
               [(h.doc_id, h.score, h.rank) for h in lexical]

    @settings(max_examples=25, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=10),
        query=texts,
        shards=st.integers(min_value=1, max_value=6),
        limit=st.integers(min_value=1, max_value=8),
    )
    def test_fused_ranking_invariant_under_shard_count(
            self, bodies, query, shards, limit):
        # Cosine is per-document and the lexical side is already
        # shard-invariant, so the fused ranking must be float-exact
        # identical however the index is partitioned.
        index = self._index(bodies)
        unsharded = Searcher(index, strategy="hybrid").search(query, limit)
        with Searcher(index, shards=shards, parallelism="serial",
                      strategy="hybrid") as sharded_searcher:
            sharded = sharded_searcher.search(query, limit)
        assert [(h.doc_id, h.score, h.rank) for h in sharded] == \
               [(h.doc_id, h.score, h.rank) for h in unsharded]

    def test_fused_ranking_invariant_under_process_executor(self):
        # One concrete corpus through a real process pool: the executor
        # must not perturb fusion (workers score lexically; fusion
        # happens once, in the parent).
        bodies = ["star wars saga", "ocean trek adventure",
                  "deep ocean documentary", "wars of the roses",
                  "star light star bright", "silent archive"]
        index = self._index(bodies)
        serial = Searcher(index, strategy="hybrid").search("star ocean", 5)
        with Searcher(index, shards=3, parallelism="process",
                      strategy="hybrid") as sharded_searcher:
            sharded = sharded_searcher.search("star ocean", 5)
        assert [(h.doc_id, h.score, h.rank) for h in sharded] == \
               [(h.doc_id, h.score, h.rank) for h in serial]

    @settings(max_examples=30, deadline=None)
    @given(
        bodies=st.lists(texts, min_size=1, max_size=12),
        query=texts,
        count=st.integers(min_value=1, max_value=6),
        limit=st.integers(min_value=1, max_value=10),
    )
    def test_vector_partitions_merge_to_global_topk(
            self, bodies, query, count, limit):
        from repro.ir.embed import HashingEmbedder
        from repro.ir.topk import merge_ranked
        from repro.ir.vector import VectorIndex

        embedder = HashingEmbedder()
        documents = {f"d{i}": Document.create(f"d{i}", {"body": body})
                     for i, body in enumerate(bodies)}
        vectors = VectorIndex.build(embedder, documents)
        query_vector = embedder.embed_query(query)
        merged = merge_ranked(
            [part.topk(query_vector, limit)
             for part in vectors.shard(count)], limit)
        assert merged == vectors.topk(query_vector, limit)

    @staticmethod
    def _reference_topk(doc_ids, flat, dims, query_vector, limit):
        """The row-at-a-time scan the column kernel must reproduce: a
        left-to-right ``score += q * d`` per row, full sort."""
        scored = []
        for i, doc_id in enumerate(doc_ids):
            score = 0.0
            for q, d in zip(query_vector, flat[i * dims:(i + 1) * dims]):
                score += q * d
            if score > 0.0:
                scored.append((doc_id, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:limit]

    @settings(max_examples=200, deadline=None)
    @given(case=vector_cases(),
           limit=st.one_of(st.sampled_from([0, 1]),
                           st.integers(min_value=2, max_value=15)))
    def test_vector_topk_equals_left_to_right_scan(self, case, limit):
        from repro.ir.vector import VectorIndex

        doc_ids, flat, dims, query_vector = case
        vectors = VectorIndex(doc_ids, flat, dims, {})
        assert vectors.topk(query_vector, limit) == self._reference_topk(
            doc_ids, flat, dims, query_vector, limit)
        # An all-zero query matches nothing; so does a non-positive one
        # against non-negative rows (every product is <= 0).
        assert vectors.topk((0.0,) * dims, limit) == []
        nonneg = [abs(d) for d in flat]
        nonpositive = tuple(-abs(q) for q in query_vector)
        assert VectorIndex(doc_ids, nonneg, dims, {}).topk(
            nonpositive, limit) == []

    @settings(max_examples=50, deadline=None)
    @given(
        docs=st.lists(words, min_size=0, max_size=10, unique=True),
        split=st.integers(min_value=0, max_value=10),
        weight=st.floats(min_value=0.0, max_value=4.0),
        rrf_k=st.integers(min_value=1, max_value=120),
        limit=st.integers(min_value=1, max_value=10),
    )
    def test_rrf_deterministic_sorted_and_weight_zero_is_lexical(
            self, docs, split, weight, rrf_k, limit):
        from repro.ir.vector import reciprocal_rank_fusion

        # Two overlapping rankings built from one unique doc pool.
        lexical = [(doc, float(len(docs) - i))
                   for i, doc in enumerate(docs[:max(split, 1)])]
        vector = [(doc, 1.0 - i / 20.0)
                  for i, doc in enumerate(reversed(docs))]
        fused = reciprocal_rank_fusion(lexical, vector, limit,
                                       vector_weight=weight, rrf_k=rrf_k)
        # Deterministic: same inputs, same output.
        assert fused == reciprocal_rank_fusion(
            lexical, vector, limit, vector_weight=weight, rrf_k=rrf_k)
        # Sorted by (-score, doc_id), length-capped, drawn from the union.
        assert fused == sorted(fused, key=lambda hit: (-hit[1], hit[0]))
        assert len(fused) <= limit
        assert {doc for doc, _ in fused} <= \
               {doc for doc, _ in lexical} | {doc for doc, _ in vector}
        if weight == 0.0:
            # The vector ranking contributes nothing: fused order is the
            # lexical order (RRF scores are strictly rank-monotonic).
            assert [doc for doc, _ in fused] == \
                   [doc for doc, _ in lexical][:limit]

    def test_embedder_bit_identical_across_processes(self):
        # The embedder must be reproducible across interpreter runs
        # (PYTHONHASHSEED-proof) or persisted vector extents would be
        # garbage to the next process.  Compare exact IEEE-754 bytes.
        import struct
        import subprocess
        import sys

        from repro.ir.embed import HashingEmbedder

        probe = "star wars cast & crew — épisode 4"
        local = HashingEmbedder().embed_query(probe)
        script = (
            "import struct, sys\n"
            "from repro.ir.embed import HashingEmbedder\n"
            f"vector = HashingEmbedder().embed_query({probe!r})\n"
            "sys.stdout.write(struct.pack('<%dd' % len(vector),"
            " *vector).hex())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": "src", "PYTHONHASHSEED": "1"})
        assert result.stdout == \
               struct.pack("<%dd" % len(local), *local).hex()


#: Query shapes covering every pipeline path: fully-bound structural
#: matches, partially-bound matches (definition IR), dimension entities,
#: aggregates, free text, garbage, and the empty query.
PIPELINE_QUERY_POOL = (
    "star wars cast",
    "george clooney",
    "tom hanks movies",
    "science fiction movies",
    "the terminator box office",
    "top rated movies",
    "angelina jolie tomb raider",
    "clooney oceans",
    "star wars",
    "zzzz qqqq wwww",
    "",
)


_PIPELINE_ENGINES: dict = {}


def _pipeline_engine(imdb_db, shards: int):
    """A cached engine variant over the shared scale-0.15 database (one
    collection per shard count, serial shard executors)."""
    _cache = _PIPELINE_ENGINES
    key = (id(imdb_db), shards)
    if key not in _cache:
        from repro.core import QunitCollection
        from repro.core.derivation import imdb_expert_qunits
        from repro.core.search import QunitSearchEngine

        collection = QunitCollection(
            imdb_db, imdb_expert_qunits(),
            max_instances_per_definition=60,
            shards=shards, parallelism="serial")
        _cache[key] = QunitSearchEngine(collection, flavor="expert")
    return _cache[key]


def _answer_keys(answers):
    return [(a.meta("instance_id"), a.score, a.system) for a in answers]


class TestPipelineProperties:
    """The staged pipeline's batched path must be *answer- and
    order-identical* to the sequential per-query path — same instance
    ids, same float-exact scores, same order — across shard counts and
    Bloom routing."""

    @settings(max_examples=25, deadline=None)
    @given(
        queries=st.lists(st.sampled_from(PIPELINE_QUERY_POOL),
                         min_size=0, max_size=5),
        shards=st.sampled_from([0, 2, 3]),
        limit=st.integers(min_value=1, max_value=5),
    )
    def test_search_many_identical_to_mapped_search(
            self, imdb_db, queries, shards, limit):
        engine = _pipeline_engine(imdb_db, shards)
        batch = engine.search_many(queries, limit)
        singles = [engine.search(query, limit) for query in queries]
        assert [_answer_keys(answers) for answers in batch] == \
               [_answer_keys(answers) for answers in singles]

    @settings(max_examples=15, deadline=None)
    @given(
        queries=st.lists(st.sampled_from(PIPELINE_QUERY_POOL),
                         min_size=1, max_size=4),
        shards=st.sampled_from([2, 3]),
        limit=st.integers(min_value=1, max_value=5),
    )
    def test_sharded_bloom_routed_engine_identical_to_serial(
            self, imdb_db, queries, shards, limit):
        # The sharded engine Bloom-routes its flat dispatches; answers
        # must match the unsharded engine exactly.
        serial = _pipeline_engine(imdb_db, 0)
        sharded = _pipeline_engine(imdb_db, shards)
        assert [_answer_keys(answers)
                for answers in sharded.search_many(queries, limit)] == \
               [_answer_keys(answers)
                for answers in serial.search_many(queries, limit)]


class TestMetricProperties:
    @given(st.lists(words, min_size=1, max_size=15, unique=True),
           st.sets(words, max_size=10),
           st.integers(min_value=1, max_value=15))
    def test_precision_recall_bounds(self, ranked, relevant, k):
        assert 0.0 <= precision_at_k(ranked, relevant, k) <= 1.0
        assert 0.0 <= recall_at_k(ranked, relevant, k) <= 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0),
                    min_size=1, max_size=12))
    def test_ndcg_bounds(self, gains):
        assert 0.0 <= ndcg(gains) <= 1.0 + 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0),
                    min_size=1, max_size=12))
    def test_dcg_monotone_under_sorting(self, gains):
        assert dcg(sorted(gains, reverse=True)) >= dcg(gains) - 1e-9

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=25))
    def test_agreement_bounds(self, ratings):
        value = majority_agreement(ratings)
        assert 1.0 / len(set(ratings)) <= value + 1e-9
        assert value <= 1.0


class TestTemplateProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(words, words), min_size=0, max_size=6,
    ))
    def test_foreach_renders_each_distinct_tuple_once(self, pairs):
        template = ConversionTemplate(
            "<foreach:tuple>[$t.a|$t.b]</foreach:tuple>")
        rows = [{"t.a": a, "t.b": b} for a, b in pairs]
        rendered = template.render({}, rows)
        distinct = list(dict.fromkeys(f"[{a}|{b}]" for a, b in pairs))
        assert rendered == "".join(distinct)

    @given(words)
    def test_param_roundtrip(self, value):
        template = ConversionTemplate("<x>$p</x>")
        assert template.render({"p": value}, []) == f"<x>{value}</x>"


class TestXmlTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.recursive(
        st.just([]),
        lambda children: st.lists(children, max_size=4),
        max_leaves=20,
    ))
    def test_dewey_invariants(self, shape):
        root = XmlNode("root", ())

        def build(node, spec):
            for i, child_spec in enumerate(spec):
                child = node.add_child(f"c{i}")
                build(child, child_spec)

        build(root, shape)
        for node in root.walk():
            assert root.find_by_dewey(node.dewey) is node
            for child in node.children:
                assert node.is_ancestor_of(child)
                assert child.dewey[:-1] == node.dewey
