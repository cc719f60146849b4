"""Unit and fault-path tests for the vector retrieval backend: the
hashing embedder (``repro.ir.embed``), the cosine ``VectorIndex``
(``repro.ir.vector``), persisted vector extents in the v3 container,
the hybrid strategy's graceful degradation when a loaded snapshot
carries no usable vectors (saved without them), and the guard that the
package runs on the standard library alone."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.embed import DEFAULT_DIMS, HashingEmbedder
from repro.ir.index import InvertedIndex
from repro.ir.persist import load_snapshot, save_snapshot
from repro.ir.retrieval import Searcher
from repro.ir.vector import VectorIndex, reciprocal_rank_fusion

BODIES = {
    "d0": "star wars a space opera saga",
    "d1": "ocean trek underwater documentary",
    "d2": "the wars of distant stars",
    "d3": "silent archive of forgotten films",
    "d4": "deep ocean creatures and coral",
}


def build_index(bodies=BODIES):
    index = InvertedIndex(Analyzer(stem=False))
    for doc_id, body in bodies.items():
        index.add(Document.create(doc_id, {"body": body}))
    return index


def documents(bodies=BODIES):
    return {doc_id: Document.create(doc_id, {"body": body})
            for doc_id, body in bodies.items()}


class TestHashingEmbedder:
    def test_vectors_are_unit_norm(self):
        vector = HashingEmbedder().embed_query("star wars saga")
        assert len(vector) == DEFAULT_DIMS
        assert math.isclose(math.fsum(v * v for v in vector), 1.0,
                            rel_tol=1e-12)

    def test_blank_text_embeds_to_zero(self):
        vector = HashingEmbedder().embed_query("   \t  ")
        assert all(v == 0.0 for v in vector)

    def test_deterministic_within_process(self):
        a = HashingEmbedder().embed_query("tom hanks movies")
        b = HashingEmbedder().embed_query("tom hanks movies")
        assert a == b

    def test_similar_strings_closer_than_dissimilar(self):
        embedder = HashingEmbedder()
        query = embedder.embed_query("star wars")
        typo = embedder.embed_query("star warz")
        other = embedder.embed_query("ocean documentary")

        def cosine(u, v):
            return sum(a * b for a, b in zip(u, v))

        assert cosine(query, typo) > cosine(query, other)

    def test_config_round_trip(self):
        embedder = HashingEmbedder(dims=64, ngram_sizes=(2, 3), seed=9)
        rebuilt = HashingEmbedder.from_config(embedder.config())
        assert rebuilt.cache_key() == embedder.cache_key()
        assert rebuilt.embed_query("abc") == embedder.embed_query("abc")

    def test_from_config_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            HashingEmbedder.from_config({"kind": "transformer"})

    def test_validation(self):
        with pytest.raises(ValueError, match="dims"):
            HashingEmbedder(dims=4)
        with pytest.raises(ValueError, match="ngram_sizes"):
            HashingEmbedder(ngram_sizes=())
        with pytest.raises(ValueError, match="ngram_sizes"):
            HashingEmbedder(ngram_sizes=(1,))

    def test_different_seeds_differ(self):
        assert HashingEmbedder(seed=0).embed_query("star wars") != \
               HashingEmbedder(seed=1).embed_query("star wars")


class TestVectorIndex:
    def test_build_sorts_doc_ids(self):
        vectors = VectorIndex.build(HashingEmbedder(), documents())
        assert vectors.doc_ids == tuple(sorted(BODIES))
        assert len(vectors) == len(BODIES)

    def test_topk_ordering_and_positivity(self):
        embedder = HashingEmbedder()
        vectors = VectorIndex.build(embedder, documents())
        ranked = vectors.topk(embedder.embed_query("star wars"), 10)
        assert ranked
        assert all(score > 0.0 for _, score in ranked)
        assert ranked == sorted(ranked, key=lambda p: (-p[1], p[0]))
        assert ranked[0][0] in ("d0", "d2")  # the star-wars documents

    def test_topk_zero_query_matches_nothing(self):
        embedder = HashingEmbedder()
        vectors = VectorIndex.build(embedder, documents())
        assert vectors.topk(embedder.embed_query(""), 5) == []

    def test_topk_limit_edges(self):
        embedder = HashingEmbedder()
        vectors = VectorIndex.build(embedder, documents())
        query = embedder.embed_query("ocean")
        assert vectors.topk(query, 0) == []
        assert len(vectors.topk(query, 1)) == 1

    def test_topk_sums_left_to_right(self):
        # 1.0 + 1e-16 + 1e-16 rounds to 1.0 at each step.  A compensated
        # sum (builtin sum() of floats on Python >= 3.12) would return
        # 1.0000000000000002 and disagree with the left-to-right oracle.
        vectors = VectorIndex(("a",), [1.0, 1e-16, 1e-16], 3, {})
        assert vectors.topk((1.0, 1.0, 1.0), 1) == [("a", 1.0)]

    def test_restrict_keeps_rows_intact(self):
        vectors = VectorIndex.build(HashingEmbedder(), documents())
        subset = vectors.restrict(["d4", "d1", "phantom"])
        assert subset.doc_ids == ("d1", "d4")
        assert subset.row(0) == vectors.row(vectors.doc_ids.index("d1"))
        assert subset.row(1) == vectors.row(vectors.doc_ids.index("d4"))

    def test_shard_partitions_every_document_once(self):
        vectors = VectorIndex.build(HashingEmbedder(), documents())
        parts = vectors.shard(3)
        assert len(parts) == 3
        spread = [doc_id for part in parts for doc_id in part.doc_ids]
        assert sorted(spread) == sorted(vectors.doc_ids)

    def test_shard_validation(self):
        vectors = VectorIndex.build(HashingEmbedder(), documents())
        with pytest.raises(ValueError, match="count"):
            vectors.shard(0)

    def test_matrix_size_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            VectorIndex(("a", "b"), [0.0] * 5, 4, {})

    def test_rrf_validation(self):
        with pytest.raises(ValueError, match="vector_weight"):
            reciprocal_rank_fusion([], [], 5, vector_weight=-0.1)
        with pytest.raises(ValueError, match="rrf_k"):
            reciprocal_rank_fusion([], [], 5, rrf_k=0)


class TestVectorPersistence:
    def test_round_trip_serves_identical_vectors(self, tmp_path):
        embedder = HashingEmbedder()
        index = build_index()
        snapshot = index.snapshot()
        live = snapshot.vectors(embedder)
        path = tmp_path / "with-vectors.snap"
        save_snapshot(snapshot, path, vectors=live)
        loaded = load_snapshot(path).vectors(embedder)
        assert loaded is not None
        assert loaded.doc_ids == live.doc_ids
        assert loaded.matrix == live.matrix
        assert loaded.embedder_config == embedder.config()
        # The served path scans the unpacked array, the oracle the built
        # one: rankings must agree float for float.
        for query in ("star wars", "ocean documentary", "forgoten film",
                      "wars stars", "zzz"):
            query_vector = embedder.embed_query(query)
            assert loaded.topk(query_vector, 10) == \
                   live.topk(query_vector, 10)

    def test_saved_without_vectors_returns_none(self, tmp_path):
        path = tmp_path / "no-vectors.snap"
        save_snapshot(build_index().snapshot(), path)
        assert load_snapshot(path).vectors(HashingEmbedder()) is None

    def test_mismatched_embedder_config_returns_none(self, tmp_path):
        embedder = HashingEmbedder()
        snapshot = build_index().snapshot()
        path = tmp_path / "seeded.snap"
        save_snapshot(snapshot, path, vectors=snapshot.vectors(embedder))
        loaded = load_snapshot(path)
        assert loaded.vectors(HashingEmbedder(seed=7)) is None
        assert loaded.vectors(embedder) is not None

    def test_partial_coverage_rejected(self, tmp_path):
        from repro.ir.persist import SnapshotError

        embedder = HashingEmbedder()
        partial = VectorIndex.build(
            embedder, {k: v for k, v in documents().items() if k != "d0"})
        with pytest.raises(SnapshotError, match="vector"):
            save_snapshot(build_index().snapshot(),
                          tmp_path / "partial.snap", vectors=partial)


class TestStdlibOnly:
    def test_package_imports_no_numpy(self):
        # `dependencies = []` is part of the contract: the cosine kernel
        # and everything else must run on the standard library even
        # where numpy happens to be importable.
        script = ("import sys\n"
                  "import repro, repro.ir, repro.serve, repro.core.store, "
                  "repro.cli\n"
                  "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr


class TestHybridFallback:
    """strategy="hybrid" over an index with no usable vectors: one
    RuntimeWarning, a counted fallback, lexical results — never an
    exception."""

    def _saved_without_vectors(self, tmp_path):
        save_snapshot(build_index().snapshot(), tmp_path / "plain.snap")
        return load_snapshot(tmp_path / "plain.snap")

    def test_degrades_to_lexical_with_warning(self, tmp_path):
        loaded = self._saved_without_vectors(tmp_path)
        lexical = [(h.doc_id, h.score)
                   for h in Searcher(loaded).search("star wars", 5)]
        searcher = Searcher(loaded, strategy="hybrid", cache_size=0)
        with pytest.warns(RuntimeWarning, match="no vector extents"):
            hits = searcher.search("star wars", 5)
        assert [(h.doc_id, h.score) for h in hits] == lexical
        assert searcher.hybrid_fallbacks == 1

    def test_warning_fires_once_but_counter_keeps_counting(self, tmp_path):
        loaded = self._saved_without_vectors(tmp_path)
        searcher = Searcher(loaded, strategy="hybrid", cache_size=0)
        with pytest.warns(RuntimeWarning):
            searcher.search("star wars", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            searcher.search("ocean trek", 5)
        assert searcher.hybrid_fallbacks == 2

    def test_sharded_hybrid_degrades_identically(self, tmp_path):
        loaded = self._saved_without_vectors(tmp_path)
        lexical = [(h.doc_id, h.score)
                   for h in Searcher(loaded).search("ocean", 5)]
        with Searcher(loaded, strategy="hybrid", shards=3,
                      parallelism="serial", cache_size=0) as sharded:
            with pytest.warns(RuntimeWarning, match="no vector extents"):
                hits = sharded.search("ocean", 5)
        assert [(h.doc_id, h.score) for h in hits] == lexical
