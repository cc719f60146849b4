"""Ranked retrieval: analyze a query, score against an index, return top-k.

Fast-path architecture
----------------------

:meth:`Searcher.search` serves results through three layers, falling back
one layer at a time:

1. **Result cache** — an LRU keyed on ``(index version, analyzer tokens,
   scorer cache key, limit)``.  Adding a document bumps the index version,
   so stale entries can never be served; they simply age out of the LRU.
   Hybrid results carry an extra key segment (fusion parameters plus
   the embedder identity) since fusion *changes* rankings.
2. **Top-k fast path** — when the scorer supports it (BM25, TF-IDF, and
   prior-weighted wrappers around them), scoring runs over the index's
   frozen :class:`~repro.ir.index.IndexSnapshot` via term-at-a-time
   max-score (:func:`repro.ir.topk.topk_scores`), using the snapshot's
   cached per-term contribution arrays.  With ``shards >= 2`` the
   snapshot is hash-partitioned and shards are scored in parallel, then
   merged (see :mod:`repro.ir.shard`) — still rank-identical.
3. **Exhaustive path** — :meth:`Searcher.search_exhaustive`, the reference
   implementation that scores every matching document and sorts.  The fast
   path is rank-identical to it by construction (property-tested in
   ``tests/test_property_based.py``).

Hybrid retrieval
----------------

Strategy ``"hybrid"`` adds a second scoring backend on top of layer 2:
the query is embedded (:mod:`repro.ir.embed`), scored against the
snapshot's :class:`~repro.ir.vector.VectorIndex` by brute-force cosine,
and the lexical and vector rankings are combined with reciprocal-rank
fusion (:func:`repro.ir.vector.reciprocal_rank_fusion`).  Fusion breaks
the rank-identical-to-exhaustive invariant of the lexical path, so
the suite replaces it with three provable properties: with
``vector_weight == 0`` hybrid returns the lexical results *verbatim*
(scores included); fused rankings are deterministic and invariant under
shard counts, executors, and Bloom routing (both input rankings are —
cosine is per-document, so per-shard vector partitions merged with
:func:`~repro.ir.topk.merge_ranked` equal the global scan); and an index
with no vectors available (a snapshot loaded from a file saved without
vector extents) **degrades gracefully**: the
searcher warns once, counts the event in
:attr:`Searcher.hybrid_fallbacks`, and serves the lexical ranking —
never an exception.

A searcher works over either a live :class:`~repro.ir.index.InvertedIndex`
or a frozen :class:`~repro.ir.index.IndexSnapshot` — e.g. one loaded from
disk by :func:`repro.ir.persist.load_snapshot` — since snapshots are
self-contained and implement the read protocol.

:meth:`Searcher.search_many` batches queries through the same machinery:
one snapshot serves the whole batch, duplicate queries collapse into cache
hits, and per-term contribution arrays are shared across the batch — the
"multiple items per round" counterpart to single-query search.  Under
sharding, the whole batch is dispatched as one task per shard, amortizing
inter-process overhead.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from repro.ir.documents import Document
from repro.ir.embed import HashingEmbedder
from repro.ir.index import IndexSnapshot, InvertedIndex
from repro.ir.scoring import Bm25Scorer, Scorer
from repro.ir.shard import PARALLELISM_MODES, ShardedTopK
from repro.ir.topk import STRATEGIES, merge_ranked, topk_scores
from repro.ir.vector import (
    DEFAULT_RRF_K,
    DEFAULT_VECTOR_WEIGHT,
    HYBRID_DEPTH_MULTIPLIER,
    reciprocal_rank_fusion,
)

__all__ = ["SearchHit", "Searcher"]


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: the document, its score, and its 0-based rank."""

    document: Document
    score: float
    rank: int

    @property
    def doc_id(self) -> str:
        return self.document.doc_id


class Searcher:
    """A query interface over one inverted index (or frozen snapshot).

    Ties are broken by ``doc_id`` so rankings are fully deterministic — a
    property every benchmark in this repo depends on.

    ``cache_size`` bounds the LRU result cache (0 disables it).  Scorer
    parameters are treated as immutable once the searcher is constructed;
    swap scorers by constructing a new searcher.

    ``shards >= 2`` turns on sharded scoring for fast-path queries:
    postings are hash-partitioned and scored via ``parallelism``
    (``"serial"`` or ``"process"`` — see :mod:`repro.ir.shard`), with
    query batches Bloom-routed only to shards that can match.  Results
    are rank-identical either way.  A prebuilt
    :class:`~repro.ir.shard.ShardedTopK` (e.g. restored from per-shard
    snapshot files) can be handed in via ``sharded`` to skip the in-memory
    re-partition.  :meth:`close` releases the shard executor; searchers
    are usable as context managers.

    ``strategy`` is one of :data:`~repro.ir.topk.STRATEGIES`:
    ``"auto"`` (the default, lexical max-score retrieval) or
    ``"hybrid"`` — lexical retrieval fused with cosine scoring over
    document embeddings by reciprocal rank (see the module docstring).
    Every search method also accepts a per-call ``strategy`` override.
    ``vector_weight`` and
    ``rrf_k`` are the hybrid fusion defaults (also overridable per
    call); ``embedder`` is the shared
    :class:`~repro.ir.embed.HashingEmbedder` — it must match the
    configuration any persisted vector extents were built with.
    """

    def __init__(self, index: InvertedIndex | IndexSnapshot,
                 scorer: Scorer | None = None, cache_size: int = 256,
                 shards: int = 0, parallelism: str = "serial",
                 sharded: ShardedTopK | None = None,
                 strategy: str = "auto",
                 embedder: HashingEmbedder | None = None,
                 vector_weight: float = DEFAULT_VECTOR_WEIGHT,
                 rrf_k: int = DEFAULT_RRF_K):
        if cache_size < 0:
            raise ValueError(f"cache_size must be non-negative, got {cache_size}")
        if shards < 0:
            raise ValueError(f"shards must be non-negative, got {shards}")
        if parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, "
                f"got {parallelism!r}"
            )
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        if vector_weight < 0:
            raise ValueError(
                f"vector_weight must be >= 0, got {vector_weight}")
        if rrf_k < 1:
            raise ValueError(f"rrf_k must be >= 1, got {rrf_k}")
        self.index = index
        self.scorer = scorer or Bm25Scorer()
        self.strategy = strategy
        self.embedder = embedder or HashingEmbedder()
        self.vector_weight = vector_weight
        self.rrf_k = rrf_k
        self.cache_size = cache_size
        self.shards = shards if sharded is None else \
            max(shards, len(sharded.shards))
        self.parallelism = parallelism
        #: Result-cache effectiveness counters, cumulative over the
        #: searcher's lifetime (read by the serving pipeline's ``--explain``
        #: instrumentation; duplicate queries in one batch each count one
        #: lookup).
        self.cache_hits = 0
        self.cache_misses = 0
        #: How many hybrid searches degraded to lexical because no vector
        #: index was available (cumulative; the serving pipeline reports
        #: the per-batch delta in the ``--explain`` trace).
        self.hybrid_fallbacks = 0
        self._warned_fallback = False
        self._cache: OrderedDict[tuple, tuple[SearchHit, ...]] = OrderedDict()
        self._sharded: ShardedTopK | None = sharded
        self._vector_partitions: list | None = None
        self._vector_partitions_key: tuple | None = None
        # A handed-in shard set may be shared across searchers (e.g. the
        # collection's restored partitions); only shard sets this searcher
        # builds itself are its to shut down.
        self._owns_sharded = sharded is None

    def search(self, query: str, limit: int = 10,
               strategy: str | None = None,
               vector_weight: float | None = None,
               rrf_k: int | None = None) -> list[SearchHit]:
        """Ranked results for one query.  ``strategy`` /
        ``vector_weight`` / ``rrf_k`` override the searcher's defaults
        for this call only (``None`` keeps each default)."""
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        strategy = self._resolve_request(strategy)
        vector_weight, rrf_k = self._fusion_params(vector_weight, rrf_k)
        terms = self.index.analyzer.tokens(query)
        if not terms:
            return []
        return list(self._search_terms(tuple(terms), limit, strategy,
                                       vector_weight, rrf_k))

    def search_many(self, queries: Iterable[str], limit: int = 10,
                    strategy: str | None = None,
                    vector_weight: float | None = None,
                    rrf_k: int | None = None) -> list[list[SearchHit]]:
        """Ranked results for a batch of queries, in input order.

        Equivalent to ``[search(q, limit) for q in queries]`` but built for
        throughput: the whole batch runs against one index snapshot, term
        contribution arrays are shared between queries, and duplicate
        queries are answered from the result cache.  Under sharding, all
        cache-missing queries go to the shard executor as one batch; with
        ``strategy="hybrid"`` each miss's lexical ranking comes back from
        that batch and is fused with its vector ranking in-process.
        """
        strategy = self._resolve_request(strategy)
        vector_weight, rrf_k = self._fusion_params(vector_weight, rrf_k)
        queries = list(queries)
        if not (self.shards >= 2 and self.scorer.supports_topk()):
            return [self.search(query, limit, strategy=strategy,
                                vector_weight=vector_weight, rrf_k=rrf_k)
                    for query in queries]
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        analyzer = self.index.analyzer
        term_tuples = [tuple(analyzer.tokens(query)) for query in queries]
        family = self._cache_family(strategy, vector_weight, rrf_k)
        # Resolve cache hits immediately (storing this batch's own results
        # can evict pre-batch entries from the LRU, so a later re-lookup
        # could come up empty); distinct misses go to the shards as one
        # batch, deduplicated.
        resolved: list[tuple[SearchHit, ...] | None] = []
        pending: dict[tuple[str, ...], tuple[SearchHit, ...]] = {}
        for terms in term_tuples:
            resolved.append(
                self._cached_hits(terms, limit, family) if terms else ())
            if terms and resolved[-1] is None:
                pending.setdefault(terms, ())
        if pending:
            fuse = False
            if strategy == "hybrid" and vector_weight > 0:
                fuse = self._vector_index() is not None
                if not fuse:
                    self._note_fallback()
            fetch = max(limit * HYBRID_DEPTH_MULTIPLIER, limit) if fuse \
                else limit
            sharded = self._sharded_topk()
            ranked_lists = sharded.topk_many(
                self.scorer, [list(terms) for terms in pending], fetch)
            for terms, ranked in zip(pending, ranked_lists):
                if fuse:
                    ranked = self._fuse(terms, ranked, limit, fetch,
                                        vector_weight, rrf_k)
                pending[terms] = self._store_hits(terms, limit, family,
                                                  ranked[:limit])
        return [list(hits) if hits is not None else list(pending[terms])
                for hits, terms in zip(resolved, term_tuples)]

    def search_exhaustive(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Reference path: score every matching document and sort.

        Kept as the ground truth the fast path is verified against, and as
        the fallback for scorers without fast-path support.  Bypasses the
        result cache.
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        terms = self.index.analyzer.tokens(query)
        if not terms:
            return []
        ranked = self._ranked_exhaustive(list(terms), limit)
        return [SearchHit(self.index.document(doc_id), score, rank)
                for rank, (doc_id, score) in enumerate(ranked)]

    def best(self, query: str) -> SearchHit | None:
        hits = self.search(query, limit=1)
        return hits[0] if hits else None

    @property
    def routing_stats(self) -> dict | None:
        """Cumulative Bloom-routing statistics of the shard set this
        searcher dispatches to (see :attr:`ShardedTopK.routing_stats`),
        or ``None`` while no shard set exists — the plumbing the serving
        pipeline reads to report "shards routed" per batch."""
        return self._sharded.routing_stats if self._sharded is not None \
            else None

    def close(self) -> None:
        """Release the shard executor this searcher owns, if any
        (idempotent).  A shared shard set handed in at construction is
        left running — its owner (e.g. the collection) closes it."""
        if self._sharded is not None and self._owns_sharded:
            self._sharded.close()
            self._sharded = None

    def __enter__(self) -> "Searcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _resolve_request(self, strategy: str | None) -> str:
        """The effective strategy for one call (validated)."""
        if strategy is None:
            return self.strategy
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        return strategy

    def _fusion_params(self, vector_weight: float | None,
                       rrf_k: int | None) -> tuple[float, int]:
        """Effective (validated) fusion parameters for one call."""
        if vector_weight is None:
            vector_weight = self.vector_weight
        elif vector_weight < 0:
            raise ValueError(
                f"vector_weight must be >= 0, got {vector_weight}")
        if rrf_k is None:
            rrf_k = self.rrf_k
        elif rrf_k < 1:
            raise ValueError(f"rrf_k must be >= 1, got {rrf_k}")
        return vector_weight, rrf_k

    def _cache_family(self, strategy: str, vector_weight: float,
                      rrf_k: int) -> tuple:
        """The cache-key segment distinguishing result families.

        ``"auto"`` and hybrid with ``vector_weight == 0``, which returns
        lexical results verbatim, share one family;
        fusing runs are keyed by their fusion parameters and embedder
        identity so a tuned request can never serve a default-tuned
        entry (or vice versa).
        """
        if strategy == "hybrid" and vector_weight > 0:
            return ("hybrid", vector_weight, rrf_k,
                    self.embedder.cache_key())
        return ()

    def _cache_key(self, terms: tuple[str, ...], limit: int,
                   family: tuple) -> tuple:
        return (self.index.version, terms, self.scorer.cache_key(),
                limit, *family)

    def _cached_hits(self, terms: tuple[str, ...], limit: int,
                     family: tuple) -> tuple[SearchHit, ...] | None:
        key = self._cache_key(terms, limit, family)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        return cached

    def _store_hits(self, terms: tuple[str, ...], limit: int, family: tuple,
                    ranked: list[tuple[str, float]]) -> tuple[SearchHit, ...]:
        hits = tuple(SearchHit(self.index.document(doc_id), score, rank)
                     for rank, (doc_id, score) in enumerate(ranked))
        if self.cache_size:
            self._cache[self._cache_key(terms, limit, family)] = hits
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return hits

    def _sharded_topk(self) -> ShardedTopK:
        """The shard set for the current snapshot (rebuilt after any add;
        a stale *shared* set is abandoned to its owner, never closed)."""
        snapshot = self.index.snapshot()
        if self._sharded is None or self._sharded.version != snapshot.version:
            self.close()
            self._sharded = ShardedTopK(snapshot, self.shards,
                                        self.parallelism)
            self._owns_sharded = True
        return self._sharded

    def _search_terms(self, terms: tuple[str, ...], limit: int,
                      strategy: str, vector_weight: float,
                      rrf_k: int) -> tuple[SearchHit, ...]:
        family = self._cache_family(strategy, vector_weight, rrf_k)
        cached = self._cached_hits(terms, limit, family)
        if cached is not None:
            return cached
        if not self.scorer.supports_topk():
            ranked = self._ranked_exhaustive(list(terms), limit)
        elif strategy == "hybrid" and vector_weight > 0:
            ranked = self._hybrid_ranked(terms, limit, vector_weight, rrf_k)
        else:
            # Lexical fast path.  "hybrid" with weight 0 lands here too,
            # so it is rank- AND score-identical to "auto" — the
            # identity the property suite pins.
            ranked = self._fast_ranked(terms, limit)
        return self._store_hits(terms, limit, family, ranked)

    def _fast_ranked(self, terms: tuple[str, ...],
                     fetch: int) -> list[tuple[str, float]]:
        if self.shards >= 2:
            return self._sharded_topk().topk(self.scorer, list(terms), fetch)
        return topk_scores(self.index.snapshot(), self.scorer, list(terms),
                           fetch)

    def _hybrid_ranked(self, terms: tuple[str, ...], limit: int,
                       vector_weight: float,
                       rrf_k: int) -> list[tuple[str, float]]:
        """Lexical + vector rankings fused by reciprocal rank; degrades
        to the plain lexical ranking (with a one-time warning) when the
        index has no vectors for the searcher's embedder."""
        if self._vector_index() is None:
            self._note_fallback()
            return self._fast_ranked(terms, limit)
        fetch = max(limit * HYBRID_DEPTH_MULTIPLIER, limit)
        lexical = self._fast_ranked(terms, fetch)
        return self._fuse(terms, lexical, limit, fetch, vector_weight, rrf_k)

    def _fuse(self, terms: tuple[str, ...],
              lexical: list[tuple[str, float]], limit: int, fetch: int,
              vector_weight: float, rrf_k: int) -> list[tuple[str, float]]:
        """Fuse a lexical ranking with the query's top-``fetch`` vector
        ranking."""
        query_vector = self.embedder.embed_query(" ".join(terms))
        vector_ranked = self._vector_topk(query_vector, fetch)
        return reciprocal_rank_fusion(lexical, vector_ranked, limit,
                                      vector_weight, rrf_k)

    def _vector_index(self):
        """The current snapshot's vector index for this searcher's
        embedder (``None`` = unavailable, the graceful-fallback case)."""
        return self.index.snapshot().vectors(self.embedder)

    def _vector_topk(self, query_vector, fetch: int,
                     ) -> list[tuple[str, float]]:
        """The vector side's ranking.  Sharded searchers score per-shard
        vector partitions and merge — float-identical to the global scan
        (cosine is per-document; property-tested), and aligned with the
        lexical shards so a partitioned deployment never rescans
        globally."""
        vector_index = self._vector_index()
        if self.shards < 2:
            return vector_index.topk(query_vector, fetch)
        key = (self.index.snapshot().version, self.shards)
        if self._vector_partitions is None or \
                self._vector_partitions_key != key:
            self._vector_partitions = vector_index.shard(self.shards)
            self._vector_partitions_key = key
        return merge_ranked(
            [partition.topk(query_vector, fetch)
             for partition in self._vector_partitions], fetch)

    def _note_fallback(self) -> None:
        self.hybrid_fallbacks += 1
        if not self._warned_fallback:
            self._warned_fallback = True
            warnings.warn(
                "hybrid retrieval requested but the index has no vector "
                "extents for this embedder (snapshot saved without "
                "vectors — re-save to add them); "
                "serving lexical results instead",
                RuntimeWarning, stacklevel=2)

    def _ranked_exhaustive(self, terms: list[str],
                           limit: int) -> list[tuple[str, float]]:
        scores = self.scorer.scores(self.index, terms)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:limit]
