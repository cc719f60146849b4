"""Expected answers, computed where no fast path, cache, file or socket is.

Oracles run in the benchmark's own process over the *live* in-memory
collection / index the artefact was saved from — never over anything
loaded back — and score exhaustively:

- lexical: a scorer without the fast-path hooks, so every ``Searcher``
  under the oracle engine scores every matching document and sorts
  (the path ``Searcher.search_exhaustive`` takes);
- hybrid, flat index: exhaustive lexical ranking, brute-force cosine
  and reciprocal-rank fusion recomputed here;
- hybrid, engine level: the live collection's engine with vectors
  embedded in memory (no persisted extents, no mmap, no lazy load).

Exhaustive scoring costs 10-50x the fast path it checks, so a workload
whose every distinct query cannot be afforded checks a seeded sample of
them (sizes are in the environment block); every other op must still
succeed and agree with any earlier answer to the same query.
"""

from __future__ import annotations

import random

from repro.core.search import QunitSearchEngine, SearchRequest
from repro.ir import Searcher
from repro.ir.embed import HashingEmbedder
from repro.ir.scoring import Bm25Scorer, Scorer
from repro.ir.vector import (
    DEFAULT_RRF_K,
    DEFAULT_VECTOR_WEIGHT,
    HYBRID_DEPTH_MULTIPLIER,
)

import fixtures
from fixtures import answer_ids


class ExhaustiveBm25(Scorer):
    """BM25 with no top-k hooks: retrieval falls back to scoring every
    matching document."""

    def __init__(self):
        self._bm25 = Bm25Scorer()

    def scores(self, index, terms):
        return self._bm25.scores(index, terms)


def engine_oracle(collection, strategy: str | None = None):
    """``query -> expected instance ids`` from the live collection."""
    scorer = ExhaustiveBm25() if strategy is None else None
    engine = QunitSearchEngine(collection, flavor=fixtures.FLAVOR,
                               scorer=scorer)

    def expected(query: str) -> list[str]:
        request = SearchRequest(query=query, limit=fixtures.ENGINE_LIMIT,
                                strategy=strategy)
        return answer_ids(engine.execute([request])[0].answers)

    return expected


def large_oracle(snapshot):
    """``query -> expected doc ids`` by ``Searcher.search_exhaustive``."""
    searcher = Searcher(snapshot, cache_size=0)

    def expected(query: str) -> list[str]:
        return [hit.doc_id for hit in searcher.search_exhaustive(
            query, limit=fixtures.SEARCHER_LIMIT)]

    return expected


def brute_force_hybrid(snapshot, query: str, limit: int) -> list[str]:
    """The flat hybrid ranking recomputed from first principles."""
    fetch = limit * HYBRID_DEPTH_MULTIPLIER
    lexical = [hit.doc_id for hit in
               Searcher(snapshot, cache_size=0).search_exhaustive(
                   query, limit=fetch)]
    embedder = HashingEmbedder()
    vectors = snapshot.vectors(embedder)
    terms = snapshot.analyzer.tokens(query)
    query_vector = embedder.embed_query(" ".join(terms))
    cosines = []
    for row, doc_id in enumerate(vectors.doc_ids):
        # The same left-to-right float sum the index takes, so a near
        # tie ranks the same way.
        score = 0.0
        for q, d in zip(query_vector, vectors.row(row)):
            score += q * d
        if score > 0.0:
            cosines.append((-score, doc_id))
    cosines.sort()
    fused: dict[str, float] = {}
    for rank, doc_id in enumerate(lexical, start=1):
        fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (DEFAULT_RRF_K + rank)
    for rank, (_score, doc_id) in enumerate(cosines[:fetch], start=1):
        fused[doc_id] = fused.get(doc_id, 0.0) \
            + DEFAULT_VECTOR_WEIGHT / (DEFAULT_RRF_K + rank)
    ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
    return [doc_id for doc_id, _score in ranked[:limit]]


def sample(items: list, budget: int, seed: int) -> list:
    """Up to ``budget`` of ``items``, seeded, order kept."""
    if len(items) <= budget:
        return list(items)
    keep = set(random.Random(seed).sample(range(len(items)), budget))
    return [item for index, item in enumerate(items) if index in keep]


def check(queries: list[str], answers: list, expected: dict) -> dict:
    """Compare one run's answers with the oracle.

    An op fails when it raised (answer ``None``), when the oracle has
    its query and the ids differ, or when it disagrees with an earlier
    answer to the same query.  Returns counts plus a few examples.
    """
    failed = 0
    checked = 0
    first: dict[str, list[str]] = {}
    examples = []
    for query, answer in zip(queries, answers):
        bad = answer is None
        if not bad and query in expected:
            checked += 1
            bad = answer != expected[query]
        if not bad:
            bad = first.setdefault(query, answer) != answer
        if bad:
            failed += 1
            if len(examples) < 5:
                examples.append({"query": query, "got": answer,
                                 "expected": expected.get(query)})
    return {"failed": failed, "oracle_checked": checked,
            "examples": examples}
