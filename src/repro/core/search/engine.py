"""The qunit search engine: a façade over the staged query pipeline.

This is Figure 1 of the paper end to end: the typed query selects qunit
definitions; instances of the winning definitions are ranked (fully-bound
matches materialize directly; partially-bound ones fall back to BM25 over
the definition's instance documents); and whenever structural matching
leaves the result list short — including producing nothing at all — plain
IR retrieval over the whole flat instance collection backfills the
remainder — the database is, after all, "nothing more than a collection of
independent qunits" to the front end.

Since the staged-pipeline refactor the engine itself is thin: every query
— single or batch — runs through one :class:`~repro.serve.pipeline.
QueryPipeline` (segment → match → plan → execute → assemble, see
:mod:`repro.serve`).  Batches are served batch-natively: N queries are
segmented and matched together, and their retrieval calls are grouped per
target index so the sharded executors receive real batches
(:meth:`~repro.ir.retrieval.Searcher.search_many` /
:meth:`~repro.ir.shard.ShardedTopK.topk_many`) instead of per-query
dispatches.  :meth:`QunitSearchEngine.search_many` is answer- and
order-identical to mapping :meth:`QunitSearchEngine.search`
(property-tested in ``tests/test_property_based.py``); it is just faster.

Retrieval inside the pipeline rides the top-k fast path (see
:mod:`repro.ir.topk`): the collection hands the pipeline pooled searchers
(:class:`~repro.serve.pool.SearcherPool`) whose snapshots, score bounds,
and LRU result caches persist across queries and batches.  Engine knobs —
the match threshold, the backfill budget, and the optional result-cache /
admission middleware — live in :class:`~repro.serve.pipeline.EngineConfig`.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

from repro.answer import Answer
from repro.core.collection import QunitCollection
from repro.core.search.matcher import QunitMatcher
from repro.core.search.segmentation import (
    QuerySegmenter,
    SchemaVocabulary,
    SegmentedQuery,
)
from repro.ir.scoring import Bm25Scorer, Scorer
from repro.serve.api import SearchRequest, SearchResponse
from repro.serve.explain import SearchExplanation, StageTiming
from repro.serve.pipeline import EngineConfig, QueryContext, QueryPipeline

__all__ = ["QunitSearchEngine", "SearchRequest", "SearchResponse",
           "SearchExplanation", "StageTiming", "EngineConfig"]


class QunitSearchEngine:
    """Search over one qunit collection.

    ``flavor`` names the derivation behind the collection ("expert",
    "schema_data", ...) and brands the answers' ``system`` field so the
    evaluation harness can compare engines side by side.  ``config``
    tunes the serving pipeline (:class:`~repro.serve.pipeline.
    EngineConfig`); when omitted, the defaults reproduce the historical
    behavior — in particular a match threshold of
    :attr:`MIN_MATCH_SCORE` and backfill up to the result limit.
    """

    #: Default match threshold.  Read ONCE at construction into the
    #: engine's ``EngineConfig`` — subclasses may override the class
    #: attribute, but changing it on a live instance no longer affects
    #: queries (the pre-pipeline engine read it per query); configure a
    #: custom threshold via ``EngineConfig(min_match_score=...)``.
    MIN_MATCH_SCORE = 0.15

    def __init__(self, collection: QunitCollection, flavor: str = "qunits",
                 vocabulary: SchemaVocabulary | None = None,
                 scorer: Scorer | None = None,
                 config: EngineConfig | None = None):
        self.collection = collection
        self.database = collection.database
        self.flavor = flavor
        self.segmenter = QuerySegmenter(self.database, vocabulary)
        self.matcher = QunitMatcher(self.database)
        self.scorer = scorer or Bm25Scorer()
        self.config = config if config is not None else \
            EngineConfig(min_match_score=self.MIN_MATCH_SCORE)
        self.pipeline = QueryPipeline(
            collection=collection, segmenter=self.segmenter,
            matcher=self.matcher, scorer=self.scorer, config=self.config,
            system_name=self.system_name)

    @property
    def system_name(self) -> str:
        return f"qunits-{self.flavor}" if self.flavor != "qunits" else "qunits"

    # -- public API ---------------------------------------------------------------

    def execute(self, requests: Sequence[SearchRequest],
                ) -> list[SearchResponse]:
        """Serve a batch of typed requests — THE core entry point.

        The whole batch runs through the staged pipeline together:
        segmented together, matched together, and with retrieval calls
        grouped per target index so sharded executors see one task per
        shard per round instead of per query.  Each request keeps its
        own result limit and client id; responses come back in input
        order, answer-identical to serving each request alone
        (property-tested in ``tests/test_property_based.py``).

        The historical ``search``/``search_many``/
        ``search_with_explanation``/``search_many_with_explanations``
        methods are thin deprecated wrappers over this; the HTTP front
        end (:mod:`repro.serve.server`) and the CLI speak
        :class:`~repro.serve.api.SearchRequest` /
        :class:`~repro.serve.api.SearchResponse` natively.
        """
        contexts = [QueryContext(query=request.query, limit=request.limit,
                                 client_id=request.client_id,
                                 strategy=request.strategy)
                    for request in requests]
        finished = self.pipeline.run_contexts(contexts)
        responses = []
        for request, ctx in zip(requests, finished):
            explanation = ctx.explanation if request.explain else None
            timings = (ctx.explanation.stages
                       if ctx.explanation is not None else ())
            responses.append(SearchResponse(
                query=ctx.query, answers=tuple(ctx.answers),
                explanation=explanation, timings=timings,
                cached=ctx.served_from_cache, admitted=ctx.admitted,
                client_id=ctx.client_id))
        return responses

    def best(self, query: str) -> Answer:
        response = self.execute([SearchRequest(query=query, limit=1)])[0]
        return response.answers[0] if response.answers \
            else Answer.empty(self.system_name)

    # -- deprecated wrappers over execute() ---------------------------------------

    @staticmethod
    def _warn_deprecated(name: str) -> None:
        """One hard deprecation warning per legacy entry point."""
        warnings.warn(
            f"QunitSearchEngine.{name}() is deprecated; build "
            f"SearchRequest objects and call execute() instead",
            DeprecationWarning, stacklevel=3)

    def search(self, query: str, limit: int = 5) -> list[Answer]:
        """Deprecated — use :meth:`execute` with a
        :class:`~repro.serve.api.SearchRequest`."""
        self._warn_deprecated("search")
        return list(self.execute(
            [SearchRequest(query=query, limit=limit)])[0].answers)

    def search_many(self, queries: list[str], limit: int = 5) -> list[list[Answer]]:
        """Deprecated — use :meth:`execute` with a batch of
        :class:`~repro.serve.api.SearchRequest` objects (the batch
        semantics are identical: one pipeline run, grouped retrieval).
        """
        self._warn_deprecated("search_many")
        requests = [SearchRequest(query=query, limit=limit)
                    for query in queries]
        return [list(response.answers)
                for response in self.execute(requests)]

    def search_many_with_explanations(
            self, queries: list[str], limit: int = 5,
    ) -> list[tuple[list[Answer], SearchExplanation]]:
        """Deprecated — use :meth:`execute` with ``explain=True``
        requests; responses carry answers and the trace together."""
        self._warn_deprecated("search_many_with_explanations")
        requests = [SearchRequest(query=query, limit=limit, explain=True)
                    for query in queries]
        return [(list(response.answers), response.explanation)
                for response in self.execute(requests)]

    def save(self, path) -> None:
        """Persist the engine's derived collection (definitions + index
        snapshots) to a directory; see
        :meth:`~repro.core.store.CollectionStore.save` (a delta-journal
        append when ``path`` already holds a compatible generation)."""
        from repro.core.store import CollectionStore

        CollectionStore(path).save(self.collection)

    @classmethod
    def load(cls, database, path, flavor: str = "qunits",
             vocabulary: SchemaVocabulary | None = None,
             scorer: Scorer | None = None, shards: int = 0,
             parallelism: str = "serial",
             strategy: str = "auto",
             config: EngineConfig | None = None) -> "QunitSearchEngine":
        """An engine over a collection restored from :meth:`save` output.

        Cold start skips derivation and indexing — and pins only the
        manifest plus snapshot headers up front
        (:class:`~repro.core.store.LoadOptions` with the default lazy
        pin): each snapshot mmaps on first query demand, so start-up
        cost no longer scales with definitions the traffic never
        touches.  Answers cost O(hits): each retrieval hit materializes
        only its own instance from the database, and the document store
        decodes only the documents hits return (see
        :meth:`~repro.core.collection.QunitCollection.instance`).
        Retrieval is optionally sharded
        (``shards``/``parallelism`` — see :mod:`repro.ir.shard`) and
        runs under ``strategy`` (one of
        :data:`repro.ir.topk.STRATEGIES`).
        """
        from repro.core.store import CollectionStore, LoadOptions

        collection = CollectionStore(path).load(database, LoadOptions(
            shards=shards, parallelism=parallelism, strategy=strategy))
        return cls(collection, flavor=flavor, vocabulary=vocabulary,
                   scorer=scorer, config=config)

    def explain(self, query: str, limit: int = 5) -> SearchExplanation:
        """The pipeline trace for one query (see :meth:`execute` with
        ``explain=True`` for answers and trace in one pass)."""
        return self.execute([SearchRequest(query=query, limit=limit,
                                           explain=True)])[0].explanation

    def search_with_explanation(
            self, query: str, limit: int = 5,
    ) -> tuple[list[Answer], SearchExplanation]:
        """Deprecated — use :meth:`execute` with an ``explain=True``
        request; the response carries answers and trace together."""
        self._warn_deprecated("search_with_explanation")
        response = self.execute([SearchRequest(query=query, limit=limit,
                                               explain=True)])[0]
        return list(response.answers), response.explanation

    def segment(self, query: str) -> SegmentedQuery:
        return self.segmenter.segment(query)
