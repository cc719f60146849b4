"""The staged query pipeline: contexts, configuration, middleware, driver.

:class:`QueryPipeline` owns the five stages of the serving path
(:mod:`repro.serve.stages`) and drives whole batches of queries through
them, timing each stage and applying middleware around the run.  The
:class:`~repro.core.search.engine.QunitSearchEngine` is a thin façade
over one pipeline; everything the old monolithic per-query method did
now happens here, batch-natively.

Middleware wraps a batch without touching stage code:

- :class:`AdmissionMiddleware` rejects degenerate queries (e.g.
  pathologically long keyword strings) before any stage spends work on
  them.
- :class:`ResultCacheMiddleware` serves repeat ``(query, limit)`` pairs
  from an LRU of finished answers + explanations.  It assumes the
  collection is frozen while serving (the qunit paradigm: derivation
  happens before queries arrive).

Both are opt-in through :class:`EngineConfig`, which also makes the
engine's match threshold and backfill budget constructor-configurable.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.ir.vector import DEFAULT_RRF_K, DEFAULT_VECTOR_WEIGHT
from repro.ir.topk import STRATEGIES
from repro.serve.explain import SearchExplanation, StageTiming
from repro.serve.stages import (
    AssembleStage,
    ExecuteStage,
    MatchStage,
    PlanStage,
    SegmentStage,
)
from repro.utils.text import normalize

if TYPE_CHECKING:  # circular-import-free type references only
    from collections.abc import Callable

    from repro.answer import Answer
    from repro.core.collection import QunitCollection
    from repro.core.search.matcher import DefinitionMatch, QunitMatcher
    from repro.core.search.segmentation import QuerySegmenter, SegmentedQuery
    from repro.ir.retrieval import Searcher
    from repro.ir.scoring import Scorer
    from repro.serve.plan import QueryPlan

__all__ = [
    "EngineConfig",
    "QueryContext",
    "QueryPipeline",
    "PipelineMiddleware",
    "AdmissionMiddleware",
    "ResultCacheMiddleware",
]


@dataclass(frozen=True)
class EngineConfig:
    """Constructor-configurable knobs of the serving pipeline.

    Defaults reproduce the engine's historical behavior exactly.

    ``min_match_score`` — definitions matching below this are rejected
    (the old hard-coded ``QunitSearchEngine.MIN_MATCH_SCORE``).
    ``backfill_budget`` — at most this many answers may come from flat
    IR backfill (``None`` = fill to the result limit, the old rule).
    ``candidate_limit`` — minimum candidate count surfaced in
    explanations (all above-threshold matches always appear).
    ``result_cache_size`` — > 0 enables :class:`ResultCacheMiddleware`
    with that LRU capacity.
    ``max_query_terms`` — set to enable :class:`AdmissionMiddleware`,
    rejecting queries with more whitespace-separated terms than this.
    ``cache_admission`` — optional predicate ``query -> bool`` deciding
    which finished results the result cache may *store* (serving
    existing entries is unaffected).  Wire it to the query log's Zipf
    head (:func:`repro.datasets.querylog.analysis.zipf_head`) so only
    head queries — the ones repetition makes worth caching — occupy
    cache slots; tail queries then cannot evict them.
    ``hybrid_vector_weight`` / ``hybrid_rrf_k`` — the reciprocal-rank
    fusion parameters retrieval uses when a query runs under the
    ``"hybrid"`` strategy (see :mod:`repro.ir.vector`); weight 0 makes
    hybrid identical to lexical retrieval.
    """

    min_match_score: float = 0.15
    backfill_budget: int | None = None
    candidate_limit: int = 5
    result_cache_size: int = 0
    max_query_terms: int | None = None
    cache_admission: "Callable[[str], bool] | None" = None
    hybrid_vector_weight: float = DEFAULT_VECTOR_WEIGHT
    hybrid_rrf_k: int = DEFAULT_RRF_K

    def __post_init__(self) -> None:
        """Validate the knobs (fail at construction, not mid-query)."""
        if self.backfill_budget is not None and self.backfill_budget < 0:
            raise ValueError(
                f"backfill_budget must be non-negative or None, "
                f"got {self.backfill_budget}")
        if self.candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1, got {self.candidate_limit}")
        if self.result_cache_size < 0:
            raise ValueError(
                f"result_cache_size must be non-negative, "
                f"got {self.result_cache_size}")
        if self.max_query_terms is not None and self.max_query_terms < 1:
            raise ValueError(
                f"max_query_terms must be >= 1 or None, "
                f"got {self.max_query_terms}")
        if self.hybrid_vector_weight < 0:
            raise ValueError(
                f"hybrid_vector_weight must be >= 0, "
                f"got {self.hybrid_vector_weight}")
        if self.hybrid_rrf_k < 1:
            raise ValueError(
                f"hybrid_rrf_k must be >= 1, got {self.hybrid_rrf_k}")


@dataclass
class QueryContext:
    """One query's mutable state as it flows through the stages.

    Stages fill the fields top to bottom; middleware may short-circuit
    a context by setting ``done`` (the stages then never see it).
    ``retrieval_stats`` and ``stage_timings`` are batch-level
    instrumentation copied into the final explanation.
    """

    query: str
    limit: int
    #: The requesting client (from :class:`~repro.serve.api.
    #: SearchRequest.client_id`); informational to the stages, carried
    #: so middleware and responses can attribute the result.
    client_id: str | None = None
    #: Per-request retrieval-strategy override (from :class:`~repro.
    #: serve.api.SearchRequest.strategy`); ``None`` = the pipeline's
    #: configured strategy.  Resolved by :meth:`QueryPipeline.
    #: strategy_for` wherever stages route retrieval.
    strategy: str | None = None
    segmented: "SegmentedQuery | None" = None
    matches: "list[DefinitionMatch]" = field(default_factory=list)
    plan: "QueryPlan | None" = None
    answers: "list[Answer]" = field(default_factory=list)
    explanation: SearchExplanation | None = None
    stage_timings: list[StageTiming] = field(default_factory=list)
    retrieval_stats: dict = field(default_factory=dict)
    #: The collection's :attr:`~repro.core.collection.QunitCollection.
    #: lazy_loads` counter captured at plan time — assembly reports the
    #: delta as this batch's lazy snapshot loads (``None`` when the
    #: collection doesn't track it).
    lazy_loads_before: int | None = None
    done: bool = False
    #: Set by :class:`ResultCacheMiddleware` when the answers came from
    #: the result cache rather than a pipeline run.
    served_from_cache: bool = False
    #: Cleared by :class:`AdmissionMiddleware` when the query was
    #: rejected without running the pipeline.
    admitted: bool = True


class PipelineMiddleware:
    """Hooks around one batch run.

    :meth:`enter` sees the incoming contexts and returns the subset the
    stages should still process (marking the rest ``done`` with their
    answers/explanations filled); :meth:`exit` sees the stage-processed
    contexts after assembly.  Middleware enters in registration order
    and exits in reverse.
    """

    def enter(self, contexts: list[QueryContext],
              pipeline: "QueryPipeline") -> list[QueryContext]:
        """Filter/short-circuit contexts before the stages run."""
        return contexts

    def exit(self, contexts: list[QueryContext],
             pipeline: "QueryPipeline") -> None:
        """Observe fully processed contexts (e.g. to populate caches)."""


class AdmissionMiddleware(PipelineMiddleware):
    """Reject queries whose term count exceeds a hard limit.

    A keyword query with hundreds of terms is junk traffic that would
    still pay full segmentation cost (entity matching probes every
    token window); admission control answers it with an empty,
    explained result instead.
    """

    def __init__(self, max_query_terms: int):
        """Admit queries of at most ``max_query_terms`` terms."""
        self.max_query_terms = max_query_terms

    def enter(self, contexts, pipeline):
        """Short-circuit over-long queries with an empty explained
        result; pass the rest through."""
        admitted = []
        for ctx in contexts:
            count = len(normalize(ctx.query).split())
            if count <= self.max_query_terms:
                admitted.append(ctx)
                continue
            ctx.answers = []
            ctx.admitted = False
            ctx.explanation = SearchExplanation(
                query=ctx.query, template="", query_class="rejected",
                candidates=(), answers=(),
                notes=(f"admission: rejected — {count} terms exceed the "
                       f"{self.max_query_terms}-term limit",),
            )
            ctx.done = True
        return admitted


class ResultCacheMiddleware(PipelineMiddleware):
    """LRU cache of finished results keyed on ``(query, limit,
    strategy override)``.

    Serving from it is answer-identical by construction (the cached
    answers *are* a previous run's); the strategy override is part of
    the key because a ``"hybrid"`` run and a lexical run of the same
    query are legitimately *different* results.  The cache assumes a
    frozen collection — the qunit serving model — and can be dropped
    with :meth:`clear` after any out-of-band index change.
    """

    CACHE_NOTE = "served from the pipeline result cache"

    def __init__(self, size: int,
                 admit: "Callable[[str], bool] | None" = None):
        """A cache holding at most ``size`` finished results.

        ``admit`` is an optional store-side admission policy: a finished
        result is only cached when ``admit(query)`` is true (lookups are
        unaffected).  The serving front end wires this to the query
        log's Zipf head so tail queries — which by definition rarely
        repeat — cannot evict the entries that earn their keep.

        Raises:
            ValueError: when ``size`` < 1.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self.admit = admit
        self.hits = 0
        self.misses = 0
        #: Store-side admission outcomes: how many finished results the
        #: policy let into the cache vs turned away.
        self.stores = 0
        self.store_rejections = 0
        self._cache: OrderedDict[tuple, tuple] = OrderedDict()

    def enter(self, contexts, pipeline):
        """Serve cached ``(query, limit)`` pairs; pass misses through."""
        missed = []
        for ctx in contexts:
            key = (ctx.query, ctx.limit, ctx.strategy)
            cached = self._cache.get(key)
            if cached is None:
                self.misses += 1
                missed.append(ctx)
                continue
            self.hits += 1
            self._cache.move_to_end(key)
            answers, explanation = cached
            ctx.served_from_cache = True
            ctx.answers = list(answers)
            if self.CACHE_NOTE not in explanation.notes:
                explanation = replace(
                    explanation, notes=(*explanation.notes, self.CACHE_NOTE))
            ctx.explanation = explanation
            ctx.done = True
        return missed

    def exit(self, contexts, pipeline):
        """Store finished results the admission policy accepts (LRU
        eviction past ``size``)."""
        for ctx in contexts:
            if self.admit is not None and not self.admit(ctx.query):
                self.store_rejections += 1
                continue
            self.stores += 1
            self._cache[(ctx.query, ctx.limit, ctx.strategy)] = \
                (tuple(ctx.answers), ctx.explanation)
            while len(self._cache) > self.size:
                self._cache.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached result (counters are kept)."""
        self._cache.clear()


class QueryPipeline:
    """Drives batches of queries through the staged serving path.

    One pipeline serves one collection; the engine constructs it once
    and every ``search``/``search_many``/``explain`` call lands in
    :meth:`run`.  Stage timings are recorded per batch; middleware is
    assembled from the :class:`EngineConfig` (admission first, result
    cache second, so cache entries only hold admitted queries).
    """

    def __init__(self, collection: "QunitCollection",
                 segmenter: "QuerySegmenter", matcher: "QunitMatcher",
                 scorer: "Scorer", config: EngineConfig,
                 system_name: str):
        """Wire the pipeline over one collection's serving machinery.

        Args:
            collection: the qunit collection (owns indexes + searcher
                pool).
            segmenter: the query segmenter (stage 1).
            matcher: the definition matcher (stage 2).
            scorer: the IR scorer every retrieval task uses.
            config: the engine knobs (threshold, budgets, middleware).
            system_name: brand stamped onto every answer's ``system``.
        """
        self.collection = collection
        self.segmenter = segmenter
        self.matcher = matcher
        self.scorer = scorer
        self.config = config
        self.system_name = system_name
        self.strategy = collection.strategy
        self.stages: list = [SegmentStage(), MatchStage(), PlanStage(),
                             ExecuteStage(), AssembleStage()]
        self.middleware: list[PipelineMiddleware] = []
        if config.max_query_terms is not None:
            self.middleware.append(AdmissionMiddleware(config.max_query_terms))
        if config.result_cache_size:
            cache = ResultCacheMiddleware(config.result_cache_size,
                                          admit=config.cache_admission)
            self.middleware.append(cache)
            # A generation swap (online ingestion committing) makes
            # cached answers stale mid-process — the one way the
            # "frozen collection" assumption breaks — so the swap
            # clears the cache.  getattr-guarded: tests drive the
            # pipeline over minimal fake collections.
            subscribe = getattr(collection, "subscribe_invalidation", None)
            if subscribe is not None:
                subscribe(cache.clear)

    def run(self, queries: list[str], limit: int) -> list[QueryContext]:
        """Serve a batch of queries at one shared ``limit``; one
        finished context per query, in input order.

        Raises:
            ValueError: on a negative ``limit``.
        """
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        return self.run_contexts([QueryContext(query=query, limit=limit)
                                  for query in queries])

    def run_contexts(self, contexts: list[QueryContext],
                     ) -> list[QueryContext]:
        """Serve a batch of pre-built contexts (the typed-request entry
        point: each context carries its own limit and client id).

        Every context comes back with ``answers`` and ``explanation``
        filled — by the stages, or by a middleware short-circuit.
        """
        active = contexts
        for middleware in self.middleware:
            active = middleware.enter(active, self)
        if active:
            for stage in self.stages:
                start = time.perf_counter()
                stage.run(active, self)
                timing = StageTiming(stage.name,
                                     time.perf_counter() - start)
                for ctx in active:
                    ctx.stage_timings.append(timing)
            for ctx in active:
                ctx.explanation = replace(ctx.explanation,
                                          stages=tuple(ctx.stage_timings))
        for middleware in reversed(self.middleware):
            middleware.exit(active, self)
        return contexts

    # -- services the stages call -------------------------------------------

    def strategy_for(self, ctx: QueryContext) -> str:
        """One query's effective retrieval strategy: its request-level
        override when present (validated), else the collection-level
        configuration.

        Raises:
            ValueError: on an unknown override.
        """
        if ctx.strategy is None:
            return self.strategy
        if ctx.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, "
                f"got {ctx.strategy!r}")
        return ctx.strategy

    def searcher_for(self, target: str | None) -> "Searcher":
        """The pooled searcher for a retrieval target (``None`` = the
        flat collection-wide index, else a definition name)."""
        if target is None:
            return self.collection.searcher(self.scorer)
        return self.collection.definition_searcher(target, self.scorer)

    def acquire_for(self, target: str | None) -> "Searcher":
        """:meth:`searcher_for`, but pinned against pool eviction until
        the matching :meth:`release_searcher` — the execute stage holds
        one lease per target for the length of a batch, so a batch
        touching more searcher keys than the pool holds can no longer
        close the flat searcher (and its shard executors) out from
        under its own later rounds."""
        return self.collection.acquire_searcher(target, self.scorer)

    def release_searcher(self, searcher: "Searcher") -> None:
        """Return one :meth:`acquire_for` lease."""
        self.collection.release_searcher(searcher)

    def brand(self, answer: "Answer", instance) -> "Answer":
        """Stamp an answer with the engine's system name and instance
        provenance (identical to the pre-pipeline engine's branding)."""
        provenance = answer.provenance + (("instance_id",
                                           instance.instance_id),)
        return replace(answer, system=self.system_name,
                       provenance=provenance)
