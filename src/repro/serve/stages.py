"""The five batch-native stages of the query pipeline.

Each stage processes a whole batch of
:class:`~repro.serve.pipeline.QueryContext` objects at once:

1. :class:`SegmentStage` — type every query against the schema
   vocabulary (:meth:`~repro.core.search.segmentation.QuerySegmenter.
   segment_many`).
2. :class:`MatchStage` — score every definition against every typed
   query (:meth:`~repro.core.search.matcher.QunitMatcher.match_many`).
3. :class:`PlanStage` — decide each query's retrieval work up front: a
   :class:`~repro.serve.plan.QueryPlan` of materialize/definition/flat
   tasks, each labelled with the query's effective strategy, and
   definition tasks Bloom-pruned.
4. :class:`ExecuteStage` — run every plan *batched*: the per-query
   execution logic is written once as a generator that yields retrieval
   requests, and the stage drives all generators in lockstep rounds,
   grouping concurrent requests per (target index, fetch size) into
   single :meth:`~repro.ir.retrieval.Searcher.search_many` calls — so a
   sharded executor receives one task per shard per *round*, not per
   query.  Because :meth:`search_many` is property-tested identical to
   mapped :meth:`search`, the batched execution is answer-identical to
   the sequential path by construction.
5. :class:`AssembleStage` — free-text re-ranking, explanation
   assembly.

Stages never import the collection/matcher modules at runtime (type
references only), which keeps ``repro.core.collection`` free to import
:mod:`repro.serve.pool`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.serve.explain import SearchExplanation
from repro.serve.plan import PlannedTask, QueryPlan

if TYPE_CHECKING:  # circular-import-free type references only
    from repro.answer import Answer
    from repro.ir.retrieval import Searcher, SearchHit
    from repro.serve.pipeline import QueryContext, QueryPipeline

__all__ = [
    "PipelineStage",
    "SegmentStage",
    "MatchStage",
    "PlanStage",
    "ExecuteStage",
    "AssembleStage",
]


class PipelineStage:
    """One batch-native step of the query pipeline.

    Subclasses set :attr:`name` (the label in stage timings and
    ``--explain`` traces) and implement :meth:`run`, mutating the
    contexts in place.  Stages hold no per-query state, so one stage
    instance serves every batch of its pipeline.
    """

    name = "stage"

    def run(self, contexts: "list[QueryContext]",
            pipeline: "QueryPipeline") -> None:
        """Process one batch of query contexts (in place)."""
        raise NotImplementedError


class SegmentStage(PipelineStage):
    """Type every query of the batch against the schema vocabulary."""

    name = "segment"

    def run(self, contexts, pipeline) -> None:
        """Fill ``ctx.segmented`` for the whole batch in one call."""
        segmented = pipeline.segmenter.segment_many(
            [ctx.query for ctx in contexts])
        for ctx, result in zip(contexts, segmented):
            ctx.segmented = result


class MatchStage(PipelineStage):
    """Score every qunit definition against every typed query."""

    name = "match"

    def run(self, contexts, pipeline) -> None:
        """Fill ``ctx.matches`` (ranked definition matches) batch-wide."""
        definitions = list(pipeline.collection.definitions.values())
        matched = pipeline.matcher.match_many(
            [ctx.segmented for ctx in contexts], definitions)
        for ctx, matches in zip(contexts, matched):
            ctx.matches = matches


class PlanStage(PipelineStage):
    """Decide each query's retrieval work before any of it runs.

    Match tasks cover every definition match at or above the engine's
    match threshold, in rank order: fully-bound matches become
    ``materialize`` tasks, partially-bound ones ``definition`` tasks —
    pruned (``bloom_skipped``) when the definition's term Bloom filter
    proves no query term has postings in its index.  Every retrieval
    task carries the query's effective strategy.  Planning never builds
    an index: a fully-bound query may finish without one.
    """

    name = "plan"

    def run(self, contexts, pipeline) -> None:
        """Fill ``ctx.plan`` for the whole batch."""
        collection = pipeline.collection
        analyzer = collection.analyzer
        min_score = pipeline.config.min_match_score
        # Baseline for the explanation's lazy-load delta: snapshot files
        # a lazily-loaded collection mmaps between here and assembly are
        # this batch's demand loads.
        lazy_loads_before = getattr(collection, "lazy_loads", None)
        for ctx in contexts:
            ctx.lazy_loads_before = lazy_loads_before
            strategy = pipeline.strategy_for(ctx)
            terms = tuple(analyzer.tokens(ctx.query))
            tasks: list[PlannedTask] = []
            for match in ctx.matches:
                if match.score < min_score:
                    break  # matches are rank-sorted; the rest scored lower
                name = match.definition.name
                if match.fully_bound:
                    tasks.append(PlannedTask(
                        kind="materialize", definition=name, match=match))
                    continue
                bloom = collection.definition_bloom(name)
                skipped = bloom is not None and \
                    not bloom.might_match_any(terms)
                tasks.append(PlannedTask(
                    kind="definition", definition=name, match=match,
                    strategy=strategy, bloom_skipped=skipped))
            flat = PlannedTask(kind="flat", strategy=strategy)
            ctx.plan = QueryPlan(query=ctx.query, terms=terms,
                                 limit=ctx.limit, tasks=tuple(tasks),
                                 flat=flat)


@dataclass
class _Request:
    """One pending retrieval call a query's executor generator needs."""

    target: str | None  # None = the flat collection-wide index
    query: str
    fetch: int
    strategy: str  # effective (request override or pipeline default)


class ExecuteStage(PipelineStage):
    """Run every query's plan, with retrieval batched across queries.

    Per-query semantics are the generator :meth:`_drive` — a direct
    port of the sequential engine loop (match tasks in rank order until
    the limit fills, then flat backfill, with geometric fetch-widening
    around already-seen documents).  The stage drives all generators in
    lockstep rounds; each round's outstanding requests are grouped by
    (target index, fetch size) and dispatched as one ``search_many``
    per group, so the sharded flat executor sees one task per shard per
    round instead of per query.
    """

    name = "execute"

    def run(self, contexts, pipeline) -> None:
        """Execute the batch's plans; fills ``ctx.answers`` and the
        batch-level retrieval counters in ``ctx.retrieval_stats``."""
        # Instrumentation is captured lazily at each searcher's first
        # dispatch of the batch (asking for the flat searcher up front
        # would build the flat index even for batches of fully-bound
        # queries that never need it — the laziness the pre-pipeline
        # engine had).  Cache counters cover *every* searcher the batch
        # touched, flat and per-definition; shard-routing counters exist
        # only on the flat searcher (definition indexes stay serial).
        watched: dict[int, tuple] = {}  # id -> (searcher, hits0, misses0)
        flat = None
        routing_before: dict = {}
        # One pool lease per target for the length of the batch: a batch
        # touching more searcher keys than the pool holds used to evict
        # (and close) the flat searcher mid-batch, dropping its shard
        # executors out from under later rounds.  Leased searchers stay
        # open even if evicted; the finally block returns every lease.
        leases: dict[str | None, Searcher] = {}

        drivers: list[list] = []  # [ctx, generator, pending request]
        for ctx in contexts:
            generator = self._drive(ctx, pipeline)
            try:
                request = generator.send(None)
            except StopIteration:
                continue
            drivers.append([ctx, generator, request])
        try:
            while drivers:
                # Group by (target, fetch, strategy): a batch mixing
                # per-request strategy overrides dispatches one
                # search_many per distinct strategy, so every query
                # still runs under exactly the strategy it asked for.
                groups: dict[tuple[str | None, int, str], list[list]] = {}
                for row in drivers:
                    request = row[2]
                    groups.setdefault(
                        (request.target, request.fetch, request.strategy),
                        []).append(row)
                drivers = []
                for (target, fetch, strategy), rows in groups.items():
                    searcher = leases.get(target)
                    if searcher is None:
                        searcher = pipeline.acquire_for(target)
                        leases[target] = searcher
                    if id(searcher) not in watched:
                        watched[id(searcher)] = (searcher,
                                                 searcher.cache_hits,
                                                 searcher.cache_misses,
                                                 searcher.hybrid_fallbacks)
                    if target is None and flat is None:
                        flat = searcher
                        routing_before = dict(flat.routing_stats or {})
                    hit_lists = searcher.search_many(
                        [row[2].query for row in rows], fetch,
                        strategy=strategy,
                        vector_weight=pipeline.config.hybrid_vector_weight,
                        rrf_k=pipeline.config.hybrid_rrf_k)
                    for row, hits in zip(rows, hit_lists):
                        try:
                            row[2] = row[1].send(hits)
                        except StopIteration:
                            continue
                        drivers.append(row)

            stats = self._batch_stats(watched, flat, routing_before)
        finally:
            for searcher in leases.values():
                pipeline.release_searcher(searcher)
        for ctx in contexts:
            ctx.retrieval_stats = dict(stats)

    @staticmethod
    def _batch_stats(watched: dict, flat, routing_before: dict) -> dict:
        """The batch-level retrieval counters from the watched searchers."""
        stats: dict = {}
        if watched:
            stats["cache_hits"] = sum(
                searcher.cache_hits - hits0
                for searcher, hits0, _m, _f in watched.values())
            stats["cache_misses"] = sum(
                searcher.cache_misses - misses0
                for searcher, _h, misses0, _f in watched.values())
            fallbacks = sum(
                searcher.hybrid_fallbacks - fallbacks0
                for searcher, _h, _m, fallbacks0 in watched.values())
            if fallbacks:
                stats["hybrid_fallbacks"] = fallbacks
        if flat is not None:
            # The batch lease keeps the flat searcher alive even if the
            # pool evicted it, but a defensive fallback to the before-
            # counters keeps the deltas at zero (not negative) should
            # its shard set ever vanish.
            routing_after = dict(flat.routing_stats or routing_before)
            tasks_delta = routing_after.get("shard_tasks", 0) - \
                routing_before.get("shard_tasks", 0)
            skipped_delta = routing_after.get("shard_tasks_skipped", 0) - \
                routing_before.get("shard_tasks_skipped", 0)
            stats["shard_tasks"] = max(0, tasks_delta - skipped_delta)
            stats["shard_tasks_skipped"] = max(0, skipped_delta)
        return stats

    # -- per-query execution (exact port of the sequential engine loop) -----

    def _drive(self, ctx, pipeline):
        """Generator running one query's plan; yields :class:`_Request`
        and receives the corresponding hit list.  Sets ``ctx.answers``
        (pre-rerank) before finishing."""
        limit = ctx.limit
        collection = pipeline.collection
        strategy = pipeline.strategy_for(ctx)
        answers: list[Answer] = []
        seen: set[str] = set()
        for task in ctx.plan.tasks:
            if len(answers) >= limit:
                break
            match = task.match
            if task.kind == "materialize":
                instance = collection.materialize(task.definition,
                                                  match.bound_params)
                if instance.is_empty or instance.instance_id in seen:
                    continue
                seen.add(instance.instance_id)
                answers.append(pipeline.brand(
                    instance.to_answer(score=match.score), instance))
                continue
            if task.bloom_skipped:
                continue  # provably no postings: retrieval would return []
            budget = limit - len(answers)
            hits = yield from self._fresh_hits(task.definition, ctx.query,
                                               budget, seen, strategy)
            for hit in hits:
                seen.add(hit.doc_id)
                instance = collection.instance(hit.doc_id)
                combined = match.score * (1.0 - 1.0 / (2.0 + hit.score))
                answers.append(pipeline.brand(
                    instance.to_answer(score=combined), instance))

        # Structural matches may under-fill the result list (few
        # instances, heavy dedup); backfill the remainder from flat IR
        # retrieval so a query with one fully-bound match still returns
        # `limit` answers (bounded by the configured backfill budget).
        if len(answers) < limit:
            budget = limit - len(answers)
            if pipeline.config.backfill_budget is not None:
                budget = min(budget, pipeline.config.backfill_budget)
            hits = yield from self._fresh_hits(None, ctx.query, budget, seen,
                                               strategy)
            for hit in hits:
                seen.add(hit.doc_id)
                instance = collection.instance(hit.doc_id)
                answers.append(pipeline.brand(
                    instance.to_answer(score=hit.score), instance))
        ctx.answers = answers

    def _fresh_hits(self, target: str | None, query: str, budget: int,
                    seen: set[str], strategy: str):
        """Generator sub-routine: the top ``budget`` hits from ``target``
        whose ids are not in ``seen``, retrieved under ``strategy``.

        Fetches with headroom and keeps widening geometrically until the
        budget is met or the index is exhausted, so a pile-up of
        already-seen documents at the top of the ranking can never
        starve lower-ranked fresh hits out of the result list.
        """
        if budget <= 0:
            return []
        fetch = budget + len(seen)
        while True:
            hits: list[SearchHit] = yield _Request(target, query, fetch,
                                                   strategy)
            fresh = [hit for hit in hits if hit.doc_id not in seen]
            if len(fresh) >= budget or len(hits) < fetch:
                return fresh[:budget]
            fetch *= 2


class AssembleStage(PipelineStage):
    """Free-text re-ranking and explanation assembly.

    Mixed text + structure (the paper's Sec. 7 extension): free-text
    residue that the structural pipeline could not type re-ranks the
    candidate answers by how well their *content* covers it.  The
    explanation carries the plan, the request's strategy, the rejected
    candidates, and the execute stage's retrieval counters; the
    pipeline patches in the final stage timings after this stage's own
    clock stops.
    """

    name = "assemble"

    def run(self, contexts, pipeline) -> None:
        """Re-rank and build ``ctx.explanation`` for the whole batch."""
        for ctx in contexts:
            ctx.answers = self._apply_freetext_rerank(
                ctx.segmented, ctx.answers, ctx.limit, pipeline)
            ctx.explanation = self._explanation(ctx, pipeline)

    def _apply_freetext_rerank(self, segmented, answers, limit, pipeline):
        """Coverage re-rank against the query's untyped free-text terms."""
        analyzer = pipeline.collection.analyzer
        free_terms: list[str] = []
        for segment in segmented.freetext():
            for token in segment.tokens:
                free_terms.extend(analyzer.tokens(token))
        if not free_terms or not answers:
            return answers
        unique_terms = set(free_terms)
        adjusted: list[Answer] = []
        for answer in answers:
            text_terms = set(analyzer.tokens(answer.text))
            coverage = len(unique_terms & text_terms) / len(unique_terms)
            adjusted.append(replace(
                answer, score=answer.score * (0.55 + 0.45 * coverage)))
        adjusted.sort(key=lambda a: (-a.score, str(a.meta("instance_id", ""))))
        return adjusted[:limit]

    def _explanation(self, ctx, pipeline) -> SearchExplanation:
        """The query's trace: all above-threshold candidates plus the
        best rejected ones (flagged), the plan, and retrieval counters."""
        min_score = pipeline.config.min_match_score
        # Matches are rank-sorted, so above-threshold candidates form a
        # prefix; show all of them plus the best rejected ones (flagged)
        # so the trace explains why a definition lost, not just who won.
        used = sum(1 for match in ctx.matches if match.score >= min_score)
        shown = ctx.matches[:used + pipeline.config.candidate_limit]
        stats = ctx.retrieval_stats
        collection = pipeline.collection
        lazy_loads = 0
        if ctx.lazy_loads_before is not None:
            lazy_loads = max(0, getattr(collection, "lazy_loads", 0) -
                             ctx.lazy_loads_before)
        notes: list[str] = []
        fallbacks = stats.get("hybrid_fallbacks", 0)
        if fallbacks:
            notes.append(
                f"hybrid: no vector extents available — {fallbacks} "
                f"search(es) in this batch served lexical results")
        return SearchExplanation(
            query=ctx.query,
            template=ctx.segmented.template(),
            query_class=ctx.segmented.query_class(),
            candidates=tuple(
                (match.definition.name, round(match.score, 4),
                 match.score < min_score)
                for match in shown
            ),
            answers=tuple(
                str(answer.meta("instance_id", "")) for answer in ctx.answers
            ),
            strategy=ctx.plan.flat.strategy,
            plan=ctx.plan.describe(),
            cache_hits=stats.get("cache_hits", 0),
            cache_misses=stats.get("cache_misses", 0),
            shard_tasks=stats.get("shard_tasks", 0),
            shard_tasks_skipped=stats.get("shard_tasks_skipped", 0),
            generation=getattr(collection, "generation", None),
            lazy_loads=lazy_loads,
            bloom_skips=ctx.plan.bloom_skips,
            notes=tuple(notes),
        )
