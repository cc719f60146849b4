"""The staged query-execution pipeline behind the qunit serving path.

The paper's Figure 1 describes query time as a fixed pipeline —
segmentation → qunit matching → ranking — over "nothing more than a
collection of independent qunits".  This package makes that pipeline an
explicit, *batched* object instead of a monolithic per-query method:

- :mod:`repro.serve.plan` — :class:`~repro.serve.plan.QueryPlan` /
  :class:`~repro.serve.plan.PlannedTask`: one query's decided retrieval
  work (materializations, per-definition IR tasks, the flat backfill),
  with per-definition Bloom filters pruning tasks that provably cannot
  match.
- :mod:`repro.serve.stages` — :class:`~repro.serve.stages.PipelineStage`
  and the five concrete stages (segment → match → plan → execute →
  assemble), each batch-native: N queries segmented together, matched
  together, and their retrieval calls grouped per target index so
  :meth:`~repro.ir.retrieval.Searcher.search_many` /
  :meth:`~repro.ir.shard.ShardedTopK.topk_many` see real batches from
  the engine layer.
- :mod:`repro.serve.pipeline` — :class:`~repro.serve.pipeline.
  QueryPipeline` (drives the stages, times them, applies middleware),
  :class:`~repro.serve.pipeline.EngineConfig`, and the stage middleware
  (result caching, admission control).
- :mod:`repro.serve.explain` — the rewritten
  :class:`~repro.serve.explain.SearchExplanation` carrying the full
  stage trace (per-stage wall time, cache hits/misses, shards routed,
  strategy requested, rejected candidates).
- :mod:`repro.serve.pool` — :class:`~repro.serve.pool.SearcherPool`,
  the bounded LRU searcher cache the collection hands the pipeline,
  with lease-based pinning so eviction never closes a searcher a batch
  still holds.
- :mod:`repro.serve.api` — :class:`~repro.serve.api.SearchRequest` /
  :class:`~repro.serve.api.SearchResponse`, the one typed
  request/response pair every serving surface (engine ``execute``,
  HTTP server, CLI) speaks, plus the JSON wire codecs.
- :mod:`repro.serve.batcher` — :class:`~repro.serve.batcher.
  MicroBatcher` (accumulates concurrent requests into micro-batches)
  and :class:`~repro.serve.batcher.ClientQuotas` (per-client token
  buckets).
- :mod:`repro.serve.server` — the asyncio HTTP front end
  (:class:`~repro.serve.server.SearchServer`), with backpressure,
  quotas, and graceful shard-worker shutdown.
- :mod:`repro.serve.workers` — the prefork worker tier
  (:class:`~repro.serve.workers.WorkerPool` /
  :class:`~repro.serve.workers.WorkerSpec`): full-pipeline worker
  processes over shared mmap snapshots, fed whole micro-batches over a
  length-prefixed framed protocol, with crash respawn and
  generation-swap broadcast.
- :mod:`repro.serve.client` — :class:`~repro.serve.client.
  SearchClient` and the closed-loop and open-loop (Poisson) load
  generators behind ``repro loadtest`` / ``BENCH_serving.json``.

Exports resolve lazily (PEP 562): :mod:`repro.core.collection` imports
:mod:`repro.serve.pool` while :mod:`repro.serve.stages` type-references
the collection, and lazy resolution keeps that pair cycle-free.
"""

from __future__ import annotations

__all__ = [
    "EngineConfig",
    "PipelineMiddleware",
    "AdmissionMiddleware",
    "ResultCacheMiddleware",
    "PipelineStage",
    "PlannedTask",
    "QueryContext",
    "QueryPipeline",
    "QueryPlan",
    "SearchExplanation",
    "SearcherPool",
    "SearchRequest",
    "SearchResponse",
    "StageTiming",
    "MicroBatcher",
    "ClientQuotas",
    "ServerConfig",
    "SearchServer",
    "SearchClient",
    "WorkerPool",
    "WorkerSpec",
    "WorkerCrashed",
    "WorkerError",
]

_EXPORTS = {
    "EngineConfig": "repro.serve.pipeline",
    "PipelineMiddleware": "repro.serve.pipeline",
    "AdmissionMiddleware": "repro.serve.pipeline",
    "ResultCacheMiddleware": "repro.serve.pipeline",
    "QueryContext": "repro.serve.pipeline",
    "QueryPipeline": "repro.serve.pipeline",
    "PipelineStage": "repro.serve.stages",
    "PlannedTask": "repro.serve.plan",
    "QueryPlan": "repro.serve.plan",
    "SearchExplanation": "repro.serve.explain",
    "StageTiming": "repro.serve.explain",
    "SearcherPool": "repro.serve.pool",
    "SearchRequest": "repro.serve.api",
    "SearchResponse": "repro.serve.api",
    "MicroBatcher": "repro.serve.batcher",
    "ClientQuotas": "repro.serve.batcher",
    "ServerConfig": "repro.serve.server",
    "SearchServer": "repro.serve.server",
    "SearchClient": "repro.serve.client",
    "WorkerPool": "repro.serve.workers",
    "WorkerSpec": "repro.serve.workers",
    "WorkerCrashed": "repro.serve.workers",
    "WorkerError": "repro.serve.workers",
}


def __getattr__(name: str):
    """Resolve a package export on first access (PEP 562 lazy import)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    """The package's public names (lazy exports included)."""
    return sorted(__all__)
