"""Pipeline traces: what the staged serving path did to one query.

:class:`SearchExplanation` is the per-query trace the pipeline's
assemble stage emits and ``repro search --explain`` renders.  Compared
to the original engine's trace it additionally carries the *decisions*
and *instrumentation* of the staged pipeline: the query plan, the
retrieval strategy the request asked for, per-stage wall times, result-cache hits/misses, and shard routing counts — and
its ``candidates`` include the definitions *rejected* below the match
threshold (with a ``rejected`` flag) so a trace shows why a definition
lost, not just who won.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SearchExplanation", "StageTiming"]


@dataclass(frozen=True)
class StageTiming:
    """Wall time of one pipeline stage.

    Stages are batch-native, so the time is the *batch's* — every query
    served by the same :meth:`~repro.serve.pipeline.QueryPipeline.run`
    call reports the same stage timings.
    """

    stage: str
    seconds: float


@dataclass(frozen=True)
class SearchExplanation:
    """Full pipeline trace for one query.

    ``candidates`` entries are ``(definition name, match score,
    rejected)`` triples — ``rejected`` is true for definitions scored
    below the engine's match threshold, which earlier builds silently
    dropped from the trace.  ``plan`` holds one human-readable line per
    planned retrieval task; ``strategy`` is the request's effective
    retrieval strategy (``"auto"`` or ``"hybrid"``).  The retrieval
    counters are
    deltas measured across the batch's execute stage:
    ``cache_hits``/``cache_misses`` sum over every searcher the batch
    dispatched to (flat and per-definition), while the shard task
    counts come from the flat searcher — the only sharded one (all
    zero when the batch never dispatched retrieval at all).

    Live-collection observability: ``generation`` is the snapshot
    generation the collection served this query from (``"<hex>"``, or
    ``"<hex>+N"`` after N journal transactions; ``None`` for a
    never-persisted collection) — watching it change across queries is
    how an online-ingestion swap shows up per query.  ``lazy_loads``
    counts snapshot files a lazily-loaded collection mmap'd *during
    this batch's execute stage* (0 once warm), and ``bloom_skips``
    counts the planned definition tasks this query's Bloom filters
    pruned — for a still-lazy definition that's a load avoided
    entirely, not just a search.
    """

    query: str
    template: str
    query_class: str
    candidates: tuple[tuple[str, float, bool], ...]
    answers: tuple[str, ...]                    # instance ids, ranked
    strategy: str = "auto"
    plan: tuple[str, ...] = ()
    stages: tuple[StageTiming, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    shard_tasks: int = 0
    shard_tasks_skipped: int = 0
    generation: str | None = None
    lazy_loads: int = 0
    bloom_skips: int = 0
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        """The trace as indented text (the ``--explain`` CLI output)."""
        lines = [f"template : {self.template}  ({self.query_class})"]
        if self.stages:
            timings = "  ".join(f"{timing.stage} {timing.seconds * 1e3:.1f}ms"
                                for timing in self.stages)
            lines.append(f"stages   : {timings}")
        if self.plan:
            lines.append("plan     :")
            for step, line in enumerate(self.plan, start=1):
                lines.append(f"  {step}. {line}")
        if self.candidates:
            lines.append("candidates:")
            for name, score, rejected in self.candidates:
                verdict = "  (rejected: below min match score)" if rejected \
                    else ""
                lines.append(f"  {score:>7.4f}  {name}{verdict}")
        lines.append(
            f"retrieval: strategy={self.strategy}  "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss  "
            f"shard tasks {self.shard_tasks} run / "
            f"{self.shard_tasks_skipped} skipped")
        lines.append(
            f"snapshot : generation={self.generation or '-'}  "
            f"lazy loads {self.lazy_loads}  "
            f"bloom skips {self.bloom_skips}")
        for note in self.notes:
            lines.append(f"note     : {note}")
        return "\n".join(lines)
