"""Query plans: the decided retrieval work for one query.

The plan stage turns a query's ranked definition matches into an
explicit :class:`QueryPlan` *before* any retrieval runs.  Its one
decision is **Bloom pruning**: a partially-bound match needs IR
retrieval over its definition's index; when the definition's term Bloom
filter (see
:meth:`~repro.core.collection.QunitCollection.definition_bloom`) proves
*no* query term has postings there, the task is planned as skipped —
the searcher would have returned nothing (Bloom filters have no false
negatives), so skipping is rank-identical.  Each retrieval task also
records the strategy the request asked for (``"auto"`` or
``"hybrid"``).

Plans are data, not behavior: the execute stage walks the tasks, and
``--explain`` prints them via :meth:`QueryPlan.describe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular-import-free type references only
    from repro.core.search.matcher import DefinitionMatch

__all__ = ["PlannedTask", "QueryPlan"]

#: Task kinds in plan order: direct materialization of a fully-bound
#: match, IR retrieval over one definition's index, flat backfill.
TASK_KINDS = ("materialize", "definition", "flat")


@dataclass(frozen=True)
class PlannedTask:
    """One unit of planned retrieval work.

    ``kind`` is one of :data:`TASK_KINDS`.  ``match`` carries the
    definition match behind a ``materialize``/``definition`` task
    (``None`` for the flat backfill).  ``strategy`` is the request's
    effective retrieval strategy (its override, else the engine's).
    ``bloom_skipped`` marks a definition task whose Bloom filter proved
    no query term can match.
    """

    kind: str
    definition: str | None = None
    match: "DefinitionMatch | None" = None
    strategy: str = "auto"
    bloom_skipped: bool = False

    def describe(self) -> str:
        """One human-readable plan line (used by ``--explain``)."""
        if self.kind == "materialize":
            assert self.match is not None
            return (f"materialize {self.definition} "
                    f"(match {self.match.score:.4f}, fully bound)")
        if self.kind == "definition":
            assert self.match is not None
            note = ", bloom: no term matches — skipped" if \
                self.bloom_skipped else ""
            return (f"rank {self.definition} instances "
                    f"(match {self.match.score:.4f}, "
                    f"strategy={self.strategy}{note})")
        return f"flat backfill over all instances (strategy={self.strategy})"


@dataclass(frozen=True)
class QueryPlan:
    """The decided execution of one query.

    ``tasks`` are the match-driven tasks in rank order (already
    filtered to matches at or above the engine's match threshold);
    ``flat`` is the conditional backfill task, executed only when the
    match tasks under-fill the result list.  ``terms`` are the analyzed
    query tokens every retrieval task will search with.
    """

    query: str
    terms: tuple[str, ...]
    limit: int
    tasks: tuple[PlannedTask, ...]
    flat: PlannedTask

    def describe(self) -> tuple[str, ...]:
        """Human-readable plan lines, task order preserved."""
        lines = [task.describe() for task in self.tasks]
        lines.append(self.flat.describe() + " [if results short]")
        return tuple(lines)

    @property
    def bloom_skips(self) -> int:
        """How many definition tasks the Bloom filters pruned."""
        return sum(1 for task in self.tasks if task.bloom_skipped)
