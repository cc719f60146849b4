"""Top-k fast-path retrieval: bounded-heap accumulation with max-score
early termination.

This is the one lexical fast path, behind
:meth:`repro.ir.retrieval.Searcher.search`, every shard of
:class:`~repro.ir.shard.ShardedTopK`, and :func:`retrieve`.  The
exhaustive path materializes a full score dict over every matching
document and sorts all of it; here we instead:

1. pull per-term contribution arrays (and their max-score upper bounds)
   from the :class:`~repro.ir.index.IndexSnapshot`, where they are
   precomputed once per (scorer, term) and reused across queries — the
   max-score "index-time upper bounds" idea;
2. accumulate term-at-a-time, in query-term order, and stop *admitting new
   candidates* as soon as the remaining terms' summed upper bounds cannot
   lift an unseen document past the current k-th best score;
3. select the top k with a bounded heap (O(n log k)) instead of a full
   sort (O(n log n)).

Rank identity
-------------

The fast path returns *exactly* the same ranked ``(doc_id, score)`` lists
as the exhaustive scorer, including the ``(-score, doc_id)`` tie-break:

- contributions are computed by the same scorer expressions and summed in
  the same (query-term) order, so accumulated floats are bit-identical;
- ``finalize`` is monotone in the raw score and contributions are
  non-negative, so the current k-th best finalized score is a valid lower
  bound for the final k-th best, and it only grows;
- per-term bounds shrink as suffixes shorten, so once new-candidate
  admission stops it stays stopped — a document skipped at term *i* has no
  contributions before *i* and a total ceiling strictly below the k-th
  best, hence cannot appear in (or tie into) the top k.

The strictness of the comparison (prune only when the ceiling is strictly
below the threshold score) is what keeps tie-broken rankings identical.

Why there is only one lexical path: ``docs/ARCHITECTURE.md``, "One
lexical top-k path".
"""

from __future__ import annotations

import heapq

from repro.ir.index import IndexSnapshot

__all__ = ["STRATEGIES", "TopKHeap", "topk_scores", "merge_ranked",
           "retrieve"]

#: Retrieval strategies every search surface accepts (``Searcher``,
#: ``LoadOptions``, ``SearchRequest``, the CLI ``--strategy`` flag).
#: ``"auto"`` is the max-score path of this module.  ``"hybrid"`` fuses
#: it with vector retrieval; the fusion lives in
#: :class:`~repro.ir.retrieval.Searcher`, which owns the vector side.
STRATEGIES = ("auto", "hybrid")


class _Entry:
    """Heap cell ordered so that ``heap[0]`` is the *worst* kept hit:
    lower score first, and at equal scores the *larger* doc_id first
    (mirroring the ``(-score, doc_id)`` ranking order)."""

    __slots__ = ("score", "doc_id")

    def __init__(self, score: float, doc_id: str):
        self.score = score
        self.doc_id = doc_id

    def __lt__(self, other: "_Entry") -> bool:
        if self.score != other.score:
            return self.score < other.score
        return self.doc_id > other.doc_id


class TopKHeap:
    """A bounded min-heap keeping the ``k`` best ``(doc_id, score)`` pairs
    under the ranking order ``(-score, doc_id)``."""

    __slots__ = ("k", "_heap")

    def __init__(self, k: int):
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k
        self._heap: list[_Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    def worst(self) -> tuple[float, str]:
        """The (score, doc_id) currently in last place (the k-th best once
        the heap is full)."""
        if not self._heap:
            raise IndexError("worst() on an empty TopKHeap")
        entry = self._heap[0]
        return entry.score, entry.doc_id

    def offer(self, doc_id: str, score: float) -> None:
        """Consider one candidate; keeps only the k best seen so far."""
        if self.k == 0:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, _Entry(score, doc_id))
            return
        worst = self._heap[0]
        if score > worst.score or (score == worst.score
                                   and doc_id < worst.doc_id):
            heapq.heapreplace(self._heap, _Entry(score, doc_id))

    def ranked(self) -> list[tuple[str, float]]:
        """Kept hits, best first (ties broken by ascending doc_id)."""
        ordered = sorted(self._heap,
                         key=lambda entry: (-entry.score, entry.doc_id))
        return [(entry.doc_id, entry.score) for entry in ordered]


def merge_ranked(ranked_lists: list[list[tuple[str, float]]],
                 limit: int) -> list[tuple[str, float]]:
    """Merge independently ranked ``(doc_id, score)`` lists into one global
    top-``limit`` list under the ``(-score, doc_id)`` order.

    The inputs are per-shard top-k lists over *disjoint* document sets
    (shards partition doc_ids), so every document appears at most once
    across all lists and the merge is exactly the global top-``limit``:
    any document in the global top-k ranks at least as high within its own
    shard, hence is present in its shard's list.  Cross-shard ties are
    broken by ascending doc_id, same as the single-process path.
    """
    best = TopKHeap(limit)
    for ranked in ranked_lists:
        for doc_id, score in ranked:
            best.offer(doc_id, score)
    return best.ranked()


def topk_scores(snapshot: IndexSnapshot, scorer, terms: list[str],
                limit: int) -> list[tuple[str, float]]:
    """The ``limit`` best ``(doc_id, score)`` pairs for ``terms``.

    ``scorer`` must support the fast-path hooks (see
    :mod:`repro.ir.scoring`).  Rank-identical to scoring exhaustively and
    sorting by ``(-score, doc_id)``.
    """
    if limit <= 0 or snapshot.document_count == 0:
        return []
    plans = [snapshot.term_contributions(scorer, term) for term in terms]
    # Suffix sums of per-term upper bounds: suffix[i] caps the raw score a
    # document can still gain from terms i..end.
    suffix = [0.0] * (len(plans) + 1)
    for i in range(len(plans) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + plans[i].bound

    accumulator: dict[str, float] = {}
    finalize = scorer.finalize
    threshold_score: float | None = None
    for i, plan in enumerate(plans):
        if not plan.doc_ids:
            continue
        admit_new = True
        if i > 0 and len(accumulator) >= limit:
            ceiling = scorer.ceiling(snapshot, suffix[i])
            if threshold_score is not None and ceiling < threshold_score:
                # The threshold only grows, so a previously computed value
                # already proves no unseen document can enter — skip the
                # O(candidates) rebuild (this keeps the post-pruning tail
                # of a long query linear instead of quadratic).
                admit_new = False
            else:
                # Current k-th best finalized score: a lower bound on the
                # final k-th best (scores only grow; finalize is monotone).
                current = TopKHeap(limit)
                for doc_id, raw in accumulator.items():
                    current.offer(doc_id, finalize(snapshot, doc_id, raw))
                threshold_score, _ = current.worst()
                # An unseen document can reach at most ceiling(suffix[i]);
                # if that is *strictly* below the threshold it can neither
                # beat nor tie into the top k.  Equality must still admit:
                # the new document could tie and win the doc_id tie-break.
                admit_new = ceiling >= threshold_score
        if admit_new:
            for doc_id, contribution in zip(plan.doc_ids, plan.contributions):
                accumulator[doc_id] = (accumulator.get(doc_id, 0.0)
                                       + contribution)
        else:
            for doc_id, contribution in zip(plan.doc_ids, plan.contributions):
                if doc_id in accumulator:
                    accumulator[doc_id] = accumulator[doc_id] + contribution

    best = TopKHeap(limit)
    for doc_id, raw in accumulator.items():
        best.offer(doc_id, finalize(snapshot, doc_id, raw))
    return best.ranked()


def retrieve(snapshot: IndexSnapshot, scorer, terms: list[str], limit: int,
             strategy: str = "auto") -> list[tuple[str, float]]:
    """The ``limit`` best ``(doc_id, score)`` pairs for ``terms`` — the
    snapshot-level entry point that validates ``strategy``.

    Both strategies run :func:`topk_scores` here: ``"hybrid"`` executes
    only its lexical component at this level (the vector side and the
    rank fusion live in :class:`~repro.ir.retrieval.Searcher`).

    Raises:
        ValueError: on a strategy not in :data:`STRATEGIES`.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    return topk_scores(snapshot, scorer, terms, limit)
