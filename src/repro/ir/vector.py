"""Vector retrieval: brute-force cosine top-k and reciprocal-rank fusion.

The second scoring backend next to the inverted index.  A
:class:`VectorIndex` holds one L2-normalized embedding per document
(:mod:`repro.ir.embed`) in a flat float64 row-major matrix; cosine
similarity is then a plain dot product, and :meth:`VectorIndex.topk`
scores every document brute-force — no approximate structures, so
results are exact and deterministic.  The scan runs a column at a time
over only the query's non-zero dims (hashed query vectors are sparse,
document rows dense), in C-level ``map`` passes over strided views of
the matrix, so the standard library alone keeps it fast at the
collection sizes a single process serves.

Shardability is the property the retrieval layer leans on: cosine
against one document never depends on any other document, so
partitioning the matrix by the same CRC32 document hash the inverted
index shards use (:func:`repro.ir.shard.shard_id`) and merging per-shard
top-k lists reproduces the global ranking *float-exactly* (property-
tested).  That lets the sharded searcher fuse per-shard vector
partitions with per-shard lexical results without a global rescan.

:func:`reciprocal_rank_fusion` combines the lexical and vector rankings
by rank alone — ``1 / (k + rank)`` per list, the vector list weighted —
which sidesteps the incomparability of BM25 scores and cosines.  Fusion
is deterministic and depends only on the two input *rankings*, so any
execution order (shard counts, executors, Bloom routing) that preserves
each ranking preserves the fused output.
"""

from __future__ import annotations

import heapq
import zlib
from array import array
from collections.abc import Iterable, Mapping
from itertools import repeat
from operator import add, mul

__all__ = [
    "VectorIndex",
    "reciprocal_rank_fusion",
    "DEFAULT_RRF_K",
    "DEFAULT_VECTOR_WEIGHT",
    "HYBRID_DEPTH_MULTIPLIER",
]

#: The rank-smoothing constant of reciprocal-rank fusion; 60 is the
#: standard choice from the original RRF paper (Cormack et al., 2009) —
#: large enough that a few rank swaps deep in a list barely move the
#: fused score.
DEFAULT_RRF_K = 60

#: Default weight of the vector ranking relative to the lexical one.
#: Weight 0 disables the vector side entirely — the hybrid strategy then
#: returns the lexical results verbatim (scores included), the identity
#: the property suite pins.
DEFAULT_VECTOR_WEIGHT = 1.0

#: How many candidates each side fetches per requested result before
#: fusing: deeper lists let fusion resurface documents the other side
#: ranked just below the cut.
HYBRID_DEPTH_MULTIPLIER = 3


class VectorIndex:
    """Frozen dense vectors for one document set, cosine-searchable.

    The matrix is a flat little-endian-persistable ``array('d')`` of
    ``len(doc_ids) * dims`` floats, row ``i`` belonging to
    ``doc_ids[i]``; rows are the embedder's L2-normalized output, so
    :meth:`topk` scores with dot products.  ``embedder_config``
    (:meth:`repro.ir.embed.HashingEmbedder.config`) travels with the
    index — persisted loads refuse to serve vectors built by a different
    configuration.
    """

    __slots__ = ("doc_ids", "dims", "matrix", "embedder_config")

    def __init__(self, doc_ids: tuple[str, ...], matrix,
                 dims: int, embedder_config: dict):
        """Wrap an existing matrix (no copy).

        Raises:
            ValueError: when the matrix size disagrees with
                ``len(doc_ids) * dims``.
        """
        flat = matrix if isinstance(matrix, array) else array("d", matrix)
        if len(flat) != len(doc_ids) * dims:
            raise ValueError(
                f"matrix holds {len(flat)} floats; expected "
                f"{len(doc_ids)} x {dims}")
        self.doc_ids = tuple(doc_ids)
        self.dims = dims
        self.matrix = flat
        self.embedder_config = dict(embedder_config)

    @classmethod
    def build(cls, embedder, documents: Mapping[str, object],
              ) -> "VectorIndex":
        """Embed ``documents`` (``doc_id -> Document``) into an index.

        Documents are embedded in sorted doc_id order, so the matrix —
        and therefore every persisted byte — is independent of the
        mapping's iteration order.
        """
        doc_ids = tuple(sorted(documents))
        matrix = array("d")
        for doc_id in doc_ids:
            matrix.extend(embedder.embed_document(documents[doc_id]))
        return cls(doc_ids, matrix, embedder.dims, embedder.config())

    def __len__(self) -> int:
        return len(self.doc_ids)

    def row(self, i: int) -> tuple[float, ...]:
        """Document ``i``'s vector (a copy)."""
        base = i * self.dims
        return tuple(self.matrix[base:base + self.dims])

    def topk(self, query_vector, limit: int) -> list[tuple[str, float]]:
        """The ``limit`` most-cosine-similar ``(doc_id, score)`` pairs.

        Ties break on doc_id, the same ``(-score, doc_id)`` order the
        lexical retrieval paths use.  Documents with non-positive
        similarity are dropped — an all-zero query (text that normalizes
        to nothing) matches nothing rather than everything.

        The kernel works a column at a time: for each non-zero query dim
        ``j``, in ascending order, it folds ``q[j] * matrix[:, j]`` (a
        strided view of the row-major matrix, not a copy) into every
        document's running score.  Each score is therefore the plain
        left-to-right sum ``score += q * d`` over ascending dims — never
        ``sum()``, which compensates float sums on Python >= 3.12 — and
        skipping a zero dim only omits a ``±0.0`` term that leaves the
        partial sum unchanged, so scores are bit-identical to the full
        row scan.  Query vectors are sparse (hashed n-grams of a short
        query) while document rows are dense, so the column pass does a
        fraction of the row scan's multiplies.
        """
        if limit <= 0 or not self.doc_ids:
            return []
        dims = self.dims
        scores = [0.0] * len(self.doc_ids)
        with memoryview(self.matrix) as view:
            for j, q in zip(range(dims), query_vector):
                if q != 0.0:
                    scores = list(map(add, scores,
                                      map(mul, repeat(q), view[j::dims])))
        ranked = heapq.nsmallest(limit, [
            (-score, doc_id)
            for score, doc_id in zip(scores, self.doc_ids) if score > 0.0])
        return [(doc_id, -negated) for negated, doc_id in ranked]

    def restrict(self, doc_ids: Iterable[str]) -> "VectorIndex":
        """A new index holding only the rows for ``doc_ids`` (order
        preserved from this index; unknown ids are ignored)."""
        keep = set(doc_ids)
        dims = self.dims
        kept_ids = []
        matrix = array("d")
        for i, doc_id in enumerate(self.doc_ids):
            if doc_id in keep:
                kept_ids.append(doc_id)
                base = i * dims
                matrix.extend(self.matrix[base:base + dims])
        return VectorIndex(tuple(kept_ids), matrix, dims,
                           self.embedder_config)

    def shard(self, count: int) -> list["VectorIndex"]:
        """Partition by the CRC32 document hash the inverted-index
        shards use, so a vector partition lines up with its lexical
        shard.  Merging per-partition :meth:`topk` lists with
        :func:`~repro.ir.topk.merge_ranked` is float-identical to the
        global :meth:`topk` (cosine is per-document — property-tested).

        Raises:
            ValueError: when ``count`` < 1.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        buckets: list[list[str]] = [[] for _ in range(count)]
        for doc_id in self.doc_ids:
            buckets[zlib.crc32(doc_id.encode("utf-8")) % count].append(
                doc_id)
        return [self.restrict(bucket) for bucket in buckets]


def reciprocal_rank_fusion(lexical: list[tuple[str, float]],
                           vector: list[tuple[str, float]],
                           limit: int,
                           vector_weight: float = DEFAULT_VECTOR_WEIGHT,
                           rrf_k: int = DEFAULT_RRF_K,
                           ) -> list[tuple[str, float]]:
    """Fuse a lexical and a vector ranking into one ``(doc_id, score)``
    list of at most ``limit`` entries.

    Each document scores ``1 / (rrf_k + lexical_rank) + vector_weight /
    (rrf_k + vector_rank)`` over the union of the two lists (a missing
    rank contributes nothing); ties break on doc_id.  Only the input
    *rankings* matter — the incoming scores are ignored — so fusion is
    invariant under anything that preserves each side's order.

    Raises:
        ValueError: on a negative ``vector_weight`` or ``rrf_k`` < 1.
    """
    if vector_weight < 0:
        raise ValueError(
            f"vector_weight must be >= 0, got {vector_weight}")
    if rrf_k < 1:
        raise ValueError(f"rrf_k must be >= 1, got {rrf_k}")
    fused: dict[str, float] = {}
    for rank, (doc_id, _score) in enumerate(lexical, start=1):
        fused[doc_id] = fused.get(doc_id, 0.0) + 1.0 / (rrf_k + rank)
    if vector_weight > 0:
        for rank, (doc_id, _score) in enumerate(vector, start=1):
            fused[doc_id] = fused.get(doc_id, 0.0) \
                + vector_weight / (rrf_k + rank)
    ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:limit]
