"""Sharded retrieval: hash-partitioned snapshots scored in parallel.

:func:`shard_snapshot` splits one self-contained
:class:`~repro.ir.index.IndexSnapshot` into ``n`` smaller snapshots by
hashing doc_ids (stable CRC32, so the partition is identical across
processes and process restarts).  Each shard keeps only its partition's
documents, postings, and lengths, but carries the *collection-wide*
aggregates — document count, average/minimum document length, and per-term
document frequencies — so scoring a shard produces exactly the floats the
unsharded snapshot would for the same documents.  That makes the sharded
path rank-identical to the serial one: per-shard top-k lists merged with
:func:`~repro.ir.topk.merge_ranked` reproduce the global ranking,
tie-breaks included.

:class:`ShardedTopK` owns the shards plus an executor and serves one query
(:meth:`~ShardedTopK.topk`) or a whole batch (:meth:`~ShardedTopK.
topk_many`).  Batches are dispatched as *one task per shard* covering the
queries routed to it, so process-mode IPC is amortized across the batch.
Executor choices:

``"serial"``
    Score shards in-process, one after another.  Zero overhead; useful for
    tests and as the degenerate case.
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; workers receive
    the shard list once at pool start-up and keep their per-shard
    contribution caches warm across calls.  This is the mode that turns
    cores into latency on large collections.

These two are the whole menu: in-process scoring is serial by
construction (CPython's GIL means threads add overhead, not speed, to
this pure-Python scoring path), and anything else gets real processes.

Bloom routing
-------------

Each shard carries a :class:`TermBloomFilter` over its own vocabulary.  A
query can only score documents in a shard if at least one query term has
postings there, so :meth:`ShardedTopK.topk_many` routes each query only to
shards whose filter *might* contain one of its terms — shards where no
query of the batch matches are skipped entirely.  Bloom filters have no
false negatives, so routing is rank-identical to broadcasting (a skipped
shard would have contributed an empty list); false positives cost only
wasted work.  Routing statistics accumulate in
:attr:`ShardedTopK.routing_stats`.

Shard snapshots can themselves be persisted (one snapshot file per shard
with its Bloom filter in the header — see :mod:`repro.ir.persist` and
:meth:`~repro.core.store.CollectionStore.save`), and a multi-process
server can load only its partition; :meth:`ShardedTopK.from_shards`
rebuilds the executor over pre-partitioned shards without re-sharding.
"""

from __future__ import annotations

import base64
import hashlib
import math
import os
import zlib
from collections.abc import Iterable
from concurrent.futures import Executor, ProcessPoolExecutor

from repro.ir.index import IndexSnapshot
from repro.ir.topk import merge_ranked, topk_scores

__all__ = ["shard_id", "shard_snapshot", "ShardedTopK", "TermBloomFilter",
           "PARALLELISM_MODES"]

PARALLELISM_MODES = ("serial", "process")


def shard_id(doc_id: str, shards: int) -> int:
    """The shard a document belongs to: stable across processes/restarts."""
    return zlib.crc32(doc_id.encode("utf-8")) % shards


def shard_snapshot(snapshot: IndexSnapshot, shards: int) -> list[IndexSnapshot]:
    """Partition ``snapshot`` into ``shards`` self-contained snapshots.

    Every document lands in exactly one shard (by :func:`shard_id`); the
    collection-wide statistics are replicated into each shard so per-shard
    scoring is float-identical to scoring the whole snapshot.

    Raises:
        ValueError: when ``shards`` < 1.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    assignments = {doc_id: shard_id(doc_id, shards)
                   for doc_id in snapshot._documents}
    documents: list[dict] = [{} for _ in range(shards)]
    doc_lengths: list[dict] = [{} for _ in range(shards)]
    postings: list[dict] = [{} for _ in range(shards)]
    for doc_id, document in snapshot._documents.items():
        shard = assignments[doc_id]
        documents[shard][doc_id] = document
        doc_lengths[shard][doc_id] = snapshot._doc_lengths[doc_id]
    for term, plist in snapshot._postings.items():
        buckets: list[list] = [[] for _ in range(shards)]
        for posting in plist:
            buckets[assignments[posting.doc_id]].append(posting)
        for shard, bucket in enumerate(buckets):
            if bucket:
                postings[shard][term] = tuple(bucket)
    return [
        IndexSnapshot(
            version=snapshot.version,
            analyzer=snapshot.analyzer,
            documents=documents[shard],
            postings=postings[shard],
            doc_lengths=doc_lengths[shard],
            doc_frequencies=snapshot._doc_frequencies,
            document_count=snapshot.document_count,
            average_document_length=snapshot.average_document_length,
            min_document_length=snapshot.min_document_length,
        )
        for shard in range(shards)
    ]


class TermBloomFilter:
    """A Bloom filter over a shard's vocabulary, used for query routing.

    Membership answers are one-sided: ``term in bloom`` is always ``True``
    for terms that were added (no false negatives), and ``False`` for most
    others (false positives at roughly the configured rate).  Routing on
    it is therefore exact — a shard skipped because *no* query term might
    be present truly has no matching postings — while a false positive
    merely ships a query to a shard that returns nothing.

    Filters are cheap to build (one pass over the vocabulary), picklable,
    and serialize to a small JSON-safe dict (:meth:`to_dict`) persisted in
    shard snapshot headers so a router can read them without parsing
    postings.
    """

    __slots__ = ("bits", "hashes", "_data")

    def __init__(self, bits: int, hashes: int, data: bytes | None = None):
        """A filter with ``bits`` bit positions and ``hashes`` probes.

        Args:
            bits: size of the bit array (>= 1).
            hashes: probes per term (>= 1).
            data: optional packed bit array (``(bits + 7) // 8`` bytes),
                e.g. from a persisted filter; zeroed when omitted.

        Raises:
            ValueError: on non-positive sizes or a mis-sized ``data``.
        """
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        if hashes < 1:
            raise ValueError(f"hashes must be >= 1, got {hashes}")
        size = (bits + 7) // 8
        self.bits = bits
        self.hashes = hashes
        self._data = bytearray(data) if data is not None else bytearray(size)
        if len(self._data) != size:
            raise ValueError(
                f"data must be {size} bytes for {bits} bits, "
                f"got {len(self._data)}"
            )

    @classmethod
    def build(cls, terms: Iterable[str],
              false_positive_rate: float = 0.01) -> "TermBloomFilter":
        """A filter sized for ``terms`` at ``false_positive_rate``.

        Uses the standard optimal sizing: ``m = -n ln(p) / (ln 2)^2`` bits
        and ``k = (m / n) ln 2`` probes.  An empty vocabulary yields a
        minimal filter that matches nothing.
        """
        terms = list(terms)
        n = max(1, len(terms))
        ln2 = math.log(2)
        bits = max(8, math.ceil(-n * math.log(false_positive_rate)
                                / (ln2 * ln2)))
        hashes = max(1, round(bits / n * ln2))
        bloom = cls(bits, hashes)
        for term in terms:
            bloom.add(term)
        return bloom

    @staticmethod
    def hash_term(term: str) -> tuple[int, int]:
        """The ``(h1, h2)`` double-hashing pair for ``term`` (one blake2b
        digest — deterministic across processes/restarts).  Hash once,
        probe many filters: routers reuse the pair across every shard's
        filter via :meth:`contains_hash`."""
        digest = hashlib.blake2b(term.encode("utf-8"),
                                 digest_size=16).digest()
        return (int.from_bytes(digest[:8], "big"),
                int.from_bytes(digest[8:], "big") | 1)

    def _positions(self, term: str):
        h1, h2 = self.hash_term(term)
        bits = self.bits
        for i in range(self.hashes):
            yield (h1 + i * h2) % bits

    def add(self, term: str) -> None:
        """Set the bit positions for ``term``."""
        data = self._data
        for position in self._positions(term):
            data[position >> 3] |= 1 << (position & 7)

    def __contains__(self, term: str) -> bool:
        return self.contains_hash(*self.hash_term(term))

    def contains_hash(self, h1: int, h2: int) -> bool:
        """Membership test from a precomputed :meth:`hash_term` pair."""
        data = self._data
        bits = self.bits
        for i in range(self.hashes):
            position = (h1 + i * h2) % bits
            if not data[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def might_match_any(self, terms: Iterable[str]) -> bool:
        """Whether any of ``terms`` might be present (the routing test:
        ``False`` proves the shard has no postings for the query)."""
        return any(term in self for term in terms)

    def to_dict(self) -> dict:
        """A JSON-safe representation (bit array base64-encoded);
        inverse of :meth:`from_dict`."""
        return {
            "bits": self.bits,
            "hashes": self.hashes,
            "data": base64.b64encode(bytes(self._data)).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TermBloomFilter":
        """Rebuild a filter serialized by :meth:`to_dict`.

        Raises:
            ValueError: on malformed/mis-sized input.
        """
        try:
            raw = base64.b64decode(data["data"])
            return cls(data["bits"], data["hashes"], raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed bloom filter data: {exc}") from exc


# Worker-process state: the shard list, installed once per worker by the
# pool initializer so per-call IPC carries only (scorer, terms, limit).
_WORKER_SHARDS: list[IndexSnapshot] = []


def _init_worker(entries: list[tuple[str, object]]) -> None:
    """Install the worker's shard list from tagged entries.

    ``("path", str)`` entries mmap the shard's columnar container in the
    worker (``open_scoring_snapshot``) — every worker then shares one OS
    page cache for that file instead of holding a pickled private heap
    copy.  ``("snap", IndexSnapshot)`` entries are pre-pickled scoring
    views, the fallback for shards with no on-disk container.
    """
    from repro.ir.persist import open_scoring_snapshot

    global _WORKER_SHARDS
    _WORKER_SHARDS = [
        open_scoring_snapshot(payload) if kind == "path" else payload
        for kind, payload in entries
    ]


def _score_shard_batch_worker(shard_index: int, scorer, term_lists, limit):
    shard = _WORKER_SHARDS[shard_index]
    return [topk_scores(shard, scorer, terms, limit) for terms in term_lists]


class ShardedTopK:
    """Parallel top-k over the shards of one frozen snapshot.

    Rank-identical to :func:`~repro.ir.topk.topk_scores` on the unsharded
    snapshot (property-tested), with or without Bloom routing; every
    shard runs that same max-score path.  The
    executor is created lazily on first use and shut down by :meth:`close`
    (also a context manager).  In process mode the scorer is pickled per
    call, so scorers must be picklable *and* should use value-based
    ``cache_key()`` (the built-ins do) — an identity-based key changes on
    every unpickle, defeating the workers' warm per-shard contribution
    caches.
    """

    def __init__(self, snapshot: IndexSnapshot, shards: int,
                 parallelism: str = "serial", max_workers: int | None = None,
                 route: bool = True):
        """Partition ``snapshot`` into ``shards`` and serve top-k over them.

        Args:
            snapshot: the frozen snapshot to partition.
            shards: partition count (>= 1).
            parallelism: one of :data:`PARALLELISM_MODES`.
            max_workers: executor size (defaults to the shard count).
            route: skip shards whose Bloom filter rules out every query
                term (identical results; less work).

        Raises:
            ValueError: on an unknown ``parallelism`` or ``shards`` < 1.
        """
        self._setup(shard_snapshot(snapshot, shards), snapshot.version,
                    parallelism, max_workers, None, route)

    @classmethod
    def from_shards(cls, shards: list[IndexSnapshot],
                    parallelism: str = "serial",
                    max_workers: int | None = None,
                    blooms: list[TermBloomFilter] | None = None,
                    route: bool = True) -> "ShardedTopK":
        """Serve top-k over *pre-partitioned* shard snapshots.

        This is the multi-process-server entry point: shard snapshots
        persisted individually (see :meth:`~repro.core.collection.
        CollectionStore.save`) are loaded — each process only its own
        partition, or a router all of them — and handed here without
        re-sharding.  ``blooms`` (e.g. restored from the shard files'
        headers) are rebuilt from the shard vocabularies when omitted.

        Raises:
            ValueError: on an empty shard list, mismatched shard versions,
                a ``blooms`` list of the wrong length, or an unknown
                ``parallelism``.
        """
        if not shards:
            raise ValueError("at least one shard snapshot is required")
        versions = {shard.version for shard in shards}
        if len(versions) > 1:
            raise ValueError(
                f"shard snapshots disagree on index version: "
                f"{sorted(versions)}"
            )
        self = cls.__new__(cls)
        self._setup(list(shards), shards[0].version, parallelism,
                    max_workers, blooms, route)
        return self

    def _setup(self, shards: list[IndexSnapshot], version: int,
               parallelism: str, max_workers: int | None,
               blooms: list[TermBloomFilter] | None, route: bool) -> None:
        if parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, "
                f"got {parallelism!r}"
            )
        self.version = version
        self.parallelism = parallelism
        self.shards = shards
        self.max_workers = max_workers or len(self.shards)
        self.route = route
        if blooms is None:
            blooms = [TermBloomFilter.build(shard.terms())
                      for shard in shards]
        if len(blooms) != len(shards):
            raise ValueError(
                f"expected {len(shards)} bloom filters, got {len(blooms)}")
        self.blooms = blooms
        #: Cumulative routing effectiveness: how many (shard, batch) tasks
        #: and (shard, query) pairs Bloom routing skipped.
        self.routing_stats = {
            "batches": 0,
            "shard_tasks": 0,
            "shard_tasks_skipped": 0,
            "query_pairs": 0,
            "query_pairs_skipped": 0,
        }
        self._executor: Executor | None = None

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            # Workers only score.  Shards backed by an on-disk v3
            # container ship as a path and are mmap'd in the worker
            # (shared page cache, near-zero pickle cost); the rest
            # ship as document-free scoring views so the per-worker
            # pickle and memory cost is just the statistics (doc_ids
            # resolve to documents in the parent).
            entries: list[tuple[str, object]] = []
            for shard in self.shards:
                mmap_path = getattr(shard, "mmap_path", None)
                if mmap_path is not None and os.path.exists(mmap_path):
                    entries.append(("path", os.fspath(mmap_path)))
                else:
                    entries.append(("snap", shard.scoring_view()))
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(entries,),
            )
        return self._executor

    def topk(self, scorer, terms: list[str],
             limit: int) -> list[tuple[str, float]]:
        """The global top-``limit`` ``(doc_id, score)`` list for one query."""
        return self.topk_many(scorer, [terms], limit)[0]

    def topk_many(self, scorer, term_lists: list[list[str]],
                  limit: int) -> list[list[tuple[str, float]]]:
        """Top-``limit`` lists for a batch of queries, in input order.

        One task per shard scores the queries routed to that shard
        (Bloom-filtered unless ``route=False``), then per-query results
        are merged across the shards that ran them.
        """
        if not term_lists:
            return []
        n_queries = len(term_lists)
        n_shards = len(self.shards)
        if self.route:
            # Hash each distinct term once, then probe every shard's
            # filter with the precomputed pair — routing cost is one
            # digest per term plus cheap arithmetic per (term, shard).
            hashed: dict[str, tuple[int, int]] = {}
            for terms in term_lists:
                for term in terms:
                    if term not in hashed:
                        hashed[term] = TermBloomFilter.hash_term(term)
            plans = [
                [i for i, terms in enumerate(term_lists)
                 if any(bloom.contains_hash(*hashed[term])
                        for term in terms)]
                for bloom in self.blooms
            ]
        else:
            plans = [list(range(n_queries)) for _ in range(n_shards)]
        stats = self.routing_stats
        stats["batches"] += 1
        stats["shard_tasks"] += n_shards
        stats["shard_tasks_skipped"] += sum(1 for plan in plans if not plan)
        stats["query_pairs"] += n_shards * n_queries
        stats["query_pairs_skipped"] += \
            n_shards * n_queries - sum(len(plan) for plan in plans)

        tasks = [(shard_index, plan)
                 for shard_index, plan in enumerate(plans) if plan]
        if self.parallelism == "serial":
            results = [
                [topk_scores(self.shards[shard_index], scorer,
                             term_lists[i], limit) for i in plan]
                for shard_index, plan in tasks
            ]
        else:
            executor = self._ensure_executor()
            futures = [
                executor.submit(_score_shard_batch_worker, shard_index,
                                scorer, [term_lists[i] for i in plan], limit)
                for shard_index, plan in tasks
            ]
            results = [future.result() for future in futures]

        per_query: list[list[list[tuple[str, float]]]] = \
            [[] for _ in range(n_queries)]
        for (shard_index, plan), shard_results in zip(tasks, results):
            for i, ranked in zip(plan, shard_results):
                per_query[i].append(ranked)
        return [merge_ranked(lists, limit) for lists in per_query]

    def close(self) -> None:
        """Shut down the executor (idempotent); shards stay usable."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ShardedTopK":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
