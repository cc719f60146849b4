"""Inverted index over :class:`~repro.ir.documents.Document` collections.

Term frequencies are accumulated with per-field weights at indexing time, so
scorers see a single weighted frequency per (term, document).  The index
keeps enough statistics for both TF-IDF and BM25: document frequencies,
weighted document lengths, and the collection average length.

The mutable index is optimized for building; retrieval goes through an
:class:`IndexSnapshot` — a frozen, *self-contained* copy of the index
contents with sorted postings arrays and a per-(scorer, term) cache of
score contributions and max-score upper bounds (see :mod:`repro.ir.topk`).
Because a snapshot owns its data outright (it holds no reference back to
the index it came from), it can outlive the index, be persisted to disk
(:mod:`repro.ir.persist`), or be partitioned into shards for parallel
scoring (:mod:`repro.ir.shard`).  Every :meth:`InvertedIndex.add` bumps
:attr:`InvertedIndex.version` and drops the cached snapshot, so
:meth:`InvertedIndex.snapshot` always reflects the current contents; a
snapshot held across an ``add`` simply keeps serving the contents it was
built from, and derived caches can detect staleness by comparing versions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import IndexError_
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document

__all__ = ["Posting", "TermContributions", "InvertedIndex", "IndexSnapshot",
           "ColumnarIndexSnapshot"]


@dataclass(frozen=True)
class Posting:
    """One (document, weighted term frequency) entry in a postings list."""

    doc_id: str
    weighted_tf: float


@dataclass(frozen=True)
class TermContributions:
    """Cached per-term scoring data for one (scorer, term) pair.

    ``doc_ids`` and ``contributions`` are aligned, doc_id-sorted arrays;
    ``bound`` is the largest single contribution — the term's max-score
    upper bound used for early termination.
    """

    doc_ids: tuple[str, ...]
    contributions: tuple[float, ...]
    bound: float


_NO_CONTRIBUTIONS = TermContributions((), (), 0.0)


class InvertedIndex:
    """An append-only inverted index with weighted fields."""

    def __init__(self, analyzer: Analyzer | None = None):
        self.analyzer = analyzer or Analyzer()
        self._postings: dict[str, dict[str, float]] = {}
        self._documents: dict[str, Document] = {}
        self._doc_lengths: dict[str, float] = {}
        self._total_length = 0.0
        self._version = 0
        self._snapshot: IndexSnapshot | None = None

    # -- building -----------------------------------------------------------

    def add(self, document: Document) -> None:
        """Index one document (its id must be new), all-or-nothing.

        Tokenization and validation run before any index state is
        touched, so a rejected document leaves the index exactly as it
        was.

        Raises:
            IndexError_: on a duplicate ``doc_id`` or a non-positive field
                weight; the index is unchanged.
        """
        if document.doc_id in self._documents:
            raise IndexError_(f"duplicate document id {document.doc_id!r}")
        length = 0.0
        token_weights: dict[str, float] = {}
        for field_name, text in document.fields:
            weight = document.weight(field_name)
            if weight <= 0:
                raise IndexError_(
                    f"document {document.doc_id!r} field {field_name!r} "
                    f"has non-positive weight {weight}"
                )
            for token in self.analyzer.tokens(text):
                token_weights[token] = token_weights.get(token, 0.0) + weight
                length += weight
        self._version += 1
        self._snapshot = None
        self._documents[document.doc_id] = document
        for token, weighted_tf in token_weights.items():
            self._postings.setdefault(token, {})[document.doc_id] = weighted_tf
        self._doc_lengths[document.doc_id] = length
        self._total_length += length

    def add_all(self, documents: Iterable[Document]) -> int:
        count = 0
        for document in documents:
            self.add(document)
            count += 1
        return count

    # -- snapshots ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter, bumped on every :meth:`add`."""
        return self._version

    def snapshot(self) -> "IndexSnapshot":
        """The frozen read-optimized copy of the current contents (cached;
        rebuilt after any :meth:`add`)."""
        if self._snapshot is None:
            self._snapshot = IndexSnapshot.from_index(self)
        return self._snapshot

    # -- statistics ---------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self._documents)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    @property
    def average_document_length(self) -> float:
        if not self._documents:
            return 0.0
        return self._total_length / len(self._documents)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def document_length(self, doc_id: str) -> float:
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise IndexError_(f"unknown document {doc_id!r}") from None

    # -- access -------------------------------------------------------------

    def postings(self, term: str) -> list[Posting]:
        bucket = self._postings.get(term, {})
        return [Posting(doc_id, tf) for doc_id, tf in bucket.items()]

    def document(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise IndexError_(f"unknown document {doc_id!r}") from None

    def documents(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def validate(self) -> None:
        """Invariant check: postings only reference known documents and
        document lengths equal the sum of their weighted term frequencies."""
        recomputed: dict[str, float] = {doc_id: 0.0 for doc_id in self._documents}
        for term, bucket in self._postings.items():
            for doc_id, tf in bucket.items():
                if doc_id not in self._documents:
                    raise IndexError_(
                        f"term {term!r} references unknown document {doc_id!r}"
                    )
                if tf <= 0:
                    raise IndexError_(
                        f"term {term!r} has non-positive tf for {doc_id!r}"
                    )
                recomputed[doc_id] += tf
        for doc_id, length in recomputed.items():
            if abs(length - self._doc_lengths[doc_id]) > 1e-9:
                raise IndexError_(
                    f"document {doc_id!r} length mismatch: "
                    f"stored {self._doc_lengths[doc_id]}, recomputed {length}"
                )


class IndexSnapshot:
    """A frozen, self-contained, read-optimized copy of an index.

    The snapshot owns every statistic retrieval needs — documents, doc_id-
    sorted postings tuples, per-document lengths, per-term document
    frequencies, and the collection aggregates — so it serves queries with
    no live :class:`InvertedIndex` behind it.  That self-containment is
    what makes snapshots durable artifacts: they can be persisted and
    reloaded (:mod:`repro.ir.persist`) or hash-partitioned into shards
    that score in parallel (:mod:`repro.ir.shard`).  On top of the frozen
    data sits a per-(scorer, term) cache of score contributions and
    max-score upper bounds, reused across queries by the top-k fast path.

    A snapshot never goes stale: one held across an
    :meth:`InvertedIndex.add` keeps serving the contents it was built
    from, while :meth:`InvertedIndex.snapshot` hands out a fresh copy
    (distinguishable by :attr:`version`).  Snapshots also implement enough
    of the :class:`InvertedIndex` read protocol (``postings``,
    ``document_frequency``, ``document_length``, ``document``,
    ``document_count``, ``average_document_length``) that exhaustive
    scorers and :class:`~repro.ir.retrieval.Searcher` work over either
    interchangeably; :meth:`snapshot` returns ``self``.

    Sharded snapshots deliberately carry the *collection-wide* statistics
    (``document_count``, ``average_document_length``,
    ``min_document_length``, document frequencies) rather than their own
    partition's, so per-shard scoring is float-identical to scoring the
    whole collection — hence ``document_count`` may exceed
    ``len(snapshot)``.
    """

    #: Path of the mmap-backed columnar container this snapshot serves
    #: from, when any (set by :class:`ColumnarIndexSnapshot`); ``None``
    #: for live and fully-materialized snapshots.  Shard executors use it
    #: to hand worker processes a *path* to mmap instead of a pickled
    #: snapshot (see :class:`~repro.ir.shard.ShardedTopK`).
    mmap_path = None

    #: Whether :meth:`vectors` may *build* document vectors on demand.
    #: Only true for snapshots frozen straight from a live index
    #: (:meth:`from_index`), where the documents are authoritative.
    #: Loaded snapshots serve vectors exclusively from persisted vector
    #: extents (:class:`ColumnarIndexSnapshot`) — a file saved without
    #: them yields ``None``, the signal the hybrid retrieval strategy
    #: degrades to lexical on (see :mod:`repro.ir.retrieval`).
    _buildable_vectors = False

    def __init__(self, *, version: int, analyzer: Analyzer,
                 documents: dict[str, Document],
                 postings: dict[str, tuple[Posting, ...]],
                 doc_lengths: dict[str, float],
                 doc_frequencies: dict[str, int],
                 document_count: int,
                 average_document_length: float,
                 min_document_length: float):
        # Mappings are stored as handed in, not copied: callers transfer
        # ownership (or knowingly share — snapshots never mutate them, so
        # shards can alias one frozen doc_frequencies dict instead of
        # duplicating the whole vocabulary per shard).  from_index copies
        # what it takes from the *live* index explicitly.
        self.version = version
        self.analyzer = analyzer
        self.document_count = document_count
        self.average_document_length = average_document_length
        #: Shortest positive document length in the collection — the
        #: normalization ceiling for length-normalized scorers (documents
        #: with zero length never appear in postings).
        self.min_document_length = min_document_length
        self._documents = documents
        self._postings = postings
        self._doc_lengths = doc_lengths
        self._doc_frequencies = doc_frequencies
        self._contributions: dict[tuple, TermContributions] = {}
        self._vector_indexes: dict[tuple, object] = {}

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "IndexSnapshot":
        """Freeze the full current contents of ``index`` into a snapshot."""
        postings = {
            term: tuple(Posting(doc_id, bucket[doc_id])
                        for doc_id in sorted(bucket))
            for term, bucket in index._postings.items()
        }
        positive = [length for length in index._doc_lengths.values() if length > 0]
        snapshot = cls(
            version=index.version,
            analyzer=index.analyzer,
            documents=dict(index._documents),
            postings=postings,
            doc_lengths=dict(index._doc_lengths),
            doc_frequencies={term: len(plist)
                             for term, plist in postings.items()},
            document_count=index.document_count,
            average_document_length=index.average_document_length,
            min_document_length=min(positive) if positive else 0.0,
        )
        snapshot._buildable_vectors = True
        return snapshot

    def snapshot(self) -> "IndexSnapshot":
        """Snapshots are already frozen; returns ``self`` (index protocol)."""
        return self

    # -- statistics ----------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        return self._doc_frequencies.get(term, 0)

    def document_length(self, doc_id: str) -> float:
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise IndexError_(f"unknown document {doc_id!r}") from None

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    # -- access --------------------------------------------------------------

    def postings(self, term: str) -> tuple[Posting, ...]:
        """The term's postings as a doc_id-sorted tuple."""
        return self._postings.get(term, ())

    def terms(self) -> Iterator[str]:
        return iter(self._postings)

    def document(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise IndexError_(f"unknown document {doc_id!r}") from None

    def documents(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    # -- scoring caches ------------------------------------------------------

    def term_contributions(self, scorer, term: str) -> TermContributions:
        """Cached per-document contributions of ``scorer`` for ``term``.

        ``scorer`` must implement the fast-path hooks described in
        :mod:`repro.ir.scoring`; results are cached under
        ``scorer.cache_key()`` so equal-parameter scorers share entries.
        """
        key = (scorer.cache_key(), term)
        cached = self._contributions.get(key)
        if cached is None:
            doc_ids, contributions = scorer.term_contributions(self, term)
            if not doc_ids:
                cached = _NO_CONTRIBUTIONS
            else:
                cached = TermContributions(tuple(doc_ids),
                                           tuple(contributions),
                                           max(contributions))
            self._contributions[key] = cached
        return cached

    # -- vectors -------------------------------------------------------------

    def vectors(self, embedder):
        """The snapshot's :class:`~repro.ir.vector.VectorIndex` for
        ``embedder``, or ``None`` when none is available.

        A snapshot frozen from a live index embeds its own documents on
        first demand (cached per embedder identity, like the scorer
        caches).  Loaded snapshots serve only *persisted* vector extents
        (see :class:`ColumnarIndexSnapshot`); a file saved without them
        — or with extents from a different embedder configuration —
        returns ``None``, and the hybrid strategy degrades to lexical
        with a warning instead of silently re-embedding text the load
        may not even carry (docstore-backed scoring views have no
        document bodies).
        """
        key = embedder.cache_key()
        if key not in self._vector_indexes:
            self._vector_indexes[key] = self._build_vectors(embedder)
        return self._vector_indexes[key]

    def _build_vectors(self, embedder):
        if not self._buildable_vectors:
            return None
        from repro.ir.vector import VectorIndex

        return VectorIndex.build(embedder, self._documents)

    def scoring_view(self) -> "IndexSnapshot":
        """A copy without the document store.

        Scoring touches postings, lengths, document frequencies, and the
        collection aggregates — never document content — so this is what
        ships to sharded worker processes: the full field texts and
        metadata stay behind, cutting pickle and worker-memory cost to the
        statistics alone.  Document lookups on the view raise; hits are
        resolved to documents in the parent process.
        """
        return IndexSnapshot(
            version=self.version,
            analyzer=self.analyzer,
            documents={},
            postings=self._postings,
            doc_lengths=self._doc_lengths,
            doc_frequencies=self._doc_frequencies,
            document_count=self.document_count,
            average_document_length=self.average_document_length,
            min_document_length=self.min_document_length,
        )

    def __getstate__(self) -> dict:
        """Pickle without the contribution caches (workers rebuild their
        own, and scorer cache keys may contain process-local ids)."""
        state = self.__dict__.copy()
        state["_contributions"] = {}
        state["_vector_indexes"] = {}
        return state


def _rebuild_plain_snapshot(version, analyzer, documents, postings,
                            doc_lengths, doc_frequencies, document_count,
                            average_document_length,
                            min_document_length) -> "IndexSnapshot":
    """Unpickle target for :meth:`ColumnarIndexSnapshot.__reduce__` — a
    column-backed snapshot crosses process boundaries as a plain,
    fully-materialized snapshot (an mmap handle cannot)."""
    return IndexSnapshot(
        version=version, analyzer=analyzer, documents=documents,
        postings=postings, doc_lengths=doc_lengths,
        doc_frequencies=doc_frequencies, document_count=document_count,
        average_document_length=average_document_length,
        min_document_length=min_document_length,
    )


class ColumnarIndexSnapshot(IndexSnapshot):
    """A snapshot whose postings/contribution data live in an
    mmap-backed columnar container (:mod:`repro.ir.persist` format v3).

    Behaves exactly like a plain :class:`IndexSnapshot` — the ``postings``
    and ``documents`` mappings it is handed are lazy views that
    materialize per term (or per document blob) straight out of the
    mmap'd columns — but additionally consults *persisted* per-(scorer,
    term) contribution columns before computing them, so the scorers
    the save precomputed for skip the arithmetic entirely on load.
    ``backing`` is duck-typed (see ``repro.ir.persist._V3Backing``): it
    must provide ``term_contributions(scorer_key, term)``, returning
    ``None`` when no matching column was persisted.

    Float-exactness holds either way: persisted columns are bit-exact
    float64 round trips of the same arithmetic the lazy path runs.
    """

    def __init__(self, *, backing, mmap_path, **kwargs):
        super().__init__(**kwargs)
        self._backing = backing
        self.mmap_path = mmap_path

    def term_contributions(self, scorer, term: str) -> TermContributions:
        key = (scorer.cache_key(), term)
        cached = self._contributions.get(key)
        if cached is None:
            cached = self._backing.term_contributions(key[0], term)
            if cached is None:
                return super().term_contributions(scorer, term)
            self._contributions[key] = cached
        return cached

    def _build_vectors(self, embedder):
        # Persisted vector extents only: the container either carries a
        # matrix built by this embedder configuration, or the hybrid
        # strategy degrades to lexical.  Re-embedding here would be
        # wrong — docstore-backed loads may have no document bodies, and
        # silently rebuilding would hide a save that forgot its vectors.
        persisted = self._backing.vector_index()
        if persisted is None or persisted.embedder_config != \
                embedder.config():
            return None
        return persisted

    def scoring_view(self) -> "IndexSnapshot":
        """A document-free view that *keeps* the columnar backing (and
        :attr:`mmap_path`), so shard executors can still route workers to
        the file instead of pickling the view."""
        return ColumnarIndexSnapshot(
            backing=self._backing,
            mmap_path=self.mmap_path,
            version=self.version,
            analyzer=self.analyzer,
            documents={},
            postings=self._postings,
            doc_lengths=self._doc_lengths,
            doc_frequencies=self._doc_frequencies,
            document_count=self.document_count,
            average_document_length=self.average_document_length,
            min_document_length=self.min_document_length,
        )

    def __reduce__(self):
        # Pickling safety net: materialize everything (mmap handles do not
        # cross process boundaries).  The shard executors avoid this cost
        # by shipping mmap_path instead — this path only runs when a
        # caller pickles a columnar snapshot directly.
        return (_rebuild_plain_snapshot, (
            self.version, self.analyzer, dict(self._documents),
            dict(self._postings), dict(self._doc_lengths),
            dict(self._doc_frequencies), self.document_count,
            self.average_document_length, self.min_document_length,
        ))
