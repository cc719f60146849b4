"""Ranking functions over the inverted index: TF-IDF and BM25.

Both are the standard formulations.  TF-IDF uses log-scaled term frequency
and smoothed idf; BM25 uses the Robertson/Sparck-Jones idf with the usual
k1/b length normalization.  The paper's claim is precisely that these
*unmodified* IR scorers suffice once the database is qunit-ized, so we keep
them textbook.

Fast-path hooks
---------------

Each scorer can additionally support the top-k fast path in
:mod:`repro.ir.topk` by implementing four hooks:

``term_contributions(snapshot, term)``
    The per-document score contribution of one term, as aligned
    ``(doc_ids, contributions)`` sequences.  Must compute *bit-identical*
    floats to the exhaustive :meth:`Scorer.scores` accumulation so the fast
    path stays rank-identical (contributions are cached per term in the
    :class:`~repro.ir.index.IndexSnapshot`, which is the max-score
    "precompute upper bounds at index time" trick).

``finalize(snapshot, doc_id, raw)``
    Map an accumulated raw score to the final score (TF-IDF's length
    normalization, prior multiplication).  Must be monotone non-decreasing
    in ``raw`` — the early-termination proof relies on it.

``ceiling(snapshot, raw)``
    An upper bound of ``finalize`` over *every* document that can appear in
    a postings list, given a raw-score upper bound.  Used to decide when no
    unseen document can still enter the top k.

``cache_key()``
    A hashable identity of the scorer parameters, keying both the
    per-snapshot contribution cache and the :class:`~repro.ir.retrieval.
    Searcher` result cache.  Scorer parameters are treated as immutable
    after construction.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence

from repro.ir.index import InvertedIndex, IndexSnapshot

__all__ = ["Scorer", "TfIdfScorer", "Bm25Scorer", "PriorWeightedScorer"]


class _InstanceCacheKey:
    """Hashable identity wrapper for the default :meth:`Scorer.cache_key`.

    Hashes/compares by wrapper identity while pinning the scorer with a
    strong reference, so (a) unhashable scorers (e.g. ``__eq__``-defining
    dataclasses) still get a working default key, and (b) the scorer can
    never be garbage-collected while a cache references its key — unlike
    a raw ``id()``, whose reuse after collection would let one scorer be
    served another's cached contributions.
    """

    __slots__ = ("scorer",)

    def __init__(self, scorer: "Scorer"):
        self.scorer = scorer


class Scorer:
    """Interface: score every document matching any query term."""

    def scores(self, index: InvertedIndex, terms: list[str]) -> dict[str, float]:
        raise NotImplementedError

    # -- fast-path hooks (see module docstring and repro.ir.topk) ----------

    def cache_key(self) -> tuple:
        """Hashable identity of this scorer's parameters.

        The default is per-instance (see :class:`_InstanceCacheKey`): safe
        for any scorer, but every instance gets its own cache entries.
        Override with a value-based key (as the built-ins do) so
        equal-parameter scorers share cache entries and survive pickling
        into shard workers; include the class in it so subclasses that
        change the scoring math never share entries with their base.
        """
        try:
            return self._default_cache_key
        except AttributeError:
            key = (type(self).__qualname__, _InstanceCacheKey(self))
            # object.__setattr__ so frozen-dataclass scorers work too.
            object.__setattr__(self, "_default_cache_key", key)
            return key

    def supports_topk(self) -> bool:
        """Whether this scorer implements the fast-path hooks."""
        return False

    def term_contributions(
        self, snapshot: IndexSnapshot, term: str,
    ) -> tuple[Sequence[str], Sequence[float]]:
        raise NotImplementedError

    def finalize(self, snapshot: IndexSnapshot, doc_id: str,
                 raw: float) -> float:
        return raw

    def ceiling(self, snapshot: IndexSnapshot, raw: float) -> float:
        return raw


class TfIdfScorer(Scorer):
    """Cosine-flavoured TF-IDF: sum over terms of (1+log tf) * idf, with
    document-length normalization by the euclidean-ish sqrt length.

    The term-frequency component is clamped at ``1 + log(max(tf, 1))`` so a
    weighted frequency below 1 — legal whenever a field weight is
    fractional — can never turn a *match* into a penalty.
    """

    @staticmethod
    def _idf(n_docs: int, df: int) -> float:
        return math.log((n_docs + 1) / (df + 0.5))

    @staticmethod
    def _tf_component(weighted_tf: float) -> float:
        return 1.0 + math.log(max(weighted_tf, 1.0))

    def scores(self, index: InvertedIndex, terms: list[str]) -> dict[str, float]:
        accumulator: dict[str, float] = {}
        n_docs = index.document_count
        if n_docs == 0:
            return accumulator
        for term in terms:
            df = index.document_frequency(term)
            if df == 0:
                continue
            idf = self._idf(n_docs, df)
            for posting in index.postings(term):
                tf_component = self._tf_component(posting.weighted_tf)
                accumulator[posting.doc_id] = (
                    accumulator.get(posting.doc_id, 0.0) + tf_component * idf
                )
        for doc_id in accumulator:
            length = index.document_length(doc_id)
            if length > 0:
                accumulator[doc_id] /= math.sqrt(length)
        return accumulator

    # -- fast path ---------------------------------------------------------

    def cache_key(self) -> tuple:
        return (type(self).__qualname__,)

    def supports_topk(self) -> bool:
        return True

    def term_contributions(
        self, snapshot: IndexSnapshot, term: str,
    ) -> tuple[Sequence[str], Sequence[float]]:
        df = snapshot.document_frequency(term)
        if df == 0:
            return (), ()
        idf = self._idf(snapshot.document_count, df)
        doc_ids: list[str] = []
        contributions: list[float] = []
        for posting in snapshot.postings(term):
            doc_ids.append(posting.doc_id)
            contributions.append(self._tf_component(posting.weighted_tf) * idf)
        return doc_ids, contributions

    def finalize(self, snapshot: IndexSnapshot, doc_id: str,
                 raw: float) -> float:
        length = snapshot.document_length(doc_id)
        return raw / math.sqrt(length) if length > 0 else raw

    def ceiling(self, snapshot: IndexSnapshot, raw: float) -> float:
        # Every document in a postings list has positive length, so the
        # shortest posted document maximizes the normalized score.
        shortest = snapshot.min_document_length
        return raw / math.sqrt(shortest) if shortest > 0 else raw


class PriorWeightedScorer(Scorer):
    """Wraps a base scorer with per-document static priors.

    This is how PageRank-flavoured signals enter the qunit paradigm
    without touching the database: the prior (e.g. entity popularity) is
    just another document feature, multiplied into the text score — the
    "structured information as one source of information amongst many"
    point of Sec. 3.
    """

    def __init__(self, base: Scorer, priors: dict[str, float],
                 default: float = 1.0):
        if default <= 0:
            raise ValueError(f"default prior must be positive, got {default}")
        for doc_id, prior in priors.items():
            if prior <= 0:
                raise ValueError(
                    f"prior for {doc_id!r} must be positive, got {prior}"
                )
        self.base = base
        self.priors = dict(priors)
        self.default = default
        self._max_prior = max(max(self.priors.values(), default=default),
                              default)
        # Value-based identity: stable across pickling, so worker processes
        # in sharded retrieval reuse their contribution/result caches
        # instead of growing a fresh entry set per unpickled copy.  A
        # digest keeps the key small however large the prior table is
        # (repr of floats is shortest-round-trip exact).
        digest = hashlib.sha256(
            repr((sorted(self.priors.items()), self.default)).encode("utf-8")
        ).hexdigest()
        self._cache_key = (type(self).__qualname__, base.cache_key(), digest)

    def scores(self, index: InvertedIndex, terms: list[str]) -> dict[str, float]:
        base_scores = self.base.scores(index, terms)
        return {
            doc_id: score * self.priors.get(doc_id, self.default)
            for doc_id, score in base_scores.items()
        }

    # -- fast path ---------------------------------------------------------

    def cache_key(self) -> tuple:
        return self._cache_key

    def supports_topk(self) -> bool:
        return self.base.supports_topk()

    def term_contributions(
        self, snapshot: IndexSnapshot, term: str,
    ) -> tuple[Sequence[str], Sequence[float]]:
        # Priors apply at finalize time; raw accumulation is the base's,
        # so the snapshot can share one contribution cache per base scorer.
        cached = snapshot.term_contributions(self.base, term)
        return cached.doc_ids, cached.contributions

    def finalize(self, snapshot: IndexSnapshot, doc_id: str,
                 raw: float) -> float:
        return (self.base.finalize(snapshot, doc_id, raw)
                * self.priors.get(doc_id, self.default))

    def ceiling(self, snapshot: IndexSnapshot, raw: float) -> float:
        return self.base.ceiling(snapshot, raw) * self._max_prior


class Bm25Scorer(Scorer):
    """Okapi BM25 with parameters ``k1`` (tf saturation) and ``b`` (length)."""

    def __init__(self, k1: float = 1.2, b: float = 0.75):
        if k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.k1 = k1
        self.b = b

    @staticmethod
    def _idf(n_docs: int, df: int) -> float:
        return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))

    def _contribution(self, idf: float, tf: float, length: float,
                      avg_len: float) -> float:
        denom = tf + self.k1 * (1.0 - self.b + self.b * length / avg_len)
        return idf * (tf * (self.k1 + 1.0)) / denom

    def scores(self, index: InvertedIndex, terms: list[str]) -> dict[str, float]:
        accumulator: dict[str, float] = {}
        n_docs = index.document_count
        if n_docs == 0:
            return accumulator
        avg_len = index.average_document_length or 1.0
        for term in terms:
            df = index.document_frequency(term)
            if df == 0:
                continue
            idf = self._idf(n_docs, df)
            for posting in index.postings(term):
                length = index.document_length(posting.doc_id)
                accumulator[posting.doc_id] = (
                    accumulator.get(posting.doc_id, 0.0)
                    + self._contribution(idf, posting.weighted_tf, length,
                                         avg_len)
                )
        return accumulator

    # -- fast path ---------------------------------------------------------

    def cache_key(self) -> tuple:
        return (type(self).__qualname__, self.k1, self.b)

    def supports_topk(self) -> bool:
        return True

    def term_contributions(
        self, snapshot: IndexSnapshot, term: str,
    ) -> tuple[Sequence[str], Sequence[float]]:
        df = snapshot.document_frequency(term)
        if df == 0:
            return (), ()
        idf = self._idf(snapshot.document_count, df)
        avg_len = snapshot.average_document_length or 1.0
        doc_ids: list[str] = []
        contributions: list[float] = []
        for posting in snapshot.postings(term):
            doc_ids.append(posting.doc_id)
            contributions.append(
                self._contribution(idf, posting.weighted_tf,
                                   snapshot.document_length(posting.doc_id),
                                   avg_len)
            )
        return doc_ids, contributions
