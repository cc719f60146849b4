"""Deterministic character-n-gram hashing embedder.

The hybrid retrieval backend (strategy ``"hybrid"``, see
:mod:`repro.ir.vector` and :mod:`repro.ir.retrieval`) needs document and
query vectors that are

- **dependency-free** — pure python, no model weights, no downloads;
- **deterministic** — bit-identical floats for the same text across
  processes, platforms, and interpreter restarts (snapshots persist the
  vectors, and a loaded vector must equal a recomputed one); and
- **robust to surface variation** — the paper's motivating scenario is
  the query whose *phrasing* misses the decorated instance text; typos,
  joined words, and morphological drift should still land near the
  document.

Character n-grams hashed into a fixed-width signed bucket space give all
three: each n-gram of the normalized text (:func:`repro.utils.text.
normalize`) is hashed with blake2b — stable everywhere, unlike ``hash()``
under ``PYTHONHASHSEED`` — to a bucket index and a sign, accumulated with
the field's weight, and the final vector is L2-normalized so cosine
similarity is a plain dot product.  A one-character typo perturbs only
the few n-grams that cross it, so the query vector moves a little instead
of losing a whole token the way the inverted index does.

The embedder's :meth:`~HashingEmbedder.config` round-trips through the
snapshot container (:mod:`repro.ir.persist` persists it next to the
vector columns) so a load can verify the stored vectors were produced by
the same configuration before serving them.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

from repro.ir.documents import Document
from repro.utils.text import normalize

__all__ = ["HashingEmbedder", "DEFAULT_DIMS", "DEFAULT_NGRAM_SIZES"]

#: Default vector width.  256 float64 buckets keep a 10k-document matrix
#: around 20 MB, while collisions stay rare for the n-gram vocabularies
#: our synthetic corpora produce.  A short query fills only a few dozen
#: buckets, and the brute-force scan (:meth:`repro.ir.vector.VectorIndex.
#: topk`) pays per non-zero query bucket, not per dim.
DEFAULT_DIMS = 256

#: Default character n-gram sizes.  Trigrams carry most of the typo
#: robustness; 4-grams sharpen precision on longer tokens.
DEFAULT_NGRAM_SIZES = (3, 4)


def _gram_slot(seed: int, dims: int, gram: str) -> tuple[int, float]:
    """``(bucket, sign)`` of one n-gram: a pure function of the embedder
    config and the gram (its size ``n`` is ``len(gram)``)."""
    digest = hashlib.blake2b(
        str(seed).encode("ascii") + b"\x00" + str(len(gram)).encode("ascii")
        + b"\x00" + gram.encode("utf-8"),
        digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    return (value >> 1) % dims, 1.0 if value & 1 else -1.0


#: Distinct n-grams whose (bucket, sign) stay memoised for document
#: embedding.  The 871-document expert collection has ~9.1k, each seen
#: ~60 times.  Queries do not use the memo: a server embeds ever-new
#: queries for its whole life, and memoising their grams would only grow
#: it.  Memoising a pure function leaves every vector bit-identical.
GRAM_CACHE_SIZE = 1 << 14
_document_gram_slot = lru_cache(maxsize=GRAM_CACHE_SIZE)(_gram_slot)


class HashingEmbedder:
    """Fixed-width signed-hashing embedder over character n-grams.

    Instances are immutable and cheap; share one across an index.  Two
    embedders with equal :meth:`config` produce bit-identical vectors
    (property-tested across processes in
    ``tests/test_property_based.py``).
    """

    __slots__ = ("dims", "ngram_sizes", "seed")

    def __init__(self, dims: int = DEFAULT_DIMS,
                 ngram_sizes: tuple[int, ...] = DEFAULT_NGRAM_SIZES,
                 seed: int = 0):
        """An embedder producing ``dims``-wide L2-normalized vectors.

        Args:
            dims: vector width (>= 8).
            ngram_sizes: character n-gram sizes to hash (each >= 2).
            seed: hash salt, part of the persisted config — vectors from
                different seeds are incomparable.

        Raises:
            ValueError: on a too-small width or empty/invalid n-gram
                sizes.
        """
        if dims < 8:
            raise ValueError(f"dims must be >= 8, got {dims}")
        sizes = tuple(int(n) for n in ngram_sizes)
        if not sizes or any(n < 2 for n in sizes):
            raise ValueError(
                f"ngram_sizes must be non-empty and each >= 2, "
                f"got {ngram_sizes!r}")
        self.dims = dims
        self.ngram_sizes = sizes
        self.seed = int(seed)

    # -- identity ------------------------------------------------------------

    def config(self) -> dict:
        """A JSON-safe description of this embedder; persisted next to
        vector columns so loads can verify compatibility.  Inverse of
        :meth:`from_config`."""
        return {
            "kind": "char_ngram_hash",
            "dims": self.dims,
            "ngram_sizes": list(self.ngram_sizes),
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, config: dict) -> "HashingEmbedder":
        """Rebuild an embedder from :meth:`config` output.

        Raises:
            ValueError: on an unknown kind or malformed config.
        """
        if config.get("kind") != "char_ngram_hash":
            raise ValueError(
                f"unknown embedder kind {config.get('kind')!r}")
        try:
            return cls(dims=config["dims"],
                       ngram_sizes=tuple(config["ngram_sizes"]),
                       seed=config.get("seed", 0))
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed embedder config: {config!r}") from exc

    def cache_key(self) -> tuple:
        """A hashable value-based identity (equal configs hash equal —
        the same contract scorer ``cache_key`` follows)."""
        return ("char_ngram_hash", self.dims, self.ngram_sizes, self.seed)

    def __eq__(self, other) -> bool:
        return isinstance(other, HashingEmbedder) and \
            self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return (f"HashingEmbedder(dims={self.dims}, "
                f"ngram_sizes={self.ngram_sizes}, seed={self.seed})")

    # -- embedding -----------------------------------------------------------

    def _accumulate(self, buckets: list[float], text: str, weight: float,
                    slot=_gram_slot) -> None:
        """Add ``text``'s signed n-gram hashes into ``buckets``.

        The text is normalized and space-padded so n-grams see token
        boundaries; each (size, gram) pair hashes through one blake2b
        digest to a bucket and a sign (``slot``: :func:`_gram_slot` or
        its document memo).  Accumulation order is the scan order of the
        string — fully deterministic, so float sums are bit-identical
        across runs.
        """
        padded = f" {normalize(text)} "
        if padded == "  ":
            return
        dims = self.dims
        seed = self.seed
        for n in self.ngram_sizes:
            for start in range(len(padded) - n + 1):
                bucket, sign = slot(seed, dims, padded[start:start + n])
                buckets[bucket] += sign * weight

    @staticmethod
    def _normalized(buckets: list[float]) -> tuple[float, ...]:
        norm = math.sqrt(math.fsum(v * v for v in buckets))
        if norm == 0.0:
            return tuple(buckets)
        return tuple(v / norm for v in buckets)

    def embed_text(self, text: str) -> tuple[float, ...]:
        """The L2-normalized vector for one piece of text (all-zero for
        text that normalizes to nothing)."""
        buckets = [0.0] * self.dims
        self._accumulate(buckets, text, 1.0)
        return self._normalized(buckets)

    def embed_query(self, query: str) -> tuple[float, ...]:
        """The vector for a query string (same space as documents)."""
        return self.embed_text(query)

    def embed_document(self, document: Document) -> tuple[float, ...]:
        """The vector for a document, honoring per-field weights (a
        title field contributes proportionally more than a body field,
        mirroring how the inverted index weights term frequencies)."""
        buckets = [0.0] * self.dims
        for field_name, text in document.fields:
            if text:
                self._accumulate(buckets, text, document.weight(field_name),
                                 _document_gram_slot)
        return self._normalized(buckets)
