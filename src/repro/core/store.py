"""Typed persistence API for qunit collections: live generations on disk.

:class:`CollectionStore` is the one façade over a saved collection
directory, mirroring the typed request/response shape of
:mod:`repro.serve.api`: callers describe *what* they want with frozen
:class:`SaveOptions`/:class:`LoadOptions` dataclasses and get typed
results back (:class:`SaveReport`, a restored
:class:`~repro.core.collection.QunitCollection`).  The sprawling
keyword surface of the old ``QunitCollection`` wrappers still works
but is deprecated in its favor (one-release removal note on each).

Three things make a stored collection *live*:

**Delta journal.**  :meth:`CollectionStore.save` in ``auto`` mode
detects that the directory already holds a compatible generation and
appends only the new documents as checksummed delta records — one
``journal-<generation>.jrnl`` file per generation, shared by the global
and per-definition snapshots.  A delta save is O(new documents), not a corpus
rewrite; the transaction commits via an atomic manifest swap, so a
crash mid-append is invisible (readers ignore journal bytes the
manifest never committed).  ``repro compact`` /
:meth:`CollectionStore.compact` folds the journal back into clean v3
bases.

**Lazy loads.**  :meth:`CollectionStore.load` with ``lazy=True`` (the
default) pins only the manifest plus each snapshot's cheap header —
including the per-definition term Bloom filters, so the query
pipeline's plan stage keeps skipping definitions that provably cannot
match *without* loading them.  A snapshot is mmap'd on first demand
(the execute stage building its searcher); untouched definitions never
cost a byte of postings.  The trade-off versus the eager pin: a lazy
collection reads files after ``load`` returns, so a concurrent full
re-save that prunes the generation can surface as a
:class:`~repro.errors.SnapshotError` on first demand (reload to
recover).  Delta saves and :class:`CollectionWriter` commits never
prune the current generation's bases, so the supported live-ingest flow
keeps lazy readers safe.

**Online ingestion.**  :meth:`CollectionStore.writer` hands back a
:class:`CollectionWriter` that stages new documents, builds the
next-generation snapshots off the serving path, appends one journal
transaction, and swaps the collection's in-memory generation under the
searcher-pool leases — in-flight batches finish against the searchers
(and generation) they pinned; the next acquire builds against the new
one.  See ``docs/PERSISTENCE.md`` for the byte-level journal spec and
the swap protocol.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.collection import (
    MANIFEST_MAGIC,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SUPPORTED_MANIFEST_VERSIONS,
    QunitCollection,
    _SnapshotPruneRace,
)
from repro.core.qunit import QunitDefinition, QunitInstance
from repro.errors import SnapshotError
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import IndexSnapshot, Posting
from repro.ir.persist import (
    DocumentStore,
    append_collection_txn,
    build_delta_record,
    fold_delta_record,
    filter_delta_record,
    load_document_store,
    load_document_store_partition,
    load_snapshot_with_header,
    read_collection_journal,
    read_snapshot_doc_ids,
    read_snapshot_header,
    save_document_store,
    save_snapshot,
)
from repro.ir.shard import (
    PARALLELISM_MODES,
    ShardedTopK,
    TermBloomFilter,
    shard_id,
    shard_snapshot,
)
from repro.ir.topk import STRATEGIES
from repro.relational.database import Database

__all__ = [
    "JOURNAL_MANIFEST_VERSION",
    "SaveOptions",
    "LoadOptions",
    "SaveReport",
    "CollectionStore",
    "CollectionWriter",
]

#: Manifest format version written once a generation carries a journal
#: entry.  A journal-free full save keeps writing version 2 (the
#: ``generation`` and ``vectors`` fields are additive metadata an older
#: reader can ignore); a journal is *not* ignorable — ignoring it would
#: serve a stale prefix of the collection — so its presence bumps the
#: version and older readers refuse loudly.
JOURNAL_MANIFEST_VERSION = 3

_SAVE_MODES = ("auto", "full", "delta")


@dataclass(frozen=True)
class SaveOptions:
    """How :meth:`CollectionStore.save` should persist a collection.

    Attributes:
        vectors: embed every document once so snapshots carry vector
            extents for the ``"hybrid"`` strategy (the default; matches
            the old ``save(vectors=...)`` flag).
        mode: ``"auto"`` appends a delta journal transaction when the
            directory already holds a compatible generation (same
            database fingerprint, analyzer, definitions, and vector
            configuration; on-disk documents a subset of the
            collection's) and falls back to a full generation rewrite
            otherwise; ``"full"`` always rewrites; ``"delta"`` raises
            :class:`~repro.errors.SnapshotError` instead of falling
            back.
    """

    vectors: bool = True
    mode: str = "auto"

    def __post_init__(self):
        if not isinstance(self.vectors, bool):
            raise ValueError(
                f"vectors must be a bool, got {self.vectors!r}")
        if self.mode not in _SAVE_MODES:
            raise ValueError(
                f"mode must be one of {_SAVE_MODES}, got {self.mode!r}")

    def to_dict(self) -> dict:
        """Serializable form; defaults elided (round-trips via
        :meth:`from_dict`)."""
        data: dict = {}
        if self.vectors is not True:
            data["vectors"] = self.vectors
        if self.mode != "auto":
            data["mode"] = self.mode
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SaveOptions":
        """Build options from a dict, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise ValueError(f"SaveOptions payload must be an object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"vectors", "mode"}
        if unknown:
            raise ValueError(
                f"unknown SaveOptions field(s): {sorted(unknown)}")
        return cls(vectors=data.get("vectors", True),
                   mode=data.get("mode", "auto"))


@dataclass(frozen=True)
class LoadOptions:
    """How :meth:`CollectionStore.load` should restore a collection.

    Attributes:
        shards: sharded parallel scoring for the flat searcher; when the
            saved generation persisted the same shard count, the
            per-shard snapshot files (and Bloom filters) are restored
            instead of re-partitioning in memory.
        parallelism: shard executor mode (see :mod:`repro.ir.shard`).
        strategy: retrieval strategy for the restored searchers, one
            of :data:`repro.ir.topk.STRATEGIES`.
        lazy: pin only the manifest and per-snapshot headers at load
            time; snapshots mmap on first query demand (the default).
            ``False`` restores the old eager behavior: the whole
            generation is read up front and stays serviceable even if
            the directory is concurrently re-saved and pruned.
    """

    shards: int = 0
    parallelism: str = "serial"
    strategy: str = "auto"
    lazy: bool = True

    def __post_init__(self):
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) \
                or self.shards < 0:
            raise ValueError(
                f"shards must be a non-negative int, got {self.shards!r}")
        if self.parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, "
                f"got {self.parallelism!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, "
                f"got {self.strategy!r}")
        if not isinstance(self.lazy, bool):
            raise ValueError(f"lazy must be a bool, got {self.lazy!r}")

    def to_dict(self) -> dict:
        """Serializable form; defaults elided (round-trips via
        :meth:`from_dict`)."""
        data: dict = {}
        if self.shards:
            data["shards"] = self.shards
        if self.parallelism != "serial":
            data["parallelism"] = self.parallelism
        if self.strategy != "auto":
            data["strategy"] = self.strategy
        if self.lazy is not True:
            data["lazy"] = self.lazy
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "LoadOptions":
        """Build options from a dict, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise ValueError(f"LoadOptions payload must be an object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"shards", "parallelism", "strategy", "lazy"}
        if unknown:
            raise ValueError(
                f"unknown LoadOptions field(s): {sorted(unknown)}")
        return cls(shards=data.get("shards", 0),
                   parallelism=data.get("parallelism", "serial"),
                   strategy=data.get("strategy", "auto"),
                   lazy=data.get("lazy", True))


@dataclass(frozen=True)
class SaveReport:
    """What one :meth:`CollectionStore.save` (or
    :meth:`CollectionWriter.commit`) actually wrote.

    Attributes:
        path: the generation directory.
        generation: the effective generation id — the base generation's
            hex id, suffixed ``+N`` after N journal transactions.
        mode: ``"full"`` (a fresh generation of files) or ``"delta"``
            (a journal transaction against the existing one).
        documents: documents in the global snapshot after the save.
        appended_documents: documents this save added (0 = the
            directory already matched the collection; nothing written).
        files_written: file names created or appended this save.
        journal_segments: committed journal delta segments now trailing
            the generation (0 after a full save).
    """

    path: str
    generation: str
    mode: str
    documents: int
    appended_documents: int
    files_written: tuple[str, ...] = ()
    journal_segments: int = 0

    def to_dict(self) -> dict:
        """Serializable form (what ``repro save`` prints as JSON)."""
        return {
            "path": self.path,
            "generation": self.generation,
            "mode": self.mode,
            "documents": self.documents,
            "appended_documents": self.appended_documents,
            "files_written": list(self.files_written),
            "journal_segments": self.journal_segments,
        }


def _advance_snapshot(base: IndexSnapshot, documents: list[Document],
                      analyzer: Analyzer) -> IndexSnapshot:
    """The next-generation snapshot: ``base`` plus ``documents``.

    Tokenization follows the same accumulation order as
    :meth:`~repro.ir.index.InvertedIndex.add` and merging the same rules
    as :func:`~repro.ir.persist.fold_delta_record`, so the result is
    float-identical to an index grown live and to a reader folding the
    matching journal records.  The base's postings materialize into
    plain dicts (a columnar base loses its lazy column map here — the
    in-memory cost of building a generation; the *disk* write stays
    O(new documents)).

    Raises:
        SnapshotError: on a duplicate doc_id or non-positive field
            weight.
    """
    merged_documents = dict(base._documents)
    doc_lengths = dict(base._doc_lengths)
    postings = dict(base._postings)
    doc_frequencies = dict(base._doc_frequencies)
    total_length = base.average_document_length * base.document_count
    minimum = base.min_document_length if base.document_count else 0.0
    version = base.version
    for document in documents:
        if document.doc_id in merged_documents:
            raise SnapshotError(
                f"document {document.doc_id!r} is already indexed; a "
                f"generation only ever adds documents")
        length = 0.0
        token_weights: dict[str, float] = {}
        for field_name, text in document.fields:
            weight = document.weight(field_name)
            if weight <= 0:
                raise SnapshotError(
                    f"document {document.doc_id!r} field {field_name!r} "
                    f"has non-positive weight {weight}")
            for token in analyzer.tokens(text):
                token_weights[token] = token_weights.get(token, 0.0) + weight
                length += weight
        version += 1
        merged_documents[document.doc_id] = document
        doc_lengths[document.doc_id] = length
        total_length += length
        for token, weighted_tf in token_weights.items():
            existing = list(postings.get(token, ()))
            existing.append(Posting(document.doc_id, weighted_tf))
            existing.sort(key=lambda posting: posting.doc_id)
            postings[token] = tuple(existing)
            doc_frequencies[token] = doc_frequencies.get(token, 0) + 1
        if length > 0 and (minimum <= 0 or length < minimum):
            minimum = length
    count = len(merged_documents)
    return IndexSnapshot(
        version=version,
        analyzer=analyzer,
        documents=merged_documents,
        postings=postings,
        doc_lengths=doc_lengths,
        doc_frequencies=doc_frequencies,
        document_count=count,
        average_document_length=(total_length / count) if count else 0.0,
        min_document_length=minimum if count else 0.0,
    )


def _fold_records(snapshot: IndexSnapshot, records, journal_path: Path,
                  ) -> IndexSnapshot:
    """Fold committed journal ``records`` into a loaded base snapshot.

    Materializes the base's mappings into plain dicts first (a columnar
    base loses its lazy column map — journal-bearing targets trade the
    zero-copy load for O(new docs) saves until ``compact`` folds the
    journal back into the base).
    """
    documents = dict(snapshot._documents)
    doc_lengths = dict(snapshot._doc_lengths)
    postings = dict(snapshot._postings)
    doc_frequencies = dict(snapshot._doc_frequencies)
    stats = {
        "index_version": snapshot.version,
        "document_count": snapshot.document_count,
        "average_document_length": snapshot.average_document_length,
        "min_document_length": snapshot.min_document_length,
    }
    for i, record in enumerate(records):
        fold_delta_record(
            record, documents, doc_lengths, postings, doc_frequencies,
            stats, path=journal_path,
            what=f"journal segment {i + 1} for target "
                 f"{record.get('target')!r}")
    return IndexSnapshot(
        version=stats["index_version"],
        analyzer=snapshot.analyzer,
        documents=documents,
        postings=postings,
        doc_lengths=doc_lengths,
        doc_frequencies=doc_frequencies,
        document_count=stats["document_count"],
        average_document_length=stats["average_document_length"],
        min_document_length=stats["min_document_length"],
    )


def _journal_counts(journal_entry: dict | None) -> dict:
    """The manifest journal entry's per-target committed segment counts
    as a ``{target_key: count}`` mapping (``None`` = global)."""
    if not journal_entry:
        return {}
    segments = journal_entry.get("segments", {})
    counts: dict = {}
    if segments.get("global"):
        counts[None] = segments["global"]
    for name, count in segments.get("definitions", {}).items():
        if count:
            counts[name] = count
    return counts


class CollectionStore:
    """Typed persistence façade over one saved-collection directory.

    One instance wraps one directory; every operation — :meth:`save`,
    :meth:`load`, :meth:`load_shard`, :meth:`writer`, :meth:`compact` —
    reads or advances the single generation the directory's manifest
    commits to.  See the module docstring for the live-collection
    model.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    # -- manifest ------------------------------------------------------------

    def manifest(self) -> dict:
        """The directory's parsed, magic/version-checked manifest.

        Raises:
            SnapshotError: when missing, unparseable, not a collection
                manifest, or a format version this build cannot read.
        """
        manifest_path = self.path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise SnapshotError(
                f"cannot read collection manifest "
                f"{str(manifest_path)!r}: {exc}") from exc
        except ValueError as exc:
            raise SnapshotError(
                f"collection manifest {str(manifest_path)!r} is not valid "
                f"JSON ({exc})") from exc
        if manifest.get("magic") != MANIFEST_MAGIC:
            raise SnapshotError(
                f"{str(manifest_path)!r} is not a qunits collection manifest")
        if manifest.get("format_version") not in SUPPORTED_MANIFEST_VERSIONS:
            raise SnapshotError(
                f"collection manifest {str(manifest_path)!r} has format "
                f"version {manifest.get('format_version')!r}; this build "
                f"reads manifest versions {SUPPORTED_MANIFEST_VERSIONS} over "
                f"snapshot format version 3 (a version-1 directory must be "
                f"re-saved from the database, or converted with a checkout "
                f"at cbc7f81 (PR 13), the last build with `repro migrate`)")
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        manifest_path = self.path / MANIFEST_NAME
        tmp_path = manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp_path.write_text(
            json.dumps(manifest, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp_path, manifest_path)

    def _read_journal(self, manifest: dict) -> dict:
        """Committed journal records grouped by target (empty when the
        manifest carries no journal)."""
        journal_entry = manifest.get("journal")
        if not journal_entry:
            return {}
        return read_collection_journal(
            self.path / journal_entry["file"],
            journal_entry["committed_bytes"],
            generation=manifest.get("generation"),
            expected_counts=_journal_counts(journal_entry),
        )

    @staticmethod
    def _effective_generation(manifest: dict) -> str | None:
        generation = manifest.get("generation")
        if generation is None:
            return None
        txns = (manifest.get("journal") or {}).get("txns", 0)
        return f"{generation}+{txns}" if txns else generation

    def generation(self) -> str | None:
        """The directory's current effective generation (``"<hex>"`` or
        ``"<hex>+N"`` when a journal holds N committed appends), or
        ``None`` when the directory has no readable manifest yet.

        This is the cheap probe serving workers poll to decide whether a
        broadcast generation swap actually moved the on-disk state they
        have open (:mod:`repro.serve.workers`): one manifest read, no
        snapshot loads.
        """
        try:
            return self._effective_generation(self.manifest())
        except SnapshotError:
            return None

    # -- save ----------------------------------------------------------------

    def save(self, collection: QunitCollection,
             options: SaveOptions | None = None) -> SaveReport:
        """Persist ``collection`` per ``options`` (see
        :class:`SaveOptions`): a journal append when the directory
        already holds a compatible generation, a full generation rewrite
        otherwise.

        Raises:
            SnapshotError: on unserializable documents, a broken
                existing generation, or ``mode="delta"`` against a
                directory no delta can extend.
        """
        options = options or SaveOptions()
        if options.mode in ("auto", "delta"):
            plan, reason = self._delta_plan(collection, options)
            if plan is not None:
                return self._delta_save(collection, *plan)
            if options.mode == "delta":
                raise SnapshotError(
                    f"cannot delta-save collection to {str(self.path)!r}: "
                    f"{reason}")
        return self._full_save(collection, options.vectors)

    def _delta_plan(self, collection: QunitCollection, options: SaveOptions):
        """Whether (and how) the on-disk generation can be extended by a
        journal transaction instead of rewritten.

        Returns ``((manifest, journal_records, snapshots, new_ids), None)``
        when eligible, else ``(None, reason)``.
        """
        if not (self.path / MANIFEST_NAME).exists():
            return None, "no saved generation at the path"
        try:
            manifest = self.manifest()
        except SnapshotError as exc:
            return None, str(exc)
        generation = manifest.get("generation")
        if not generation:
            return None, "the saved generation predates generation ids"
        snapshots_entry = manifest.get("snapshots", {})
        if manifest.get("docstore") is None or \
                "global" not in snapshots_entry:
            return None, "the saved generation has no shared document store"
        if bool(manifest.get("vectors")) != options.vectors:
            return None, "the vector configuration changed"
        fingerprint = QunitCollection._database_fingerprint(
            collection.database)
        if manifest.get("database") != fingerprint:
            return None, "the database fingerprint changed"
        if manifest.get("analyzer") != collection.analyzer.config():
            return None, "the analyzer configuration changed"
        if manifest.get("max_instances_per_definition") != \
                collection.max_instances:
            return None, "the instance cap changed"
        saved_definitions = {entry.get("name"): entry
                             for entry in manifest.get("definitions", [])}
        ours = {name: collection.definitions[name].to_dict()
                for name in collection.definitions}
        if saved_definitions != ours:
            return None, "the qunit definitions changed"
        try:
            journal_records = self._read_journal(manifest)
        except SnapshotError as exc:
            return None, str(exc)
        # Per-target diff: on-disk documents (base + committed journal)
        # must be a subset of the collection's; the difference is the
        # delta.  A target still lazily pinned with no live index is
        # untouched by definition — skip the diff entirely (this is what
        # keeps a delta save O(new documents + headers)).
        same_store = getattr(collection, "_store_path", None) is not None \
            and Path(collection._store_path).resolve() == self.path.resolve()
        targets: list[tuple[str | None, str]] = \
            [(None, snapshots_entry["global"])]
        targets.extend(sorted(snapshots_entry.get("definitions", {}).items()))
        snapshots: dict = {}
        new_ids: dict = {}
        global_ids: set | None = None
        for key, file_name in targets:
            if same_store and collection._pending_lazy(key):
                continue
            snapshot = collection._index_for(key).snapshot()
            try:
                disk_ids = set(read_snapshot_doc_ids(self.path / file_name))
            except SnapshotError as exc:
                return None, str(exc)
            for record in journal_records.get(key, ()):
                disk_ids.update(doc_record["id"]
                                for doc_record in record["docs"])
            memory_ids = set(snapshot._documents)
            missing = disk_ids - memory_ids
            if missing:
                return None, (
                    f"target {key or 'global'!r} on disk holds documents "
                    f"the collection does not (e.g. "
                    f"{sorted(missing)[0]!r})")
            added = sorted(memory_ids - disk_ids)
            if key is None:
                global_ids = memory_ids
            if added:
                snapshots[key] = snapshot
                new_ids[key] = added
        # The shared-store dedup invariant (every definition document
        # exists in the global snapshot) must keep holding after the
        # append, exactly as a full save enforces it up front.
        for key, added in new_ids.items():
            if key is None:
                continue
            if global_ids is None:
                global_ids = set(
                    read_snapshot_doc_ids(
                        self.path / snapshots_entry["global"]))
                for record in journal_records.get(None, ()):
                    global_ids.update(doc_record["id"]
                                      for doc_record in record["docs"])
            stray = [doc_id for doc_id in added if doc_id not in global_ids]
            if stray:
                raise SnapshotError(
                    f"definition {key!r} indexes documents missing from "
                    f"the global snapshot (e.g. {stray[0]!r}); cannot "
                    f"deduplicate against the shared document store")
        return (manifest, journal_records, snapshots, new_ids), None

    def _delta_save(self, collection: QunitCollection, manifest: dict,
                    journal_records: dict, snapshots: dict,
                    new_ids: dict) -> SaveReport:
        """Append one journal transaction covering ``new_ids`` and swap
        the manifest; O(new documents), no base rewrite, no prune."""
        generation = manifest["generation"]
        journal_entry = manifest.get("journal") or {
            "file": f"journal-{generation}.jrnl",
            "committed_bytes": 0,
            "segments": {"global": 0, "definitions": {}},
            "txns": 0,
        }
        counts = _journal_counts(journal_entry)
        documents_total = self._global_document_count(
            manifest, journal_records)
        if not new_ids:
            collection._store_path = self.path
            collection.generation = self._effective_generation(manifest)
            return SaveReport(
                path=str(self.path),
                generation=collection.generation or generation,
                mode="delta",
                documents=documents_total,
                appended_documents=0,
                files_written=(),
                journal_segments=sum(counts.values()),
            )
        ordered = sorted(new_ids, key=lambda key: (key is not None, key or ""))
        records = []
        for key in ordered:
            snapshot = snapshots[key]
            record = build_delta_record(
                collection.analyzer, snapshot._documents,
                snapshot._doc_lengths, snapshot.document_frequency,
                new_ids[key],
                seq=counts.get(key, 0) + 1,
                index_version=snapshot.version,
                document_count=snapshot.document_count,
                average_document_length=snapshot.average_document_length,
                min_document_length=snapshot.min_document_length,
            )
            record["target"] = key
            records.append(record)
        committed = append_collection_txn(
            self.path / journal_entry["file"], generation,
            journal_entry["committed_bytes"], records)
        segments = {
            "global": counts.get(None, 0) + (1 if None in new_ids else 0),
            "definitions": {
                name: counts.get(name, 0) + (1 if name in new_ids else 0)
                for name in sorted(
                    {key for key in (*counts, *new_ids)
                     if key is not None})
            },
        }
        new_manifest = {
            **manifest,
            "format_version": JOURNAL_MANIFEST_VERSION,
            "journal": {
                "file": journal_entry["file"],
                "committed_bytes": committed,
                "segments": segments,
                "txns": journal_entry.get("txns", 0) + 1,
            },
        }
        self._write_manifest(new_manifest)
        collection._store_path = self.path
        collection.generation = self._effective_generation(new_manifest)
        appended = len(new_ids.get(None, ()))
        return SaveReport(
            path=str(self.path),
            generation=collection.generation,
            mode="delta",
            documents=documents_total + appended,
            appended_documents=appended or max(
                len(ids) for ids in new_ids.values()),
            files_written=(journal_entry["file"], MANIFEST_NAME),
            journal_segments=segments["global"] + sum(
                segments["definitions"].values()),
        )

    def _global_document_count(self, manifest: dict,
                               journal_records: dict) -> int:
        """Documents in the committed global target, from the cheap
        header plus journal doc counts (no postings load)."""
        header = read_snapshot_header(
            self.path / manifest["snapshots"]["global"])
        count = header.get("document_count", 0)
        for record in journal_records.get(None, ()):
            count += len(record["docs"])
        return count

    def _full_save(self, collection: QunitCollection,
                   vectors: bool) -> SaveReport:
        """Write a fresh complete generation and prune the old one —
        the crash-consistent path :meth:`CollectionStore.save` always
        took (see its docstring for the layout)."""
        path = self.path
        path.mkdir(parents=True, exist_ok=True)
        generation = os.urandom(4).hex()
        global_snapshot = collection.global_snapshot()
        vector_index = None
        if vectors:
            from repro.ir.embed import HashingEmbedder
            from repro.ir.vector import VectorIndex

            # One embedding pass over the global corpus; each snapshot
            # file below persists the restriction to its own documents.
            vector_index = VectorIndex.build(HashingEmbedder(),
                                             global_snapshot._documents)
        store_name = f"docs-{generation}.store"
        save_document_store(DocumentStore.from_snapshot(global_snapshot),
                            path / store_name)
        global_name = f"global-{generation}.snap"
        save_snapshot(global_snapshot, path / global_name,
                      docstore=store_name, vectors=vector_index)
        snapshot_names: dict[str, str] = {}
        for name in sorted(collection.definitions):
            file_name = f"def-{name}-{generation}.snap"
            definition_snapshot = collection._index_for(name).snapshot()
            missing = [doc_id for doc_id in definition_snapshot._documents
                       if doc_id not in global_snapshot._documents]
            if missing:
                # Writing refs for these would produce a generation that
                # fails at load time with a dangling-reference error;
                # fail at save time with the real cause instead.
                raise SnapshotError(
                    f"definition {name!r} indexes documents missing from "
                    f"the global snapshot (e.g. {missing[0]!r}); cannot "
                    f"deduplicate against the shared document store"
                )
            # Each definition snapshot carries a term Bloom filter in its
            # header so a loaded collection's plan stage can skip
            # definition retrieval that provably cannot match (the
            # per-definition counterpart of the per-shard filters).
            definition_bloom = TermBloomFilter.build(
                definition_snapshot.terms())
            save_snapshot(definition_snapshot, path / file_name,
                          docstore=store_name,
                          bloom=definition_bloom.to_dict(),
                          vectors=vector_index)
            snapshot_names[name] = file_name
        shard_entry = None
        shard_names: list[str] = []
        if collection.shards >= 2:
            shard_list = shard_snapshot(global_snapshot, collection.shards)
            for i, shard in enumerate(shard_list):
                file_name = f"shard-{i}of{collection.shards}-{generation}.snap"
                bloom = TermBloomFilter.build(shard.terms())
                save_snapshot(shard, path / file_name, docstore=store_name,
                              shard={"index": i, "count": collection.shards},
                              bloom=bloom.to_dict(), vectors=vector_index)
                shard_names.append(file_name)
            shard_entry = {"count": collection.shards, "files": shard_names}
        manifest = {
            "magic": MANIFEST_MAGIC,
            "format_version": MANIFEST_VERSION,
            "generation": generation,
            "analyzer": collection.analyzer.config(),
            "database": QunitCollection._database_fingerprint(
                collection.database),
            "max_instances_per_definition": collection.max_instances,
            "definitions": [collection.definitions[name].to_dict()
                            for name in sorted(collection.definitions)],
            "docstore": store_name,
            "vectors": vectors,
            "snapshots": {"global": global_name,
                          "definitions": snapshot_names},
            "shards": shard_entry,
        }
        self._write_manifest(manifest)
        referenced = {store_name, global_name, *snapshot_names.values(),
                      *shard_names}
        for stale in (*path.glob("*.snap"), *path.glob("*.store"),
                      *path.glob("*.jrnl")):
            if stale.name not in referenced:
                stale.unlink(missing_ok=True)
        collection._store_path = self.path
        collection.generation = generation
        return SaveReport(
            path=str(path),
            generation=generation,
            mode="full",
            documents=global_snapshot.document_count,
            appended_documents=global_snapshot.document_count,
            files_written=(store_name, global_name,
                           *snapshot_names.values(), *shard_names,
                           MANIFEST_NAME),
            journal_segments=0,
        )

    # -- load ----------------------------------------------------------------

    def load(self, database: Database,
             options: LoadOptions | None = None) -> QunitCollection:
        """Restore the directory's collection (see :class:`LoadOptions`).

        With ``lazy`` (the default) only the manifest, the committed
        journal, and each snapshot's header — per-definition Bloom
        filters included — are pinned; a snapshot is mmap'd on first
        query demand and counted in ``collection.lazy_loads``.  With
        ``lazy=False`` every referenced snapshot is read eagerly and a
        load racing a concurrent re-save's prune is retried from the
        fresh manifest; a lazy load can instead surface the race as a
        :class:`~repro.errors.SnapshotError` on first demand.

        Raises:
            SnapshotError: on missing/corrupt manifests, journals, or
                snapshots, format-version mismatches, analyzer
                disagreements, or a database fingerprint mismatch.
        """
        options = options or LoadOptions()
        attempts = 3
        for attempt in range(attempts):
            try:
                return self._load_once(database, options)
            except _SnapshotPruneRace:
                # Lost the race with a concurrent re-save's prune; the
                # fresh manifest references a complete generation.  Any
                # other failure (missing manifest, checksum, version,
                # fingerprint, analyzer mismatch) is final.
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")

    def _load_once(self, database: Database,
                   options: LoadOptions) -> QunitCollection:
        path = self.path
        manifest = self.manifest()
        manifest_path = path / MANIFEST_NAME
        saved_fingerprint = manifest.get("database")
        if saved_fingerprint is not None:
            actual = QunitCollection._database_fingerprint(database)
            if actual != saved_fingerprint:
                raise SnapshotError(
                    f"collection at {str(path)!r} was derived from database "
                    f"{saved_fingerprint.get('name')!r} with row counts "
                    f"{saved_fingerprint.get('row_counts')}, but the given "
                    f"database is {actual['name']!r} with "
                    f"{actual['row_counts']}; snapshot instances would not "
                    f"materialize against it (same scale/seed required)"
                )
        definitions_data = manifest.get("definitions")
        if not isinstance(definitions_data, list):
            raise SnapshotError(
                f"collection manifest {str(manifest_path)!r} has no "
                f"definitions list"
            )
        try:
            definitions = [QunitDefinition.from_dict(data)
                           for data in definitions_data]
        except (KeyError, TypeError) as exc:
            raise SnapshotError(
                f"collection manifest {str(manifest_path)!r} has a "
                f"malformed definition entry ({exc!r})"
            ) from exc
        journal_records = QunitCollection._race_guarded(
            lambda: self._read_journal(manifest))
        journal_path = path / (manifest.get("journal") or {}).get("file", "")
        collection = QunitCollection(
            database,
            definitions,
            max_instances_per_definition=manifest.get(
                "max_instances_per_definition"),
            analyzer=Analyzer.from_config(manifest.get("analyzer", {})),
            shards=options.shards,
            parallelism=options.parallelism,
            strategy=options.strategy,
        )
        collection._store_path = path
        collection.generation = self._effective_generation(manifest)

        # The shared document store loads once, on first need: at load
        # time when eager, on the first snapshot demand when lazy.
        store_name = manifest.get("docstore")
        store_cache: list = []

        def shared_store():
            if not store_cache:
                store = None
                if store_name is not None:
                    store = load_document_store(path / store_name)
                    # Closed with the collection (QunitCollection.close).
                    collection._document_stores.append(store)
                store_cache.append(store)
            return store_cache[0]

        def load_target(key: str | None, file_name: str):
            snapshot, header = load_snapshot_with_header(
                path / file_name, store=shared_store())
            if snapshot.analyzer != collection.analyzer:
                raise SnapshotError(
                    f"snapshot {file_name!r} was built with analyzer "
                    f"{snapshot.analyzer!r}, but the collection manifest "
                    f"says {collection.analyzer!r}; refusing to mix "
                    f"tokenizations"
                )
            records = journal_records.get(key, ())
            if records:
                snapshot = _fold_records(snapshot, records, journal_path)
            # Definition snapshots persist a term Bloom filter in their
            # header; it describes the *base* vocabulary only, so any
            # advance past the header's index_version (journal records
            # folded above) discards it — pruning on a filter that
            # never saw the new terms would drop real answers.
            # definition_bloom rebuilds on demand.
            bloom = None
            bloom_data = header.get("bloom")
            if key is not None and bloom_data and \
                    header.get("index_version") == snapshot.version:
                bloom = TermBloomFilter.from_dict(bloom_data)
            return snapshot, bloom

        snapshots_entry = manifest.get("snapshots", {})
        entries: list[tuple[str | None, str]] = []
        if "global" in snapshots_entry:
            entries.append((None, snapshots_entry["global"]))
        entries.extend(snapshots_entry.get("definitions", {}).items())
        for key, file_name in entries:
            if options.lazy:
                # Pin only the cheap header now: it validates the
                # analyzer up front and carries the Bloom filter the
                # plan stage prunes with — no postings, no documents.
                header = QunitCollection._race_guarded(
                    lambda file_name=file_name: read_snapshot_header(
                        path / file_name))
                header_analyzer = Analyzer.from_config(
                    header.get("analyzer", {}))
                if header_analyzer != collection.analyzer:
                    raise SnapshotError(
                        f"snapshot {file_name!r} was built with analyzer "
                        f"{header_analyzer!r}, but the collection manifest "
                        f"says {collection.analyzer!r}; refusing to mix "
                        f"tokenizations"
                    )
                collection._lazy_loaders[key] = (
                    lambda key=key, file_name=file_name:
                    load_target(key, file_name))
                # The header Bloom filter stands in for the un-loaded
                # snapshot's — but only while nothing has advanced past
                # the base it describes (collection saves always write
                # clean bases, so only journal records can).
                bloom_data = header.get("bloom")
                if key is not None and bloom_data and \
                        not journal_records.get(key):
                    collection._header_blooms[key] = \
                        TermBloomFilter.from_dict(bloom_data)
            else:
                snapshot, bloom = QunitCollection._race_guarded(
                    lambda key=key, file_name=file_name:
                    load_target(key, file_name))
                collection._loaded_snapshots[key] = snapshot
                if bloom is not None:
                    collection._definition_blooms[key] = (
                        snapshot.version, bloom)

        shard_entry = manifest.get("shards")
        if options.shards >= 2 and shard_entry and \
                shard_entry.get("count") == options.shards:
            shard_files = list(shard_entry.get("files", []))
            count = options.shards

            def load_sharded():
                shard_snapshots: list[IndexSnapshot] = []
                blooms: list[TermBloomFilter | None] = []
                global_records = journal_records.get(None, ())
                for i, file_name in enumerate(shard_files):
                    shard_obj, header = load_snapshot_with_header(
                        path / file_name, store=shared_store())
                    records = [
                        filter_delta_record(
                            record,
                            lambda doc_id, i=i: shard_id(doc_id,
                                                         count) == i)
                        for record in global_records
                    ]
                    if records:
                        shard_obj = _fold_records(shard_obj, records,
                                                  journal_path)
                    # Same staleness rule as the definition filters: a
                    # persisted Bloom only describes the base
                    # vocabulary, so a delta-advanced shard discards it
                    # (from_shards rebuilds from the shard vocabulary).
                    bloom_data = header.get("bloom")
                    fresh = header.get("index_version") == shard_obj.version
                    blooms.append(TermBloomFilter.from_dict(bloom_data)
                                  if bloom_data and fresh else None)
                    shard_snapshots.append(shard_obj)
                if len(shard_snapshots) != count:
                    return None
                restored = list(blooms) if all(blooms) else None
                return ShardedTopK.from_shards(
                    shard_snapshots, parallelism=options.parallelism,
                    blooms=restored)

            if options.lazy:
                collection._lazy_shard_loader = load_sharded
            else:
                collection._loaded_sharded = QunitCollection._race_guarded(
                    load_sharded)
        return collection

    # -- shard workers -------------------------------------------------------

    def load_shard(self, shard_index: int,
                   ) -> tuple[IndexSnapshot, TermBloomFilter | None]:
        """Load exactly one persisted shard partition of the flat index.

        The multi-process-server entry point: a worker serving partition
        ``shard_index`` reads the manifest, its own shard snapshot, only
        its partition's documents from the shared store, and the
        committed journal's global records narrowed to its partition —
        O(partition + journal), never O(collection).

        Returns:
            ``(snapshot, bloom)``: the shard's self-contained snapshot
            (collection-wide statistics included, so scoring is
            float-identical to the unsharded path) and its term Bloom
            filter (``None`` when the persisted filter is stale — the
            file predates Bloom persistence, or the journal advanced
            the partition past it).

        Raises:
            SnapshotError: if the directory has no persisted shards, the
                index is out of range, or any file fails verification.
        """
        path = self.path
        manifest = self.manifest()
        shard_entry = manifest.get("shards")
        if not shard_entry or not shard_entry.get("files"):
            raise SnapshotError(
                f"collection at {str(path)!r} has no persisted shard "
                f"snapshots (save with shards >= 2 configured)"
            )
        files = shard_entry["files"]
        if not 0 <= shard_index < len(files):
            raise SnapshotError(
                f"shard index {shard_index} out of range (collection has "
                f"{len(files)} shards)"
            )
        file_name = files[shard_index]
        store = None
        if manifest.get("docstore"):
            # Which documents this partition needs is written in the
            # shard file's own ref records; fetch exactly those from the
            # store via its header offset index.  Journal documents are
            # inline in their records and never in the store.
            wanted = read_snapshot_doc_ids(path / file_name)
            store = load_document_store_partition(
                path / manifest["docstore"], wanted)
        snapshot, header = load_snapshot_with_header(path / file_name,
                                                     store=store)
        journal_records = self._read_journal(manifest)
        count = shard_entry.get("count", len(files))
        records = [
            filter_delta_record(
                record,
                lambda doc_id: shard_id(doc_id, count) == shard_index)
            for record in journal_records.get(None, ())
        ]
        if records:
            journal_path = path / manifest["journal"]["file"]
            snapshot = _fold_records(snapshot, records, journal_path)
        # A persisted Bloom filter describes the base snapshot only;
        # journal records may have added vocabulary it has never seen,
        # so an advanced shard hands back no filter (routing on a stale
        # one could skip real postings).
        bloom_data = header.get("bloom")
        fresh = header.get("index_version") == snapshot.version
        bloom = TermBloomFilter.from_dict(bloom_data) \
            if bloom_data and fresh else None
        return snapshot, bloom

    # -- compaction ----------------------------------------------------------

    def compact(self, vectors: bool | None = None) -> int:
        """Fold the committed journal into clean v3 bases.

        Loads each journaled target (base plus its records), rewrites
        the directory as a fresh journal-free full generation — shared
        document store, per-target snapshots with refreshed Bloom
        filters, re-partitioned shard files when the old generation had
        them — and prunes the old files.  No database is needed: the
        snapshots are self-contained.  Returns the number of journal
        segments folded (0 = no journal; nothing rewritten).

        Args:
            vectors: re-embed the corpus so the new bases carry vector
                extents; defaults to whatever the old generation
                recorded (journal documents never carry vectors, so
                compaction is also what restores hybrid retrieval over
                ingested documents).

        Raises:
            SnapshotError: if any file fails verification.
        """
        manifest = self.manifest()
        journal_entry = manifest.get("journal")
        if not journal_entry:
            return 0
        if vectors is None:
            vectors = bool(manifest.get("vectors"))
        path = self.path
        journal_records = self._read_journal(manifest)
        folded = sum(len(records) for records in journal_records.values())
        journal_path = path / journal_entry["file"]
        store = None
        if manifest.get("docstore"):
            store = load_document_store(path / manifest["docstore"])
        snapshots_entry = manifest.get("snapshots", {})

        def folded_target(key: str | None, file_name: str) -> IndexSnapshot:
            snapshot, _header = load_snapshot_with_header(
                path / file_name, store=store)
            records = journal_records.get(key, ())
            return _fold_records(snapshot, records, journal_path) \
                if records else snapshot

        global_snapshot = folded_target(None, snapshots_entry["global"])
        definition_snapshots = {
            name: folded_target(name, file_name)
            for name, file_name
            in sorted(snapshots_entry.get("definitions", {}).items())
        }
        generation = os.urandom(4).hex()
        vector_index = None
        if vectors:
            from repro.ir.embed import HashingEmbedder
            from repro.ir.vector import VectorIndex

            vector_index = VectorIndex.build(HashingEmbedder(),
                                             global_snapshot._documents)
        store_name = f"docs-{generation}.store"
        save_document_store(DocumentStore.from_snapshot(global_snapshot),
                            path / store_name)
        global_name = f"global-{generation}.snap"
        save_snapshot(global_snapshot, path / global_name,
                      docstore=store_name, vectors=vector_index)
        snapshot_names: dict[str, str] = {}
        for name, snapshot in definition_snapshots.items():
            file_name = f"def-{name}-{generation}.snap"
            bloom = TermBloomFilter.build(snapshot.terms())
            save_snapshot(snapshot, path / file_name, docstore=store_name,
                          bloom=bloom.to_dict(), vectors=vector_index)
            snapshot_names[name] = file_name
        shard_entry = manifest.get("shards")
        new_shard_entry = None
        shard_names: list[str] = []
        if shard_entry and shard_entry.get("count", 0) >= 2:
            count = shard_entry["count"]
            for i, shard in enumerate(shard_snapshot(global_snapshot, count)):
                file_name = f"shard-{i}of{count}-{generation}.snap"
                bloom = TermBloomFilter.build(shard.terms())
                save_snapshot(shard, path / file_name, docstore=store_name,
                              shard={"index": i, "count": count},
                              bloom=bloom.to_dict(), vectors=vector_index)
                shard_names.append(file_name)
            new_shard_entry = {"count": count, "files": shard_names}
        new_manifest = {
            **manifest,
            "format_version": MANIFEST_VERSION,
            "generation": generation,
            "docstore": store_name,
            "vectors": vectors,
            "snapshots": {"global": global_name,
                          "definitions": snapshot_names},
            "shards": new_shard_entry,
        }
        new_manifest.pop("journal", None)
        self._write_manifest(new_manifest)
        referenced = {store_name, global_name, *snapshot_names.values(),
                      *shard_names}
        for stale in (*path.glob("*.snap"), *path.glob("*.store"),
                      *path.glob("*.jrnl")):
            if stale.name not in referenced:
                stale.unlink(missing_ok=True)
        return folded

    # -- online ingestion ----------------------------------------------------

    def writer(self, collection: QunitCollection) -> "CollectionWriter":
        """A :class:`CollectionWriter` staging documents into
        ``collection`` with this store as the durable backing."""
        return CollectionWriter(self, collection)


class CollectionWriter:
    """Online ingestion: stage documents, commit a generation swap.

    The writer decouples the three phases of adding documents to a live
    collection.  :meth:`stage`/:meth:`stage_instance` only record the
    documents (cheap, no index work).  :meth:`commit` then (1) builds
    the next-generation snapshots off the serving path — reads keep
    hitting the current generation throughout, (2) makes the addition
    durable as one journal transaction (O(new documents); a full save
    of the *pre-commit* state first if the directory has none), and
    (3) swaps the collection's in-memory generation atomically under
    the searcher-pool leases: every pooled searcher is retired, so
    in-flight batches finish against the searchers (and Bloom/bound
    caches) they pinned while the next acquire builds fresh against the
    new snapshots; version-stamped Bloom caches and subscribed result
    caches are invalidated in the same step.  :meth:`commit_async` runs
    the same commit on a background thread.

    Commits are serialized per writer (a lock); readers never block.
    """

    def __init__(self, store: CollectionStore, collection: QunitCollection):
        self.store = store
        self.collection = collection
        self._staged: list[tuple[str, Document]] = []
        self._instances: list[QunitInstance] = []
        self._lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Documents staged but not yet committed."""
        with self._lock:
            return len(self._staged)

    def stage(self, definition: str, document: Document) -> None:
        """Stage one document for ``definition`` (validated to exist);
        the document joins both the definition's snapshot and the global
        one at the next :meth:`commit`.

        Raises:
            DerivationError: for unknown definition names.
        """
        self.collection.definition(definition)
        with self._lock:
            self._staged.append((definition, document))

    def stage_instance(self, instance: QunitInstance) -> None:
        """Stage one qunit instance: its decorated document (same
        decoration as derivation-time indexing) is staged for its
        definition, and the instance registers with the collection at
        commit time so answers render without a database round-trip.

        Raises:
            DerivationError: if the instance's definition is unknown.
        """
        name = instance.definition.name
        self.collection.definition(name)
        document = self.collection._decorated_document(instance)
        with self._lock:
            self._staged.append((name, document))
            self._instances.append(instance)

    def commit(self) -> SaveReport:
        """Build, persist, and swap in the next generation (see the
        class docstring); returns the delta :class:`SaveReport`.
        An empty stage commits nothing and reports 0 appended.

        Raises:
            SnapshotError: on duplicate doc_ids, unserializable
                documents, or a broken on-disk generation.  The staged
                documents are consumed only by a successful commit.
        """
        with self._lock:
            staged = list(self._staged)
            instances = list(self._instances)
        collection = self.collection
        if not staged:
            return SaveReport(
                path=str(self.store.path),
                generation=collection.generation or "",
                mode="delta",
                documents=collection.global_snapshot().document_count,
                appended_documents=0)
        # Durability first: a directory with no generation gets a full
        # save of the pre-commit state, so the journal transaction below
        # always has a base to extend.
        if not (self.store.path / MANIFEST_NAME).exists():
            self.store.save(collection, SaveOptions(mode="full"))
        # Phase 1 — build the next generation off the serving path.
        # The old snapshots keep serving every read; nothing below
        # mutates them.
        new_ids = [document.doc_id for _name, document in staged]
        by_definition: dict[str, list[Document]] = {}
        for name, document in staged:
            by_definition.setdefault(name, []).append(document)
        new_snapshots: dict[str | None, IndexSnapshot] = {}
        global_base = collection._index_for(None).snapshot()
        new_snapshots[None] = _advance_snapshot(
            global_base, [document for _name, document in staged],
            collection.analyzer)
        for name, documents in sorted(by_definition.items()):
            base = collection._index_for(name).snapshot()
            new_snapshots[name] = _advance_snapshot(
                base, documents, collection.analyzer)
        # Phase 2 — durable journal transaction + atomic manifest swap.
        manifest = self.store.manifest()
        journal_records = self.store._read_journal(manifest)
        ids_by_target: dict[str | None, list[str]] = {None: new_ids}
        for name, documents in by_definition.items():
            ids_by_target[name] = [document.doc_id
                                   for document in documents]
        report = self.store._delta_save(
            collection, manifest, journal_records,
            dict(new_snapshots), ids_by_target)
        # Phase 3 — swap the in-memory generation under the pool leases.
        collection._swap_generation(new_snapshots, report.generation)
        for instance in instances:
            collection._instance_by_id.setdefault(
                instance.instance_id, instance)
        with self._lock:
            del self._staged[:len(staged)]
            del self._instances[:len(instances)]
        return report

    def commit_async(self):
        """Run :meth:`commit` on a background thread; returns a
        :class:`concurrent.futures.Future` resolving to its
        :class:`SaveReport` (or raising its error).  Reads keep serving
        the old generation until the commit's swap lands."""
        from concurrent.futures import Future

        future: Future = Future()

        def run():
            try:
                future.set_result(self.commit())
            except BaseException as exc:  # surface, never swallow
                future.set_exception(exc)

        thread = threading.Thread(target=run, name="collection-writer",
                                  daemon=True)
        thread.start()
        return future
