"""QunitCollection: the database modeled as a flat document collection.

"Once qunits have been defined, we will model the database as a flat
collection of independent qunits... each qunit is treated as an independent
entity" (Sec. 2).  The collection owns the definitions, materializes
instances lazily (with caching), and builds the IR indexes the search
engine queries: one index over all instances, plus per-definition indexes
for two-stage retrieval.

Searchers handed out by :meth:`QunitCollection.searcher` and
:meth:`QunitCollection.definition_searcher` live in a bounded
:class:`~repro.serve.pool.SearcherPool` keyed per (definition,
scorer-parameters) pair, so their top-k fast-path machinery — index
snapshots, per-term score bounds, and LRU result caches (see
:mod:`repro.ir.retrieval`) — is shared across every query the serving
pipeline runs, including batches submitted through
:meth:`QunitCollection.search_many`.  Each definition index additionally
exposes a term Bloom filter (:meth:`QunitCollection.definition_bloom`,
persisted in definition snapshot headers) that the pipeline's plan stage
uses to skip definition retrieval that provably cannot match.

Derivation is the expensive half of the paradigm;
:meth:`repro.core.store.CollectionStore.save` persists its output — the
qunit definitions plus every index snapshot — to a directory, and
:meth:`repro.core.store.CollectionStore.load` brings a
collection back whose searchers serve straight from the loaded snapshots:
no re-derivation, no index rebuild on the query path, and an answer
materializes only its own instance from the database
(:meth:`QunitCollection.instance`).  ``shards``/
``parallelism`` turn on sharded parallel scoring for the flat
(collection-wide) searcher — see :mod:`repro.ir.shard`.

A saved generation uses the deduplicated layout (see
:mod:`repro.ir.persist` and ``docs/PERSISTENCE.md``): one shared document
store holds every decorated instance document once, and the global,
per-definition, and (when sharding is configured) per-shard snapshot
files reference it by doc_id.  Loading shares the store's
:class:`~repro.ir.documents.Document` objects across every snapshot, so a
loaded generation pins at most one copy of the documents — and only of
the ones queries have touched, since the store decodes on demand.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path

from repro.core.qunit import QunitDefinition, QunitInstance
from repro.errors import DerivationError, SnapshotError
from repro.ir.analysis import Analyzer
from repro.ir.index import IndexSnapshot, InvertedIndex
from repro.ir.retrieval import Searcher, SearchHit
from repro.ir.scoring import Scorer
from repro.ir.shard import ShardedTopK, TermBloomFilter
from repro.relational.database import Database
from repro.serve.pool import SearcherPool
from repro.utils.text import normalize

__all__ = ["QunitCollection"]

MANIFEST_MAGIC = "qunits-collection"
#: Format written by a journal-free full save; version 3 marks a
#: manifest whose generation carries a collection-level delta journal
#: (see :mod:`repro.core.store` and ``docs/PERSISTENCE.md``).
MANIFEST_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (2, 3)
MANIFEST_NAME = "collection.json"


class _SnapshotPruneRace(SnapshotError):
    """A referenced snapshot file vanished between the manifest read and
    the file read — the signature of racing a concurrent re-save's prune.
    Private: :meth:`~repro.core.store.CollectionStore.load` retries on exactly this."""


class QunitCollection:
    """Definitions + lazily materialized instances + IR indexes."""

    def __init__(self, database: Database,
                 definitions: Iterable[QunitDefinition],
                 max_instances_per_definition: int | None = None,
                 analyzer: Analyzer | None = None,
                 shards: int = 0, parallelism: str = "serial",
                 strategy: str = "auto"):
        self.database = database
        self.definitions: dict[str, QunitDefinition] = {}
        for definition in definitions:
            if definition.name in self.definitions:
                raise DerivationError(
                    f"duplicate qunit definition {definition.name!r}"
                )
            self.definitions[definition.name] = definition
        self.max_instances = max_instances_per_definition
        self.analyzer = analyzer or Analyzer()
        self.shards = shards
        self.parallelism = parallelism
        self.strategy = strategy
        self._instances: dict[str, list[QunitInstance]] = {}
        self._instance_by_id: dict[str, QunitInstance] = {}
        # Per-definition instance_id -> bindings tables, so a retrieval
        # hit materializes its own binding instead of the definition.
        self._binding_tables: dict[str, dict[str, list[dict]]] = {}
        # On-demand materializations keyed by (definition, binding), so
        # repeat fully-bound queries skip re-running the definition's
        # SQL — the hot path of entity-heavy (Zipf-head) traffic.
        # Bounded LRU: diverse bindings in a long-running server would
        # otherwise grow it monotonically.
        # Serving threads share it, so every touch of its order (get +
        # move_to_end, insert + evict) holds the lock; the SQL does not.
        self._materialized: "OrderedDict[tuple, QunitInstance]" = \
            OrderedDict()
        self._materialized_lock = threading.Lock()
        # Document stores opened by CollectionStore.load (one per loaded
        # generation); close() releases the descriptors they read through.
        self._document_stores: list = []
        self._global_index: InvertedIndex | None = None
        self._definition_indexes: dict[str, InvertedIndex] = {}
        # Snapshots restored from disk, keyed like searchers (None = the
        # global index).  An eager load fills this at load time (the
        # whole generation pinned — immune to a concurrent re-save's
        # prune); a lazy load instead registers a loader per key in
        # _lazy_loaders and fills this on first demand.  Every snapshot
        # shares the generation's document-store objects, so "the whole
        # generation" is one copy of the documents.
        self._loaded_snapshots: dict[str | None, IndexSnapshot] = {}
        # Pending lazy loads (key -> zero-arg loader returning
        # (snapshot, bloom|None)), installed by a lazy
        # CollectionStore.load and consumed by _ensure_loaded on the
        # first query-path demand for the key's index.
        self._lazy_loaders: dict[str | None, object] = {}
        # Per-definition Bloom filters lifted from snapshot *headers* at
        # lazy-load time: they let the plan stage prune a definition
        # without loading its snapshot.  Dropped the moment the real
        # snapshot loads (its version-stamped filter takes over).
        self._header_blooms: dict[str, TermBloomFilter] = {}
        #: Snapshot files mmap'd on first demand since load (the lazy
        #: cold-start metric ``--explain`` surfaces per query).
        self.lazy_loads = 0
        #: The on-disk generation this collection was loaded from or
        #: last saved as (``"<hex>"``, or ``"<hex>+N"`` after N journal
        #: transactions); ``None`` for a never-persisted collection.
        self.generation: str | None = None
        # Where that generation lives, when known — lets a delta save to
        # the same directory skip diffing targets that are still lazily
        # pending (disk and memory are the same bytes by construction).
        self._store_path: Path | None = None
        # A ShardedTopK restored from persisted per-shard snapshot files
        # (with their Bloom filters); handed to the flat searcher so it
        # skips the in-memory re-partition.  Lazily loaded on the first
        # flat-searcher build when _lazy_shard_loader is set.
        self._loaded_sharded: ShardedTopK | None = None
        self._lazy_shard_loader = None
        # Sharded executors parked by a generation swap: flat searchers
        # pinned by in-flight batches may still score through them, so
        # they close with the collection, not at swap time.
        self._retired_sharded: list[ShardedTopK] = []
        # Callbacks fired after a generation swap (see
        # subscribe_invalidation) and the lock one swap holds end to end.
        self._invalidation_hooks: list = []
        self._swap_lock = threading.Lock()
        # Searchers are pooled so their LRU result caches and index
        # snapshots survive across queries (one searcher per
        # (definition, scorer-parameters) pair; None = the global index).
        # Bounded: identity-keyed scorers (see Scorer.cache_key) would
        # otherwise grow this without limit in long-running processes.
        self.searcher_pool = SearcherPool(self.MAX_CACHED_SEARCHERS)
        # Per-definition term Bloom filters for two-stage retrieval:
        # version-stamped (index version, filter) pairs, restored from
        # definition snapshot headers at load time or built lazily from
        # an already-materialized index (see :meth:`definition_bloom`).
        self._definition_blooms: dict[str, tuple[int, TermBloomFilter]] = {}

    # -- definitions ------------------------------------------------------------

    def definition(self, name: str) -> QunitDefinition:
        """Look up one qunit definition by name.

        Raises:
            DerivationError: for unknown names (listing the known ones).
        """
        try:
            return self.definitions[name]
        except KeyError:
            raise DerivationError(
                f"unknown qunit definition {name!r} "
                f"(known: {sorted(self.definitions)})"
            ) from None

    def __len__(self) -> int:
        return len(self.definitions)

    def __contains__(self, name: str) -> bool:
        return name in self.definitions

    # -- instances ----------------------------------------------------------------

    def instances_of(self, name: str) -> list[QunitInstance]:
        """All (bounded) instances of one definition, cached."""
        if name not in self._instances:
            definition = self.definition(name)
            instances = [
                instance
                for instance in definition.instances(self.database, self.max_instances)
                if not instance.is_empty
            ]
            self._instances[name] = instances
            for instance in instances:
                self._instance_by_id[instance.instance_id] = instance
        return self._instances[name]

    def all_instances(self) -> list[QunitInstance]:
        """Every (bounded) instance of every definition, name-sorted."""
        result: list[QunitInstance] = []
        for name in sorted(self.definitions):
            result.extend(self.instances_of(name))
        return result

    def instance(self, instance_id: str) -> QunitInstance:
        """Look up an instance by id, materializing only that instance.

        The id's bindings among its definition's (bounded) bindings are
        materialized one by one and the last non-empty one wins — the
        instance :meth:`instances_of` registers for that id, so the
        answer is identical, but a retrieval hit costs its own bindings'
        SQL instead of its whole definition's.  The result is cached by
        id (not in the :meth:`materialize` memo, whose LRU slots belong
        to fully-bound requests).  An id with no non-empty binding is
        looked up among ingested documents (:meth:`_restore_instance`).

        Raises:
            DerivationError: for ids none of those paths can resolve.
        """
        cached = self._instance_by_id.get(instance_id)
        if cached is not None:
            return cached
        name = instance_id.split("::", 1)[0]
        if name in self.definitions:
            definition = self.definitions[name]
            found = None
            for binding in self._bindings_by_id(name).get(instance_id, ()):
                instance = definition.materialize(self.database, binding)
                if not instance.is_empty:
                    found = instance
            if found is not None:
                self._instance_by_id[instance_id] = found
                return found
        restored = self._restore_instance(instance_id)
        if restored is not None:
            return restored
        raise DerivationError(f"unknown qunit instance {instance_id!r}")

    def _bindings_by_id(self, name: str) -> dict[str, list[dict]]:
        """``instance_id -> [binding, ...]`` over one definition's bounded
        bindings (:meth:`QunitDefinition.bindings` — the enumeration
        :meth:`instances_of` materializes), built once and cached.
        Enumerating bindings runs no base-expression SQL."""
        table = self._binding_tables.get(name)
        if table is None:
            definition = self.definitions[name]
            table = {}
            for binding in definition.bindings(self.database,
                                               self.max_instances):
                instance_id = QunitInstance(definition, binding,
                                            []).instance_id
                table.setdefault(instance_id, []).append(binding)
            self._binding_tables[name] = table
        return table

    def _restore_instance(self, instance_id: str) -> QunitInstance | None:
        """Rebuild an ingested instance from its persisted document.

        An instance staged through ``CollectionWriter.stage_instance``
        in an *earlier process* is in the loaded snapshots and the
        document store, but no binding of its definition derives it from
        the database (:meth:`instance` tries those first).  Its document
        metadata carries the definition name and params, and its body
        field is the instance's rendered text, so the answer renders
        without the database ever knowing the instance.  Only
        already-loaded snapshots are consulted — this lookup follows a
        retrieval hit, so the hit's snapshot is loaded; nothing is
        force-loaded here, and the store decodes only this document.
        """
        candidates = [snapshot
                      for snapshot in self._loaded_snapshots.values()
                      if snapshot is not None]
        if self._loaded_sharded is not None:
            candidates.extend(self._loaded_sharded.shards)
        for snapshot in candidates:
            if instance_id not in snapshot:
                continue
            document = snapshot.document(instance_id)
            metadata = dict(document.metadata)
            name = metadata.get("definition")
            if name not in self.definitions:
                return None
            params = dict(metadata.get("params", ()))
            instance = QunitInstance(self.definitions[name], params, [])
            try:
                instance._text = document.field("body")
            except KeyError:
                pass  # no body persisted; text renders from the params
            self._instance_by_id[instance_id] = instance
            return instance
        return None

    MAX_MATERIALIZE_MEMO = 4096

    def materialize(self, name: str, params: dict[str, object]) -> QunitInstance:
        """Materialize one specific binding on demand (and cache it).

        Materializations are memoized on the (definition, binding) pair
        — the database is frozen while serving, so a repeat binding
        (the common case under Zipf-head traffic) returns the cached
        instance instead of re-running the definition's SQL.  The memo
        is a bounded LRU (:attr:`MAX_MATERIALIZE_MEMO` entries); bindings
        with unhashable values simply bypass it.
        """
        try:
            key = (name, tuple(sorted(params.items())))
            with self._materialized_lock:
                cached = self._materialized.get(key)
                if cached is not None:
                    self._materialized.move_to_end(key)
        except TypeError:
            key, cached = None, None
        if cached is not None:
            return cached
        instance = self.definition(name).materialize(self.database, params)
        if not instance.is_empty:
            # Empty instances are never answers (instances_of drops
            # them too), so instance() must not find them by id.
            self._instance_by_id.setdefault(instance.instance_id, instance)
        if key is not None:
            with self._materialized_lock:
                self._materialized[key] = instance
                while len(self._materialized) > self.MAX_MATERIALIZE_MEMO:
                    self._materialized.popitem(last=False)
        return instance

    # -- indexes ----------------------------------------------------------------------

    def global_index(self) -> InvertedIndex:
        """One index over every instance of every definition."""
        if self._global_index is None:
            index = InvertedIndex(self.analyzer)
            for instance in self.all_instances():
                index.add(self._decorated_document(instance))
            self._global_index = index
        return self._global_index

    def definition_index(self, name: str) -> InvertedIndex:
        """An index over the instances of a single definition."""
        if name not in self._definition_indexes:
            index = InvertedIndex(self.analyzer)
            for instance in self.instances_of(name):
                index.add(self._decorated_document(instance))
            self._definition_indexes[name] = index
        return self._definition_indexes[name]

    def _index_for(self, name: str | None) -> InvertedIndex | IndexSnapshot:
        """The index (or loaded snapshot) behind one searcher.

        A live index built this process wins; otherwise a snapshot
        restored from disk serves directly — loading it *now* if the
        collection was lazily loaded (explicit ``None`` checks: a
        legitimately *empty* snapshot is falsy); otherwise the index is
        built from materialized instances as usual.  This is the demand
        point lazy loads wait for: the plan stage only ever *peeks*, so
        a definition skipped by its Bloom filter never loads.
        """
        if name is None:
            if self._global_index is not None:
                return self._global_index
            self._ensure_loaded(None)
            snapshot = self._loaded_snapshots.get(None)
            return snapshot if snapshot is not None else self.global_index()
        if name in self._definition_indexes:
            return self._definition_indexes[name]
        self.definition(name)  # unknown names fail loudly, even when loaded
        self._ensure_loaded(name)
        snapshot = self._loaded_snapshots.get(name)
        return snapshot if snapshot is not None else self.definition_index(name)

    def _ensure_loaded(self, name: str | None) -> None:
        """Run (and consume) the pending lazy loader for one key, if any.

        Installs the loaded snapshot exactly where an eager load would
        have put it, promotes the loader's Bloom filter to the
        version-stamped cache, and counts the load in
        :attr:`lazy_loads`.  A load failure (e.g. the generation was
        pruned by a concurrent full re-save — the documented lazy
        trade-off) surfaces as :class:`~repro.errors.SnapshotError` and
        leaves the loader consumed: retrying would hit the same file.
        """
        loader = self._lazy_loaders.pop(name, None)
        if loader is None:
            return
        self._header_blooms.pop(name, None)
        snapshot, bloom = loader()
        self._loaded_snapshots[name] = snapshot
        if name is not None and bloom is not None:
            self._definition_blooms[name] = (snapshot.version, bloom)
        self.lazy_loads += 1

    def _pending_lazy(self, name: str | None) -> bool:
        """Whether ``name``'s snapshot is still an unconsumed lazy load
        with no live index shadowing it — i.e. its in-memory state *is*
        its on-disk state (what lets a delta save skip diffing it)."""
        if name not in self._lazy_loaders:
            return False
        if name is None:
            return self._global_index is None
        return name not in self._definition_indexes

    def global_snapshot(self) -> IndexSnapshot:
        """The frozen snapshot of the flat collection-wide index — loaded
        from disk when the collection was restored, built (and cached)
        otherwise.  The public handle for statistics and direct IR use."""
        return self._index_for(None).snapshot()

    def peek_definition_snapshot(self, name: str) -> IndexSnapshot | None:
        """One definition's snapshot *if it already exists* (index built
        this process or restored by :meth:`load`); ``None`` otherwise —
        never triggers materialization or an index build.
        :meth:`definition_bloom` builds its filter from this, so the
        plan stage can prune without forcing an index into existence.

        Raises:
            DerivationError: for unknown definition names.
        """
        self.definition(name)  # unknown names fail loudly
        index = self._definition_indexes.get(name)
        if index is not None:
            return index.snapshot()
        return self._loaded_snapshots.get(name)

    @staticmethod
    def _database_fingerprint(database: Database) -> dict:
        """Cheap identity of a database: name + per-table row counts.
        Saved into the manifest and checked at load time, because snapshot
        doc_ids only materialize against the database they were derived
        from — a different database (other scale/seed) would crash on
        unknown instances or silently render mismatched content."""
        return {
            "name": database.name,
            "row_counts": {table.name: database.row_count(table.name)
                           for table in database.schema.tables},
        }

    def searcher(self, scorer: Scorer | None = None) -> Searcher:
        """The cached flat (collection-wide) searcher for ``scorer``."""
        return self._cached_searcher(None, scorer)

    def definition_searcher(self, name: str, scorer: Scorer | None = None) -> Searcher:
        """The cached searcher over one definition's instance documents."""
        return self._cached_searcher(name, scorer)

    MAX_CACHED_SEARCHERS = 64

    def _searcher_entry(self, name: str | None, scorer: Scorer | None):
        """The pool key and factory for one (target, scorer) searcher."""
        key = (name, scorer.cache_key() if scorer is not None else None)

        def build() -> Searcher:
            # Sharded parallel scoring applies to the flat collection-wide
            # searcher, where postings are large enough to repay the
            # partition; per-definition indexes stay serial.  Shards
            # restored from persisted per-shard files are shared across
            # every flat searcher (one partition, one executor) — a lazy
            # load defers reading them to this first flat build.
            shards = self.shards if name is None else 0
            if name is None and self._loaded_sharded is None \
                    and self._lazy_shard_loader is not None:
                loader = self._lazy_shard_loader
                self._lazy_shard_loader = None
                self._loaded_sharded = loader()
                if self._loaded_sharded is not None:
                    self.lazy_loads += self.shards
            sharded = self._loaded_sharded if name is None else None
            return Searcher(self._index_for(name), scorer,
                            shards=shards, parallelism=self.parallelism,
                            sharded=sharded, strategy=self.strategy)

        return key, build

    def _cached_searcher(self, name: str | None, scorer: Scorer | None) -> Searcher:
        key, build = self._searcher_entry(name, scorer)
        return self.searcher_pool.get(key, build)

    def acquire_searcher(self, name: str | None,
                         scorer: Scorer | None = None) -> Searcher:
        """The pooled searcher for ``name`` (``None`` = flat), *pinned*:
        pool overflow or :meth:`close` cannot close it until the matching
        :meth:`release_searcher`.  The query pipeline's execute stage
        pins every searcher it dispatches to for the length of a batch,
        and the serving front end pins the flat searcher for the length
        of the server's life (see :class:`~repro.serve.pool.
        SearcherPool`)."""
        key, build = self._searcher_entry(name, scorer)
        return self.searcher_pool.acquire(key, build)

    def release_searcher(self, searcher: Searcher) -> None:
        """Return one :meth:`acquire_searcher` lease; a searcher evicted
        while pinned closes here, on its last release."""
        self.searcher_pool.release(searcher)

    def definition_bloom(self, name: str) -> TermBloomFilter | None:
        """The term Bloom filter over one definition index's vocabulary.

        The query pipeline's plan stage uses it to skip a definition's
        retrieval task when *no* query term has postings in that
        definition's index — rank-identical to running the search
        (Bloom filters have no false negatives, so a skip only ever
        replaces an empty result).

        The filter comes from the definition snapshot's persisted
        header (restored by :meth:`load`) or is built lazily from an
        already-materialized index or snapshot; ``None`` means building
        one would first require materializing the definition's
        instances — pruning exists to save work, not cause it.  Filters
        are stamped with the index version they were built from, so an
        ``add`` after the fact can never leave a stale filter skipping
        real postings.

        Raises:
            DerivationError: for unknown definition names.
        """
        snapshot = self.peek_definition_snapshot(name)
        if snapshot is None:
            # A lazily-pending definition serves the filter lifted from
            # its snapshot *header* at load time: the plan stage can
            # prune (or not) without the snapshot ever loading.  None
            # when the header carried no (fresh) filter — no pruning,
            # no load.
            return self._header_blooms.get(name)
        cached = self._definition_blooms.get(name)
        if cached is not None and cached[0] == snapshot.version:
            return cached[1]
        bloom = TermBloomFilter.build(snapshot.terms())
        self._definition_blooms[name] = (snapshot.version, bloom)
        return bloom

    def subscribe_invalidation(self, hook) -> None:
        """Register a zero-argument callback fired after every
        generation swap (see :meth:`_swap_generation`).  The serving
        pipeline subscribes its result-cache clear here, so answers
        computed against a pre-swap generation stop being served the
        moment the swap lands."""
        self._invalidation_hooks.append(hook)

    def _swap_generation(self, snapshots: dict[str | None, IndexSnapshot],
                         generation: str | None) -> None:
        """Atomically switch serving onto next-generation ``snapshots``.

        The commit point of a :class:`~repro.core.store.CollectionWriter`
        commit (and the in-memory mirror of its on-disk manifest swap).
        Under the swap lock: every pooled searcher is invalidated — ones
        pinned by in-flight batches retire and keep serving the *old*
        snapshots, bounds, and caches until their last release; the next
        acquire builds against the new generation — the restored sharded
        executor is parked (closed with the collection, since retired
        searchers may still score through it), and per-key state
        (pending lazy loaders, header/version-stamped Bloom filters,
        shadowing live indexes) is dropped so every lookup resolves to
        the new snapshots.  Subscribed invalidation hooks fire last,
        inside the lock.
        """
        with self._swap_lock:
            self.searcher_pool.invalidate()
            if self._loaded_sharded is not None:
                self._retired_sharded.append(self._loaded_sharded)
                self._loaded_sharded = None
            self._lazy_shard_loader = None
            for key, snapshot in snapshots.items():
                self._lazy_loaders.pop(key, None)
                self._loaded_snapshots[key] = snapshot
                if key is None:
                    self._global_index = None
                else:
                    self._header_blooms.pop(key, None)
                    self._definition_indexes.pop(key, None)
                    self._definition_blooms.pop(key, None)
            self.generation = generation
            for hook in list(self._invalidation_hooks):
                hook()

    def close(self) -> None:
        """Release shard executors held by pooled searchers (idempotent),
        including executors parked by generation swaps, and the
        descriptors of loaded document stores (documents not yet decoded
        are unreadable afterwards)."""
        self.searcher_pool.close()
        if self._loaded_sharded is not None:
            self._loaded_sharded.close()
        for sharded in self._retired_sharded:
            sharded.close()
        del self._retired_sharded[:]
        for store in self._document_stores:
            store.close()
        del self._document_stores[:]

    def search_many(self, queries: Iterable[str], limit: int = 10,
                    scorer: Scorer | None = None) -> list[list[SearchHit]]:
        """Batched flat IR retrieval over every instance of every
        definition — the collection really is "a flat collection of
        independent qunits" to callers of this API.  One searcher (and
        hence one index snapshot and result cache) serves the whole batch.
        """
        return self.searcher(scorer).search_many(queries, limit)

    # -- persistence ------------------------------------------------------------

    # Persistence lives entirely in :class:`repro.core.store.
    # CollectionStore`.  The old ``save``/``load``/``load_shard``
    # wrappers that used to forward there (with deprecation warnings)
    # have been removed; call the store directly — note its load default
    # is the *lazy* pin, so pass ``LoadOptions(lazy=False)`` where the
    # old eager-load contract matters.

    @staticmethod
    def _race_guarded(read):
        """Run one snapshot-file read, translating a vanished-file error
        into :class:`_SnapshotPruneRace` so the store's load retries from
        a fresh manifest instead of failing on a concurrent re-save."""
        try:
            return read()
        except SnapshotError as exc:
            if isinstance(exc.__cause__, OSError):
                raise _SnapshotPruneRace(str(exc)) from exc.__cause__
            raise

    def _decorated_document(self, instance: QunitInstance):
        """Instance document with definition keywords folded into the title,
        so "cast" queries hit cast qunits even when no tuple says "cast"."""
        document = instance.as_document()
        keywords = " ".join(instance.definition.keywords)
        if not keywords:
            return document
        fields = dict(document.fields)
        fields["title"] = f"{fields['title']} {normalize(keywords)}"
        from repro.ir.documents import Document

        return Document.create(
            doc_id=document.doc_id,
            fields=fields,
            field_weights=dict(document.field_weights),
            metadata=dict(document.metadata),
        )

    # -- validation -----------------------------------------------------------------------

    def validate(self) -> list[str]:
        """Static checks on every definition; returns problem descriptions.

        Intended for users authoring their own qunit sets: catches binder
        columns missing from the schema, binders over non-searchable
        columns (instances would be unreachable by entity queries),
        unparseable conversion templates, and templates referencing fields
        the base expression cannot produce.
        """
        from repro.core.presentation import ConversionTemplate
        from repro.errors import ReproError

        problems: list[str] = []
        for name, definition in sorted(self.definitions.items()):
            for binder in definition.binders:
                try:
                    column = self.database.schema.table(binder.table).column(
                        binder.column)
                except ReproError as exc:
                    problems.append(f"{name}: binder {exc}")
                    continue
                from repro.relational.schema import ColumnType

                numeric = column.type in (ColumnType.INTEGER, ColumnType.FLOAT)
                if not column.searchable and not numeric:
                    # Text binders must be searchable for entity queries to
                    # bind them; numeric binders (years) bind through the
                    # segmenter's literal-number recognition instead.
                    problems.append(
                        f"{name}: binder {binder.qualified} is not a "
                        f"searchable column; entity queries cannot bind it"
                    )
            if definition.conversion is not None:
                try:
                    template = ConversionTemplate(definition.conversion)
                except ReproError as exc:
                    problems.append(f"{name}: conversion template: {exc}")
                    continue
                footprint = set(definition.tables())
                binder_params = {binder.param for binder in definition.binders}
                for variable in template.variables():
                    if "." in variable:
                        table = variable.split(".")[0]
                        if table not in footprint:
                            problems.append(
                                f"{name}: template references ${variable} "
                                f"but {table!r} is not in the base expression"
                            )
                    elif variable not in binder_params:
                        problems.append(
                            f"{name}: template references unbound "
                            f"parameter ${variable}"
                        )
            if not definition.keywords and definition.binders:
                problems.append(
                    f"{name}: no keywords; attribute queries can never "
                    f"commit to this definition"
                )
        return problems

    # -- priors ---------------------------------------------------------------------------

    def popularity_priors(self, table: str = "movie", column: str = "votes",
                          ) -> dict[str, float]:
        """Static per-instance priors from an entity-popularity column.

        For every materialized instance, the prior is ``1 + log10(1 + v)``
        where ``v`` is the largest value of ``table.column`` among the
        instance's tuples (1.0 when the instance never touches it).  Feed
        the result to :class:`~repro.ir.scoring.PriorWeightedScorer` to get
        popularity-aware ranking — the ObjectRank idea recast as a document
        prior inside the qunit paradigm.
        """
        import math

        self.database.schema.table(table).column(column)
        qualified = f"{table}.{column}"
        priors: dict[str, float] = {}
        for instance in self.all_instances():
            best = 0.0
            for row in instance.rows:
                value = row.get(qualified)
                if isinstance(value, (int, float)) and value > best:
                    best = float(value)
            priors[instance.instance_id] = 1.0 + math.log10(1.0 + best)
        return priors

    # -- statistics -----------------------------------------------------------------------

    def instance_count(self) -> int:
        """Total materialized (non-empty, bounded) instances."""
        return sum(len(self.instances_of(name)) for name in self.definitions)

    def describe(self) -> list[tuple[str, str, int]]:
        """(name, source, instance count) per definition, name-sorted."""
        return [
            (name, self.definitions[name].source, len(self.instances_of(name)))
            for name in sorted(self.definitions)
        ]
