"""Tests for the typed collection store: delta journal, lazy loads,
online ingestion (``repro.core.store``)."""

import json

import pytest

from repro.core.collection import QunitCollection
from repro.core.store import (
    CollectionStore,
    LoadOptions,
    SaveOptions,
)
from repro.errors import SnapshotError
from repro.ir.documents import Document

from test_core_collection import definitions

QUERIES = ("star wars", "person", "movie summary", "george lucas", "zzz")


def ranked(collection, query, limit=5):
    return [(hit.doc_id, hit.score)
            for hit in collection.searcher().search(query, limit=limit)]


def ingest_doc(i: int) -> Document:
    return Document.create(
        f"ingest:doc:{i}",
        {"body": f"freshly ingested movie special {i} star"})


@pytest.fixture()
def collection(mini_db):
    return QunitCollection(mini_db, definitions())


@pytest.fixture()
def store(tmp_path):
    return CollectionStore(tmp_path / "snap")


class TestTypedOptions:
    def test_save_options_validate(self):
        assert SaveOptions().mode == "auto"
        with pytest.raises(ValueError):
            SaveOptions(mode="incremental")
        with pytest.raises(ValueError):
            SaveOptions(vectors="yes")

    def test_load_options_validate(self):
        assert LoadOptions().lazy is True
        with pytest.raises(ValueError):
            LoadOptions(parallelism="thread")
        with pytest.raises(ValueError):
            LoadOptions(strategy="psychic")
        with pytest.raises(ValueError):
            LoadOptions(shards=-1)

    def test_round_trip_elides_defaults(self):
        assert SaveOptions().to_dict() == {}
        assert LoadOptions().to_dict() == {}
        save = SaveOptions(vectors=False, mode="delta")
        assert SaveOptions.from_dict(save.to_dict()) == save
        load = LoadOptions(shards=2, parallelism="process", lazy=False)
        assert LoadOptions.from_dict(load.to_dict()) == load

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SaveOptions.from_dict({"modes": "auto"})
        with pytest.raises(ValueError, match="unknown"):
            LoadOptions.from_dict({"lazily": True})

    def test_old_collection_api_removed(self):
        # The deprecated QunitCollection.save/load/load_shard wrappers
        # are gone; persistence goes through CollectionStore only.
        assert not hasattr(QunitCollection, "save")
        assert not hasattr(QunitCollection, "load")
        assert not hasattr(QunitCollection, "load_shard")


class TestDeltaSave:
    def test_auto_resave_is_a_delta_noop(self, collection, store):
        first = store.save(collection)
        assert first.mode == "full"
        again = store.save(collection)
        assert again.mode == "delta"
        assert again.appended_documents == 0
        assert again.files_written == ()

    def test_grown_collection_appends_a_delta(self, mini_db, collection,
                                              store, tmp_path):
        # Divergence without a writer on *this* directory: snapshot the
        # saved state aside, grow the collection through a writer
        # elsewhere, then auto-save against the stale copy — save()
        # must diff out exactly the new documents and append them.
        import shutil

        store.save(collection, SaveOptions(vectors=False))
        stale = tmp_path / "stale"
        shutil.copytree(store.path, stale)
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(1))
        writer.stage("movie_page", ingest_doc(2))
        writer.commit()

        stale_store = CollectionStore(stale)
        report = stale_store.save(collection, SaveOptions(vectors=False))
        assert report.mode == "delta"
        assert report.appended_documents == 2
        assert report.generation.endswith("+1")
        manifest = stale_store.manifest()
        assert manifest["format_version"] == 3
        assert (stale / manifest["journal"]["file"]).exists()

    def test_delta_load_rank_identical(self, mini_db, collection, store):
        store.save(collection, SaveOptions(vectors=False))
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(1))
        writer.commit()
        for lazy in (False, True):
            loaded = store.load(mini_db, LoadOptions(lazy=lazy))
            for query in (*QUERIES, "ingested"):
                assert ranked(loaded, query) == ranked(collection, query)

    def test_full_mode_forces_a_rewrite(self, collection, store):
        store.save(collection, SaveOptions(vectors=False))
        report = store.save(collection,
                            SaveOptions(vectors=False, mode="full"))
        assert report.mode == "full"
        assert not report.generation.endswith("+1")

    def test_delta_mode_raises_when_ineligible(self, collection, store):
        with pytest.raises(SnapshotError, match="delta"):
            store.save(collection, SaveOptions(mode="delta"))

    def test_compact_folds_journal(self, mini_db, collection, store):
        store.save(collection, SaveOptions(vectors=False))
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(1))
        writer.commit()
        grown = collection
        folded = store.compact()
        assert folded > 0
        manifest = store.manifest()
        assert manifest["format_version"] == 2
        assert "journal" not in manifest
        assert not list(store.path.glob("*.jrnl"))
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        for query in QUERIES:
            assert ranked(loaded, query) == ranked(grown, query)
        assert store.compact() == 0  # idempotent: nothing left to fold


class TestLazyLoads:
    def test_lazy_load_pins_no_snapshot_bodies(self, mini_db, collection,
                                               store):
        store.save(collection, SaveOptions(vectors=False))
        lazy = store.load(mini_db)
        assert lazy._loaded_snapshots == {}
        assert lazy.lazy_loads == 0

    def test_first_demand_loads_and_counts(self, mini_db, collection,
                                           store):
        store.save(collection, SaveOptions(vectors=False))
        lazy = store.load(mini_db)
        assert ranked(lazy, "star wars") == ranked(collection, "star wars")
        assert lazy.lazy_loads == 1  # the global snapshot, nothing else
        assert None in lazy._loaded_snapshots
        assert "movie_page" not in lazy._loaded_snapshots
        lazy.definition_searcher("movie_page").search("star wars")
        assert lazy.lazy_loads == 2

    def test_header_bloom_serves_before_any_load(self, mini_db, collection,
                                                 store):
        store.save(collection, SaveOptions(vectors=False))
        lazy = store.load(mini_db)
        bloom = lazy.definition_bloom("movie_page")
        assert bloom is not None
        assert lazy.lazy_loads == 0  # the header Bloom is not a body load

    @pytest.mark.parametrize("shards", [0, 2, 3])
    def test_lazy_eager_rank_and_score_identical(self, mini_db, shards,
                                                 tmp_path):
        # The lazy-load property across shard counts: laziness moves
        # *when* bytes map, never what they say.
        built = QunitCollection(mini_db, definitions(), shards=shards)
        store = CollectionStore(tmp_path / f"snap{shards}")
        store.save(built, SaveOptions(vectors=False))
        options = {"shards": shards}
        eager = store.load(mini_db, LoadOptions(lazy=False, **options))
        lazy = store.load(mini_db, LoadOptions(lazy=True, **options))
        for query in QUERIES:
            assert ranked(lazy, query) == ranked(eager, query)
        for name in built.definitions:
            for query in QUERIES:
                lazy_hits = lazy.definition_searcher(name).search(query)
                eager_hits = eager.definition_searcher(name).search(query)
                assert [(h.doc_id, h.score) for h in lazy_hits] == \
                       [(h.doc_id, h.score) for h in eager_hits]
        eager.close()
        lazy.close()


class TestCrashRecovery:
    def journaled_store(self, mini_db, tmp_path):
        store = CollectionStore(tmp_path / "snap")
        collection = QunitCollection(mini_db, definitions())
        store.save(collection, SaveOptions(vectors=False))
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(1))
        writer.commit()
        return store, collection

    def journal_path(self, store):
        manifest = store.manifest()
        return store.path / manifest["journal"]["file"]

    def test_torn_append_past_commit_point_is_ignored(self, mini_db,
                                                      tmp_path):
        store, collection = self.journaled_store(mini_db, tmp_path)
        with open(self.journal_path(store), "ab") as handle:
            handle.write(b'{"t": "delta", "seq": 9, "tar')  # torn mid-line
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        for query in QUERIES:
            assert ranked(loaded, query) == ranked(collection, query)

    def test_garbage_past_commit_point_is_ignored(self, mini_db, tmp_path):
        store, collection = self.journaled_store(mini_db, tmp_path)
        with open(self.journal_path(store), "ab") as handle:
            handle.write(b"\x00\xff not even json \xfe")
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        assert ranked(loaded, "ingested") == ranked(collection, "ingested")

    def test_corruption_within_committed_prefix_raises(self, mini_db,
                                                       tmp_path):
        store, _ = self.journaled_store(mini_db, tmp_path)
        path = self.journal_path(store)
        data = bytearray(path.read_bytes())
        target = data.rindex(b"ingested")
        data[target:target + 8] = b"tampered"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            store.load(mini_db, LoadOptions(lazy=False))

    def test_truncated_committed_prefix_raises(self, mini_db, tmp_path):
        store, _ = self.journaled_store(mini_db, tmp_path)
        path = self.journal_path(store)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 10])
        with pytest.raises(SnapshotError):
            store.load(mini_db, LoadOptions(lazy=False))

    def test_crash_before_manifest_swap_serves_old_state(self, mini_db,
                                                         tmp_path):
        # The commit point is the manifest, not the journal: a commit
        # that dies after the fsynced append but before the manifest
        # swap must leave the previous state fully loadable.
        store, collection = self.journaled_store(mini_db, tmp_path)
        before = {query: ranked(collection, query) for query in QUERIES}
        manifest_before = store.manifest()

        real_write = store._write_manifest

        def dying_write(manifest):
            raise OSError("simulated crash before the manifest swap")

        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(2))
        store._write_manifest = dying_write
        try:
            with pytest.raises((SnapshotError, OSError)):
                writer.commit()
        finally:
            store._write_manifest = real_write
        assert writer.pending == 1  # staged docs survive a failed commit
        assert store.manifest() == manifest_before
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        for query in QUERIES:
            assert ranked(loaded, query) == before[query]
        # The next commit truncates the orphaned bytes and lands.
        report = writer.commit()
        assert report.appended_documents == 1
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        assert any("ingest:doc:2" == doc_id
                   for doc_id, _ in ranked(loaded, "ingested"))


class TestOnlineIngestion:
    def test_commit_swaps_generation_and_serves_new_docs(self, mini_db,
                                                         collection,
                                                         store):
        store.save(collection, SaveOptions(vectors=False))
        base_generation = collection.generation
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(1))
        report = writer.commit()
        assert report.mode == "delta"
        assert collection.generation == f"{base_generation}+1"
        assert any(doc_id == "ingest:doc:1"
                   for doc_id, _ in ranked(collection, "ingested"))
        hits = collection.definition_searcher("movie_page") \
            .search("ingested")
        assert any(hit.doc_id == "ingest:doc:1" for hit in hits)
        # And the swap is durable: a fresh load sees the same ranking.
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        for query in (*QUERIES, "ingested"):
            assert ranked(loaded, query) == ranked(collection, query)

    def test_reads_serve_old_generation_until_swap(self, mini_db,
                                                   collection, store):
        # The ingest atomicity claim, pinned at the swap boundary: at
        # the instant the journal transaction is already durable on
        # disk, in-memory reads still rank-match the old generation;
        # one swap later they see the new documents.
        store.save(collection, SaveOptions(vectors=False))
        before = {query: ranked(collection, query) for query in QUERIES}
        mid_swap = {}

        real_swap = collection._swap_generation

        def observing_swap(snapshots, generation):
            mid_swap.update(
                (query, ranked(collection, query)) for query in QUERIES)
            mid_swap["disk txns"] = \
                store.manifest()["journal"]["txns"]
            real_swap(snapshots, generation)

        collection._swap_generation = observing_swap
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(7))
        try:
            writer.commit()
        finally:
            collection._swap_generation = real_swap
        assert mid_swap.pop("disk txns") == 1  # journal already durable
        assert mid_swap == before  # ...yet reads still serve the old gen
        after = ranked(collection, "ingested")
        assert any(doc_id == "ingest:doc:7" for doc_id, _ in after)

    def test_concurrent_reads_stay_coherent_across_commits(self, mini_db,
                                                           collection,
                                                           store):
        # Reads racing generation swaps: every observed ranking must be
        # exactly some committed generation's ranking — never a blend.
        import threading

        store.save(collection, SaveOptions(vectors=False))
        states = [ranked(collection, "ingested")]
        writer = store.writer(collection)
        commits = 3
        stop = threading.Event()
        observed = []
        errors = []

        def read_loop():
            try:
                while not stop.is_set():
                    observed.append(ranked(collection, "ingested"))
            except BaseException as exc:
                errors.append(exc)

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for i in range(commits):
                writer.stage("movie_page", ingest_doc(100 + i))
                writer.commit()
                states.append(ranked(collection, "ingested"))
        finally:
            stop.set()
            reader.join()
        assert not errors, errors
        assert collection.generation.endswith(f"+{commits}")
        valid = {tuple(state) for state in states}
        for snapshot_view in observed:
            assert tuple(snapshot_view) in valid

    def test_result_cache_invalidated_on_swap(self, mini_db, collection,
                                              store):
        from repro.core.search import QunitSearchEngine, SearchRequest
        from repro.serve.pipeline import EngineConfig

        store.save(collection, SaveOptions(vectors=False))
        engine = QunitSearchEngine(
            collection, config=EngineConfig(result_cache_size=32))
        request = SearchRequest(query="ingested", limit=3)
        engine.execute([request])
        cached = engine.execute([request])[0]
        assert cached.cached
        from repro.core.qunit import QunitInstance

        writer = store.writer(collection)
        writer.stage_instance(QunitInstance(
            collection.definition("movie_page"),
            {"x": "Brand New Film"},
            [{"title": "Brand New Film",
              "summary": "freshly ingested special"}]))
        writer.commit()
        fresh = engine.execute([request])[0]
        assert not fresh.cached  # the swap cleared the result cache
        # The staged instance registered at commit, so its answer
        # renders without a database round-trip.
        assert any("Brand New Film" in answer.text
                   for answer in fresh.answers)

    @pytest.mark.parametrize("compacted", [False, True])
    def test_ingested_instance_renders_after_restart(self, mini_db,
                                                     collection, store,
                                                     compacted):
        # Regression: an instance staged in one process must still
        # *render* in the next — the loaded collection rebuilds it from
        # its persisted document (metadata carries definition + params,
        # the body carries the rendered text) instead of failing the
        # database derivation lookup.
        from repro.core.qunit import QunitInstance
        from repro.core.search import QunitSearchEngine, SearchRequest

        store.save(collection, SaveOptions(vectors=False))
        staged = QunitInstance(
            collection.definition("movie_page"),
            {"x": "Galactic Verification"},
            [{"title": "Galactic Verification",
              "summary": "a movie that exists only in the journal"}])
        writer = store.writer(collection)
        writer.stage_instance(staged)
        writer.commit()
        if compacted:
            store.compact()
        loaded = store.load(mini_db, LoadOptions(lazy=False))
        engine = QunitSearchEngine(loaded)
        response = engine.execute(
            [SearchRequest(query="galactic verification journal",
                           limit=1)])[0]
        assert response.answers
        answer = response.answers[0]
        assert answer.text == staged.text()
        assert dict(answer.provenance)["definition"] == "movie_page"

    def test_explain_reports_generation_and_lazy_counters(self, mini_db,
                                                          collection,
                                                          store):
        from repro.core.search import QunitSearchEngine, SearchRequest

        store.save(collection, SaveOptions(vectors=False))
        lazy = store.load(mini_db)
        engine = QunitSearchEngine(lazy)
        response = engine.execute(
            [SearchRequest(query="star wars", limit=3, explain=True)])[0]
        explanation = response.explanation
        assert explanation.generation == lazy.generation
        assert explanation.lazy_loads >= 1  # this batch forced the load
        rendered = explanation.render()
        assert f"generation={lazy.generation}" in rendered
        assert "lazy loads" in rendered
        warm = engine.execute(
            [SearchRequest(query="star wars", limit=3, explain=True)])[0]
        assert warm.explanation.lazy_loads == 0


class TestManifestCompat:
    def test_journal_manifest_version_gates_old_readers(self, mini_db,
                                                        tmp_path):
        store = CollectionStore(tmp_path / "snap")
        collection = QunitCollection(mini_db, definitions())
        store.save(collection, SaveOptions(vectors=False))
        manifest_path = store.path / "collection.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 2  # journal-free stays v2
        writer = store.writer(collection)
        writer.stage("movie_page", ingest_doc(1))
        writer.commit()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 3  # a journal is not ignorable
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            store.load(mini_db)

    def test_version_1_manifest_rejected(self, mini_db, tmp_path):
        # A directory from before the document store: the manifest is
        # named and refused before any snapshot file is opened.
        store = CollectionStore(tmp_path / "snap")
        store.save(QunitCollection(mini_db, definitions()),
                   SaveOptions(vectors=False))
        manifest_path = store.path / "collection.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError) as excinfo:
            store.load(mini_db)
        message = str(excinfo.value)
        assert "format version 1" in message
        assert "version 3" in message
        assert "cbc7f81" in message
