"""Tests for the qunit collection."""

from pathlib import Path

import pytest

from repro.core.collection import QunitCollection
from repro.core.qunit import ParamBinder, QunitDefinition
from repro.core.store import CollectionStore, LoadOptions, SaveOptions
from repro.errors import DerivationError


def _save(collection, path, vectors=True):
    """Persist through the store API; returns the directory path."""
    report = CollectionStore(path).save(collection,
                                        SaveOptions(vectors=vectors))
    return Path(report.path)


def _load(database, path, **options):
    """Eager load through the store API — the contract these tests were
    written against (the whole generation in memory up front)."""
    return CollectionStore(path).load(
        database, LoadOptions(lazy=False, **options))


def _load_shard(path, shard_index):
    return CollectionStore(path).load_shard(shard_index)


def definitions():
    return [
        QunitDefinition(
            name="movie_page",
            base_sql='SELECT * FROM movie WHERE movie.title = "$x"',
            binders=(ParamBinder("x", "movie", "title"),),
            keywords=("movie", "summary"),
        ),
        QunitDefinition(
            name="person_page",
            base_sql='SELECT * FROM person WHERE person.name = "$x"',
            binders=(ParamBinder("x", "person", "name"),),
        ),
    ]


@pytest.fixture()
def collection(mini_db):
    return QunitCollection(mini_db, definitions())


class TestDefinitions:
    def test_lookup(self, collection):
        assert collection.definition("movie_page").name == "movie_page"
        assert "movie_page" in collection
        assert len(collection) == 2

    def test_unknown_definition(self, collection):
        with pytest.raises(DerivationError):
            collection.definition("nope")

    def test_duplicate_rejected(self, mini_db):
        with pytest.raises(DerivationError):
            QunitCollection(mini_db, definitions() + definitions()[:1])


class TestInstances:
    def test_instances_of(self, collection):
        instances = collection.instances_of("movie_page")
        assert len(instances) == 3
        assert collection.instances_of("movie_page") is instances  # cached

    def test_all_instances(self, collection):
        assert len(collection.all_instances()) == 6
        assert collection.instance_count() == 6

    def test_max_instances_cap(self, mini_db):
        capped = QunitCollection(mini_db, definitions(),
                                 max_instances_per_definition=1)
        assert len(capped.instances_of("movie_page")) == 1

    def test_instance_by_id(self, collection):
        instance = collection.instance("movie_page::star_wars")
        assert instance.params == {"x": "Star Wars"}

    def test_instance_unknown(self, collection):
        with pytest.raises(DerivationError):
            collection.instance("movie_page::no_such")
        with pytest.raises(DerivationError):
            collection.instance("ghost_def::x")

    def test_materialize_on_demand(self, collection):
        instance = collection.materialize("movie_page", {"x": "Star Wars"})
        assert collection.instance(instance.instance_id) is instance

    def test_empty_instances_skipped(self, mini_db):
        # person_page over a db where one person has no row... all have
        # rows here, so add a definition guaranteed empty for some values.
        definition = QunitDefinition(
            name="award_page",
            base_sql=('SELECT * FROM movie, cast '
                      'WHERE cast.movie_id = movie.id '
                      'AND cast.role = "$x"'),
            binders=(ParamBinder("x", "cast", "role"),),
        )
        collection = QunitCollection(mini_db, [definition])
        assert all(not i.is_empty for i in collection.all_instances())


class TestIndexes:
    def test_global_index_covers_all_instances(self, collection):
        index = collection.global_index()
        assert index.document_count == 6
        index.validate()

    def test_definition_index(self, collection):
        index = collection.definition_index("movie_page")
        assert index.document_count == 3

    def test_keywords_decorate_documents(self, collection):
        index = collection.definition_index("movie_page")
        document = index.document("movie_page::star_wars")
        assert "summary" in document.field("title")

    def test_searcher_finds_instance(self, collection):
        searcher = collection.searcher()
        best = searcher.best("star wars")
        assert best is not None
        assert best.doc_id == "movie_page::star_wars"

    def test_describe(self, collection):
        rows = collection.describe()
        assert ("movie_page", "manual", 3) in rows


class TestSearcherCaching:
    def test_searcher_reused_across_calls(self, collection):
        assert collection.searcher() is collection.searcher()

    def test_definition_searcher_reused(self, collection):
        first = collection.definition_searcher("movie_page")
        assert collection.definition_searcher("movie_page") is first

    def test_distinct_scorer_params_get_distinct_searchers(self, collection):
        from repro.ir.scoring import Bm25Scorer

        default = collection.searcher()
        tuned = collection.searcher(Bm25Scorer(k1=0.3, b=0.1))
        assert tuned is not default
        # Equal parameters share a cached searcher.
        assert collection.searcher(Bm25Scorer(k1=0.3, b=0.1)) is tuned

    def test_search_many_matches_singles(self, collection):
        queries = ["star wars", "ocean", "nothing matches this zzz"]
        batch = collection.search_many(queries, limit=2)
        searcher = collection.searcher()
        for query, hits in zip(queries, batch):
            singles = searcher.search(query, limit=2)
            assert [(h.doc_id, h.score) for h in hits] == \
                   [(h.doc_id, h.score) for h in singles]


class TestPersistence:
    def test_save_load_round_trip(self, mini_db, tmp_path):
        import json

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        assert (out / "collection.json").exists()
        manifest = json.loads((out / "collection.json").read_text())
        assert (out / manifest["snapshots"]["global"]).exists()
        assert (out / manifest["snapshots"]["definitions"]["movie_page"]
                ).exists()

        loaded = _load(mini_db, out)
        assert sorted(loaded.definitions) == sorted(collection.definitions)
        assert loaded.definitions["movie_page"] == \
               collection.definitions["movie_page"]
        assert loaded.analyzer.stem == collection.analyzer.stem

    def test_loaded_collection_search_rank_identical(self, mini_db, tmp_path):
        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out)
        for query in ("star wars", "person", "movie summary", "zzz"):
            fresh = collection.searcher().search(query, limit=4)
            cold = loaded.searcher().search(query, limit=4)
            assert [(h.doc_id, h.score) for h in cold] == \
                   [(h.doc_id, h.score) for h in fresh]

    def test_loaded_collection_serves_without_materializing(self, mini_db,
                                                            tmp_path):
        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out)
        assert loaded.searcher().best("star wars") is not None
        # The query was answered from the loaded snapshot: nothing was
        # re-materialized and no live index was built.
        assert loaded._instances == {}
        assert loaded._global_index is None

    def test_load_pins_generation_against_resave_pruning(self, mini_db,
                                                         tmp_path):
        # Regression: load() reads every referenced snapshot eagerly, so a
        # re-save that prunes the old generation's files cannot break an
        # already-loaded collection mid-serving.
        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out)
        assert "movie_page" in loaded._loaded_snapshots
        _save(QunitCollection(mini_db, definitions()[:1]), out)  # prunes gen 1
        hits = loaded.definition_searcher("movie_page").search("star wars")
        assert hits
        assert loaded.searcher().best("star wars") is not None

    def test_loaded_collection_still_materializes_instances(self, mini_db,
                                                            tmp_path):
        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out)
        hit = loaded.searcher().best("star wars")
        instance = loaded.instance(hit.doc_id)
        assert instance.instance_id == hit.doc_id
        assert not instance.is_empty

    def test_resave_swaps_generations_and_prunes(self, mini_db, tmp_path):
        import json

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        first = json.loads((out / "collection.json").read_text())
        _save(QunitCollection(mini_db, definitions()[:1]), out)
        second = json.loads((out / "collection.json").read_text())
        # A fresh generation replaced the old one, and every snapshot on
        # disk is referenced by the new manifest — no mixed generations.
        assert second["snapshots"]["global"] != first["snapshots"]["global"]
        referenced = {second["snapshots"]["global"],
                      *second["snapshots"]["definitions"].values()}
        on_disk = {entry.name for entry in out.glob("*.snap")}
        assert on_disk == referenced
        loaded = _load(mini_db, out)
        assert sorted(loaded.definitions) == ["movie_page"]

    def test_empty_collection_round_trips_without_rebuild(self, mini_db,
                                                          tmp_path):
        # Regression: an *empty* loaded snapshot is falsy; index resolution
        # must still serve it rather than rebuilding from the database.
        empty = QunitCollection(mini_db, [])
        out = _save(empty, tmp_path / "empty")
        loaded = _load(mini_db, out)
        assert loaded.searcher().search("star wars") == []
        assert loaded._global_index is None
        assert loaded._instances == {}

    def test_load_rejects_analyzer_mismatch(self, mini_db, tmp_path):
        import json

        from repro.errors import SnapshotError

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        manifest_path = out / "collection.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["analyzer"]["stem"] = not manifest["analyzer"]["stem"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="analyzer"):
            _load(mini_db, out)

    def test_global_snapshot_public_accessor(self, mini_db, tmp_path):
        collection = QunitCollection(mini_db, definitions())
        built = collection.global_snapshot()
        assert built.document_count == collection.instance_count()
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out)
        assert loaded.global_snapshot().document_count == built.document_count

    def test_load_rejects_different_database(self, mini_db, tmp_path):
        from repro.datasets.imdb import generate_imdb
        from repro.errors import SnapshotError

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        other = generate_imdb(scale=0.05, seed=1)
        with pytest.raises(SnapshotError, match="derived from database"):
            _load(other, out)

    def test_load_missing_manifest(self, mini_db, tmp_path):
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError, match="manifest"):
            _load(mini_db, tmp_path / "nowhere")

    def test_load_bad_manifest_version(self, mini_db, tmp_path):
        import json

        from repro.errors import SnapshotError

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        manifest_path = out / "collection.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            _load(mini_db, out)

    def test_load_manifest_missing_definitions_is_clean_error(self, mini_db,
                                                              tmp_path):
        import json

        from repro.errors import SnapshotError

        out = _save(QunitCollection(mini_db, definitions()), tmp_path / "snap")
        manifest_path = out / "collection.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["definitions"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="definitions"):
            _load(mini_db, out)

    def test_load_retries_when_racing_a_resave(self, mini_db, tmp_path,
                                               monkeypatch):
        # Simulate losing the race: the first snapshot read hits a file a
        # concurrent re-save just pruned; the retry (fresh manifest) wins.
        from repro.core import store as store_module
        from repro.errors import SnapshotError

        out = _save(QunitCollection(mini_db, definitions()), tmp_path / "snap")
        real_load = store_module.load_snapshot_with_header
        calls = {"n": 0}

        def flaky_load(path, store=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SnapshotError(
                    f"cannot read snapshot file {str(path)!r}: gone"
                ) from FileNotFoundError(2, "gone")
            return real_load(path, store=store)

        monkeypatch.setattr(store_module, "load_snapshot_with_header",
                            flaky_load)
        loaded = _load(mini_db, out)
        assert loaded.searcher().best("star wars") is not None
        assert calls["n"] > 1

    def test_unknown_definition_still_fails_after_load(self, mini_db,
                                                       tmp_path):
        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out)
        with pytest.raises(DerivationError):
            loaded.definition_searcher("nope")

    def test_definition_dict_round_trip(self):
        from repro.core.qunit import QunitDefinition

        for definition in definitions():
            assert QunitDefinition.from_dict(definition.to_dict()) == \
                   definition


class TestHybridPersistence:
    """The collection-level contract of the hybrid strategy: vectors
    saved by default serve hybrid without complaint; a generation saved
    with ``vectors=False`` degrades to lexical with one warning."""

    def test_default_save_serves_hybrid_without_warning(self, mini_db,
                                                        tmp_path):
        import warnings

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out, strategy="hybrid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = loaded.searcher().search("star wars", 4)
        assert hits
        assert loaded.searcher().hybrid_fallbacks == 0

    def test_save_without_vectors_degrades_to_lexical(self, mini_db,
                                                      tmp_path):
        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap", vectors=False)
        lexical = _load(mini_db, out)
        expected = [(h.doc_id, h.score)
                    for h in lexical.searcher().search("star wars", 4)]
        hybrid = _load(mini_db, out, strategy="hybrid")
        with pytest.warns(RuntimeWarning, match="no vector extents"):
            hits = hybrid.searcher().search("star wars", 4)
        assert [(h.doc_id, h.score) for h in hits] == expected
        assert hybrid.searcher().hybrid_fallbacks >= 1


class TestSharding:
    def test_sharded_collection_search_matches_serial(self, mini_db):
        serial = QunitCollection(mini_db, definitions())
        sharded = QunitCollection(mini_db, definitions(), shards=2,
                                  parallelism="serial")
        for query in ("star wars", "person", "zzz"):
            assert [(h.doc_id, h.score)
                    for h in sharded.searcher().search(query, limit=4)] == \
                   [(h.doc_id, h.score)
                    for h in serial.searcher().search(query, limit=4)]
        sharded.close()

    def test_definition_searchers_stay_serial(self, mini_db):
        sharded = QunitCollection(mini_db, definitions(), shards=4)
        assert sharded.searcher().shards == 4
        assert sharded.definition_searcher("movie_page").shards == 0
        sharded.close()


class TestSnapshotV2Layout:
    def test_save_writes_document_store_and_refs(self, mini_db, tmp_path):
        import json

        from repro.ir.persist import FORMAT_VERSION, read_snapshot_header

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        manifest = json.loads((out / "collection.json").read_text())
        assert manifest["format_version"] == 2
        store_name = manifest["docstore"]
        assert (out / store_name).exists()
        # Snapshot files reference the store instead of inlining documents.
        global_header = read_snapshot_header(
            out / manifest["snapshots"]["global"])
        assert global_header["format_version"] == FORMAT_VERSION
        assert global_header["docstore"] == store_name

    def test_documents_stored_once_directory_smaller_than_standalone(
            self, mini_db, tmp_path):
        # The dedup property, format-for-format: a generation whose
        # snapshots reference the shared store must be smaller than the
        # same snapshots saved standalone (documents inlined per file).
        from repro.ir.persist import save_snapshot

        collection = QunitCollection(mini_db, definitions())
        # vectors=False: this test measures the document-dedup property
        # alone; vector extents (saved by default, skipped by
        # save_snapshot below) would drown the comparison.
        out = _save(collection, tmp_path / "deduped", vectors=False)
        deduped_bytes = sum(entry.stat().st_size for entry in out.iterdir()
                            if entry.name != "collection.json")

        standalone = tmp_path / "standalone"
        standalone.mkdir()
        save_snapshot(collection.global_snapshot(),
                      standalone / "global.snap")
        for name in sorted(collection.definitions):
            save_snapshot(collection.definition_index(name).snapshot(),
                          standalone / f"def-{name}.snap")
        standalone_bytes = sum(entry.stat().st_size
                               for entry in standalone.iterdir())
        assert deduped_bytes < standalone_bytes

    def test_load_shares_documents_across_snapshots(self, mini_db, tmp_path):
        # Regression for the double-pin: eager load used to hold two full
        # copies of every document (global + per-definition snapshots).
        # With the deduplicated store, every loaded snapshot must share
        # the same Document objects, and the number of distinct pinned
        # documents must equal the store size exactly.
        import json

        from repro.ir.persist import load_document_store

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        manifest = json.loads((out / "collection.json").read_text())
        store = load_document_store(out / manifest["docstore"])

        loaded = _load(mini_db, out)
        global_snapshot = loaded._loaded_snapshots[None]
        unique_objects = {id(document)
                          for document in global_snapshot.documents()}
        for name in loaded.definitions:
            definition_snapshot = loaded._loaded_snapshots[name]
            for document in definition_snapshot.documents():
                # Shared with the global snapshot, not a second copy.
                assert global_snapshot.document(document.doc_id) is document
                unique_objects.add(id(document))
        assert len(unique_objects) == len(store)

    def test_resave_prunes_stale_store_files(self, mini_db, tmp_path):
        import json

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        _save(QunitCollection(mini_db, definitions()[:1]), out)
        manifest = json.loads((out / "collection.json").read_text())
        on_disk = {entry.name for entry in out.glob("*.store")}
        assert on_disk == {manifest["docstore"]}


class TestShardPersistence:
    def test_save_with_shards_writes_shard_files(self, mini_db, tmp_path):
        import json

        collection = QunitCollection(mini_db, definitions(), shards=2,
                                     parallelism="serial")
        out = _save(collection, tmp_path / "snap")
        manifest = json.loads((out / "collection.json").read_text())
        assert manifest["shards"]["count"] == 2
        assert len(manifest["shards"]["files"]) == 2
        from repro.ir.persist import read_snapshot_header

        for i, file_name in enumerate(manifest["shards"]["files"]):
            header = read_snapshot_header(out / file_name)
            assert header["shard"] == {"index": i, "count": 2}
            assert header["bloom"] is not None

    def test_unsharded_save_has_no_shard_files(self, mini_db, tmp_path):
        import json

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        manifest = json.loads((out / "collection.json").read_text())
        assert manifest["shards"] is None
        assert not list(out.glob("shard-*"))

    def test_load_restores_persisted_shards(self, mini_db, tmp_path):
        collection = QunitCollection(mini_db, definitions(), shards=2,
                                     parallelism="serial")
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out, shards=2,
                                      parallelism="serial")
        assert loaded._loaded_sharded is not None
        assert len(loaded._loaded_sharded.shards) == 2
        # The flat searcher serves from the restored shards, and results
        # match the serial path exactly.
        serial = _load(mini_db, out)
        for query in ("star wars", "person", "zzz"):
            assert [(h.doc_id, h.score)
                    for h in loaded.searcher().search(query, limit=4)] == \
                   [(h.doc_id, h.score)
                    for h in serial.searcher().search(query, limit=4)]
        loaded.close()

    def test_load_with_other_shard_count_repartitions(self, mini_db,
                                                      tmp_path):
        collection = QunitCollection(mini_db, definitions(), shards=2,
                                     parallelism="serial")
        out = _save(collection, tmp_path / "snap")
        loaded = _load(mini_db, out, shards=3,
                                      parallelism="serial")
        assert loaded._loaded_sharded is None  # falls back to in-memory
        serial = _load(mini_db, out)
        for query in ("star wars", "person"):
            assert [(h.doc_id, h.score)
                    for h in loaded.searcher().search(query, limit=4)] == \
                   [(h.doc_id, h.score)
                    for h in serial.searcher().search(query, limit=4)]
        loaded.close()

    def test_load_shard_returns_single_partition(self, mini_db, tmp_path):
        from repro.ir.shard import shard_snapshot

        collection = QunitCollection(mini_db, definitions(), shards=2,
                                     parallelism="serial")
        out = _save(collection, tmp_path / "snap")
        expected = shard_snapshot(collection.global_snapshot(), 2)
        for i in range(2):
            snapshot, bloom = _load_shard(out, i)
            assert sorted(d.doc_id for d in snapshot.documents()) == \
                   sorted(d.doc_id for d in expected[i].documents())
            # Collection-wide statistics, not partition-local ones.
            assert snapshot.document_count == \
                   collection.global_snapshot().document_count
            assert bloom is not None
            for term in snapshot.terms():
                assert term in bloom

    def test_load_shard_errors(self, mini_db, tmp_path):
        from repro.errors import SnapshotError

        collection = QunitCollection(mini_db, definitions())
        out = _save(collection, tmp_path / "snap")
        with pytest.raises(SnapshotError, match="no persisted shard"):
            _load_shard(out, 0)
        sharded_out = _save(QunitCollection(
            mini_db, definitions(), shards=2), tmp_path / "sharded")
        with pytest.raises(SnapshotError, match="out of range"):
            _load_shard(sharded_out, 9)
