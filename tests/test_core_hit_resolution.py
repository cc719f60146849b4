"""Resolving a retrieval hit to its instance after a load.

``QunitCollection.instance`` materializes only the hit's own bindings, and
the loaded document store decodes only the documents a query touches.
These tests hold the resolved instance to the one ``instances_of`` builds
(id, params, row order, text, atoms) for every saved document of all five
derivation flavours, under lazy and eager loads; and they check that
serving after a load never enumerates a whole definition and decodes no
more store records than it fetched hits.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import QunitCollection
from repro.core.derivation import (
    ExternalEvidenceDeriver,
    FormBasedDeriver,
    QueryLogDeriver,
    SchemaDataDeriver,
    imdb_expert_qunits,
)
from repro.core.qunit import ParamBinder, QunitDefinition, QunitInstance
from repro.core.search import QunitSearchEngine, SearchRequest
from repro.core.store import CollectionStore, LoadOptions, SaveOptions
from repro.datasets.evidence import generate_wiki_corpus
from repro.datasets.imdb import generate_imdb
from repro.datasets.querylog import QueryLogGenerator
from repro.errors import DerivationError, SnapshotError
from repro.ir import persist
from repro.ir.retrieval import Searcher

SEED = 7
FLAVOURS = ("expert", "schema_data", "query_log", "external", "forms")


def _definitions(flavour: str, db) -> list[QunitDefinition]:
    if flavour == "expert":
        return imdb_expert_qunits()
    if flavour == "schema_data":
        return SchemaDataDeriver(db, k1=4, k2=3).derive()
    if flavour == "query_log":
        generator = QueryLogGenerator(db, seed=SEED + 1)
        log = generator.generate(generator.recommended_unique())
        return QueryLogDeriver(db).derive(log.as_list())
    if flavour == "external":
        return ExternalEvidenceDeriver(db).derive(
            generate_wiki_corpus(db, seed=SEED + 2))
    return FormBasedDeriver(db).derive()


def _identity(instance: QunitInstance) -> tuple:
    return (instance.instance_id, instance.params,
            [list(row.items()) for row in instance.rows],
            instance.text(), instance.atoms())


@pytest.fixture(scope="module")
def db():
    return generate_imdb(scale=0.1, seed=SEED)


@pytest.fixture()
def refuse_enumeration(monkeypatch):
    """Call it to make enumerating a whole definition fail loudly."""
    def refuse(self, database, limit=None):
        raise AssertionError(f"{self.name}: instances() on the serve path")

    return lambda: monkeypatch.setattr(QunitDefinition, "instances", refuse)


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_every_saved_document_resolves_to_its_instances_of_instance(
        db, tmp_path, monkeypatch, flavour):
    live = QunitCollection(db, _definitions(flavour, db),
                           max_instances_per_definition=150)
    reference = {instance.instance_id: instance
                 for instance in live.all_instances()}
    store = CollectionStore(tmp_path / flavour)
    store.save(live, SaveOptions(vectors=False))
    enumerated = []
    original = QunitDefinition.instances
    monkeypatch.setattr(
        QunitDefinition, "instances",
        lambda self, *args: enumerated.append(self.name)
        or original(self, *args))
    for lazy in (True, False):
        loaded = store.load(db, LoadOptions(lazy=lazy))
        doc_ids = list(loaded.global_snapshot()._documents)
        assert sorted(doc_ids) == sorted(reference)
        for doc_id in doc_ids:
            assert _identity(loaded.instance(doc_id)) == \
                _identity(reference[doc_id])
        assert enumerated == []
        # Hits are cached by id, never in the fully-bound memo.
        assert len(loaded._materialized) == 0
        loaded.close()


def test_id_shared_by_two_bindings_resolves_like_instances_of(
        mini_db, refuse_enumeration):
    # "Dan O'Brien" and "Dan OBrien" are distinct bindings (different
    # normal forms) with one instance_id: the last non-empty one wins,
    # exactly as instances_of registers them — without enumerating the
    # definition.
    mini_db.insert("person", {"id": 4, "name": "Dan O'Brien"})
    mini_db.insert("person", {"id": 5, "name": "Dan OBrien"})
    person_page = QunitDefinition(
        name="person_page",
        base_sql='SELECT * FROM person WHERE person.name = "$x"',
        binders=(ParamBinder("x", "person", "name"),))
    reference = {instance.instance_id: instance for instance
                 in QunitCollection(mini_db, [person_page])
                 .instances_of("person_page")}
    collection = QunitCollection(mini_db, [person_page])
    refuse_enumeration()
    bindings = collection._bindings_by_id("person_page")
    assert len(bindings["person_page::dan_obrien"]) == 2
    resolved = collection.instance("person_page::dan_obrien")
    assert resolved.params == {"x": "Dan OBrien"}
    assert _identity(resolved) == \
        _identity(reference["person_page::dan_obrien"])
    assert collection.instance("person_page::dan_obrien") is resolved


def test_empty_binding_is_not_an_answer(mini_db):
    # Every binding of this definition yields no rows: instances_of
    # drops them all, so an id lookup must fail — every time, even
    # after the single-binding path has materialized the empty instance.
    definition = QunitDefinition(
        name="titled_genre",
        base_sql='SELECT * FROM movie WHERE movie.title = "$x"',
        binders=(ParamBinder("x", "genre", "name"),))
    collection = QunitCollection(mini_db, [definition])
    for _ in range(2):
        with pytest.raises(DerivationError, match="unknown qunit instance"):
            collection.instance("titled_genre::drama")
    assert collection.instances_of("titled_genre") == []


def test_binding_beyond_max_instances_is_unknown_without_sql(
        db, tmp_path, refuse_enumeration, monkeypatch):
    definition = next(d for d in imdb_expert_qunits()
                      if d.name == "movie_plot")
    live = QunitCollection(db, [definition], max_instances_per_definition=5)
    store = CollectionStore(tmp_path / "capped")
    store.save(live, SaveOptions(vectors=False))
    beyond = definition.bindings(db)[5]
    beyond_id = QunitInstance(definition, beyond, []).instance_id
    loaded = store.load(db)
    refuse_enumeration()
    ran = []
    original = QunitDefinition.materialize
    monkeypatch.setattr(QunitDefinition, "materialize",
                        lambda self, database, params: ran.append(params)
                        or original(self, database, params))
    with pytest.raises(DerivationError, match="unknown qunit instance"):
        loaded.instance(beyond_id)
    assert ran == []
    # A fully-bound request may still materialize it; then it resolves.
    instance = loaded.materialize(definition.name, beyond)
    assert loaded.instance(beyond_id) is instance


@pytest.mark.parametrize("compacted", [False, True])
@pytest.mark.parametrize("lazy", [True, False])
def test_instance_ingested_in_an_earlier_process_restores_from_its_body(
        db, tmp_path, refuse_enumeration, compacted, lazy):
    definition = next(d for d in imdb_expert_qunits()
                      if d.name == "movie_plot")
    live = QunitCollection(db, [definition], max_instances_per_definition=5)
    store = CollectionStore(tmp_path / "ingest")
    store.save(live, SaveOptions(vectors=False))
    staged = QunitInstance(definition, {"x": "Zweihander"}, [
        {"movie.title": "Zweihander",
         "movie_info.info": "a zweihander duel at dawn",
         "info_type.name": "plot"}])
    writer = store.writer(live)
    writer.stage_instance(staged)
    writer.commit()
    if compacted:
        store.compact()
    loaded = store.load(db, LoadOptions(lazy=lazy))
    refuse_enumeration()
    loaded.global_snapshot()  # the hit's snapshot is loaded by retrieval
    restored = loaded.instance(staged.instance_id)
    assert restored.rows == []
    assert restored.params == {"x": "Zweihander"}
    assert restored.text() == staged.text()
    assert loaded.instance(staged.instance_id) is restored


def test_threads_resolving_one_loaded_store_share_each_document(
        db, tmp_path):
    # Serving threads share one loaded collection: every thread must get
    # the same Document object per id (published once) and the instance
    # instances_of would build.
    live = QunitCollection(db, imdb_expert_qunits(),
                           max_instances_per_definition=40)
    reference = {instance.instance_id: _identity(instance)
                 for instance in live.all_instances()}
    store = CollectionStore(tmp_path / "shared")
    store.save(live, SaveOptions(vectors=False))
    loaded = store.load(db)
    snapshot = loaded.global_snapshot()
    doc_ids = sorted(reference)
    start = threading.Barrier(4)
    seen: list[dict] = []
    mismatched: list[str] = []

    def worker(offset: int) -> None:
        start.wait()
        documents = {}
        for doc_id in doc_ids[offset:] + doc_ids[:offset]:
            documents[doc_id] = snapshot.document(doc_id)
            if _identity(loaded.instance(doc_id)) != reference[doc_id]:
                mismatched.append(doc_id)
        seen.append(documents)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(offset * 37,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatched == []
    assert len(seen) == 4
    for doc_id in doc_ids:
        assert len({id(documents[doc_id]) for documents in seen}) == 1
        assert seen[0][doc_id] is snapshot.document(doc_id)


def test_threads_overflowing_the_materialize_memo(db):
    # Fully-bound requests on serving threads share one bounded LRU memo;
    # an eviction by one thread must never fail another's hit.  A tiny
    # memo over a few bindings keeps hits and evictions interleaving.
    definitions = imdb_expert_qunits()
    bindings = [(definition, binding) for definition in definitions
                for binding in definition.bindings(db)[:2]]
    reference = [_identity(definition.materialize(db, binding))
                 for definition, binding in bindings]
    collection = QunitCollection(db, definitions)
    collection.MAX_MATERIALIZE_MEMO = 4
    start = threading.Barrier(4)
    failures: list = []

    def worker(offset: int) -> None:
        start.wait()
        order = list(range(offset, len(bindings))) + list(range(offset))
        try:
            for _ in range(100):
                instances = [collection.materialize(bindings[i][0].name,
                                                    bindings[i][1])
                             for i in order]
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(exc)
            return
        failures.extend(i for i, instance in zip(order, instances)
                        if _identity(instance) != reference[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset * 3,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(collection._materialized) == 4


class TestServingAfterLoad:
    """After a load, every kind of request resolves its answers per hit."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        db = generate_imdb(scale=0.1, seed=SEED)
        live = QunitCollection(db, imdb_expert_qunits(),
                               max_instances_per_definition=40)
        directory = tmp_path_factory.mktemp("served")
        store = CollectionStore(directory)
        store.save(live, SaveOptions(vectors=True))
        staged = QunitInstance(
            live.definition("movie_plot"), {"x": "Quillfeather"},
            [{"movie.title": "Quillfeather",
              "movie_info.info": "a quillfeather heist at dusk",
              "info_type.name": "plot"}])
        writer = store.writer(live)
        writer.stage_instance(staged)
        writer.commit()
        store.compact()
        return db, store, staged.instance_id

    @pytest.mark.parametrize("lazy", [True, False])
    def test_no_request_enumerates_a_definition(self, saved, lazy,
                                                refuse_enumeration):
        db, store, ingested_id = saved
        engine = QunitSearchEngine(store.load(db, LoadOptions(lazy=lazy)),
                                   flavor="expert")
        refuse_enumeration()
        requests = {
            "lexical": SearchRequest(query="star wars cast", explain=True),
            "hybrid": SearchRequest(query="satr wrs casst",
                                    strategy="hybrid"),
            "fully bound": SearchRequest(query="star wars", explain=True),
            "ingested": SearchRequest(query="quillfeather heist"),
        }
        responses = dict(zip(requests,
                             engine.execute(list(requests.values()))))
        for name, response in responses.items():
            assert response.answers, name
        plan = responses["lexical"].explanation.plan
        assert any(line.startswith("rank ") for line in plan)
        assert responses["fully bound"].explanation.plan[0].startswith(
            "materialize ")
        assert ingested_id in [answer.meta("instance_id")
                               for answer in responses["ingested"].answers]
        engine.collection.close()

    @pytest.mark.parametrize("query", ["star wars cast", "satr wrs casst"])
    def test_cold_query_decodes_no_more_records_than_hits(
            self, saved, monkeypatch, query):
        db, store, _ = saved
        decoded, fetched = [], []
        decode = persist._decode_store_record
        store_hits = Searcher._store_hits

        def counting_decode(path, raw, what, doc_id=None):
            decoded.append(doc_id)
            return decode(path, raw, what, doc_id)

        def counting_store_hits(self, terms, limit, family, ranked):
            hits = store_hits(self, terms, limit, family, ranked)
            fetched.extend(hits)
            return hits

        monkeypatch.setattr(persist, "_decode_store_record", counting_decode)
        monkeypatch.setattr(Searcher, "_store_hits", counting_store_hits)
        engine = QunitSearchEngine(store.load(db), flavor="expert")
        strategy = "hybrid" if query == "satr wrs casst" else None
        response = engine.execute([SearchRequest(query=query,
                                                 strategy=strategy)])[0]
        assert response.answers
        assert 0 < len(decoded) <= len(fetched)
        assert set(decoded) <= {hit.doc_id for hit in fetched}
        engine.collection.close()

    def test_close_releases_the_store_descriptor(self, saved):
        db, store, _ = saved
        collection = store.load(db)
        engine = QunitSearchEngine(collection, flavor="expert")
        assert engine.execute([SearchRequest(query="star wars cast")]
                              )[0].answers
        [document_store] = collection._document_stores
        records = document_store._records
        assert records._release.alive
        decoded = dict(records.documents)
        undecoded = next(doc_id for doc_id in records
                         if doc_id not in decoded)
        collection.close()
        assert collection._document_stores == []
        assert not records._release.alive and records._fd == -1
        collection.close()  # idempotent
        for doc_id, document in decoded.items():
            assert document_store.documents[doc_id] is document
        with pytest.raises(SnapshotError, match="is closed"):
            document_store.documents[undecoded]
