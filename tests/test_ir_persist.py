"""Tests for persistent snapshot storage (save_snapshot/load_snapshot)."""

import json
import struct
from pathlib import Path

import pytest

from repro.errors import IndexError_, SnapshotError
from repro.ir.analysis import Analyzer
from repro.ir.documents import Document
from repro.ir.index import InvertedIndex
from repro.ir.persist import (
    FORMAT_VERSION,
    V3_MAGIC,
    DocumentStore,
    load_document_store,
    load_snapshot,
    open_scoring_snapshot,
    read_snapshot_doc_ids,
    read_snapshot_header,
    save_document_store,
    save_snapshot,
)
from repro.ir.retrieval import Searcher
from repro.ir.scoring import Bm25Scorer, TfIdfScorer


def build_index(bodies: dict[str, str], analyzer: Analyzer | None = None):
    index = InvertedIndex(analyzer or Analyzer(stem=False))
    for doc_id, body in bodies.items():
        index.add(Document.create(
            doc_id, {"body": body},
            metadata={"definition": f"def_{doc_id}",
                      "params": (("x", doc_id), ("y", "v"))},
        ))
    return index


BODIES = {"a": "star wars cast", "b": "star trek", "c": "ocean wars wars",
          "d": "star star wars ocean", "empty-ish": "the of"}


@pytest.fixture()
def saved(tmp_path):
    index = build_index(BODIES)
    path = tmp_path / "index.snap"
    save_snapshot(index.snapshot(), path)
    return index, path


#: Every way into a snapshot file; the header read stops before the
#: columns region, the openers map the whole container.
READERS = (load_snapshot, read_snapshot_header, read_snapshot_doc_ids,
           open_scoring_snapshot)
OPENERS = (load_snapshot, read_snapshot_doc_ids, open_scoring_snapshot)


def _old_header(version: int) -> bytes:
    """The header line of a JSON-lines snapshot from an older build."""
    return json.dumps({"magic": "qunits-snapshot",
                       "format_version": version}).encode() + b"\n"


class TestRoundTrip:
    def test_statistics_survive(self, saved):
        index, path = saved
        loaded = load_snapshot(path)
        snapshot = index.snapshot()
        assert loaded.version == snapshot.version
        assert loaded.document_count == snapshot.document_count
        assert loaded.average_document_length == snapshot.average_document_length
        assert loaded.min_document_length == snapshot.min_document_length
        assert loaded.vocabulary_size == snapshot.vocabulary_size
        for term in snapshot.terms():
            assert loaded.postings(term) == snapshot.postings(term)
            assert loaded.document_frequency(term) == \
                   snapshot.document_frequency(term)

    def test_documents_survive_exactly(self, saved):
        index, path = saved
        loaded = load_snapshot(path)
        for document in index.documents():
            assert loaded.document(document.doc_id) == document

    def test_metadata_tuples_restored_as_tuples(self, saved):
        _index, path = saved
        loaded = load_snapshot(path)
        params = loaded.document("a").meta("params")
        assert params == (("x", "a"), ("y", "v"))
        assert isinstance(params, tuple)
        assert isinstance(params[0], tuple)

    def test_analyzer_config_survives(self, tmp_path):
        analyzer = Analyzer(remove_stopwords=False, stem=True,
                            min_token_length=2)
        index = build_index({"a": "star wars"}, analyzer)
        path = save_snapshot(index.snapshot(), tmp_path / "a.snap")
        loaded = load_snapshot(path)
        assert loaded.analyzer.remove_stopwords is False
        assert loaded.analyzer.stem is True
        assert loaded.analyzer.min_token_length == 2

    @pytest.mark.parametrize("scorer_factory", [Bm25Scorer, TfIdfScorer])
    def test_search_rank_identical_float_exact(self, saved, scorer_factory):
        index, path = saved
        loaded = load_snapshot(path)
        live = Searcher(index, scorer_factory())
        cold = Searcher(loaded, scorer_factory())
        for query in ("star wars", "ocean", "trek star wars", "zzz", "the"):
            expected = [(h.doc_id, h.score) for h in live.search(query, 4)]
            assert [(h.doc_id, h.score) for h in cold.search(query, 4)] == \
                   expected
            assert [(h.doc_id, h.score)
                    for h in cold.search_exhaustive(query, 4)] == expected

    def test_empty_index_round_trips(self, tmp_path):
        index = InvertedIndex(Analyzer())
        path = save_snapshot(index.snapshot(), tmp_path / "empty.snap")
        loaded = load_snapshot(path)
        assert len(loaded) == 0
        assert Searcher(loaded).search("anything") == []

    def test_save_returns_path_and_overwrites_atomically(self, saved, tmp_path):
        index, path = saved
        assert save_snapshot(index.snapshot(), path) == path
        assert not path.with_name(path.name + ".tmp").exists()
        load_snapshot(path)  # still valid after overwrite


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.snap")

    def test_corrupted_byte(self, saved):
        _index, path = saved
        raw = bytearray(path.read_bytes())
        offset = len(raw) // 2
        raw[offset] = ord("x") if raw[offset] != ord("x") else ord("y")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_wrong_magic(self, saved):
        _index, path = saved
        path.write_text('{"magic": "something-else"}\n{"t": "end"}\n')
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_not_json(self, saved):
        _index, path = saved
        path.write_text("definitely not json\nstill not\n")
        with pytest.raises(SnapshotError, match="JSON"):
            load_snapshot(path)

    @pytest.mark.parametrize("rewrite, readers, named", [
        pytest.param(lambda raw: _old_header(1), READERS,
                     "format version 1", id="v1"),
        pytest.param(lambda raw: _old_header(2), READERS,
                     "format version 2", id="v2"),
        pytest.param(lambda raw: raw + b'{"t":"delta"}\n', OPENERS,
                     "14 bytes after the columns region", id="delta-tail"),
        pytest.param(lambda raw: raw + b"x", OPENERS,
                     "1 bytes after the columns region", id="stray-byte"),
    ])
    def test_older_files_rejected(self, saved, rewrite, readers, named):
        # Files from older builds — JSON-lines v1/v2, or a v3 container
        # with an in-file delta tail — are named and refused, never
        # reinterpreted or silently cut back to their base.
        _index, path = saved
        path.write_bytes(rewrite(path.read_bytes()))
        for reader in readers:
            with pytest.raises(SnapshotError) as excinfo:
                reader(path)
            message = str(excinfo.value)
            assert named in message
            assert "version 3" in message
            assert "cbc7f81" in message

    def test_unserializable_metadata_rejected_cleanly(self, tmp_path):
        index = InvertedIndex(Analyzer())
        index.add(Document.create("a", {"body": "star"},
                                  metadata={"obj": object()}))
        with pytest.raises(SnapshotError, match="unserializable"):
            save_snapshot(index.snapshot(), tmp_path / "bad.snap")
        assert not (tmp_path / "bad.snap").exists()
        assert not (tmp_path / "bad.snap.tmp").exists()


class TestV3Rejection:
    """Torn writes, truncated columns, and bad checksums on the binary
    columnar container must all surface as SnapshotError — never a raw
    struct/JSON/Key/Unicode error, and never silently wrong postings."""

    def _directory_extents(self, raw: bytes) -> tuple[int, int, int, int]:
        import struct

        fields = struct.unpack_from("<12sI6Q", raw)
        (_magic, _version, meta_off, _meta_len, dir_off, dir_len,
         cols_off, cols_len) = fields
        return dir_off, dir_len, cols_off, cols_len

    def test_torn_write_header_only(self, saved):
        _index, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[:20])  # mid-struct-header torn write
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_torn_write_mid_columns(self, saved):
        _index, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.75)])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    def test_struct_version_mismatch(self, saved):
        import struct

        _index, path = saved
        raw = bytearray(path.read_bytes())
        raw[len(V3_MAGIC):len(V3_MAGIC) + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)

    def test_corrupted_meta_detected(self, saved):
        _index, path = saved
        raw = bytearray(path.read_bytes())
        offset = len(V3_MAGIC) + 4 + 48 + 64  # first meta byte
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_corrupted_term_directory_detected(self, saved):
        _index, path = saved
        raw = bytearray(path.read_bytes())
        dir_off, dir_len, _cols_off, _cols_len = self._directory_extents(raw)
        raw[dir_off + dir_len // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(path)

    def test_corrupted_column_detected_on_access(self, saved):
        # Column checksums verify lazily: the load itself only touches the
        # doc_id/length columns, but the poisoned term must refuse to
        # materialize rather than serve corrupt postings.
        _index, path = saved
        raw = bytearray(path.read_bytes())
        dir_off, dir_len, cols_off, cols_len = self._directory_extents(raw)
        directory = json.loads(bytes(raw[dir_off:dir_off + dir_len]))
        term_cols = {term: entry for term, entry
                     in directory["terms"].items()}
        # Poison every term's tf column so any access path hits one.
        for entry in term_cols.values():
            offset, _length, _sha = entry["tf"]
            raw[cols_off + offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        loaded = load_snapshot(path)
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            loaded.postings("star")

    def test_column_extent_past_region_detected(self, saved):
        import hashlib
        import struct

        _index, path = saved
        raw = bytearray(path.read_bytes())
        dir_off, dir_len, cols_off, cols_len = self._directory_extents(raw)
        directory = json.loads(bytes(raw[dir_off:dir_off + dir_len]))
        # Rewrite one column's extent to reach past the columns region,
        # re-sign the directory so only the extent is wrong.
        directory["terms"]["star"]["tf"][1] = cols_len + 1024
        dir_blob = json.dumps(directory, ensure_ascii=False,
                              separators=(",", ":")).encode("utf-8")
        header = struct.pack(
            "<12sI6Q32s32s", V3_MAGIC, FORMAT_VERSION,
            struct.unpack_from("<12sI6Q", raw)[2],
            struct.unpack_from("<12sI6Q", raw)[3],
            dir_off, len(dir_blob), dir_off + len(dir_blob), cols_len,
            bytes(raw[len(V3_MAGIC) + 4 + 48:len(V3_MAGIC) + 4 + 48 + 32]),
            hashlib.sha256(dir_blob).digest())
        meta_blob = bytes(raw[struct.unpack_from("<12sI6Q", raw)[2]:dir_off])
        cols = bytes(raw[cols_off:cols_off + cols_len])
        path.write_bytes(header + meta_blob + dir_blob + cols)
        loaded = load_snapshot(path)
        with pytest.raises(SnapshotError, match="columns region"):
            loaded.postings("star")

    def test_scoring_snapshot_skips_documents(self, saved):
        # The worker path: ranked (doc_id, score) pairs only, no document
        # bodies parsed or held.
        from repro.errors import IndexError_
        from repro.ir.scoring import Bm25Scorer
        from repro.ir.topk import retrieve

        index, path = saved
        view = open_scoring_snapshot(path)
        live = index.snapshot()
        scorer = Bm25Scorer()
        analyzer = live.analyzer
        for query in ("star wars", "ocean", "trek star wars", "zzz"):
            terms = analyzer.tokens(query)
            assert retrieve(view, scorer, terms, 4) == \
                retrieve(live, scorer, terms, 4)
        assert len(view._documents) == 0
        with pytest.raises(IndexError_):
            view.document("a")


#: A v3 snapshot of ``BODIES`` written by ``save_snapshot`` at commit
#: 8f6961f (with ``_PRECOMPUTE_MIN_POSTINGS`` lowered to 1 so every term
#: has scorer columns).  Builds of that era also wrote ``block_size`` and
#: ``blocks`` entries next to each term's contribution column.
OLDER_SNAPSHOT = Path(__file__).parent / "data" / "blockmax_v3.snap"


class TestOlderSnapshots:
    def test_fixture_still_carries_block_columns(self):
        raw = OLDER_SNAPSHOT.read_bytes()
        fields = struct.unpack_from("<12sI6Q", raw)
        dir_off, dir_len = fields[4], fields[5]
        directory = json.loads(raw[dir_off:dir_off + dir_len])
        (per_term,) = directory["scorers"].values()
        assert {"block_size", "blocks"} <= set(per_term["star"])

    @pytest.mark.parametrize("opener", [load_snapshot,
                                        open_scoring_snapshot])
    def test_serves_float_exact_answers(self, opener):
        from repro.ir.topk import retrieve

        old = opener(OLDER_SNAPSHOT)
        fresh = build_index(BODIES).snapshot()
        for scorer in (Bm25Scorer(), TfIdfScorer()):
            for query in ("star wars", "ocean", "trek star wars", "zzz",
                          "star star cast ocean"):
                terms = fresh.analyzer.tokens(query)
                assert retrieve(old, scorer, terms, 5, "auto") == \
                    retrieve(fresh, scorer, terms, 5, "auto")


class TestDocumentStore:
    def test_round_trip(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        store = DocumentStore.from_snapshot(snapshot)
        path = save_document_store(store, tmp_path / "docs.store")
        loaded = load_document_store(path)
        assert len(loaded) == len(store)
        for doc_id in store.documents:
            assert doc_id in loaded
            assert loaded.documents[doc_id] == store.documents[doc_id]
            assert loaded.doc_lengths[doc_id] == store.doc_lengths[doc_id]
        assert loaded.analyzer == store.analyzer

    def test_corruption_detected(self, tmp_path):
        index = build_index(BODIES)
        path = save_document_store(
            DocumentStore.from_snapshot(index.snapshot()),
            tmp_path / "docs.store")
        raw = bytearray(path.read_bytes())
        offset = len(raw) // 2
        raw[offset] = ord("x") if raw[offset] != ord("x") else ord("y")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_document_store(path)

    def test_truncation_detected(self, tmp_path):
        index = build_index(BODIES)
        path = save_document_store(
            DocumentStore.from_snapshot(index.snapshot()),
            tmp_path / "docs.store")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        with pytest.raises(SnapshotError, match="truncated"):
            load_document_store(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_document_store(tmp_path / "nope.store")


def _rewrite_store(path: Path, header: dict, body: list[str]) -> None:
    """Write a store file with its footer (count, sha256) recomputed —
    damage no whole-file check can see."""
    import hashlib

    header_line = json.dumps(header, ensure_ascii=False,
                             separators=(",", ":")) + "\n"
    digest = hashlib.sha256()
    for line in (header_line, *body):
        digest.update(line.encode("utf-8"))
    footer = {"t": "end", "records": len(body), "sha256": digest.hexdigest()}
    path.write_text("".join([header_line, *body,
                             json.dumps(footer, separators=(",", ":")) + "\n"]),
                    encoding="utf-8")


class TestLazyDocumentStore:
    """The store verifies the whole file at open and decodes each record
    on first access."""

    @pytest.fixture()
    def store_file(self, tmp_path):
        index = build_index(BODIES)
        path = save_document_store(
            DocumentStore.from_snapshot(index.snapshot()),
            tmp_path / "docs.store")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return path, json.loads(lines[0]), lines[1:-1]

    def test_records_decode_on_first_access_once(self, store_file):
        path, _header, _body = store_file
        store = load_document_store(path)
        assert len(store) == len(BODIES) and "b" in store
        records = store._records
        assert records.documents == {}
        first = store.documents["b"]
        assert store.documents["b"] is first
        assert list(records.documents) == ["b"]
        assert store.doc_lengths["c"] > 0  # lengths are not kept
        assert list(records.documents) == ["b"]
        # Unknown ids — past the end, or between stored ids — are absent.
        for missing in ("zz", "bb", "", 7):
            assert missing not in store.documents
            with pytest.raises(KeyError):
                store.documents[missing]
        assert list(records.documents) == ["b"]

    def test_record_corrupted_under_a_recomputed_checksum(self, store_file):
        path, header, body = store_file
        # Same byte length, so the doc_index still tiles the body.
        body[1] = body[1].replace('"t":"doc"', '"t":"dox"')
        _rewrite_store(path, header, body)
        store = load_document_store(path)  # every open-time check passes
        assert store.documents["a"].doc_id == "a"
        with pytest.raises(SnapshotError, match=r"record 2 \('b'\)"):
            store.documents["b"]
        with pytest.raises(SnapshotError, match=r"record 2 \('b'\)"):
            dict(store.documents)

    def test_record_that_is_not_json_names_the_record(self, store_file):
        path, header, body = store_file
        body[2] = "{" + body[2][1:-2] + "]\n"
        _rewrite_store(path, header, body)
        store = load_document_store(path)
        with pytest.raises(SnapshotError, match=r"record 3 \('c'\) is not "
                                                r"valid JSON"):
            store.doc_lengths["c"]

    def test_record_of_another_document_is_caught(self, store_file):
        path, header, body = store_file
        # Tiling cannot see a record that claims another document's id
        # (same byte length); the per-record id check can.
        body[0] = body[0].replace('"id":"a"', '"id":"b"')
        _rewrite_store(path, header, body)
        store = load_document_store(path)
        with pytest.raises(SnapshotError, match=r"record 1 \('a'\): "
                                                r"doc_index points at"):
            store.documents["a"]

    @pytest.mark.parametrize("damage", ["shifted", "overlapping", "dropped",
                                        "stray", "not_a_pair", "unsorted"])
    def test_doc_index_that_does_not_tile_raises_at_open(self, store_file,
                                                         damage):
        path, header, body = store_file
        index = header["doc_index"]
        if damage == "shifted":
            index["c"][0] += 1
        elif damage == "overlapping":
            index["c"][1] += 1
        elif damage == "dropped":
            del index["c"]
        elif damage == "stray":
            index["zz"] = [0, 3]
        elif damage == "unsorted":
            # Records "a" and "b" swap places; the index follows them,
            # so it tiles the body, but out of doc_id order.
            body[0], body[1] = body[1], body[0]
            index["b"] = [0, len(body[0].encode("utf-8"))]
            index["a"] = [index["b"][1], len(body[1].encode("utf-8"))]
        else:
            index["c"] = index["c"][0]
        _rewrite_store(path, header, body)
        with pytest.raises(SnapshotError, match="doc_index"):
            load_document_store(path)

    def test_store_without_doc_index_decodes_eagerly(self, store_file):
        path, header, body = store_file
        del header["doc_index"]
        _rewrite_store(path, header, body)
        store = load_document_store(path)
        assert type(store.documents) is dict
        assert sorted(store.documents) == sorted(BODIES)

    def test_docstore_backed_snapshot_pickles_to_a_plain_one(self, tmp_path):
        import pickle

        from repro.ir.index import ColumnarIndexSnapshot, IndexSnapshot

        index = build_index(BODIES)
        snapshot = index.snapshot()
        save_document_store(DocumentStore.from_snapshot(snapshot),
                            tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        loaded = load_snapshot(path)
        assert isinstance(loaded, ColumnarIndexSnapshot)
        plain = pickle.loads(pickle.dumps(loaded))
        assert type(plain) is IndexSnapshot
        assert type(plain._documents) is dict
        assert plain._documents == dict(index._documents)
        for query in ("star wars", "ocean"):
            assert [(hit.doc_id, hit.score) for hit
                    in Searcher(plain).search(query, limit=5)] == \
                [(hit.doc_id, hit.score) for hit
                 in Searcher(snapshot).search(query, limit=5)]


class TestDocstoreBackedSnapshots:
    def test_ref_snapshot_round_trips_and_shares_documents(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        store = DocumentStore.from_snapshot(snapshot)
        save_document_store(store, tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        loaded_store = load_document_store(tmp_path / "docs.store")
        loaded = load_snapshot(path, store=loaded_store)
        for document in index.documents():
            assert loaded.document(document.doc_id) == document
            # The loaded snapshot shares the store's Document objects —
            # that sharing is the whole point of the dedup layout.
            assert loaded.document(document.doc_id) is \
                   loaded_store.documents[document.doc_id]
        for term in snapshot.terms():
            assert loaded.postings(term) == snapshot.postings(term)

    def test_snapshot_sees_only_its_own_documents_of_the_store(
            self, tmp_path):
        index = build_index(BODIES)
        save_document_store(DocumentStore.from_snapshot(index.snapshot()),
                            tmp_path / "docs.store")
        part = build_index({"a": BODIES["a"], "c": BODIES["c"]})
        path = save_snapshot(part.snapshot(), tmp_path / "part.snap",
                             docstore="docs.store")
        loaded = load_snapshot(path)
        assert "b" not in loaded and len(loaded) == 2
        with pytest.raises(IndexError_):
            loaded.document("b")
        assert dict(loaded._documents) == dict(part._documents)

    def test_ref_snapshot_is_smaller_than_inline(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        save_document_store(DocumentStore.from_snapshot(snapshot),
                            tmp_path / "docs.store")
        ref_path = save_snapshot(snapshot, tmp_path / "ref.snap",
                                 docstore="docs.store")
        inline_path = save_snapshot(snapshot, tmp_path / "inline.snap")
        assert ref_path.stat().st_size < inline_path.stat().st_size

    def test_store_autoloaded_from_header(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        save_document_store(DocumentStore.from_snapshot(snapshot),
                            tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        loaded = load_snapshot(path)  # no explicit store
        assert loaded.document("a") == index.document("a")

    def test_missing_store_is_clean_error(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot(index.snapshot(), tmp_path / "index.snap",
                             docstore="gone.store")
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(path)

    def test_dangling_ref_is_clean_error(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        partial = build_index({"a": BODIES["a"]})
        save_document_store(DocumentStore.from_snapshot(partial.snapshot()),
                            tmp_path / "docs.store")
        path = save_snapshot(snapshot, tmp_path / "index.snap",
                             docstore="docs.store")
        with pytest.raises(SnapshotError, match="not in the document store"):
            load_snapshot(path)

    def test_analyzer_mismatch_with_store_rejected(self, tmp_path):
        index = build_index(BODIES)
        other = build_index({"a": "star"}, Analyzer(stem=True))
        save_document_store(DocumentStore.from_snapshot(other.snapshot()),
                            tmp_path / "docs.store")
        path = save_snapshot(index.snapshot(), tmp_path / "index.snap",
                             docstore="docs.store")
        with pytest.raises(SnapshotError, match="mix tokenizations"):
            load_snapshot(path)

    def test_read_snapshot_header(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot(index.snapshot(), tmp_path / "index.snap",
                             docstore="docs.store",
                             shard={"index": 1, "count": 4})
        header = read_snapshot_header(path)
        assert header["docstore"] == "docs.store"
        assert header["shard"] == {"index": 1, "count": 4}
        assert header["format_version"] == FORMAT_VERSION


class TestDocStorePartitionLoads:
    """The store header's doc_id -> byte-offset index must let partition
    loads fetch exactly their documents, byte-identical to a full load."""

    def make_store(self, tmp_path):
        index = build_index(BODIES)
        store = DocumentStore.from_snapshot(index.snapshot())
        path = save_document_store(store, tmp_path / "docs.store")
        return store, path

    def test_header_carries_offset_index(self, tmp_path):
        import json

        _store, path = self.make_store(tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        doc_index = header["doc_index"]
        assert sorted(doc_index) == sorted(BODIES)
        # Offsets are relative to the end of the header line and must
        # point exactly at each record's bytes.
        raw = path.read_bytes()
        base = raw.index(b"\n") + 1
        for doc_id, (offset, size) in doc_index.items():
            record = json.loads(raw[base + offset:base + offset + size])
            assert record["t"] == "doc"
            assert record["id"] == doc_id

    def test_partition_load_matches_full_load(self, tmp_path):
        from repro.ir.persist import load_document_store_partition

        store, path = self.make_store(tmp_path)
        full = load_document_store(path)
        part = load_document_store_partition(path, ["a", "c"])
        assert sorted(part.documents) == ["a", "c"]
        for doc_id in ("a", "c"):
            assert part.documents[doc_id] == full.documents[doc_id]
            assert part.doc_lengths[doc_id] == full.doc_lengths[doc_id]
        assert part.analyzer == full.analyzer

    def test_partition_load_duplicates_collapse(self, tmp_path):
        from repro.ir.persist import load_document_store_partition

        _store, path = self.make_store(tmp_path)
        part = load_document_store_partition(path, ["b", "b", "b"])
        assert sorted(part.documents) == ["b"]

    def test_partition_load_unknown_id_raises(self, tmp_path):
        from repro.ir.persist import load_document_store_partition

        _store, path = self.make_store(tmp_path)
        with pytest.raises(SnapshotError, match="doc_index"):
            load_document_store_partition(path, ["nope"])

    def test_partition_load_without_index_falls_back(self, tmp_path):
        # Stores written before the offset index existed still load (the
        # full-store fallback), so old generations stay readable.
        import json

        _store, path = self.make_store(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["doc_index"]
        body = lines[1:-1]
        import hashlib

        header_line = json.dumps(
            header, ensure_ascii=False, separators=(",", ":")) + "\n"
        digest = hashlib.sha256()
        for line in (header_line, *body):
            digest.update(line.encode("utf-8"))
        footer = {"t": "end", "records": len(body),
                  "sha256": digest.hexdigest()}
        footer_line = json.dumps(
            footer, ensure_ascii=False, separators=(",", ":")) + "\n"
        path.write_text("".join([header_line, *body, footer_line]))

        from repro.ir.persist import load_document_store_partition

        loaded = load_document_store_partition(path, ["a"])
        assert "a" in loaded.documents  # full-store superset is fine
        assert len(loaded.documents) == len(BODIES)

    def test_tampered_record_detected(self, tmp_path):
        import json

        from repro.ir.persist import load_document_store_partition

        _store, path = self.make_store(tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        # Point one entry's offset at a different record.
        header["doc_index"]["a"] = header["doc_index"]["b"]
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps(
            header, ensure_ascii=False, separators=(",", ":")) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SnapshotError, match="points at"):
            load_document_store_partition(path, ["a"])

    def test_read_snapshot_doc_ids(self, tmp_path):
        index = build_index(BODIES)
        snapshot = index.snapshot()
        store = DocumentStore.from_snapshot(snapshot)
        save_document_store(store, tmp_path / "docs.store")
        ref_path = save_snapshot(snapshot, tmp_path / "refs.snap",
                                 docstore="docs.store")
        inline_path = save_snapshot(snapshot, tmp_path / "inline.snap")
        assert read_snapshot_doc_ids(ref_path) == sorted(BODIES)
        assert read_snapshot_doc_ids(inline_path) == sorted(BODIES)

    def test_read_snapshot_doc_ids_truncated(self, tmp_path):
        index = build_index(BODIES)
        path = save_snapshot(index.snapshot(), tmp_path / "t.snap")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot_doc_ids(path)

    def test_load_shard_pins_only_its_partition(self, tmp_path):
        # The ROADMAP item this closes: a shard-local load must not parse
        # or pin the other partitions' documents.
        from repro.core import QunitCollection
        from repro.core.derivation import imdb_expert_qunits
        from repro.datasets.imdb import generate_imdb

        db = generate_imdb(scale=0.1, seed=7)
        collection = QunitCollection(db, imdb_expert_qunits(),
                                     max_instances_per_definition=30,
                                     shards=3, parallelism="serial")
        out = tmp_path / "gen"
        from repro.core.store import CollectionStore

        store = CollectionStore(out)
        store.save(collection)
        total = len(collection.global_snapshot())
        for shard_index in range(3):
            snapshot, bloom = store.load_shard(shard_index)
            assert 0 < len(snapshot) < total
            assert len(snapshot._documents) == len(snapshot)
            assert bloom is not None
            # Collection-wide statistics survive partition loading.
            assert snapshot.document_count == total
