"""Set-up: the two saved artefacts every workload serves from.

The qunit collection is the expert derivation over the synthetic IMDb
database at a *fixed* database seed: ``disk_bytes_per_doc`` and
``peak_rss_mb`` are gated at 1 % and 5 %, and a different database
moves both by more than that, so ``--seed`` drives the query streams
and the ingested documents, never the corpus.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.core import QunitCollection
from repro.core.derivation import imdb_expert_qunits
from repro.core.store import CollectionStore, SaveOptions
from repro.datasets.imdb import generate_imdb
from repro.ir import InvertedIndex, save_snapshot

#: Set by the tier-1 smoke test (and inherited by the children it
#: starts): the same code over corpora a tenth the size.
SMOKE = bool(os.environ.get("E2E_SMOKE"))

DB_SCALE = 0.3
DB_SEED = 7
MAX_INSTANCES = 12 if SMOKE else 150
FLAVOR = "expert"
ENGINE_LIMIT = 5       # answers per engine request
SEARCHER_LIMIT = 10    # hits per Searcher.search on the large tier
LARGE_DOCS = 1_200 if SMOKE else 12_000
COLD_TRIALS = 3 if SMOKE else 10


def database():
    return generate_imdb(scale=DB_SCALE, seed=DB_SEED)


def build_collection(directory: Path):
    """Derive, materialise, index, embed and save the collection (full
    mode, vector extents included).  Returns ``(live collection, save
    report, timings)`` — the live collection is what oracles run over;
    nothing measured ever touches it."""
    start = time.perf_counter()
    collection = QunitCollection(database(), imdb_expert_qunits(),
                                 max_instances_per_definition=MAX_INSTANCES)
    collection.all_instances()
    built = time.perf_counter()
    report = CollectionStore(directory).save(
        collection, SaveOptions(mode="full", vectors=True))
    saved = time.perf_counter()
    return collection, report, {
        "core.collection.build_ms": (built - start) * 1e3,
        "core.store.save_full_ms": (saved - built) * 1e3}


def build_large_index(path: Path, documents):
    """Index ``documents`` and save the frozen snapshot (v3, mmap-able).
    Returns the in-memory snapshot the oracle searches and the
    ``save_snapshot`` time in ms."""
    index = InvertedIndex()
    index.add_all(documents)
    snapshot = index.snapshot()
    path.parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    save_snapshot(snapshot, path)
    return snapshot, (time.perf_counter() - start) * 1e3


def answer_ids(answers) -> list[str]:
    """The identity an engine answer is checked by."""
    return [str(answer.meta("instance_id", "")) for answer in answers]


def artefact_bytes(path: Path) -> int:
    """Bytes of a saved artefact: one file, or every file of a directory."""
    if path.is_file():
        return path.stat().st_size
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def environment() -> dict:
    import platform

    commit = "unknown"
    root = Path(__file__).resolve().parents[2]
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit}
