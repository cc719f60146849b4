"""The measured processes: always a fresh child that opens the saved artefact.

``python3 child.py MODE JOB.json`` with MODE one of

- ``serve``      open the artefact, warm, print READY, wait for GO,
                 run the timed phase (or its traced twin), write results;
- ``cold``       a template process that imports everything, builds the
                 database object, then forks one child per trial; each
                 child times open -> first verified answer of the probe;
- ``durability`` open an ingested directory from disk only, check every
                 acknowledged document is retrievable, compact, reopen,
                 check again;
- ``layers``     the standalone per-layer probes (see ``layers.py``).

The process that built the corpus is never the one measured.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import fixtures  # noqa: E402
import spans  # noqa: E402
import streams  # noqa: E402
from estimators import calibration_loop  # noqa: E402
from fixtures import answer_ids  # noqa: E402


# -- callers: one per way of opening an artefact ------------------------------


class LargeCaller:
    """``load_snapshot`` (mmap) + ``Searcher.search(strategy="auto")``."""

    def __init__(self, job):
        from repro.ir import Searcher, load_snapshot

        self.snapshot = load_snapshot(job["artefact"])
        self.searcher = Searcher(self.snapshot, strategy="auto")

    def answer(self, query: str) -> list[str]:
        return [hit.doc_id for hit in
                self.searcher.search(query, limit=fixtures.SEARCHER_LIMIT)]

    def traced(self, query: str, request: int, recorder):
        """``(ids, seconds)``: the request span, then — outside it —
        the layers ``Searcher.search`` only reaches nested, driven
        standalone on the same input."""
        from repro.ir import retrieve, topk_scores
        from repro.ir.scoring import Bm25Scorer

        with recorder.span("request", request) as root:
            with recorder.span("ir.retrieval.search", request):
                ids = self.answer(query)
        terms = self.snapshot.analyzer.tokens(query)
        scorer = Bm25Scorer()
        with recorder.span("ir.wand.retrieve", request, standalone=True):
            retrieve(self.snapshot, scorer, terms, fixtures.SEARCHER_LIMIT,
                     "auto")
        with recorder.span("ir.topk.maxscore", request, standalone=True):
            topk_scores(self.snapshot, scorer, terms,
                        fixtures.SEARCHER_LIMIT)
        return ids, root["end"] - root["start"]

    def counters(self) -> dict:
        return {"cache_hits": self.searcher.cache_hits,
                "cache_misses": self.searcher.cache_misses}

    def close(self) -> None:
        self.searcher.close()


class EngineCaller:
    """A ``QunitSearchEngine`` over the saved collection, opened the way
    the workload's serving path opens it."""

    def __init__(self, job):
        from repro.core.search import QunitSearchEngine
        from repro.core.store import CollectionStore, LoadOptions

        self.database = fixtures.database()
        self.hybrid = job["workload"] == "hybrid_paraphrase"
        directory = job["artefact"]
        workload = job["workload"]
        if workload == "hybrid_paraphrase":
            self.engine = QunitSearchEngine.load(
                self.database, directory, flavor=fixtures.FLAVOR,
                strategy="hybrid")
        elif workload == "ingest_mixed":
            self.store = CollectionStore(directory)
            collection = self.store.load(self.database,
                                         LoadOptions(lazy=True))
            self.engine = QunitSearchEngine(collection,
                                            flavor=fixtures.FLAVOR)
            self.writer = self.store.writer(collection)
        else:  # http_closed: the engine `repro serve DIR` builds
            from repro.serve.workers import WorkerSpec

            self.engine = WorkerSpec(
                directory=directory, scale=fixtures.DB_SCALE,
                seed=fixtures.DB_SEED, flavor=fixtures.FLAVOR,
                cache_size=512, cache_coverage=0.5).build_engine()
        self.cached = 0
        self.answered = 0

    def request(self, query: str):
        from repro.core.search import SearchRequest

        return SearchRequest(query=query, limit=fixtures.ENGINE_LIMIT)

    def answer(self, query: str) -> list[str]:
        response = self.engine.execute([self.request(query)])[0]
        self.cached += response.cached
        self.answered += 1
        return answer_ids(response.answers)

    def traced(self, query: str, request: int, recorder):
        """``(ids, seconds)``: the request span over the stages, then —
        for the hybrid workload, outside it — the flat index's query
        embedding and cosine scan driven standalone."""
        with recorder.span("request", request) as root:
            contexts = traced_execute(self.engine, [self.request(query)],
                                      recorder, request)
        if self.hybrid:
            from repro.ir.embed import HashingEmbedder
            from repro.ir.vector import HYBRID_DEPTH_MULTIPLIER

            snapshot = self.engine.collection.global_snapshot()
            embedder = HashingEmbedder()
            text = " ".join(snapshot.analyzer.tokens(query))
            with recorder.span("ir.embed.query", request, standalone=True):
                vector = embedder.embed_query(text)
            with recorder.span("ir.vector.topk", request, standalone=True):
                snapshot.vectors(embedder).topk(
                    vector, fixtures.ENGINE_LIMIT * HYBRID_DEPTH_MULTIPLIER)
        return answer_ids(contexts[0].answers), root["end"] - root["start"]

    def commit(self, instances):
        for instance in instances:
            self.writer.stage_instance(instance)
        return self.writer.commit()

    def counters(self) -> dict:
        collection = self.engine.collection
        return {"result_cached": self.cached, "answered": self.answered,
                "lazy_loads": getattr(collection, "lazy_loads", 0)}

    def close(self) -> None:
        self.engine.collection.close()


def open_caller(job):
    if job["workload"] == "ir_large":
        return LargeCaller(job)
    return EngineCaller(job)


def traced_execute(engine, requests, recorder, request: int):
    """``QueryPipeline.run_contexts`` with one span per stage: the
    middleware enters, each ``PipelineStage.run`` is timed over the
    batch's contexts, the explanation is patched, the middleware
    exits."""
    from repro.serve.explain import StageTiming
    from repro.serve.pipeline import QueryContext

    pipeline = engine.pipeline
    contexts = [QueryContext(query=r.query, limit=r.limit,
                             client_id=r.client_id, strategy=r.strategy)
                for r in requests]
    active = contexts
    for middleware in pipeline.middleware:
        active = middleware.enter(active, pipeline)
    if active:
        for stage in pipeline.stages:
            with recorder.span(f"serve.pipeline.{stage.name}",
                               request) as span:
                stage.run(active, pipeline)
            timing = StageTiming(stage.name, span["end"] - span["start"])
            for ctx in active:
                ctx.stage_timings.append(timing)
        for ctx in active:
            ctx.explanation = replace(ctx.explanation,
                                      stages=tuple(ctx.stage_timings))
    for middleware in reversed(pipeline.middleware):
        middleware.exit(active, pipeline)
    return contexts


# -- serve: the timed phase ---------------------------------------------------


def timed_phase(caller, job, recorder=None) -> dict:
    """Run the ops in slices; one latency sample and one answer per op.
    A failed op (an exception) leaves ``None`` as its answer and no
    sample.  Between slices the calibration loop runs, outside every
    slice's wall time."""
    ops = job["ops"]
    size = job["slice_size"]
    deadline = time.perf_counter() + job["deadline_seconds"]
    cycle = job.get("cycle")  # ingest_mixed: reads per commit etc.
    instances = iter(())
    if cycle:
        instances = iter(streams.ingest_instances(
            caller.engine.collection, caller.database, job["seed"],
            cycle["commits"] * cycle["documents"]))
    slices, answers, calibration, errors = [], [], [], []
    commits = []
    request = 0
    for start in range(0, len(ops), size):
        latencies = []
        done = 0
        slice_start = time.perf_counter()
        for offset, query in enumerate(ops[start:start + size]):
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    ids = caller.answer(query)
                    elapsed = time.perf_counter() - t0
                else:
                    ids, elapsed = caller.traced(query, request, recorder)
                latencies.append(elapsed)
            except Exception as exc:  # a failed op, counted by the parent
                ids = None
                errors.append(f"{type(exc).__name__}: {exc}")
            answers.append(ids)
            request += 1
            done += 1
            if cycle and (offset + 1) % cycle["reads"] == 0:
                batch = [next(instances) for _ in range(cycle["documents"])]
                t0 = time.perf_counter()
                try:
                    if recorder is None:
                        caller.commit(batch)
                    else:
                        with recorder.span("core.store.commit", request):
                            caller.commit(batch)
                    commits.append({
                        "seconds": time.perf_counter() - t0,
                        "ids": [i.instance_id for i in batch],
                        "tokens": [i.params["x"].split()[-1]
                                   for i in batch]})
                except Exception as exc:
                    errors.append(f"commit {type(exc).__name__}: {exc}")
                    commits.append(None)
                done += 1
        slices.append({"latencies": latencies, "ops": done,
                       "wall": time.perf_counter() - slice_start})
        calibration.append(calibration_loop())
        if time.perf_counter() > deadline:
            break  # a box far slower than planned: report what ran
    return {"slices": slices, "answers": answers, "commits": commits,
            "calibration": calibration,
            "errors": errors[:20], "counters": caller.counters(),
            "peak_rss_mb": fixtures.peak_rss_mb()}


def serve(job) -> None:
    caller = open_caller(job)
    for query in job["warm"]:
        caller.answer(query)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        caller.close()  # a set-up replica: opened and warmed, never timed
        return
    recorder = spans.Recorder() if job.get("trace") else None
    result = timed_phase(caller, job, recorder)
    if recorder is not None:
        result["spans"] = recorder.spans
    if job.get("flat_queries"):
        # The loaded (mmap'd) flat index's own hybrid ranking, for the
        # parent to check against brute force.
        from repro.ir import Searcher

        flat = Searcher(caller.engine.collection.global_snapshot(),
                        strategy="hybrid", cache_size=0)
        result["flat_hybrid"] = {
            query: [hit.doc_id for hit in
                    flat.search(query, limit=fixtures.ENGINE_LIMIT)]
            for query in job["flat_queries"]}
    caller.close()
    Path(job["result"]).write_text(json.dumps(result))


# -- cold: fresh-process first answers ----------------------------------------


def cold_trial(job) -> dict:
    """Inside a forked child: open the artefact, answer the probe,
    verify it.  Imports are done and the database object exists (the
    template built it); nothing of the artefact has been touched."""
    start = time.perf_counter()
    ids = open_caller(job).answer(job["probe"])
    return {"seconds": time.perf_counter() - start,
            "ok": ids == job["expected"]}


def cold(job) -> None:
    fixtures.database()  # the template's warm-up: imports + generator
    import repro.core.search  # noqa: F401  (imports done before the clock)
    import repro.core.store  # noqa: F401
    import repro.serve.workers  # noqa: F401

    trials = []
    for _ in range(job["trials"]):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            try:
                payload = cold_trial(job)
            except Exception as exc:
                payload = {"ok": False,
                           "error": f"{type(exc).__name__}: {exc}"}
            os.write(write_end, json.dumps(payload).encode())
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            trials.append(json.loads(pipe.read() or b'{"ok": false}'))
        os.waitpid(pid, 0)
    Path(job["result"]).write_text(json.dumps(trials))


# -- durability: what survives on disk ----------------------------------------


def durability(job) -> None:
    """Every acknowledged commit's documents must be retrievable by a
    process that sees only the directory; again after ``compact()``."""
    from repro.core.search import QunitSearchEngine, SearchRequest
    from repro.core.store import CollectionStore, LoadOptions

    database = fixtures.database()
    store = CollectionStore(job["artefact"])

    def missing() -> tuple[list[str], int]:
        collection = store.load(database, LoadOptions(lazy=True))
        engine = QunitSearchEngine(collection, flavor=fixtures.FLAVOR)
        lost = []
        for instance_id, token in job["documents"]:
            response = engine.execute(
                [SearchRequest(query=token, limit=fixtures.ENGINE_LIMIT)])[0]
            if instance_id not in answer_ids(response.answers):
                lost.append(instance_id)
        documents = collection.global_snapshot().document_count
        collection.close()
        return lost, documents

    lost_before, documents = missing()
    journal_bytes = sum(path.stat().st_size
                        for path in Path(job["artefact"]).glob("*.jrnl"))
    start = time.perf_counter()
    folded = store.compact()
    compact_seconds = time.perf_counter() - start
    lost_after, documents_after = missing()
    Path(job["result"]).write_text(json.dumps({
        "lost_before_compact": lost_before,
        "lost_after_compact": lost_after,
        "documents": documents, "documents_after_compact": documents_after,
        "journal_bytes": journal_bytes, "segments_folded": folded,
        "compact_seconds": compact_seconds}))


def main(argv) -> int:
    mode, job_path = argv
    job = json.loads(Path(job_path).read_text())
    if mode == "layers":
        import layers

        layers.run(job)
    else:
        {"serve": serve, "cold": cold, "durability": durability}[mode](job)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
