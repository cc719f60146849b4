"""Standalone per-layer probes: each layer's public functions, timed alone.

Run in a fresh child (``child.py layers``) over the two saved
artefacts, on the seed's own streams: the lexical stream for
``serve.*`` and ``core.*``, the paraphrase stream for ``ir.vector`` /
``ir.embed``, the term-class stream for ``ir.retrieval`` / ``ir.wand``
/ ``ir.topk`` / ``ir.persist``.  Every probe reports a p50 over its
calls unless it says otherwise; counts are exact.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from pathlib import Path

import fixtures
import spans
import streams
from child import EngineCaller, traced_execute
from estimators import median

FRAME_HEADER_BYTES = 4  # the worker protocol's length prefix


def ms(seconds: float) -> float:
    return seconds * 1e3


def clocked(call, *args, **kwargs):
    start = time.perf_counter()
    value = call(*args, **kwargs)
    return time.perf_counter() - start, value


# -- serve.api / serve.batcher / serve.pipeline: the HTTP path replayed -------


def serve_engine(directory: str):
    """The engine ``repro serve DIR`` builds, warmed like the server is
    before its timed phase."""
    caller = EngineCaller({"workload": "http_closed",
                           "artefact": directory})
    for query in streams.entity_cover(caller.database):
        caller.answer(query)
    return caller.engine


async def _replay(engine, queries, traced: bool, connections: int):
    from repro.serve.api import SearchRequest, SearchResponse
    from repro.serve.batcher import MicroBatcher

    recorder = spans.Recorder()
    batches: dict[int, tuple] = {}   # id(request) -> its batch's clocks
    sizes: list[int] = []
    pairs: list[tuple] = []          # (requests, responses) per batch

    def runner(batch):
        """The benchmark-owned batch executor: what ``engine.execute``
        does, one clocked ``PipelineStage.run`` at a time."""
        start = time.perf_counter()
        if traced:
            local = spans.Recorder()
            contexts = traced_execute(engine, batch, local, 0)
            responses = [SearchResponse(
                query=ctx.query, answers=tuple(ctx.answers),
                timings=(ctx.explanation.stages
                         if ctx.explanation is not None else ()),
                cached=ctx.served_from_cache, admitted=ctx.admitted,
                client_id=ctx.client_id) for ctx in contexts]
            stages = [(span["name"], span["start"], span["end"])
                      for span in local.spans]
        else:
            responses, stages = engine.execute(batch), []
        end = time.perf_counter()
        for request in batch:
            batches[id(request)] = (start, stages, end)
        pairs.append((list(batch), responses))
        return responses

    batcher = MicroBatcher(runner, window=0.002, max_batch=32)
    batcher.start()
    payloads = [json.dumps({"query": query,
                            "limit": fixtures.ENGINE_LIMIT}).encode()
                for query in queries]

    async def connection(indices):
        for index in indices:
            t0 = time.perf_counter()
            request = SearchRequest.from_dict(json.loads(payloads[index]))
            t1 = time.perf_counter()
            response = await batcher.submit(request)
            t2 = time.perf_counter()
            body = json.dumps(response.to_dict()).encode("utf-8")
            t3 = time.perf_counter()
            start, stages, end = batches.pop(id(request))
            root = recorder.add("request", index, t0, t3)
            recorder.add("serve.api.parse", index, t0, t1, root)
            recorder.add("serve.batcher.wait", index, t1, start, root)
            for name, begin, finish in stages:
                recorder.add(name, index, begin, finish, root)
            recorder.add("serve.batcher.resume", index, end, t2, root)
            recorder.add("serve.api.serialise", index, t2, t3, root)
            sizes.append(len(body))

    await asyncio.gather(*(
        connection(range(offset, len(queries), connections))
        for offset in range(connections)))
    await batcher.close()
    return recorder.spans, sizes, pairs


def replay(directory: str, queries, traced: bool = True,
           connections: int = 2):
    """The served path in one process, a fresh engine each time."""
    return asyncio.run(_replay(serve_engine(directory), queries, traced,
                               connections))


def covered_per_request(all_spans: list[dict]) -> list[float]:
    """Per request (root span), the time its child spans cover."""
    covered: dict[int, float] = {}
    for span in all_spans:
        if span["parent"] is not None and not span.get("standalone"):
            root = span["parent"]
            covered[root] = covered.get(root, 0.0) \
                + span["end"] - span["start"]
    return list(covered.values())


def serving_metrics(all_spans, sizes) -> dict:
    out = {}
    for name, metric in (
            ("serve.api.parse", "serve.api.parse_ms"),
            ("serve.api.serialise", "serve.api.serialise_ms"),
            ("serve.batcher.wait", "serve.batcher.wait_ms"),
            ("serve.pipeline.segment", "serve.pipeline.segment_ms"),
            ("serve.pipeline.match", "serve.pipeline.match_ms"),
            ("serve.pipeline.plan", "serve.pipeline.plan_ms"),
            ("serve.pipeline.execute", "serve.pipeline.execute_ms"),
            ("serve.pipeline.assemble", "serve.pipeline.assemble_ms")):
        out[metric] = ms(median(spans.durations(all_spans, name)))
    out["serve.api.response_bytes"] = sum(sizes) / len(sizes)
    return out


# -- serve.workers -------------------------------------------------------------


def frame_codec(pairs) -> dict:
    from repro.serve.api import requests_to_dicts, responses_to_dicts
    from repro.serve.workers import decode_frame, encode_frame

    seconds = []
    for number, (requests, responses) in enumerate(pairs):
        start = time.perf_counter()
        down = encode_frame({"op": "batch", "id": number,
                             "requests": requests_to_dicts(requests)})
        decode_frame(down[FRAME_HEADER_BYTES:])
        up = encode_frame({"op": "result", "id": number,
                           "responses": responses_to_dicts(responses)})
        decode_frame(up[FRAME_HEADER_BYTES:])
        seconds.append(time.perf_counter() - start)
    return {"serve.workers.frame_codec_ms": ms(median(seconds))}


def worker_roundtrip(directory: str, pairs) -> dict:
    """``WorkerPool(workers=1).execute(batch)`` minus
    ``engine.execute(batch)`` on the same batches (result caches off on
    both sides, so both run the pipeline every time)."""
    from repro.serve.workers import WorkerPool, WorkerSpec

    spec = WorkerSpec(directory=directory, scale=fixtures.DB_SCALE,
                      seed=fixtures.DB_SEED, flavor=fixtures.FLAVOR)
    batches = [requests for requests, _responses in pairs]
    warm, timed = batches[:len(batches) // 4], batches[len(batches) // 4:]

    async def through_pool():
        pool = WorkerPool(spec, workers=1)
        await pool.start()
        try:
            for batch in warm:
                await pool.execute(batch)
            seconds = []
            for batch in timed:
                start = time.perf_counter()
                await pool.execute(batch)
                seconds.append(time.perf_counter() - start)
            return seconds
        finally:
            await pool.close()

    pooled = asyncio.run(through_pool())
    engine = spec.build_engine()
    for batch in warm:
        engine.execute(batch)
    local = [clocked(engine.execute, batch)[0] for batch in timed]
    engine.collection.close()
    return {"serve.workers.roundtrip_ms": ms(median(pooled) - median(local))}


# -- ir.* over the large snapshot ---------------------------------------------


def large_tier(path: str, pairs) -> dict:
    from repro.ir import Searcher, load_snapshot, retrieve, topk_scores
    from repro.ir.scoring import Bm25Scorer

    load_seconds, snapshot = clocked(load_snapshot, path)
    searcher = Searcher(snapshot, strategy="auto")
    first_touch, _hits = clocked(searcher.search, "w00700 w01500 w04000 "
                                 "w00003 w00017", fixtures.SEARCHER_LIMIT)
    scorer = Bm25Scorer()
    search, maxscore, postings = [], [], []
    by_class: dict[str, list[float]] = {}
    for name, query in pairs:
        search.append(clocked(searcher.search, query,
                              fixtures.SEARCHER_LIMIT)[0])
        terms = snapshot.analyzer.tokens(query)
        by_class.setdefault(name, []).append(clocked(
            retrieve, snapshot, scorer, terms, fixtures.SEARCHER_LIMIT,
            "auto")[0])
        maxscore.append(clocked(topk_scores, snapshot, scorer, terms,
                                fixtures.SEARCHER_LIMIT)[0])
        postings.append(sum(snapshot.document_frequency(term)
                            for term in terms))
    lookups = searcher.cache_hits + searcher.cache_misses
    out = {
        "ir.persist.load_ms": ms(load_seconds),
        "ir.persist.first_touch_ms": ms(first_touch),
        "ir.retrieval.search_ms": ms(median(search)),
        "ir.retrieval.cache_hit_share": searcher.cache_hits / lookups,
        "ir.topk.maxscore_ms": ms(median(maxscore)),
        "ir.index.postings_per_query": sum(postings) / len(postings),
    }
    for name, seconds in by_class.items():
        out[f"ir.wand.retrieve_ms.{name}"] = ms(median(seconds))
    return out


# -- ir.vector / ir.embed over the collection's flat index --------------------


def vector_tier(directory: str, queries) -> dict:
    from repro.core.store import CollectionStore, LoadOptions
    from repro.ir.embed import HashingEmbedder
    from repro.ir.vector import HYBRID_DEPTH_MULTIPLIER

    collection = CollectionStore(directory).load(fixtures.database(),
                                                 LoadOptions(lazy=True))
    snapshot = collection.global_snapshot()
    embedder = HashingEmbedder()
    vectors = snapshot.vectors(embedder)
    fetch = fixtures.ENGINE_LIMIT * HYBRID_DEPTH_MULTIPLIER
    embed, topk = [], []
    for query in queries:
        text = " ".join(snapshot.analyzer.tokens(query))
        seconds, vector = clocked(embedder.embed_query, text)
        embed.append(seconds)
        topk.append(clocked(vectors.topk, vector, fetch)[0])
    rows = len(vectors)
    collection.close()
    return {"ir.embed.query_ms": ms(median(embed)),
            "ir.vector.topk_ms": ms(median(topk)),
            "ir.vector.rows_scanned_per_query": rows}


# -- core.store / core.collection ---------------------------------------------


def store_tier(directory: str, scratch: Path, queries, seed: int,
               materialize_params: dict) -> dict:
    from repro.core.search import QunitSearchEngine, SearchRequest
    from repro.core.store import CollectionStore, LoadOptions

    database = fixtures.database()
    store = CollectionStore(directory)
    loads = []
    for _ in range(5):
        seconds, collection = clocked(store.load, database,
                                      LoadOptions(lazy=True))
        loads.append(seconds)
        collection.close()
    collection = store.load(database, LoadOptions(lazy=True))
    engine = QunitSearchEngine(collection, flavor=fixtures.FLAVOR)
    engine.execute([SearchRequest(query="star wars cast",
                                  limit=fixtures.ENGINE_LIMIT)])
    lazy_loads = collection.lazy_loads
    materialize = [clocked(collection.materialize, name, params)[0]
                   for name, params in sorted(materialize_params.items())]
    collection.close()

    # A short ingest over a copy: commit, the read after it, the journal.
    copy = scratch / "ingest-probe"
    shutil.copytree(directory, copy)
    store = CollectionStore(copy)
    collection = store.load(database, LoadOptions(lazy=True))
    engine = QunitSearchEngine(collection, flavor=fixtures.FLAVOR)
    writer = store.writer(collection)
    base_documents = collection.global_snapshot().document_count
    cycles, reads, per_commit = 12, 20, 2
    instances = streams.ingest_instances(collection, database, seed,
                                         cycles * per_commit)
    commits, post_swap = [], []
    for cycle in range(cycles):
        for offset, query in enumerate(
                queries[cycle * reads:(cycle + 1) * reads]):
            seconds, _ = clocked(engine.execute, [SearchRequest(
                query=query, limit=fixtures.ENGINE_LIMIT)])
            if offset == 0 and cycle:
                post_swap.append(seconds)
        for instance in instances[cycle * per_commit:
                                  (cycle + 1) * per_commit]:
            writer.stage_instance(instance)
        commits.append(clocked(writer.commit)[0])
    collection.close()
    journal = sum(path.stat().st_size for path in copy.glob("*.jrnl"))
    compact_seconds, _folded = clocked(store.compact)
    reopened = store.load(database, LoadOptions(lazy=True))
    if reopened.global_snapshot().document_count \
            != base_documents + cycles * per_commit:
        raise RuntimeError("compaction lost documents")
    reopened.close()
    return {"core.store.load_lazy_ms": ms(median(loads)),
            "core.store.lazy_loads_first_query": lazy_loads,
            "core.collection.materialize_ms": ms(median(materialize)),
            "core.store.commit_ms": ms(median(commits)),
            "core.store.post_swap_read_ms": ms(median(post_swap)),
            "core.store.journal_bytes_per_doc":
                journal / (cycles * per_commit),
            "core.store.compact_ms": ms(compact_seconds)}


def run(job: dict) -> None:
    directory, scratch = job["collection"], Path(job["scratch"])
    out: dict = {}
    traced_spans, sizes, pairs = replay(directory, job["lexical"])
    out.update(serving_metrics(traced_spans, sizes))
    untraced_spans, _sizes, _pairs = replay(directory, job["lexical"],
                                            traced=False)
    out["replay"] = {
        "covered_ms": ms(median(covered_per_request(traced_spans))),
        "traced_p50_ms": ms(median(spans.durations(traced_spans,
                                                   "request"))),
        "untraced_p50_ms": ms(median(spans.durations(untraced_spans,
                                                     "request"))),
        "self_ms": {name: ms(median(values)) for name, values
                    in spans.self_times(traced_spans).items()}}
    out.update(frame_codec(pairs))
    out.update(worker_roundtrip(directory, pairs))
    out.update(large_tier(job["large"], job["large_pairs"]))
    out.update(vector_tier(directory, job["paraphrases"]))
    out.update(store_tier(directory, scratch, job["lexical"], job["seed"],
                          job["materialize_params"]))
    out["spans"] = traced_spans
    Path(job["result"]).write_text(json.dumps(out))
