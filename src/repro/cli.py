"""Command-line interface.

::

    python -m repro search "star wars cast" [more queries ...] [--scale 0.3]
                    [--flavor expert] [--shards 4] [--strategy hybrid]
                    [--batch-file queries.txt] [--explain]
    python -m repro derive --strategy schema_data [--k1 4 --k2 3]
    python -m repro save DIR [--flavor expert] [--shards 4] [--mode auto]
    python -m repro load DIR ["query" ...] [--shards 4] [--strategy auto]
                    [--explain]
    python -m repro compact PATH
    python -m repro bench-diff BASELINE_DIR CURRENT_DIR [--threshold 0.25]
    python -m repro loganalysis [--unique 400]
    python -m repro evaluate [--queries 25] [--raters 20]
    python -m repro serve [DIR] [--port 8080] [--window-ms 2 --max-batch 32]
                    [--cache-size 512 --quota-rate 50] [--workers 4]
    python -m repro loadtest [--clients 8 --sessions 200]
                    [--compare-unbatched] [--assert-min-qps QPS]
                    [--assert-p99-ms MS] [--output report.json]
                    [--workers 4] [--arrival-rate 200]

Everything runs on the synthetic database (deterministic for a given
``--seed``), so the CLI doubles as a zero-setup demo of the system.
``save`` persists a derived collection (definitions + a deduplicated
document store + index snapshots; with ``--shards N`` also one snapshot
per shard partition) to a directory through the typed store API
(``repro.core.store.CollectionStore``) — when the directory already
holds a compatible generation, only the *new* documents are appended to
the collection delta journal (``--mode`` forces ``full`` or ``delta``);
``load`` restarts from that directory without re-deriving, pinning only
the manifest and snapshot headers up front (snapshots mmap lazily on
first query demand) — pass queries to answer them from the
loaded snapshots.  All queries given to ``search``/``load`` — positional
ones plus any read from ``--batch-file`` (one query per line) — are
answered as *one batch* through the staged query pipeline
(``repro.serve``), so sharded executors see batched dispatches;
``--explain`` prints each query's full stage trace (per-stage wall time,
the query plan, the retrieval strategy, cache and shard-routing
counters, and rejected candidate definitions).  ``compact``
folds a collection directory's delta journal back into clean bases
(rewriting a fresh journal-free generation).  ``bench-diff`` compares two directories of
``BENCH_*.json`` benchmark reports (the perf-regression check CI runs
nightly — see ``repro.bench.regression``).  ``--shards N`` scores the
flat collection index as N hash-partitioned shards in parallel,
Bloom-routing each query batch only to shards that can match (see
``repro.ir.shard``); ``--shard-mode`` picks the executor (``serial`` or
``process`` — multiprocess workers that mmap v3 snapshots);
``--strategy`` picks ``auto`` (lexical max-score retrieval, the
default) or ``hybrid`` — lexical retrieval fused with cosine scoring
over document embeddings by reciprocal rank; see ``repro.ir.topk`` and
``repro.ir.vector``.

``serve`` puts the engine behind the asyncio HTTP front end
(``repro.serve.server``): concurrent requests micro-batch through one
pipeline run, a bounded queue gives backpressure (429 + Retry-After),
``--quota-rate`` adds per-client token buckets, and ``--cache-size`` /
``--cache-coverage`` enable the result cache with Zipf-head store
admission learned from the synthetic session log.  ``--workers N``
(requires a saved DIR) adds the prefork tier (``repro.serve.workers``):
N spawn-context pipeline worker processes each mmap the saved
collection lazily — one shared OS page cache — and whole micro-batches
are dispatched to the least-loaded worker over a framed socketpair, so
pipeline QPS scales with cores instead of serializing under one GIL.
``loadtest`` is the measurement harness for that server: it starts one
in-process on an ephemeral port, replays session-structured traffic
over N concurrent clients, and reports sustained QPS, p50/p99 latency,
and cache hit rate (``--compare-unbatched`` re-runs with batching
disabled and reports the speedup; the ``--assert-*`` flags make it a CI
smoke check; ``--workers N`` measures the prefork tier).  The default
load model is closed-loop (each client waits for its response before
sending the next); ``--arrival-rate R`` switches to *open-loop*:
requests arrive on a seeded Poisson process at R per second whether or
not earlier ones finished, and the report adds drop/timeout rates —
the model that makes saturation visible instead of self-throttling
around it.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import QunitCollection, UtilityModel
from repro.core.derivation import (
    ExternalEvidenceDeriver,
    QueryLogDeriver,
    SchemaDataDeriver,
    imdb_expert_qunits,
)
from repro.core.search import QunitSearchEngine, SearchRequest
from repro.datasets.evidence import generate_wiki_corpus
from repro.datasets.imdb import generate_imdb
from repro.datasets.querylog import QueryLogAnalyzer, QueryLogGenerator
from repro.eval.figures import render_sec52_statistics
from repro.ir.topk import STRATEGIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qunits (CIDR 2009) reproduction — search demo CLI",
    )
    parser.add_argument("--scale", type=float, default=0.3,
                        help="synthetic database scale (default 0.3)")
    parser.add_argument("--seed", type=int, default=7,
                        help="generator seed (default 7)")
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="run keyword queries")
    search.add_argument("query", nargs="?", default=None)
    search.add_argument("more_queries", nargs="*", metavar="query",
                        help="additional queries, answered as one batch "
                             "through the staged pipeline (see also "
                             "QunitSearchEngine.search_many)")
    search.add_argument("--batch-file", default=None, metavar="PATH",
                        help="file with one query per line, appended to "
                             "the positional queries and answered as one "
                             "batch through the staged pipeline")
    search.add_argument("--flavor", default="expert",
                        choices=["expert", "schema_data", "query_log",
                                 "external", "forms"])
    search.add_argument("--limit", type=int, default=3)
    _add_shard_options(search)

    save = commands.add_parser(
        "save", help="derive a collection and persist it to a directory")
    save.add_argument("directory",
                      help="output directory for the manifest + snapshots")
    save.add_argument("--flavor", default="expert",
                      choices=["expert", "schema_data", "query_log",
                               "external", "forms"])
    save.add_argument("--max-instances", type=int, default=150,
                      help="instance cap per definition (default 150)")
    save.add_argument(
        "--shards", type=int, default=0,
        help="also persist N per-shard snapshots (with term Bloom "
             "filters) so servers can load single partitions and "
             "`load --shards N` skips the in-memory re-partition")
    save.add_argument(
        "--mode", default="auto", choices=["auto", "full", "delta"],
        help="save mode: 'delta' appends only new documents to the "
             "collection journal, 'full' rewrites every snapshot, "
             "'auto' picks delta when the directory holds a compatible "
             "generation (default auto)")

    compact = commands.add_parser(
        "compact",
        help="fold a collection directory's delta journal into clean "
             "snapshot bases")
    compact.add_argument(
        "path",
        help="a collection directory written by `save`")

    bench_diff = commands.add_parser(
        "bench-diff",
        help="compare two directories of BENCH_*.json benchmark reports; "
             "exits nonzero when a tracked metric regressed")
    bench_diff.add_argument("baseline_dir",
                            help="baseline reports (e.g. "
                                 "benchmarks/baselines)")
    bench_diff.add_argument("current_dir",
                            help="reports to check (e.g. "
                                 "benchmarks/results)")
    bench_diff.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed relative regression before failing (default 0.25)")

    load = commands.add_parser(
        "load", help="restart from a saved collection (no re-derivation)")
    load.add_argument("directory", help="directory written by `save`")
    load.add_argument("queries", nargs="*", metavar="query",
                      help="queries to answer from the loaded snapshots")
    load.add_argument("--batch-file", default=None, metavar="PATH",
                      help="file with one query per line, appended to "
                           "the positional queries and answered as one "
                           "batch through the staged pipeline")
    load.add_argument("--flavor", default="expert",
                      help="flavor label for branding answers")
    load.add_argument("--limit", type=int, default=3)
    _add_shard_options(load)

    derive = commands.add_parser("derive", help="derive qunit definitions")
    derive.add_argument("--strategy", default="schema_data",
                        choices=["expert", "schema_data", "query_log",
                                 "external", "forms"])
    derive.add_argument("--k1", type=int, default=4)
    derive.add_argument("--k2", type=int, default=3)

    log_analysis = commands.add_parser(
        "loganalysis", help="generate + analyze the synthetic query log")
    log_analysis.add_argument("--unique", type=int, default=0,
                              help="distinct queries (0 = recommended)")

    evaluate = commands.add_parser(
        "evaluate", help="run the Figure 3 result-quality experiment")
    evaluate.add_argument("--queries", type=int, default=25)
    evaluate.add_argument("--raters", type=int, default=20)

    serve = commands.add_parser(
        "serve",
        help="serve search over HTTP: asyncio front end with "
             "micro-batching, backpressure, and per-client quotas")
    serve.add_argument("directory", nargs="?", default=None,
                       help="saved collection directory (from `save`); "
                            "omitted = derive live at --scale")
    serve.add_argument("--flavor", default="expert",
                       choices=["expert", "schema_data", "query_log",
                                "external", "forms"])
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (default 8080; 0 = ephemeral)")
    serve.add_argument(
        "--workers", type=int, default=0,
        help="prefork pipeline worker processes (0 = run batches "
             "in-process; requires a saved collection DIR — workers "
             "mmap it lazily and share one OS page cache)")
    _add_serving_options(serve)
    _add_executor_options(serve)

    loadtest = commands.add_parser(
        "loadtest",
        help="measure the serving front end: start a server in-process "
             "and replay session-structured Zipf traffic closed-loop")
    loadtest.add_argument("--flavor", default="expert",
                          choices=["expert", "schema_data", "query_log",
                                   "external", "forms"])
    loadtest.add_argument("--clients", type=int, default=8,
                          help="concurrent closed-loop clients (default 8)")
    loadtest.add_argument("--sessions", type=int, default=200,
                          help="user sessions to replay (default 200)")
    loadtest.add_argument("--limit", type=int, default=5,
                          help="result limit per request (default 5)")
    loadtest.add_argument(
        "--compare-unbatched", action="store_true",
        help="re-run the same workload with micro-batching disabled "
             "(window 0, batch size 1) and report the QPS speedup")
    loadtest.add_argument(
        "--assert-min-qps", type=float, default=None, metavar="QPS",
        help="exit nonzero unless batched throughput reaches QPS "
             "(CI smoke gate)")
    loadtest.add_argument(
        "--assert-p99-ms", type=float, default=None, metavar="MS",
        help="exit nonzero if batched p99 latency exceeds MS "
             "(CI smoke gate)")
    loadtest.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the report as JSON (the BENCH_serving shape)")
    loadtest.add_argument(
        "--workers", type=int, default=0,
        help="prefork pipeline worker processes behind the measured "
             "server (0 = in-process; the collection is saved to a "
             "temporary directory the workers mmap)")
    loadtest.add_argument(
        "--arrival-rate", type=float, default=None, metavar="R",
        help="switch to open-loop load: requests arrive on a seeded "
             "Poisson process at R per second (one-shot, no retries; "
             "the report adds drop/timeout rates; default closed-loop)")
    _add_serving_options(loadtest)
    _add_executor_options(loadtest)
    return parser


def _add_serving_options(subparser) -> None:
    subparser.add_argument(
        "--window-ms", type=float, default=2.0,
        help="micro-batch window in ms, measured from the batch's first "
             "request (0 = no batching; default 2)")
    subparser.add_argument(
        "--max-batch", type=int, default=32,
        help="requests per micro-batch at most (default 32)")
    subparser.add_argument(
        "--queue-limit", type=int, default=256,
        help="waiting requests before the server answers 429 "
             "(default 256)")
    subparser.add_argument(
        "--quota-rate", type=float, default=None,
        help="per-client requests/second quota (token bucket; "
             "default off)")
    subparser.add_argument(
        "--quota-burst", type=float, default=20.0,
        help="per-client burst allowance (default 20)")
    subparser.add_argument(
        "--cache-size", type=int, default=512,
        help="pipeline result-cache entries (0 disables; default 512)")
    subparser.add_argument(
        "--cache-coverage", type=float, default=0.5,
        help="volume fraction of the query log whose Zipf head is "
             "admitted to the result cache (0 = admit everything; "
             "default 0.5)")


def _add_shard_options(subparser) -> None:
    _add_executor_options(subparser)
    subparser.add_argument(
        "--explain", action="store_true",
        help="print each query's full pipeline stage trace (plan, "
             "strategy, per-stage wall time, cache and shard "
             "routing counters, rejected candidates)")


def _add_executor_options(subparser) -> None:
    subparser.add_argument(
        "--shards", type=int, default=0,
        help="hash-partition the flat index into N shards scored in "
             "parallel (0 = serial; results are identical either way)")
    subparser.add_argument(
        "--shard-mode", default="serial",
        choices=["serial", "process"],
        help="executor for sharded scoring (default serial; process "
             "scales across cores — workers mmap v3 snapshots and "
             "share one page cache)")
    subparser.add_argument(
        "--strategy", default="auto",
        choices=STRATEGIES,
        help="retrieval strategy: 'auto' is lexical max-score top-k "
             "(the default); 'hybrid' fuses it with cosine scoring "
             "over document embeddings by reciprocal rank")


def _definitions_for(args, db, strategy: str):
    if strategy == "expert":
        return imdb_expert_qunits()
    if strategy == "schema_data":
        k1 = getattr(args, "k1", 4)
        k2 = getattr(args, "k2", 3)
        return SchemaDataDeriver(db, k1=k1, k2=k2).derive()
    if strategy == "forms":
        from repro.core.derivation import FormBasedDeriver

        return FormBasedDeriver(db).derive()
    if strategy == "query_log":
        generator = QueryLogGenerator(db, seed=args.seed + 1)
        log = generator.generate(generator.recommended_unique())
        return QueryLogDeriver(db).derive(log.as_list())
    pages = generate_wiki_corpus(db, seed=args.seed + 2)
    return ExternalEvidenceDeriver(db).derive(pages)


def _print_answers(engine, queries: list[str], limit: int,
                   explain: bool = False) -> bool:
    from repro.core.search import SnippetExtractor

    extractor = SnippetExtractor(window=24)
    any_answers = False
    # One pipeline run for the whole batch: segmentation, matching, and
    # retrieval dispatch are all batched (the sequential per-query loop
    # this replaces paid a shard dispatch per query).  The CLI speaks
    # the typed request/response API natively — the same types the HTTP
    # server serializes onto the wire.
    responses = engine.execute([
        SearchRequest(query=query, limit=limit, explain=True)
        for query in queries])
    for i, response in enumerate(responses):
        answers, explanation = response.answers, response.explanation
        if i:
            print()
        print(f"query   : {response.query}")
        if explain:
            print(explanation.render())
        else:
            print(f"template: {explanation.template}  "
                  f"({explanation.query_class})")
        if not answers:
            print("no answers.")
            continue
        any_answers = True
        for rank, answer in enumerate(answers, start=1):
            print(f"\n#{rank}  [{answer.meta('definition')}]  "
                  f"score={answer.score:.3f}")
            print("   " + extractor.snippet(answer.text, response.query))
    return any_answers


def _gather_queries(positional: list[str], batch_file: str | None,
                    parser_hint: str | None = None) -> list[str]:
    """Positional queries plus any ``batch_file`` lines (one query per
    non-blank line).  With ``parser_hint`` set, an empty result exits
    with an argument error (status 2)."""
    queries = list(positional)
    if batch_file:
        from pathlib import Path

        try:
            text = Path(batch_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read --batch-file {batch_file!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from exc
        queries.extend(line.strip() for line in text.splitlines()
                       if line.strip())
    if not queries and parser_hint is not None:
        print(f"{parser_hint}: no queries given "
              f"(pass them positionally or via --batch-file)",
              file=sys.stderr)
        raise SystemExit(2)
    return queries


def _command_search(args) -> int:
    db = generate_imdb(scale=args.scale, seed=args.seed)
    positional = [query for query in [args.query, *args.more_queries]
                  if query is not None]
    queries = _gather_queries(positional, args.batch_file, "repro search")
    definitions = _definitions_for(args, db, args.flavor)
    engine = QunitSearchEngine(
        QunitCollection(db, definitions, max_instances_per_definition=150,
                        shards=args.shards, parallelism=args.shard_mode,
                        strategy=args.strategy),
        flavor=args.flavor,
    )
    return 0 if _print_answers(engine, queries, args.limit,
                               explain=args.explain) else 1


def _command_save(args) -> int:
    from repro.core.store import CollectionStore, SaveOptions

    db = generate_imdb(scale=args.scale, seed=args.seed)
    definitions = _definitions_for(args, db, args.flavor)
    collection = QunitCollection(
        db, definitions, max_instances_per_definition=args.max_instances,
        shards=args.shards)
    report = CollectionStore(args.directory).save(
        collection, SaveOptions(mode=args.mode))
    snapshot = collection.global_snapshot()
    print(f"saved collection to {report.path}")
    print(f"  mode        : {report.mode}")
    print(f"  generation  : {report.generation}")
    print(f"  definitions : {len(collection)}")
    print(f"  instances   : {collection.instance_count()}")
    print(f"  documents   : {report.documents}")
    print(f"  vocabulary  : {snapshot.vocabulary_size}")
    if report.mode == "delta":
        print(f"  appended    : {report.appended_documents} document(s) "
              f"in {report.journal_segments} segment(s)")
    if args.shards >= 2:
        print(f"  shards      : {args.shards}")
    return 0


def _command_compact(args) -> int:
    from pathlib import Path

    from repro.core.store import CollectionStore

    target = Path(args.path)
    if not (target / "collection.json").is_file():
        print(f"{target} is not a collection directory (no collection.json)")
        return 1
    store = CollectionStore(target)
    segments = store.compact()
    generation = store.manifest().get("generation", "-")
    print(f"collection.json: folded {segments} journal delta "
          f"segment(s), generation {generation}")
    return 0


def _command_bench_diff(args) -> int:
    from repro.bench.regression import compare_dirs, render_comparison

    comparisons = compare_dirs(args.baseline_dir, args.current_dir,
                               args.threshold)
    print(render_comparison(comparisons, args.threshold))
    return 1 if any(c.regressed for c in comparisons) else 0


def _command_load(args) -> int:
    db = generate_imdb(scale=args.scale, seed=args.seed)
    engine = QunitSearchEngine.load(
        db, args.directory, flavor=args.flavor,
        shards=args.shards, parallelism=args.shard_mode,
        strategy=args.strategy)
    collection = engine.collection
    snapshot = collection.global_snapshot()
    print(f"loaded collection from {args.directory}")
    print(f"  definitions : {len(collection)}")
    print(f"  documents   : {snapshot.document_count}")
    print(f"  vocabulary  : {snapshot.vocabulary_size}")
    queries = _gather_queries(args.queries, args.batch_file)
    if not queries:
        return 0  # stats-only load stays valid with no queries anywhere
    print()
    return 0 if _print_answers(engine, queries, args.limit,
                               explain=args.explain) else 1


def _command_derive(args) -> int:
    db = generate_imdb(scale=args.scale, seed=args.seed)
    definitions = _definitions_for(args, db, args.strategy)
    utility = UtilityModel(db)
    for definition in utility.assign(definitions):
        binder = (f"{definition.binders[0].table}.{definition.binders[0].column}"
                  if definition.binders else "-")
        print(f"{definition.utility:.3f}  {definition.name:44s} "
              f"anchor={binder}")
        print(f"       {definition.base_sql[:100]}")
    return 0


def _command_loganalysis(args) -> int:
    db = generate_imdb(scale=args.scale, seed=args.seed)
    generator = QueryLogGenerator(db, seed=args.seed + 1)
    unique = args.unique or generator.recommended_unique()
    log = generator.generate(unique)
    analyzer = QueryLogAnalyzer(db)
    print(render_sec52_statistics(analyzer.statistics(log)))
    print("\ntop templates:")
    frequencies = analyzer.template_frequencies(log)
    for template, volume in sorted(frequencies.items(),
                                   key=lambda kv: -kv[1])[:10]:
        print(f"  {volume:5d}  {template}")
    return 0


def _command_evaluate(args) -> int:
    from repro.eval.harness import ResultQualityExperiment

    experiment = ResultQualityExperiment(
        scale=args.scale, seed=args.seed,
        n_raters=args.raters, n_queries=args.queries,
    )
    report = experiment.run()
    print(report.render())
    return 0


# -- serving --------------------------------------------------------------


def _engine_config(args, log):
    """The pipeline config for serving: result cache sized by
    ``--cache-size``, with store admission restricted to ``log``'s Zipf
    head at ``--cache-coverage`` (None log or coverage 0 = admit all)."""
    from repro.serve.pipeline import EngineConfig

    admission = None
    if args.cache_size > 0 and log is not None and args.cache_coverage > 0:
        from repro.datasets.querylog import zipf_head

        admission = zipf_head(log, args.cache_coverage).__contains__
    return EngineConfig(result_cache_size=args.cache_size,
                        cache_admission=admission)


def _server_config(args):
    """A :class:`~repro.serve.server.ServerConfig` from CLI options
    (commands without ``--host``/``--port`` bind ephemeral loopback)."""
    from repro.serve.server import ServerConfig

    return ServerConfig(
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 0),
        window=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
    )


def _session_log(args, db, n_sessions: int):
    """The deterministic session workload (and its aggregate log) the
    serving commands share — the same seed feeds both the cache
    admission head and the loadtest traffic, so the head describes the
    traffic that will actually arrive."""
    from repro.datasets.querylog import SessionLogGenerator

    generator = SessionLogGenerator(db, seed=args.seed + 3)
    sessions = generator.generate(n_sessions)
    return sessions, generator.as_query_log(sessions)


def _worker_pool(args, directory: str):
    """A :class:`~repro.serve.workers.WorkerPool` mirroring the serving
    CLI's engine configuration — each worker rebuilds the same engine
    the front end would have run in-process, over the same saved
    directory."""
    from repro.serve.workers import WorkerPool, WorkerSpec

    spec = WorkerSpec(
        directory=str(directory), scale=args.scale, seed=args.seed,
        flavor=args.flavor, shards=args.shards,
        parallelism=args.shard_mode, strategy=args.strategy,
        cache_size=args.cache_size, cache_coverage=args.cache_coverage,
        sessions=getattr(args, "sessions", 400))
    return WorkerPool(spec, workers=args.workers)


def _command_serve(args) -> int:
    import asyncio

    db = generate_imdb(scale=args.scale, seed=args.seed)
    log = None
    if args.cache_size > 0 and args.cache_coverage > 0:
        _sessions, log = _session_log(args, db, 400)
    config = _engine_config(args, log)
    if args.directory:
        engine = QunitSearchEngine.load(
            db, args.directory, flavor=args.flavor, shards=args.shards,
            parallelism=args.shard_mode, strategy=args.strategy,
            config=config)
    else:
        definitions = _definitions_for(args, db, args.flavor)
        engine = QunitSearchEngine(
            QunitCollection(db, definitions,
                            max_instances_per_definition=150,
                            shards=args.shards,
                            parallelism=args.shard_mode,
                            strategy=args.strategy),
            flavor=args.flavor, config=config)
    workers = None
    if args.workers > 0:
        if not args.directory:
            print("repro serve: --workers requires a saved collection "
                  "directory (run `repro save DIR` first — workers mmap "
                  "the saved snapshots)", file=sys.stderr)
            return 2
        workers = _worker_pool(args, args.directory)
    try:
        asyncio.run(_serve_forever(engine, _server_config(args), workers))
    except KeyboardInterrupt:
        pass  # a second Ctrl-C during the drain
    return 0


async def _serve_forever(engine, server_config, workers=None) -> None:
    """Serve until Ctrl-C or SIGTERM, then drain and return.

    SIGTERM gets the same graceful drain as Ctrl-C: it is how service
    managers stop a server, and the only way to stop one started with
    SIGINT ignored (a shell's background job)."""
    import asyncio
    import signal

    from repro.serve.server import SearchServer

    async with SearchServer(engine, server_config,
                            workers=workers) as server:
        host, port = server.address
        print(f"serving on http://{host}:{port}  (Ctrl-C to stop)")
        if workers is not None:
            print(f"  {workers.workers} prefork pipeline worker(s) over "
                  f"shared mmap snapshots")
        print("  POST /search  POST /search/batch  "
              "GET /healthz  GET /stats")
        stop = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                          stop.set)
        except NotImplementedError:
            pass  # no loop signal handlers on this platform: Ctrl-C only
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass  # Ctrl-C
        print("\nshutting down (draining in-flight batches)", flush=True)


async def _run_loadtest(engine, server_config, workload, limit,
                        workers=None, arrival_rate=None, seed=0):
    """One arm of the loadtest: server up, load run, server down.

    The client fleet runs in a child process so the server keeps its
    event loop (and the GIL) to itself — the same isolation the serving
    benchmark uses."""
    from repro.serve.client import run_load_in_process
    from repro.serve.server import SearchServer

    async with SearchServer(engine, server_config,
                            workers=workers) as server:
        host, port = server.address
        return await run_load_in_process(
            host, port, workload, limit=limit,
            arrival_rate=arrival_rate, seed=seed)


def _print_load_report(label: str, report) -> None:
    print(f"{label:10s} qps={report.qps:8.1f}  p50={report.p50_ms:7.2f}ms  "
          f"p99={report.p99_ms:7.2f}ms  "
          f"cache_hit_rate={report.cache_hit_rate:.3f}  "
          f"completed={report.completed}  rejected={report.rejected}  "
          f"errors={report.errors}")
    if report.dropped or report.timed_out:
        offered = (report.completed + report.dropped + report.timed_out
                   + report.errors)
        print(f"{'':10s} open-loop: dropped={report.dropped} "
              f"({report.dropped / offered:.1%})  "
              f"timed_out={report.timed_out} "
              f"({report.timed_out / offered:.1%}) of {offered} offered")


def _command_loadtest(args) -> int:
    import asyncio
    import json
    from dataclasses import replace as dc_replace

    from repro.serve.client import build_session_workload

    db = generate_imdb(scale=args.scale, seed=args.seed)
    sessions, log = _session_log(args, db, args.sessions)
    workload = build_session_workload(sessions, args.clients)
    total = sum(len(stream) for stream in workload)
    print(f"workload: {len(sessions)} sessions -> {len(workload)} "
          f"clients, {total} requests")
    definitions = _definitions_for(args, db, args.flavor)
    # Both arms share one collection (indexes and materializations warm
    # once) but get a fresh engine, hence a fresh result cache, each.
    collection = QunitCollection(
        db, definitions, max_instances_per_definition=150,
        shards=args.shards, parallelism=args.shard_mode,
        strategy=args.strategy)
    engine_config = _engine_config(args, log)
    server_config = _server_config(args)
    worker_dir = None
    if args.workers > 0:
        # Workers serve from disk: persist the derived collection once
        # and let every worker (and every arm's fresh pool) mmap it.
        import tempfile

        from repro.core.store import CollectionStore

        worker_dir = tempfile.mkdtemp(prefix="repro-loadtest-workers-")
        CollectionStore(worker_dir).save(collection)
        print(f"workers: {args.workers} prefork process(es) over "
              f"{worker_dir}")

    def run_arm(config):
        engine = QunitSearchEngine(collection, flavor=args.flavor,
                                   config=engine_config)
        workers = (_worker_pool(args, worker_dir)
                   if worker_dir is not None else None)
        return asyncio.run(_run_loadtest(
            engine, config, workload, args.limit, workers=workers,
            arrival_rate=args.arrival_rate, seed=args.seed))

    # Warm the shared substrate (searcher pool, indexes, lazy
    # materializations) through a throwaway engine before either arm,
    # so neither pays one-time build costs and the arms measure steady
    # state.  The probe engine's result cache is its own, so each arm
    # still starts cache-cold.
    from repro.serve.api import SearchRequest

    probe = QunitSearchEngine(collection, flavor=args.flavor)
    warm = [SearchRequest(query=query, limit=args.limit)
            for query in sorted({q for s in sessions for q in s.queries})]
    for _ in range(2):
        probe.execute(warm)

    try:
        batched = run_arm(server_config)
        _print_load_report("batched", batched)
        report = {"batched": batched.to_dict(),
                  "repetition_rate": round(batched.repetition_rate, 4)}
        if args.compare_unbatched:
            unbatched = run_arm(dc_replace(server_config, window=0.0,
                                           max_batch=1))
            _print_load_report("unbatched", unbatched)
            speedup = (batched.qps / unbatched.qps
                       if unbatched.qps > 0 else float("inf"))
            print(f"speedup (batched qps / unbatched qps): {speedup:.2f}x")
            report["unbatched"] = unbatched.to_dict()
            report["speedup_batched_qps"] = round(speedup, 3)
    finally:
        if worker_dir is not None:
            import shutil

            shutil.rmtree(worker_dir, ignore_errors=True)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    failures = []
    if args.assert_min_qps is not None and batched.qps < args.assert_min_qps:
        failures.append(f"batched qps {batched.qps:.1f} < required "
                        f"{args.assert_min_qps}")
    if args.assert_p99_ms is not None and batched.p99_ms > args.assert_p99_ms:
        failures.append(f"batched p99 {batched.p99_ms:.1f}ms > allowed "
                        f"{args.assert_p99_ms}ms")
    if batched.errors:
        failures.append(f"{batched.errors} request(s) failed hard")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


_COMMANDS = {
    "search": _command_search,
    "save": _command_save,
    "compact": _command_compact,
    "bench-diff": _command_bench_diff,
    "load": _command_load,
    "derive": _command_derive,
    "loganalysis": _command_loganalysis,
    "evaluate": _command_evaluate,
    "serve": _command_serve,
    "loadtest": _command_loadtest,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
