"""The four workloads and the untraced run that measures them.

Every run is: generate the seeded inputs; set up (build, save, start a
fresh serving child, warm) ``SETUP_REPEATS`` times and keep the last;
compute the oracle; run the timed phase in slices; run the cold
trials; check every answer.  The timed phase is a fixed number of
operations derived from ``--seconds`` and a nominal rate, so the work
(and every count) is identical from run to run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import estimators
import fixtures
import httpload
import oracle
import streams
from estimators import Slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 3
MIN_SLICES = 50
CHILD_TIMEOUT = 150.0

# The cold probes are fixed strings: which snapshots a first query
# demand-loads decides its cost, so a seeded probe would measure the
# seed.  (The hybrid probe is "star wars cast" with one edit per token.)
LEXICAL_PROBE = "star wars cast"
HYBRID_PROBE = "satr wrs casst"
LARGE_PROBE = "w00700 w01500 w04000 w00003 w00017"

_live: list[subprocess.Popen] = []


def stop_all() -> None:
    """Kill and reap every process this run started and left running."""
    for process in _live:
        if process.poll() is None:
            process.kill()
        process.wait()
    _live.clear()


def default_sigint() -> None:
    """Runs in the child before exec.  A benchmark started as a
    background job inherits an *ignored* SIGINT, which Python then
    leaves ignored — and `repro serve` stops on KeyboardInterrupt."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def spawn(argv, workdir: Path, tag: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONUNBUFFERED="1", PYTHONHASHSEED="0")
    with open(workdir / f"{tag}.stderr", "wb") as log:
        process = subprocess.Popen(argv, env=env, stderr=log, cwd=workdir,
                                   preexec_fn=default_sigint, **kwargs)
    _live.append(process)
    return process


def reap(process: subprocess.Popen, timeout: float = 15.0) -> None:
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    for pipe in (process.stdin, process.stdout):
        if pipe is not None:
            pipe.close()
    if process in _live:
        _live.remove(process)


def spawn_child(mode: str, job: dict, workdir: Path, tag: str, **kwargs):
    """Start ``child.py MODE`` on ``job``; returns ``(process, path its
    result will be written to)``."""
    result = workdir / f"{tag}.result.json"
    job_path = workdir / f"{tag}.job.json"
    job_path.write_text(json.dumps(dict(job, result=str(result))))
    process = spawn([sys.executable, str(HERE / "child.py"), mode,
                     str(job_path)], workdir, tag, **kwargs)
    return process, result


def finish_child(process, result: Path, workdir: Path, tag: str) -> dict:
    reap(process, CHILD_TIMEOUT)
    if process.returncode != 0:
        raise RuntimeError(
            f"child {tag} exited {process.returncode}: "
            + (workdir / f"{tag}.stderr").read_text()[-2000:])
    return json.loads(result.read_text())


def run_child(mode: str, job: dict, workdir: Path, tag: str) -> dict:
    """Run ``child.py MODE`` to completion and return its result."""
    process, result = spawn_child(mode, job, workdir, tag)
    return finish_child(process, result, workdir, tag)


@dataclass
class Plan:
    """One run's seeded inputs."""

    seed: int
    ops: list[str]
    slice_size: int
    warm: list[str]
    probe: str
    classes: list[str] | None = None   # ir_large: template per op
    cycle: dict | None = None          # ingest_mixed
    sizes: dict = field(default_factory=dict)


@dataclass
class Built:
    """One set-up's artefact and the live objects it was saved from."""

    artefact: Path
    live: object              # QunitCollection or IndexSnapshot
    documents: int
    timings: dict


class ServeChild:
    """An in-process workload's serving child (``child.py serve``)."""

    def __init__(self, job: dict, workdir: Path, tag: str):
        self.workdir, self.tag = workdir, tag
        self.process, self.result = spawn_child(
            "serve", job, workdir, tag, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self.process.stdout.readline().strip() != "READY":
            reap(self.process, 1.0)
            raise RuntimeError(
                "serving child never got ready: "
                + (workdir / f"{tag}.stderr").read_text()[-2000:])

    def run(self) -> dict:
        self.process.stdin.write("GO\n")
        self.process.stdin.flush()
        return finish_child(self.process, self.result, self.workdir,
                            self.tag)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()  # no GO: the child closes and exits
            self.process.stdin = None
        reap(self.process)


class Workload:
    name = ""
    slice_size = 0
    nominal_ops_s = 0.0       # sizes the timed phase to ~ --seconds
    oracle_budget = 0         # distinct queries checked exhaustively

    def op_count(self, seconds: float, slices: int | None) -> int:
        if slices is None:
            slices = max(MIN_SLICES, round(
                seconds * self.nominal_ops_s / self.slice_size))
        return slices * self.slice_size

    # -- hooks ---------------------------------------------------------------

    def plan(self, seed: int, ops: int) -> Plan:
        raise NotImplementedError

    def build(self, directory: Path, plan: Plan) -> Built:
        raise NotImplementedError

    def expectations(self, built: Built, plan: Plan) -> dict:
        raise NotImplementedError

    def deadline_seconds(self, plan: Plan) -> float:
        """Three times the planned length: a box far slower than the
        one the nominal rates were taken on stops at a slice boundary
        and reports what ran."""
        return 3.0 * len(plan.ops) / self.nominal_ops_s + 10.0

    def job(self, built: Built, plan: Plan) -> dict:
        return {"workload": self.name, "artefact": str(built.artefact),
                "seed": plan.seed, "warm": plan.warm, "ops": plan.ops,
                "slice_size": plan.slice_size, "cycle": plan.cycle,
                "deadline_seconds": self.deadline_seconds(plan)}

    def start(self, built: Built, plan: Plan, workdir: Path, tag: str,
              trace: bool = False):
        return ServeChild(dict(self.job(built, plan), trace=trace),
                          workdir, tag)

    def verify(self, plan: Plan, result: dict, expected: dict) -> dict:
        return oracle.check(plan.ops[:len(result["answers"])],
                            result["answers"], expected)

    def after(self, built: Built, plan: Plan, result: dict,
              workdir: Path) -> dict:
        """Post-run checks; returns ``{"attempted", "failed", ...}``."""
        return {"attempted": 0, "failed": 0}

    def cold_artefact(self, built: Built) -> Path:
        return built.artefact

    def cold_job(self, built: Built, plan: Plan, expected: list[str]):
        return {"workload": self.name,
                "artefact": str(self.cold_artefact(built)),
                "probe": plan.probe, "expected": expected,
                "trials": fixtures.COLD_TRIALS}


def collection_built(directory: Path) -> Built:
    collection, report, timings = fixtures.build_collection(directory)
    return Built(directory, collection, report.documents, timings)


def large_built(directory: Path, seed: int) -> Built:
    documents = streams.large_documents(seed, fixtures.LARGE_DOCS)
    path = directory / "large.snap"
    snapshot, save_ms = fixtures.build_large_index(path, documents)
    return Built(path, snapshot, len(documents),
                 {"ir.persist.save_ms": save_ms})


class HttpClosed(Workload):
    name = "http_closed"
    slice_size = 56
    nominal_ops_s = 350.0
    oracle_budget = 800
    repetition = 0.5

    def plan(self, seed, ops):
        database = fixtures.database()
        queries = streams.lexical_stream(
            database, seed, ops // self.slice_size, self.slice_size,
            self.repetition)
        return Plan(seed, queries, self.slice_size,
                    streams.entity_cover(database), LEXICAL_PROBE,
                    sizes={"repetition_target": self.repetition})

    def build(self, directory, plan):
        return collection_built(directory)

    def expectations(self, built, plan):
        expected = oracle.engine_oracle(built.live)
        chosen = [plan.probe] + oracle.sample(
            list(dict.fromkeys(plan.ops)), self.oracle_budget, plan.seed)
        return {query: expected(query) for query in chosen}

    def start(self, built, plan, workdir, tag, trace=False):
        return HttpServer(built, plan, workdir, tag,
                          self.deadline_seconds(plan))


class HttpServer:
    """``python -m repro serve DIR --port 0`` with its defaults."""

    def __init__(self, built, plan, workdir, tag, deadline_seconds):
        self.plan, self.deadline_seconds = plan, deadline_seconds
        self.process = spawn(
            [sys.executable, "-m", "repro", "--scale",
             str(fixtures.DB_SCALE), "--seed", str(fixtures.DB_SEED),
             "serve", str(built.artefact), "--port", "0"],
            workdir, tag, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if not match:
            reap(self.process, 1.0)
            raise RuntimeError(
                "repro serve never came up: "
                + (workdir / f"{tag}.stderr").read_text()[-2000:])
        self.host, self.port = match.group(1), int(match.group(2))
        loop = httpload.ClosedLoop(self.host, self.port)
        try:
            loop.run_slice([httpload.encode_request(
                query, fixtures.ENGINE_LIMIT) for query in plan.warm])
        finally:
            loop.close()

    def run(self) -> dict:
        slices, outcomes, calibration = httpload.run(
            self.host, self.port, self.plan.ops, fixtures.ENGINE_LIMIT,
            self.plan.slice_size, self.deadline_seconds)
        rss = fixtures.peak_rss_mb(self.process.pid)
        stats = httpload.get_json(self.host, self.port, "/stats")
        self.stop()
        answers, cached, sizes = [], 0, []
        for status, body in outcomes:
            if status != 200:
                answers.append(None)
                continue
            payload = json.loads(body)
            cached += bool(payload.get("cached"))
            sizes.append(len(body))
            answers.append([
                str(dict(map(tuple, answer["provenance"]))
                    .get("instance_id", ""))
                for answer in payload["answers"]])
        return {"slices": [vars(s) for s in slices], "answers": answers,
                "calibration": calibration, "peak_rss_mb": rss,
                "errors": [body.decode("utf-8", "replace")[:200]
                           for status, body in outcomes
                           if status != 200][:20],
                "counters": {"result_cached": cached,
                             "answered": len(sizes),
                             "response_bytes": sum(sizes) / max(1, len(sizes)),
                             "stats": stats}}

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        reap(self.process, 5.0)


class IrLarge(Workload):
    name = "ir_large"
    slice_size = 40
    nominal_ops_s = 560.0
    oracle_budget = 240
    repetition = 0.2

    def plan(self, seed, ops):
        pairs = streams.large_stream(seed, ops // self.slice_size,
                                     self.slice_size, self.repetition)
        warm = [query for _name, query in streams.large_stream(
            seed + 7919, 2, self.slice_size, 0.0)]
        return Plan(seed, [query for _name, query in pairs],
                    self.slice_size, warm, LARGE_PROBE,
                    classes=[name for name, _query in pairs],
                    sizes={"documents": fixtures.LARGE_DOCS,
                           "repetition_target": self.repetition})

    def build(self, directory, plan):
        return large_built(directory, plan.seed)

    def expectations(self, built, plan):
        expected = oracle.large_oracle(built.live)
        # Stratified: the same share of the budget per query class.
        by_class: dict[str, list[str]] = {}
        for name, query in zip(plan.classes, plan.ops):
            by_class.setdefault(name, []).append(query)
        chosen = [plan.probe]
        for name, queries in sorted(by_class.items()):
            distinct = list(dict.fromkeys(queries))
            chosen += oracle.sample(
                distinct, self.oracle_budget // len(by_class), plan.seed)
        return {query: expected(query) for query in chosen}


class HybridParaphrase(Workload):
    name = "hybrid_paraphrase"
    slice_size = 12
    nominal_ops_s = 85.0
    oracle_budget = 60
    flat_budget = 20          # flat-index answers checked by brute force

    def plan(self, seed, ops):
        database = fixtures.database()
        queries = streams.paraphrase_stream(database, seed, ops)
        warm = streams.paraphrase_stream(database, seed + 7919, 12)
        return Plan(seed, queries, self.slice_size, warm, HYBRID_PROBE)

    def build(self, directory, plan):
        return collection_built(directory)

    def expectations(self, built, plan):
        expected = oracle.engine_oracle(built.live, strategy="hybrid")
        chosen = [plan.probe] + oracle.sample(
            list(dict.fromkeys(plan.ops)), self.oracle_budget, plan.seed)
        return {query: expected(query) for query in chosen}

    def job(self, built, plan):
        return dict(super().job(built, plan),
                    flat_queries=plan.ops[:self.flat_budget])

    def after(self, built, plan, result, workdir):
        """The loaded flat index's hybrid ranking against brute-force
        cosine + RRF recomputed here from the live snapshot."""
        snapshot = built.live.global_snapshot()
        failed = 0
        for query, got in result.get("flat_hybrid", {}).items():
            failed += got != oracle.brute_force_hybrid(
                snapshot, query, fixtures.ENGINE_LIMIT)
        return {"attempted": len(result.get("flat_hybrid", {})),
                "failed": failed}


class IngestMixed(Workload):
    name = "ingest_mixed"
    reads_per_cycle = 150
    documents_per_commit = 2
    slice_size = 150          # one cycle per slice
    nominal_ops_s = 900.0     # reads per second of wall, commits included
    check_every = 8           # every 8th generation is re-derived
    repetition = 0.5

    def plan(self, seed, ops):
        database = fixtures.database()
        queries = streams.lexical_stream(
            database, seed, ops // self.slice_size, self.slice_size,
            self.repetition)
        cycles = ops // self.reads_per_cycle
        return Plan(seed, queries, self.slice_size,
                    streams.entity_cover(database), LEXICAL_PROBE,
                    cycle={"reads": self.reads_per_cycle,
                           "documents": self.documents_per_commit,
                           "commits": cycles},
                    sizes={"cycles": cycles,
                           "repetition_target": self.repetition})

    def build(self, directory, plan):
        return collection_built(directory)

    def expectations(self, built, plan):
        """Per generation: the oracle keeps its own copy of the saved
        directory, commits the same documents in the same order, and
        re-derives the expected answers of every ``check_every``-th
        cycle's reads at that generation.  Returns ``{cycle: {query:
        ids}}`` plus the probe's answer at the base generation."""
        from repro.core.store import CollectionStore

        mirror = built.artefact.with_name(built.artefact.name + "-oracle")
        shutil.copytree(built.artefact, mirror)
        shutil.copytree(built.artefact, self.cold_artefact(built))
        writer = CollectionStore(mirror).writer(built.live)
        instances = streams.ingest_instances(
            built.live, fixtures.database(), plan.seed,
            plan.cycle["commits"] * plan.cycle["documents"])
        expected_of = oracle.engine_oracle(built.live)
        per_cycle = plan.cycle["documents"]
        reads = plan.cycle["reads"]
        staged = 0
        expectations = {}
        for cycle in range(0, plan.cycle["commits"], self.check_every):
            for instance in instances[staged:cycle * per_cycle]:
                writer.stage_instance(instance)
            staged = cycle * per_cycle
            writer.commit()
            if cycle == 0:
                expectations[plan.probe] = expected_of(plan.probe)
            queries = plan.ops[cycle * reads:(cycle + 1) * reads]
            expectations[cycle] = {query: expected_of(query)
                                   for query in dict.fromkeys(queries)}
        return expectations

    def cold_artefact(self, built):
        """The cold probe opens the base generation, copied aside
        before the serving child started appending to the journal."""
        return built.artefact.with_name(built.artefact.name + "-cold")

    def verify(self, plan, result, expected):
        reads = plan.cycle["reads"]
        total = {"failed": 0, "oracle_checked": 0, "examples": []}
        answers = result["answers"]
        for cycle in range(0, len(answers) // reads):
            window = slice(cycle * reads, (cycle + 1) * reads)
            outcome = oracle.check(plan.ops[window], answers[window],
                                   expected.get(cycle, {}))
            total["failed"] += outcome["failed"]
            total["oracle_checked"] += outcome["oracle_checked"]
            total["examples"] = (total["examples"]
                                 + outcome["examples"])[:5]
        total["failed"] += sum(commit is None
                               for commit in result["commits"])
        return total

    def after(self, built, plan, result, workdir):
        """Durability: a fresh child sees only the directory."""
        commits = [commit for commit in result["commits"] if commit]
        documents = [[instance_id, token] for commit in commits
                     for instance_id, token in zip(commit["ids"],
                                                   commit["tokens"])]
        report = run_child("durability",
                           {"artefact": str(built.artefact),
                            "documents": documents}, workdir, "durability")
        return {"attempted": 2 * len(documents),
                "failed": len(report["lost_before_compact"])
                + len(report["lost_after_compact"]),
                "durability": report}


WORKLOADS = {w.name: w for w in (HttpClosed(), IrLarge(),
                                 HybridParaphrase(), IngestMixed())}


def slices_of(result: dict) -> list[Slice]:
    return [Slice(**entry) for entry in result["slices"]]


def set_up(workload: Workload, plan: Plan, workdir: Path, repeats: int):
    """Set up ``repeats`` times; the last one stays up.  Returns
    ``(built, serving, [seconds per set-up])``."""
    seconds = []
    built = serving = None
    for replica in range(repeats):
        if serving is not None:
            serving.stop()
            shutil.rmtree(built.artefact if built.artefact.is_dir()
                          else built.artefact.parent)
        start = time.perf_counter()
        built = workload.build(workdir / f"setup{replica}", plan)
        serving = workload.start(built, plan, workdir, f"serve{replica}")
        seconds.append(time.perf_counter() - start)
    return built, serving, seconds


def run(name: str, seed: int, seconds: float, workdir: Path,
        slices: int | None = None, repeats: int | None = None) -> dict:
    """One untraced run: the end-to-end metrics plus diagnostics."""
    workload = WORKLOADS[name]
    repeats = repeats or SETUP_REPEATS
    clock = [("start", time.perf_counter())]

    def lap(label):
        clock.append((label, time.perf_counter()))

    plan = workload.plan(seed, workload.op_count(seconds, slices))
    lap("plan")
    built, serving, setup_seconds = set_up(workload, plan, workdir, repeats)
    lap("setup")
    try:
        expected = workload.expectations(built, plan)
        lap("oracle")
        result = serving.run()
        lap("timed")
    finally:
        serving.stop()
    summary = estimators.summarise(slices_of(result))
    outcome = workload.verify(plan, result, expected)
    disk_bytes = fixtures.artefact_bytes(built.artefact)
    extra = workload.after(built, plan, result, workdir)
    documents = built.documents
    if "durability" in extra:
        documents = extra["durability"]["documents"]
    trials = run_child("cold", workload.cold_job(built, plan,
                                                 expected[plan.probe]),
                       workdir, "cold")
    lap("after+cold")
    cold_failed = sum(not trial["ok"] for trial in trials)
    cold_ok = [trial["seconds"] for trial in trials if trial["ok"]]
    attempted = len(plan.ops) + len(result.get("commits", [])) \
        + len(trials) + extra["attempted"]
    failed = outcome["failed"] + cold_failed + extra["failed"] \
        + (len(plan.ops) - len(result["answers"]))
    metrics = {
        "setup_s": (estimators.median(setup_seconds), "s"),
        "throughput_ops_s": (summary["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
        "latency_p95_ms": (summary["latency_p95_ms"], "ms"),
        "cold_first_answer_ms": (
            estimators.second_smallest(cold_ok) * 1e3
            if len(cold_ok) >= 2 else 0.0, "ms"),
        "disk_bytes_per_doc": (disk_bytes / documents, "bytes"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "details": {
            "workload": name, "seed": seed, "sizes": dict(
                plan.sizes, documents=documents, ops=len(plan.ops),
                slice_size=plan.slice_size, slices=summary["slices"],
                pool_slices=summary["pool_slices"],
                pool_samples=summary["pool_samples"],
                oracle_checked=outcome["oracle_checked"],
                setup_repeats=repeats),
            "bench.calibration_ms":
                estimators.median(result["calibration"]) * 1e3,
            "bench.latency_p99_ms": summary["all_p99_ms"],
            "bench.all_sample_p50_ms": summary["all_p50_ms"],
            "bench.repetition_rate":
                streams.measured_repetition(plan.ops),
            "setup_seconds": setup_seconds,
            "phase_seconds": {label: round(at - clock[i][1], 3)
                              for i, (label, at) in enumerate(clock[1:])},
            "cold_trials_ms": [trial.get("seconds", 0.0) * 1e3
                               for trial in trials],
            "mismatches": outcome["examples"],
            "errors": result.get("errors", []),
            "counters": result.get("counters", {}),
            "after": extra,
        },
    }
