"""The traced run: per-layer metrics, taken from outside the program.

End-to-end numbers never come from here.  A traced run does three
things, all on a short prefix of the same seeded stream:

1. the workload's own path twice in fresh serving children — untraced,
   then with one span per layer call — which gives
   ``trace.coverage_share`` (median per-request time covered by layer
   spans / untraced p50) and ``bench.trace_overhead_share``;
2. the standalone layer probes (``layers.py``) over both artefacts;
3. a short HTTP pass against ``repro serve``, whose p50 minus the
   in-process spans of the replayed path is ``serve.server.residual_ms``
   — the part outside timing cannot split (HTTP parse, sockets, the
   event loop), reported, not hidden.

Spans go to the path given by ``--spans``, once, at the end.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import estimators
import fixtures
import layers
import spans
import streams
import workloads
from workloads import WORKLOADS, run_child, set_up, slices_of

TRACE_SECONDS = 3.0
TRACE_MIN_SLICES = 10
HTTP_PASS_SLICES = 10


def pool_p50_ms(result: dict) -> float:
    return estimators.summarise(slices_of(result))["latency_p50_ms"]


def all_p50_ms(result: dict) -> float:
    """Shares and coverage divide all-request medians of spans, so their
    base is the all-sample p50 too (not the quiet pool's)."""
    return estimators.summarise(slices_of(result))["all_p50_ms"]


def own_path(workload, plan, built, serving, workdir: Path):
    """Step 1 for the in-process workloads: the untraced pass in the
    child that set-up started, the traced pass in a second fresh child
    over a pristine copy of the artefact."""
    again = built.artefact
    if built.artefact.is_dir():  # ingest_mixed appends to what it serves
        again = built.artefact.with_name("traced")
        shutil.copytree(built.artefact, again)
        shutil.copytree(built.artefact, built.artefact.with_name("pristine"))
    untraced = serving.run()
    traced_built = workloads.Built(again, built.live, built.documents,
                                   built.timings)
    traced_child = workload.start(traced_built, plan, workdir, "traced",
                                  trace=True)
    try:
        traced = traced_child.run()
    finally:
        traced_child.stop()
    recorded = traced["spans"]
    covered = layers.covered_per_request(recorded)
    nested = {span["name"] for span in recorded
              if span["parent"] is not None}
    return untraced, traced, {
        "untraced_p50_ms": pool_p50_ms(untraced),
        "traced_p50_ms": pool_p50_ms(traced),
        "base_p50_ms": all_p50_ms(untraced),
        "covered_ms": estimators.median(covered) * 1e3,
        "self_ms": {name: estimators.median(values) * 1e3
                    for name, values in spans.self_times(recorded).items()
                    if name in nested},
        "standalone_ms": {
            name: estimators.median(spans.durations(recorded, name)) * 1e3
            for name in {span["name"] for span in recorded
                         if span.get("standalone")}},
        "spans": recorded}


def run(name: str, seed: int, seconds: float, workdir: Path,
        spans_path: str | None, slices: int | None) -> dict:
    workload = WORKLOADS[name]
    if slices is None:
        slices = max(TRACE_MIN_SLICES, round(
            min(seconds, TRACE_SECONDS) * workload.nominal_ops_s
            / workload.slice_size))
    plan = workload.plan(seed, slices * workload.slice_size)
    built, serving, _seconds = set_up(workload, plan, workdir, 1)
    try:
        expected = workload.expectations(built, plan)
        if name == "http_closed":
            untraced = serving.run()
            traced, path = None, None
        else:
            untraced, traced, path = own_path(workload, plan, built,
                                              serving, workdir)
    finally:
        serving.stop()
    outcomes = [workload.verify(plan, result, expected)
                for result in (untraced, traced) if result is not None]

    # Both artefacts for the probes: build whichever this workload lacks.
    database = fixtures.database()
    lexical = streams.lexical_stream(database, seed, 10, 40, 0.5)
    large_pairs = streams.large_stream(seed, 10, WORKLOADS["ir_large"]
                                       .slice_size, 0.2)
    timings = dict(built.timings)
    if name == "ir_large":
        collection = workloads.collection_built(workdir / "collection")
        large = built
    else:
        collection = built
        if (workdir / "pristine").is_dir():
            collection = workloads.Built(workdir / "pristine", built.live,
                                         built.documents, built.timings)
        large = workloads.large_built(workdir / "large", seed)
    timings.update(collection.timings)
    timings.update(large.timings)
    live = collection.live
    probes = run_child("layers", {
        "collection": str(collection.artefact), "large": str(large.artefact),
        "scratch": str(workdir), "seed": seed, "lexical": lexical,
        "large_pairs": large_pairs,
        "paraphrases": streams.paraphrase_stream(database, seed, 60),
        "materialize_params": {
            definition: live.instances_of(definition)[0].params
            for definition in live.definitions
            if live.instances_of(definition)
            and live.definition(definition).binders}},
        workdir, "layers")
    replayed = probes.pop("replay")
    replay_spans = probes.pop("spans")

    # The HTTP pass: p50 from outside, the server's own counters.
    if name == "http_closed":
        http = untraced
    else:
        http_plan = WORKLOADS["http_closed"].plan(
            seed, HTTP_PASS_SLICES * WORKLOADS["http_closed"].slice_size)
        server = WORKLOADS["http_closed"].start(collection, http_plan,
                                                workdir, "httppass")
        try:
            http = server.run()
        finally:
            server.stop()
    http_p50 = pool_p50_ms(http)
    stats = http["counters"]["stats"]
    if name == "http_closed":
        path = {"untraced_p50_ms": http_p50,
                "traced_p50_ms": replayed["traced_p50_ms"],
                "base_p50_ms": all_p50_ms(http),
                "covered_ms": replayed["covered_ms"],
                "self_ms": {layer: value for layer, value
                            in replayed["self_ms"].items()
                            if layer != "request"},
                "standalone_ms": {}, "spans": replay_spans}
        overhead = (replayed["traced_p50_ms"] - replayed["untraced_p50_ms"]) \
            / replayed["untraced_p50_ms"]
    else:
        overhead = (path["traced_p50_ms"] - path["untraced_p50_ms"]) \
            / path["untraced_p50_ms"]
    if spans_path:
        spans.write(path["spans"], spans_path)

    summary = estimators.summarise(slices_of(untraced))
    metrics = dict(probes)
    metrics.update({key: value for key, value in timings.items()
                    if key.startswith(("core.", "ir."))})
    metrics.update({
        "serve.server.residual_ms":
            all_p50_ms(http) - replayed["covered_ms"],
        "serve.server.rejected": stats["rejected"],
        "serve.server.timeouts": stats["timeouts"],
        "serve.batcher.batch_size_mean": stats["mean_batch_size"],
        "serve.pipeline.result_cache_hit_share":
            http["counters"]["result_cached"]
            / max(1, http["counters"]["answered"]),
        "trace.coverage_share": path["covered_ms"] / path["base_p50_ms"],
        "bench.trace_overhead_share": overhead,
        "bench.repetition_rate": streams.measured_repetition(plan.ops),
        "bench.calibration_ms":
            estimators.median(untraced["calibration"]) * 1e3,
        "bench.latency_p99_ms": summary["all_p99_ms"],
    })
    contract = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    return {
        "metrics": {name: (float(metrics[name]), unit)
                    for name, unit in units.items()},
        "attempted": sum(len(result["answers"])
                         for result in (untraced, traced)
                         if result is not None),
        "failed": sum(outcome["failed"] for outcome in outcomes),
        "details": {
            "workload": name, "seed": seed,
            "sizes": dict(plan.sizes, ops=len(plan.ops),
                          slice_size=plan.slice_size,
                          slices=summary["slices"],
                          documents=built.documents),
            "untraced_p50_ms": path["untraced_p50_ms"],
            "traced_p50_ms": path["traced_p50_ms"],
            "self_ms_by_layer": path["self_ms"],
            "share_of_p50_by_layer": {
                layer: value / path["base_p50_ms"]
                for layer, value in path["self_ms"].items()},
            "standalone_share_of_p50": {
                layer: value / path["base_p50_ms"]
                for layer, value in path["standalone_ms"].items()},
            "base_p50_ms": path["base_p50_ms"],
            "http_pass_p50_ms": http_p50,
            "replay": replayed,
        },
    }
