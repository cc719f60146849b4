"""Smoke test of the end-to-end benchmark (tier-1, seconds).

Runs every workload at a tiny size through the real command path —
fresh serving children, oracle, cold trials, durability — and one
traced run; checks the output contract against ``BENCHMARK.json``; and
unit-tests the slice / quiet-pool / second-smallest estimators.
"""

import json
import os
import sys
from pathlib import Path

import pytest

# Tiny corpora for every process this test starts (read by fixtures.py
# at import, inherited by the children).
os.environ["E2E_SMOKE"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import estimators  # noqa: E402
import run as command  # noqa: E402
from estimators import Slice  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_command(capsys, *argv) -> tuple[dict, dict]:
    assert command.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    environment = next(json.loads(line[len("# environment: "):])
                       for line in lines
                       if line.startswith("# environment: "))
    return json.loads(lines[-1]), environment


def check_result(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_contract_file():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert WORKLOADS == ["http_closed", "ir_large", "hybrid_paraphrase",
                         "ingest_mixed"]
    end_to_end = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
    assert set(end_to_end) == {
        "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p95_ms",
        "cold_first_answer_ms", "disk_bytes_per_doc", "peak_rss_mb"}
    assert all(0 < metric["bound"] <= 0.25
               for metric in end_to_end.values())
    assert end_to_end["setup_s"]["bound"] \
        == max(metric["bound"] for metric in end_to_end.values())
    layers = [metric["name"] for metric in CONTRACT["per_layer"]]
    assert len(layers) == len(set(layers))
    for prefix in ("serve.server.", "serve.batcher.", "serve.api.",
                   "serve.workers.", "serve.pipeline.", "ir.retrieval.",
                   "ir.wand.", "ir.topk.", "ir.vector.", "ir.embed.",
                   "ir.persist.", "core.store.", "core.collection.",
                   "bench.", "trace."):
        assert any(name.startswith(prefix) for name in layers), prefix


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload, capsys):
    result, environment = run_command(
        capsys, "--workload", workload, "--seed", "5", "--slices", "5",
        "--setup-repeats", "1")
    check_result(result, CONTRACT["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for key in ("nproc", "python", "commit", "seed", "sizes",
                "bench.calibration_ms"):
        assert key in environment
    for key in ("documents", "ops", "slice_size", "slices", "pool_slices",
                "pool_samples", "oracle_checked"):
        assert key in environment["sizes"]
    assert environment["sizes"]["oracle_checked"] > 0


def test_traced_run_prints_every_layer(capsys, tmp_path):
    spans_path = tmp_path / "spans.json"
    result, environment = run_command(
        capsys, "--workload", "hybrid_paraphrase", "--seed", "5",
        "--slices", "3", "--trace", "1", "--spans", str(spans_path))
    check_result(result, CONTRACT["per_layer"])
    assert 0 < result["metrics"]["trace.coverage_share"]["value"] < 2
    recorded = json.loads(spans_path.read_text())
    assert {"name", "start", "end", "parent", "request"} <= set(recorded[0])
    assert "share_of_p50_by_layer" in environment


def test_compare_refuses_across_environments(tmp_path, capsys):
    def output(nproc):
        path = tmp_path / f"out{nproc}.txt"
        path.write_text(
            "# environment: " + json.dumps(
                {"nproc": nproc, "workload": "ir_large", "sizes": {}})
            + "\n" + json.dumps({"metrics": {
                "latency_p50_ms": {"value": 1.0, "unit": "ms"}}}) + "\n")
        return str(path)

    assert command.main(["--compare", output(2), output(2)]) == 0
    assert "latency_p50_ms" in capsys.readouterr().out
    assert command.main(["--compare", output(2), output(4)]) == 2


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ir_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- the estimators, on synthetic samples -------------------------------------


def synthetic(slices=50, size=40, base=1.0, stall_every=10, stall=5.0):
    """Slices of ``size`` ops at ``base`` ms; every ``stall_every``-th op
    of *every* slice stalls (what a program-caused stall looks like)."""
    out = []
    for number in range(slices):
        latencies = [(stall if op % stall_every == 0 else base) * 1e-3
                     * (1.0 + 0.01 * ((op * 7 + number) % 5))
                     for op in range(size)]
        out.append(Slice(latencies, size, sum(latencies)))
    return out


def burst(slices, which, factor=4.0):
    """A noisy-neighbour burst: everything in some slices slows down."""
    for number in which:
        quiet = slices[number]
        slices[number] = Slice([latency * factor
                                for latency in quiet.latencies],
                               quiet.ops, quiet.wall * factor)
    return slices


def test_burst_in_some_slices_does_not_move_the_pool():
    quiet = estimators.summarise(synthetic())
    noisy = estimators.summarise(burst(synthetic(), range(10, 35)))
    for key in ("latency_p50_ms", "latency_p95_ms", "throughput_ops_s"):
        assert noisy[key] == pytest.approx(quiet[key], rel=0.02), key
    # ... while the all-sample tail moves a lot.
    assert noisy["all_p99_ms"] > 2 * quiet["all_p99_ms"]


def test_stall_in_every_slice_stays_in_the_pool_tail():
    calm = estimators.summarise(synthetic(stall=1.0))
    stalled = estimators.summarise(synthetic(stall=5.0))
    assert stalled["latency_p95_ms"] > 3 * calm["latency_p95_ms"]
    assert stalled["throughput_ops_s"] < calm["throughput_ops_s"]


def test_pool_is_the_quiet_fifth():
    slices = synthetic(slices=50)
    pool = estimators.quiet_pool(slices)
    assert len(pool) == 10
    assert estimators.summarise(slices)["pool_samples"] == 400


def test_second_smallest_sheds_the_lucky_and_the_disturbed():
    trials = [105.0, 99.0, 100.0, 180.0, 101.0, 250.0, 100.5, 102.0,
              103.0, 400.0]
    assert estimators.second_smallest(trials) == 100.0
    with pytest.raises(ValueError):
        estimators.second_smallest([1.0])


def test_quantile_interpolates():
    assert estimators.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert estimators.quantile([5.0], 0.95) == 5.0
    with pytest.raises(ValueError):
        estimators.quantile([], 0.5)
