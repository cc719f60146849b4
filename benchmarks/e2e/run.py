"""One command per workload: build inputs from --seed, run, check, print.

    python3 benchmarks/e2e/run.py --workload http_closed --seed 1 \
        --seconds 12 --trace 0

prints an environment block, every metric by name with its unit, and —
as the last line of standard output — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
makes the separate traced run (per-layer metrics; see ``tracerun.py``).
``--repeat N`` is the A/A mode: N runs on N seeds, then each end-to-end
metric's median, quartile spread and max/min gap against its bound.
``--compare A.json B.json`` compares two saved outputs and refuses
when their ``nproc`` or sizes differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(out: dict, environment: dict) -> None:
    """The environment block, the metrics by name, the result line."""
    print("# environment: " + json.dumps(environment, sort_keys=True))
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    failed = out["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": max(1, out["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()}}))


def one_run(args, seed: int) -> tuple[dict, dict]:
    import fixtures
    import workloads

    workdir = ROOT / ".bench_build" / f"e2e-{os.getpid()}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            import tracerun

            out = tracerun.run(args.workload, seed, args.seconds, workdir,
                               args.spans, args.slices)
        else:
            out = workloads.run(args.workload, seed, args.seconds, workdir,
                                args.slices, args.setup_repeats)
    finally:
        workloads.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    environment = dict(fixtures.environment(), **out.pop("details"))
    return out, environment


def repeat(args) -> int:
    """A/A: the same code on ``--repeat`` seeds, spread against bound."""
    import estimators

    contract = load_contract()
    runs = []
    for offset in range(args.repeat):
        out, environment = one_run(args, args.seed + offset)
        emit(out, environment)
        runs.append(out)
    print(f"# A/A over {len(runs)} runs of {args.workload}")
    worst = 0.0
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run["metrics"][name][0] for run in runs]
        middle = estimators.median(values)
        iqr = estimators.spread(values) if len(values) >= 2 else 0.0
        gap = (max(values) - min(values)) / middle if middle else 0.0
        exempt = name == "setup_s"
        if not exempt:
            worst = max(worst, iqr / bound)
        print(f"{name}: median {middle:.6g} {metric['unit']}  "
              f"IQR/median {iqr:.4f}  (max-min)/median {gap:.4f}  "
              f"bound {bound}  "
              + ("(spread exempt)" if exempt else
                 "OK" if iqr <= bound / 3 else
                 "within bound" if iqr <= bound else "OVER BOUND"))
    failed = sum(run["failed"] for run in runs)
    print(f"# failed ops over all runs: {failed}; "
          f"worst spread/bound {worst:.2f}")
    return 0 if failed == 0 and worst <= 1.0 else 1


def compare(paths) -> int:
    """Print B against A per metric; refuse across environments."""
    def read(path):
        environment, result = None, None
        for line in Path(path).read_text().splitlines():
            if line.startswith("# environment: "):
                environment = json.loads(line[len("# environment: "):])
            elif line.startswith("{"):
                result = json.loads(line)
        if environment is None or result is None:
            raise SystemExit(f"{path}: not an output of this command")
        return environment, result

    (env_a, a), (env_b, b) = read(paths[0]), read(paths[1])
    for key in ("nproc", "workload", "sizes"):
        if env_a.get(key) != env_b.get(key):
            print(f"refusing to compare: {key} differs "
                  f"({env_a.get(key)!r} vs {env_b.get(key)!r})",
                  file=sys.stderr)
            return 2
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        base = entry["value"]
        change = (other["value"] - base) / base if base else float("nan")
        print(f"{name}: {base:.6g} -> {other['value']:.6g} "
              f"{entry['unit']} ({change:+.2%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed phase "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="with --trace 1: write the spans here")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--slices", type=int, default=None,
                        help="override the slice count (smoke tests)")
    parser.add_argument("--setup-repeats", type=int, default=None,
                        help="set-ups per run (default 3; smoke tests)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e needs the repository's src/repro beside it",
              file=sys.stderr)
        return 3
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.repeat:
        return repeat(args)
    out, environment = one_run(args, args.seed)
    emit(out, environment)
    return 0


if __name__ == "__main__":
    sys.exit(main())
