"""Benchmark of qsodyn: end-to-end figures per workload, per-layer figures
from a separate traced run, and independent checks of every output.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --out BENCH_new.json
    python3 bench/run.py --compare BENCH_old.json BENCH_new.json

A single run prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. ``--all`` runs
every workload both ways in child processes and prints every metric by
name with its unit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve()

MIN_OPS = 40  # enough for a tail percentile with ten operations beyond it
TAIL_BEYOND = 10
MAX_WALL_S = 120  # no new round starts after this, so a run ends within 180 s
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("sweep", "chains", "cli")


def _measure(workload, seconds: float, tracer, min_ops: int) -> dict:
    """Whole rounds of the workload's operations until ``seconds`` have
    passed and ``min_ops`` operations were attempted."""
    from checks import CheckFailed

    durations, problems = [], []
    attempted = failed = wrong = 0
    started = time.perf_counter()
    rnd = 0
    while True:
        tracer.round = rnd
        items = workload.round_items(rnd)
        if tracer.enabled:
            workload.round_probe(tracer)
        for item in items:
            attempted += 1
            tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(item, tracer)
            except Exception as exc:  # one operation's failure is counted, the run goes on
                # timed all the same, so the timed mix does not depend on what fails
                durations.append(time.perf_counter() - t0)
                failed += 1
                problems.append(f"{workload.name}: operation failed: {exc!r}")
                continue
            durations.append(time.perf_counter() - t0)
            try:
                workload.check(item, out)
            except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
                # the last four: a report the check cannot read
                wrong += 1
                problems.append(f"{workload.name}: wrong output: {exc!r}")
            if tracer.enabled:
                workload.probe(item, out, tracer)
        rnd += 1
        wall = time.perf_counter() - started
        if wall >= MAX_WALL_S or (wall >= seconds and attempted >= min_ops):
            break
    return {"durations": durations, "attempted": attempted, "failed": failed, "wrong": wrong, "problems": problems}


def _setup_seconds(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    makes the first round's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(RUN_PY), "--setup-only", "--workload", name, "--seed", str(seed)],
            # a pipe, not DEVNULL: with a timeout and no pipe to read, run()
            # polls for the exit in sleeps of up to 50 ms, which would round
            # the time up to that step
            check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _end_to_end(durations: list) -> dict:
    d = sorted(durations)
    return {
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "op_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "op_tail_ms": (d[max(0, len(d) - TAIL_BEYOND - 1)] * 1e3, "ms"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from spans import OFF, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    tracer = Tracer() if traced else OFF
    main = _measure(workload, seconds, tracer, MIN_OPS)
    runs = [main]
    if traced:
        # one round of each other workload, so every layer is reported
        others = [WORKLOADS[other](seed) for other in WORKLOAD_NAMES if other != name]
        runs += [_measure(other, 0, tracer, 1) for other in others]
        metrics = {}
        for w in [workload] + others:
            metrics.update(w.layer_metrics(tracer))
        end_to_end = ", ".join(f"{k} {v:.6g}" for k, (v, _) in sorted(_end_to_end(main["durations"]).items()))
        print(f"traced {name}, {len(main['durations'])} operations (tracing overhead: compare with --trace 0): "
              f"{end_to_end}", file=sys.stderr)
    else:
        metrics = {
            **_end_to_end(main["durations"]),
            "setup_s": (_setup_seconds(name, seed), "s"),
            "peak_rss_mb": (_peak_rss_mb(name), "MB"),
        }
    problems = [p for r in runs for p in r["problems"]]
    for p in problems[:20]:
        print(p, file=sys.stderr)
    return {
        "correct": not any(r["wrong"] for r in runs),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


# -- result files -------------------------------------------------------------


def environment() -> dict:
    from importlib.metadata import version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def write_results(path: str, seed: int, seconds: float, runs: dict) -> None:
    """runs: {workload: {"untraced": result, "traced": result}}"""
    body = {"environment": environment(), "seed": seed, "seconds": seconds, "runs": runs}
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def run_all(seed: int, seconds: float) -> dict:
    runs = {}
    for name in WORKLOAD_NAMES:
        for trace, key in ((0, "untraced"), (1, "traced")):
            proc = subprocess.run(
                [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{name} --trace {trace} exited {proc.returncode}")
            runs.setdefault(name, {})[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return runs


def print_runs(runs: dict) -> None:
    for name, by_trace in runs.items():
        for key, result in by_trace.items():
            print(f"{name} ({key}): attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")


def compare(old_path: str, new_path: str) -> None:
    """Per-workload, per-metric change from the first result file to the second."""
    old = json.loads(Path(old_path).read_text())["runs"]
    new = json.loads(Path(new_path).read_text())["runs"]
    print(f"{'workload':16s} {'metric':40s} {'old':>12s} {'new':>12s} {'change':>8s}")
    for name in WORKLOAD_NAMES:
        for key in ("untraced", "traced"):
            a, b = old.get(name, {}).get(key), new.get(name, {}).get(key)
            if a is None or b is None:
                continue
            label = f"{name}/{key}"
            for field in ("attempted", "failed"):
                print(f"{label:16s} {field:40s} {a[field]:>12d} {b[field]:>12d}")
            for metric in sorted(set(a["metrics"]) | set(b["metrics"])):
                va = a["metrics"].get(metric, {}).get("value")
                vb = b["metrics"].get(metric, {}).get("value")
                if va is None or vb is None:
                    print(f"{label:16s} {metric:40s} {str(va):>12s} {str(vb):>12s}")
                    continue
                change = f"{(vb - va) / va:+.1%}" if va else "n/a"
                print(f"{label:16s} {metric:40s} {va:>12.5g} {vb:>12.5g} {change:>8s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--out", help="also write a result file (name it BENCH_*.json)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print deltas between two result files")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "qsodyn" / "__init__.py").is_file():
        print(f"no qsodyn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    if args.all:
        runs = run_all(args.seed, args.seconds)
    else:
        if args.workload is None:
            ap.error("--workload, --all or --compare is required")
        if args.setup_only:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed).round_items(0)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        runs = {args.workload: {"traced" if args.trace else "untraced": result}}
    if args.out:
        write_results(args.out, args.seed, args.seconds, runs)
    if args.all:
        print_runs(runs)
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
