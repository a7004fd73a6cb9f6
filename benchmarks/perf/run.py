"""The catalog's end-to-end and per-layer benchmark.

    python3 benchmarks/perf/run.py --workload discover_memory --seed 7
    python3 benchmarks/perf/run.py --workload serve_mixed --seed 7 --trace 1
    python3 benchmarks/perf/run.py --seed 7 --out benchmarks/perf/out/a.json

One workload per process.  ``--trace 0`` measures the end-to-end
metrics with no spans anywhere; ``--trace 1`` runs the main mix once
without and once with spans and reports the per-layer metrics.  The
last line of standard output is the run's result as one JSON object;
``--out`` writes the stamped, detailed result.  Without ``--workload``
every workload runs, untraced then traced, each in its own process,
and ``--out`` gets all of them (what ``compare.py`` reads).
"""

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import sqlite3
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
sys.path.insert(0, SOURCE)

WORKLOADS = ("ingest_memory", "discover_memory", "curate_sqlite", "serve_mixed")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed, seconds):
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite3.sqlite_version": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "seconds": seconds,
        "flush_policy": "sqlite WAL, synchronous=NORMAL (as shipped)",
    }


def run_workload(name, seed, seconds, trace):
    """One workload in this process; returns the detailed result."""
    import inprocess
    import served

    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if name == "serve_mixed":
            result = served.run(seed, seconds, trace, workdir)
        else:
            result = inprocess.run(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = contract()
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {n: (v, None) for n, v in result.pop("per_layer").items()}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = result.pop("end_to_end")
    if set(values) != set(units):
        raise SystemExit(
            f"metrics do not match BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    failures = result.pop("failures")
    for metric, (value, _samples) in values.items():
        if not math.isfinite(value):
            failures.append(f"{metric} is not finite")
    result.update(
        workload=name,
        trace=trace,
        stamp={**stamp(seed, seconds), "sizes": result.pop("sizes")},
        failed=len(failures),
        correct=not failures,
        failures=failures[:20],
        metrics={
            metric: {"value": value, "unit": units[metric], "samples": samples}
            for metric, (value, samples) in sorted(values.items())
        },
    )
    return result


def describe(result):
    """Every metric by name with unit and sample count, and the stamp."""
    lines = [f"== {result['workload']} (trace {result['trace']}) "
             f"{json.dumps(result['stamp'], sort_keys=True)}"]
    for metric, entry in result["metrics"].items():
        samples = "" if entry["samples"] is None else f"  n={entry['samples']}"
        lines.append(f"{metric:<48} {entry['value']:>14.4f} {entry['unit']}{samples}")
    for root, row in result["info"].get("accounting", {}).items():
        lines.append(f"-- {root}: {row['calls']} calls, "
                     f"{row['traced_ms_per_call']:.4f} ms traced")
        for name, share in row.get("share", {}).items():
            lines.append(f"     {name:<44} {100 * share:6.1f}%")
        for name in ("unexplained_share", "server_and_service_share"):
            if name in row:
                lines.append(f"     {name:<44} {100 * row[name]:6.1f}%")
    for name, value in result["info"].items():
        if name != "accounting":
            lines.append(f"-- {name}: {value}")
    lines.append(f"attempted {result['attempted']}, failed {result['failed']}")
    lines += [f"FAILED: {message}" for message in result["failures"]]
    return "\n".join(lines)


def last_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in result["metrics"].items()
        },
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed part at the seed commit "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the detailed result here")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit(f"nothing to benchmark: {SOURCE}/repro is missing")
    seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, args.trace)
        print(describe(result))
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(result, handle, indent=1, sort_keys=True)
        print(last_line(result))
        return 0 if result["correct"] else 1

    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            out = os.path.join(HERE, "out", f"part-{os.getpid()}.json")
            os.makedirs(os.path.dirname(out), exist_ok=True)
            done = subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", out,
            ], stdout=subprocess.PIPE, text=True)
            print(done.stdout.rsplit("\n", 2)[0])
            if not os.path.exists(out):
                raise SystemExit(f"{name} (trace {trace}) produced no result")
            with open(out) as handle:
                runs.append(json.load(handle))
            os.remove(out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
