"""Compare two result files of ``run.py`` against the metrics' bounds.

    python3 benchmarks/perf/compare.py A.json B.json

Per (workload, metric): A, B, how much worse B is as a share of A, and
the bound ``BENCHMARK.json`` fixes for that metric.  Exits 1 when an
end-to-end metric of B is worse than A's by more than its bound, or
when a run in either file was not correct.  Per-layer metrics have no
bound: their change is printed (``layer X: -N us``) and never fails.
A file may hold one run (``run.py --workload W --out``) or all of them
(``run.py --out``).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path):
    with open(path) as handle:
        data = json.load(handle)
    runs = data["runs"] if "runs" in data else [data]
    return {(run["workload"], run["trace"]): run for run in runs}


def worse_by(a, b, better):
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    first, second = load(argv[1]), load(argv[2])
    regressions = []
    for key in sorted(first.keys() & second.keys()):
        a, b = first[key], second[key]
        print(f"== {key[0]} (trace {key[1]})  "
              f"A {a['stamp']['commit']} seed {a['stamp']['seed']}  "
              f"B {b['stamp']['commit']} seed {b['stamp']['seed']}")
        for run, label in ((a, "A"), (b, "B")):
            if not run["correct"]:
                regressions.append(f"{key[0]}: {label} failed {run['failed']} checks")
        for name in sorted(a["metrics"].keys() & b["metrics"].keys()):
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            unit = a["metrics"][name]["unit"]
            worse = worse_by(x, y, metrics[name]["better"])
            bound = metrics[name].get("bound")
            verdict = ""
            if bound is not None:
                verdict = f"bound {100 * bound:.0f}%"
                if worse > bound:
                    verdict += "  REGRESSION"
                    regressions.append(
                        f"{key[0]}: {name} worse by {100 * worse:.1f}% "
                        f"(bound {100 * bound:.0f}%)")
            print(f"{name:<48} {x:>14.4f} {y:>14.4f} {unit:<6} "
                  f"{y - x:>+12.4f}  worse by {100 * worse:>+7.1f}%  {verdict}")
    for line in regressions:
        print("FAIL", line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
