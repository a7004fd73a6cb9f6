"""Benchmark output helper: print each experiment table and persist it
under ``benchmarks/results/`` so the numbers EXPERIMENTS.md cites can be
regenerated and diffed.

Each ``emit`` writes three artifacts per experiment (none in a run
under ``--benchmark-disable``):

* ``<experiment>.txt`` — the rendered console table (human diffing);
* ``BENCH_<experiment>.json`` — the same table as structured data, so
  the perf trajectory can be tracked across PRs by machine;
* ``BENCH_<experiment>_metrics.json`` — a snapshot of the process
  metrics registry, recording what the pipeline *did* during the run
  (row counts, plan-stage sizes, sqlite statement counts).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from typing import Callable, Tuple

from repro.bench import ResultTable, dump_metrics

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Whether ``emit`` writes its artifacts.  A run under
#: ``--benchmark-disable`` (the smoke mode: every benchmark runs once,
#: untimed) only prints its tables, so the committed results are left
#: alone; :func:`configure` sets this from that option.
WRITE_RESULTS = True


def configure(config) -> None:
    """Read the pytest ``config`` (``pytest_configure`` in conftest)."""
    global WRITE_RESULTS
    WRITE_RESULTS = not config.getoption("benchmark_disable", False)


def emit(experiment: str, table: ResultTable) -> None:
    rendered = table.render()
    print()
    print(rendered)
    if not WRITE_RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    existing = path.read_text() if path.exists() else ""
    block = rendered + "\n\n"
    if table.title in existing:
        # Replace the stale block for this table title.
        parts = existing.split("\n\n")
        parts = [p for p in parts if p and not p.startswith(table.title)]
        existing = ("\n\n".join(parts) + "\n\n") if parts else ""
    path.write_text(existing + block)
    _emit_json(experiment, table)
    dump_metrics(RESULTS_DIR / f"BENCH_{experiment}_metrics.json")


# How many interleaved pairs one ``paired_ratio`` median is taken over.
PAIRS = 30


def paired_ratio(
    numerator: Callable[[], object],
    denominator: Callable[[], object],
) -> Tuple[float, float, float]:
    """The median of ``PAIRS`` interleaved wall-time ratios
    ``numerator / denominator``: each pair times both sides back to
    back, alternating which side runs first, so a slow spell of the
    host lands on both sides of one ratio instead of on one side of
    the comparison.  Returns ``(median ratio, median numerator
    seconds, median denominator seconds)``."""
    def timed(fn: Callable[[], object]) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    ratios, tops, bottoms = [], [], []
    for index in range(PAIRS):
        if index % 2:
            bottom = timed(denominator)
            top = timed(numerator)
        else:
            top = timed(numerator)
            bottom = timed(denominator)
        ratios.append(top / bottom)
        tops.append(top)
        bottoms.append(bottom)
    return statistics.median(ratios), statistics.median(tops), statistics.median(bottoms)


def _emit_json(experiment: str, table: ResultTable) -> None:
    """Merge this table into ``BENCH_<experiment>.json`` (one file per
    experiment, one entry per table title — mirroring the txt blocks)."""
    path = RESULTS_DIR / f"BENCH_{experiment}.json"
    data = {"experiment": experiment, "tables": {}}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            pass
    data.setdefault("tables", {})[table.title] = {
        "columns": table.columns,
        "rows": table.rows,
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
