"""Smoke test of the reference benchmark: every workload at a tiny
scale, untraced and traced, through the real command line.

Collected by ``pytest benchmarks`` (the CI ``benchmark-smoke`` job); not
part of tier-1 (``testpaths = ["tests"]``).
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SMOKE_SECONDS = "0.3"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", SMOKE_SECONDS, "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0, done.stdout
    assert last["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    detailed = json.loads(out.read_text())
    for metric in expected:
        entry = detailed["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]
            assert entry["samples"] >= 1
    assert detailed["stamp"]["seed"] == 11
    for key in ("commit", "dirty", "nproc", "python", "sqlite3.sqlite_version",
                "platform", "timestamp", "sizes"):
        assert key in detailed["stamp"]
    # At this scale the catalog is small enough for the full integrity
    # check, which a full-size run has to skip.
    assert "check_catalog" not in detailed["info"]
