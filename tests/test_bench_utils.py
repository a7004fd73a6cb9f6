"""Unit tests for the benchmark harness utilities."""

import pytest

from repro.bench import (
    ALL_SCHEMES,
    ResultTable,
    build_schemes,
    empty_schemes,
    measure,
    speedup,
    throughput,
)
from repro.grid import CorpusConfig


class TestResultTable:
    def test_render_alignment(self):
        table = ResultTable("title", ["name", "value"])
        table.add_row("short", 1)
        table.add_row("much-longer-name", 123.456)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "title"
        assert "much-longer-name" in rendered
        assert all(len(lines[2]) == len(lines[3]) for _ in [0])

    def test_wrong_arity_rejected(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_values(self):
        table = ResultTable("t", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column_values("a") == [1, 2]
        assert table.column_values("b") == ["x", "y"]

    def test_float_formatting(self):
        from repro.bench.tables import _format

        assert _format(0) == "0"
        assert _format(0.0) == "0"
        assert _format(123.456) == "123.5"
        assert _format(1.23456) == "1.235"
        assert _format(0.000123) == "1.230e-04"
        assert _format("text") == "text"

    def test_empty_table_renders(self):
        table = ResultTable("empty", ["a"])
        assert "empty" in table.render()


class TestTiming:
    def test_measure_returns_positive_time_and_result(self):
        seconds, result = measure(lambda: sum(range(100)), repeat=2)
        assert seconds >= 0
        assert result == 4950

    def test_measure_takes_best_of_repeats(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        _seconds, result = measure(fn, repeat=3, number=2)
        assert len(calls) == 6
        assert result == 6

    def test_throughput(self):
        assert throughput(10, 2.0) == 5.0
        assert throughput(10, 0.0) == 0.0

    def test_speedup(self):
        assert speedup(1.0, 12.3) == "12.3x"
        assert speedup(0.0, 1.0) == "n/a"


class TestSchemeBuilders:
    def test_build_schemes_loads_all(self):
        schemes = build_schemes(CorpusConfig(seed=1), 3)
        assert set(schemes) == set(ALL_SCHEMES)
        assert all(s.total_rows() > 0 for s in schemes.values())

    def test_build_subset(self):
        schemes = build_schemes(CorpusConfig(seed=1), 2, schemes=["hybrid", "clob"])
        assert set(schemes) == {"hybrid", "clob"}

    def test_empty_schemes_have_no_documents(self):
        schemes = empty_schemes(CorpusConfig(seed=1), schemes=["clob"])
        assert schemes["clob"].total_rows() == 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_schemes(CorpusConfig(seed=1), 1, schemes=["oracle9i"])
        with pytest.raises(ValueError):
            empty_schemes(CorpusConfig(seed=1), schemes=["oracle9i"])

    def test_schemes_share_definitions(self):
        """All schemes resolve the same dynamic definitions (one shared
        registry), so comparisons measure storage, not bookkeeping."""
        schemes = build_schemes(CorpusConfig(seed=1), 2,
                                schemes=["hybrid", "edge"])
        assert schemes["edge"].registry is schemes["hybrid"].catalog.registry


class TestMetricsDump:
    def test_dump_metrics_writes_snapshot(self, tmp_path):
        import json

        from repro.bench import dump_metrics
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("bench_runs_total").inc(2)
        path = dump_metrics(tmp_path / "nested" / "metrics.json", registry)
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.obs/v1"
        assert data["metrics"][0]["name"] == "bench_runs_total"

    def test_dump_metrics_defaults_to_process_registry(self, tmp_path):
        import json

        from repro.bench import dump_metrics
        from repro.obs import MetricsRegistry, set_default_registry

        mine = MetricsRegistry()
        mine.gauge("marker").set(7)
        previous = set_default_registry(mine)
        try:
            path = dump_metrics(tmp_path / "m.json")
        finally:
            set_default_registry(previous)
        data = json.loads(path.read_text())
        assert any(m["name"] == "marker" for m in data["metrics"])


class TestBenchEmit:
    @pytest.fixture()
    def util(self, tmp_path, monkeypatch):
        """The benchmarks/_util module, redirected to a temp results dir."""
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "bench_util_under_test", root / "benchmarks" / "_util.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
        return module

    def test_emit_writes_txt_json_and_metrics(self, util, capsys):
        import json

        table = ResultTable("E99: demo", ["scheme", "seconds"])
        table.add_row("hybrid", 0.012)
        util.emit("e99_demo", table)
        capsys.readouterr()
        assert (util.RESULTS_DIR / "e99_demo.txt").exists()
        data = json.loads((util.RESULTS_DIR / "BENCH_e99_demo.json").read_text())
        assert data["experiment"] == "e99_demo"
        assert data["tables"]["E99: demo"]["columns"] == ["scheme", "seconds"]
        assert data["tables"]["E99: demo"]["rows"] == [["hybrid", 0.012]]
        metrics = json.loads(
            (util.RESULTS_DIR / "BENCH_e99_demo_metrics.json").read_text())
        assert metrics["schema"] == "repro.obs/v1"

    def test_emit_replaces_same_title(self, util, capsys):
        import json

        first = ResultTable("E99: demo", ["v"])
        first.add_row(1)
        util.emit("e99_demo", first)
        second = ResultTable("E99: demo", ["v"])
        second.add_row(2)
        util.emit("e99_demo", second)
        capsys.readouterr()
        data = json.loads((util.RESULTS_DIR / "BENCH_e99_demo.json").read_text())
        assert data["tables"]["E99: demo"]["rows"] == [[2]]
        txt = (util.RESULTS_DIR / "e99_demo.txt").read_text()
        assert txt.count("E99: demo") == 1

    @pytest.mark.parametrize("disabled", [True, False])
    def test_smoke_run_writes_nothing(self, util, capsys, disabled):
        """Under ``--benchmark-disable`` the table is printed and no
        result file is written."""

        class Config:
            def getoption(self, name, default=None):
                assert name == "benchmark_disable"
                return disabled

        util.configure(Config())
        table = ResultTable("E99: demo", ["v"])
        table.add_row(1)
        util.emit("e99_demo", table)
        assert "E99: demo" in capsys.readouterr().out
        written = sorted(p.name for p in util.RESULTS_DIR.iterdir())
        if disabled:
            assert written == []
        else:
            assert written == [
                "BENCH_e99_demo.json", "BENCH_e99_demo_metrics.json", "e99_demo.txt"]
