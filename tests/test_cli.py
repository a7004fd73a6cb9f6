"""Tests for the command-line interface (persisted sqlite catalogs)."""

import pytest

from repro.cli import main
from repro.grid import FIG3_DOCUMENT
from repro.xmlkit import canonical, parse


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "catalog.db")


@pytest.fixture()
def fig3_file(tmp_path):
    path = tmp_path / "fig3.xml"
    path.write_text(FIG3_DOCUMENT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def loaded(db, fig3_file, capsys):
    """A catalog with Fig-3 definitions and the Fig-3 document ingested."""
    assert main(["init", "--db", db]) == 0
    assert main(["define", "--db", db, "grid", "ARPS",
                 "--element", "dx:float", "--element", "dz:float"]) == 0
    assert main(["define", "--db", db, "grid-stretching", "ARPS",
                 "--parent", "grid",
                 "--element", "dzmin:float",
                 "--element", "reference-height:float"]) == 0
    assert main(["ingest", "--db", db, fig3_file]) == 0
    capsys.readouterr()
    return db


class TestInit:
    def test_creates_catalog(self, db, capsys):
        code, out, _err = run(capsys, "init", "--db", db)
        assert code == 0
        assert "23 ordered nodes" in out

    def test_refuses_overwrite(self, db, capsys):
        run(capsys, "init", "--db", db)
        code, _out, err = run(capsys, "init", "--db", db)
        assert code == 1
        assert "already exists" in err

    def test_refuses_a_sharded_layout_instead_of_an_empty_file(self, db, capsys):
        """A ``<db>.shards.json`` sidecar marks a sharded catalog of an
        older release: no command may answer it from a new empty file."""
        import pathlib

        sidecar = pathlib.Path(db + ".shards.json")
        sidecar.write_text('{"version": 1, "shards": 2, "router": "hash"}')
        for argv in (["query", "--db", db, "--attr", "grid/ARPS"],
                     ["init", "--db", db]):
            code, _out, err = run(capsys, *argv)
            assert code == 1, argv
            assert str(sidecar) in err
            assert not pathlib.Path(db).exists()

    @pytest.mark.parametrize("argv", [
        ["query", "--attr", "grid/ARPS"],
        ["fetch", "1"],
    ])
    def test_only_init_creates_the_catalog_file(self, db, argv, capsys):
        import pathlib

        code, _out, err = run(capsys, argv[0], "--db", db, *argv[1:])
        assert code == 1
        assert f"error: no catalog at {db}; run repro init" in err
        assert not pathlib.Path(db).exists()
        assert not pathlib.Path(db + ".metrics.json").exists()


class TestDefineAndIngest:
    def test_ingest_reports_counts(self, db, fig3_file, capsys):
        run(capsys, "init", "--db", db)
        code, out, _err = run(capsys, "ingest", "--db", db, fig3_file)
        assert code == 0
        assert "object 1: 4 CLOBs" in out
        assert "warning" in out  # grid/ARPS undefined -> store-only

    def test_defined_vocabulary_removes_warnings(self, loaded, fig3_file, capsys):
        code, out, _err = run(capsys, "ingest", "--db", loaded, fig3_file)
        assert code == 0
        assert "warning" not in out
        assert "object 2" in out

    def test_unknown_type_rejected(self, db, capsys):
        run(capsys, "init", "--db", db)
        code, _out, err = run(capsys, "define", "--db", db, "x", "S",
                              "--element", "v:complex")
        assert code == 1
        assert "unknown type" in err

    def test_unknown_parent_rejected(self, db, capsys):
        run(capsys, "init", "--db", db)
        code, _out, err = run(capsys, "define", "--db", db, "x", "S",
                              "--parent", "ghost")
        assert code == 1


class TestQuery:
    def test_paper_query(self, loaded, capsys):
        code, out, _err = run(
            capsys, "query", "--db", loaded,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
            "--sub", "grid-stretching", "--elem", "dzmin = 100",
        )
        assert code == 0
        assert "1 matching object(s): [1]" in out

    def test_trace_flag(self, loaded, capsys):
        code, out, _err = run(
            capsys, "query", "--db", loaded, "--trace",
            "--attr", "theme",
        )
        assert code == 0
        assert "elements-meeting-criteria" in out

    def test_fetch_flag_prints_xml(self, loaded, capsys):
        code, out, _err = run(
            capsys, "query", "--db", loaded, "--fetch", "--attr", "theme",
        )
        assert code == 0
        assert "<LEADresource>" in out

    def test_no_match(self, loaded, capsys):
        code, out, _err = run(
            capsys, "query", "--db", loaded,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 7",
        )
        assert code == 0
        assert "0 matching object(s)" in out

    def test_unknown_definition_is_clean_error(self, loaded, capsys):
        code, _out, err = run(
            capsys, "query", "--db", loaded, "--attr", "nope/X",
        )
        assert code == 1
        assert "error:" in err

    def test_query_without_attr_rejected(self, loaded, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--db", loaded, "--elem", "dx = 1"])

    def test_bad_operator_rejected(self, loaded, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--db", loaded, "--attr", "grid/ARPS",
                  "--elem", "dx ~ 1"])


class TestExplain:
    def test_explain_shows_plan_tree(self, loaded, capsys):
        code, out, _err = run(
            capsys, "explain", "--db", loaded,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
            "--sub", "grid-stretching", "--elem", "dzmin = 100",
        )
        assert code == 0
        assert "logical plan:" in out
        assert "ObjectIntersect" in out
        assert "ElementSeek" in out
        assert "AncestorCountMatch" in out
        assert "[actual=1]" in out and "est~" not in out
        assert out.rstrip().endswith("\n1 matching object(s)")

    def test_stats_storage_lists_tables(self, loaded, capsys):
        code, out, _err = run(capsys, "stats", "--db", loaded, "--storage")
        assert code == 0
        assert "storage:" in out
        assert "elements" in out
        assert "bytes" in out


class TestFetchAndAdd:
    def test_fetch_roundtrip(self, loaded, capsys):
        code, out, _err = run(capsys, "fetch", "--db", loaded, "1")
        assert code == 0
        assert canonical(parse(out.strip())) == canonical(parse(FIG3_DOCUMENT))

    def test_fetch_missing(self, loaded, capsys):
        code, _out, err = run(capsys, "fetch", "--db", loaded, "9")
        assert code == 1

    def test_fetch_id_past_sqlite_integer_is_missing(self, loaded, capsys):
        big = str(1 << 63)
        code, out, err = run(capsys, "fetch", "--db", loaded, "1", big)
        assert code == 1
        assert out.count("<LEADresource>") == 1
        assert err == f"error: no objects [{big}]\n"

    def test_add_fragment(self, loaded, tmp_path, capsys):
        fragment = tmp_path / "theme.xml"
        fragment.write_text(
            "<theme><themekt>CF</themekt><themekey>added_via_cli</themekey></theme>"
        )
        code, out, _err = run(capsys, "add", "--db", loaded, "1", str(fragment))
        assert code == 0
        code, out, _err = run(
            capsys, "query", "--db", loaded,
            "--attr", "theme", "--elem", "themekey = added_via_cli",
        )
        assert "1 matching object(s): [1]" in out


class TestFsck:
    def test_healthy_catalog(self, loaded, capsys):
        code, out, _err = run(capsys, "fsck", "--db", loaded, "--deep")
        assert code == 0
        assert "no violations" in out

    def test_corrupted_catalog_fails(self, loaded, capsys):
        import sqlite3

        connection = sqlite3.connect(loaded)
        connection.execute(
            "UPDATE clobs SET object_id = 42 "
            "WHERE rowid = (SELECT MIN(rowid) FROM clobs)"
        )
        connection.commit()
        connection.close()
        code, out, _err = run(capsys, "fsck", "--db", loaded)
        assert code == 1
        assert "violation:" in out

    def test_orphan_attribute_row_fails_shallow(self, loaded, capsys):
        import sqlite3

        connection = sqlite3.connect(loaded)
        connection.execute(
            "INSERT INTO attributes VALUES (99, 1, 1, 1, 1)"
        )
        connection.commit()
        connection.close()
        code, out, _err = run(capsys, "fsck", "--db", loaded)
        assert code == 1
        assert "violation:" in out

    def test_mangled_clob_only_caught_by_deep(self, loaded, capsys):
        # Row-level structure stays consistent, so the shallow check
        # passes; only --deep parses the stored XML and fails.
        import sqlite3

        connection = sqlite3.connect(loaded)
        connection.execute(
            "UPDATE clobs SET content = '<broken' "
            "WHERE rowid = (SELECT MIN(rowid) FROM clobs)"
        )
        connection.commit()
        connection.close()
        code, _out, _err = run(capsys, "fsck", "--db", loaded)
        assert code == 0
        code, out, _err = run(capsys, "fsck", "--db", loaded, "--deep")
        assert code == 1
        assert "violation:" in out


class TestRetryKnobs:
    def test_knobs_set_store_policy(self, loaded, fig3_file, monkeypatch, capsys):
        from repro.core import HybridCatalog

        seen = {}
        original = HybridCatalog.ingest

        def spy(self, *args, **kwargs):
            seen["policy"] = self.store.retry_policy
            return original(self, *args, **kwargs)

        monkeypatch.setattr(HybridCatalog, "ingest", spy)
        code, _out, _err = run(
            capsys, "ingest", "--db", loaded, fig3_file,
            "--retry-attempts", "5", "--retry-backoff", "0.001",
        )
        assert code == 0
        assert seen["policy"].max_attempts == 5
        assert seen["policy"].base_delay == pytest.approx(0.001)

    def test_invalid_knob_is_clean_error(self, loaded, capsys):
        code, _out, err = run(
            capsys, "info", "--db", loaded, "--retry-attempts", "0",
        )
        assert code == 1
        assert "error:" in err


class TestInfoAndSchema:
    def test_info(self, loaded, capsys):
        code, out, _err = run(capsys, "info", "--db", loaded)
        assert code == 0
        assert "objects: 1" in out
        assert "clobs" in out

    def test_schema_default(self, capsys):
        code, out, _err = run(capsys, "schema")
        assert code == 0
        assert "theme [ATTRIBUTE]" in out

    def test_schema_from_xsd(self, tmp_path, capsys):
        from repro.grid import LEAD_XSD

        path = tmp_path / "lead.xsd"
        path.write_text(LEAD_XSD)
        code, out, _err = run(capsys, "schema", "--xsd", str(path))
        assert code == 0
        assert "detailed [ATTRIBUTE]" in out


class TestPersistence:
    def test_state_survives_reopen(self, loaded, fig3_file, capsys):
        # Each CLI call opens a fresh process-equivalent catalog; the
        # fixture already exercised that.  Verify ids continue.
        code, out, _err = run(capsys, "ingest", "--db", loaded, fig3_file)
        assert "object 2" in out
        code, out, _err = run(capsys, "info", "--db", loaded)
        assert "objects: 2" in out

    def test_init_with_custom_xsd_sidecar(self, tmp_path, capsys):
        from repro.grid import LEAD_XSD

        xsd = tmp_path / "lead.xsd"
        xsd.write_text(LEAD_XSD)
        db = str(tmp_path / "c.db")
        code, out, _err = run(capsys, "init", "--db", db, "--xsd", str(xsd))
        assert code == 0
        assert (tmp_path / "c.db.xsd").exists()
        # Later commands load the sidecar schema transparently.
        code, out, _err = run(capsys, "info", "--db", db)
        assert code == 0


class TestStats:
    def test_stats_after_session(self, loaded, capsys):
        """Metrics accumulate in the sidecar across CLI invocations and
        surface through `repro stats`."""
        code, _out, _err = run(
            capsys, "query", "--db", loaded,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000")
        assert code == 0
        code, out, _err = run(capsys, "stats", "--db", loaded)
        assert code == 0
        for name in ("catalog_ingest_seconds", "catalog_query_seconds",
                     "shredder_clobs_total", "planner_stage_rows",
                     "sqlite_statements_total"):
            assert name in out, f"{name} missing from stats output"

    def test_stats_json_format(self, loaded, capsys):
        import json

        code, out, _err = run(capsys, "stats", "--db", loaded, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "repro.obs/v1"
        assert any(m["name"] == "shredder_clobs_total" for m in data["metrics"])

    def test_stats_prom_format_parses(self, loaded, capsys):
        code, out, _err = run(capsys, "stats", "--db", loaded, "--format", "prom")
        assert code == 0
        assert "# TYPE catalog_ingest_seconds histogram" in out
        assert 'catalog_ingest_seconds_bucket{le="+Inf"}' in out

    def test_stats_reset_clears_sidecar(self, loaded, capsys):
        import pathlib

        sidecar = pathlib.Path(loaded + ".metrics.json")
        assert sidecar.exists()
        code, _out, _err = run(capsys, "stats", "--db", loaded, "--reset")
        assert code == 0
        assert not sidecar.exists()
        code, out, _err = run(capsys, "stats", "--db", loaded)
        assert "(no metrics recorded)" in out

    def test_stats_empty_db_reports_none(self, db, capsys):
        run(capsys, "init", "--db", db)
        import pathlib

        pathlib.Path(db + ".metrics.json").unlink()
        code, out, _err = run(capsys, "stats", "--db", db)
        assert code == 0
        assert "(no metrics recorded)" in out

    def test_metrics_json_flag(self, loaded, fig3_file, tmp_path, capsys):
        """--metrics-json dumps this invocation's registry to a file."""
        import json

        out_path = tmp_path / "run.json"
        code, _out, _err = run(
            capsys, "ingest", "--db", loaded, fig3_file,
            "--metrics-json", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        names = {m["name"] for m in data["metrics"]}
        assert "catalog_ingest_seconds" in names
        assert "shredder_clobs_total" in names


class TestConcurrentCli:
    """The --threads knobs: concurrent readers through the CLI agree
    with each other, and the bench/stats probes report sane output."""

    def test_query_threads_identical_results(self, loaded, capsys):
        code, out, _err = run(
            capsys, "query", "--db", loaded, "--threads", "4",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
        )
        assert code == 0
        assert "4 concurrent readers: identical results" in out
        assert "1 matching object(s): [1]" in out

    def test_bench_reports_percentiles_and_qps(self, loaded, capsys):
        code, out, _err = run(
            capsys, "bench", "--db", loaded, "--threads", "2",
            "--repeat", "10", "--attr", "grid/ARPS",
            "--elem", "dx/ARPS = 1000",
        )
        assert code == 0
        assert "20 queries across 2 thread(s)" in out
        assert "p50" in out and "p95" in out and "QPS" in out

    def test_bench_no_result_cache(self, loaded, capsys):
        code, out, _err = run(
            capsys, "bench", "--db", loaded, "--threads", "2",
            "--repeat", "5", "--no-result-cache", "--attr", "theme",
        )
        assert code == 0
        assert "10 queries across 2 thread(s)" in out

    def test_bench_rejects_bad_counts(self, loaded, capsys):
        code, _out, err = run(
            capsys, "bench", "--db", loaded, "--threads", "0",
            "--attr", "theme",
        )
        assert code == 1
        assert "must be >= 1" in err


class TestExplainAnalyze:
    def test_analyze_appends_profile_table(self, loaded, capsys):
        code, out, _err = run(
            capsys, "explain", "--db", loaded, "--analyze",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
            "--sub", "grid-stretching", "--elem", "dzmin = 100",
        )
        assert code == 0
        assert "profile (sqlite" in out
        assert "in=" in out and "out=" in out
        assert "out=     1" in out and "est~" not in out
        assert " ms" in out
        assert "waits: lock=" in out and "pool=" in out

    def test_without_analyze_no_profile(self, loaded, capsys):
        code, out, _err = run(
            capsys, "explain", "--db", loaded,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
        )
        assert code == 0
        assert "profile (" not in out


class TestEvents:
    def test_queries_are_journaled(self, loaded, capsys):
        run(capsys, "query", "--db", loaded,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000")
        code, out, _err = run(capsys, "events", "--db", loaded)
        assert code == 0
        assert "query" in out
        assert "matches=1" in out

    def test_slow_ms_embeds_profile(self, loaded, capsys):
        run(capsys, "query", "--db", loaded, "--slow-ms", "0",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000")
        code, out, _err = run(
            capsys, "events", "--db", loaded, "--event", "slow_query")
        assert code == 0
        assert "slow_query" in out
        assert "stages" in out  # "profile=N stages"

    def test_json_envelopes(self, loaded, capsys):
        import json as _json

        run(capsys, "query", "--db", loaded, "--slow-ms", "0",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000")
        code, out, _err = run(
            capsys, "events", "--db", loaded, "--json",
            "--event", "slow_query", "--tail", "1")
        assert code == 0
        record = _json.loads(out)
        assert record["schema"] == "repro.events/v1"
        profile = record["fields"]["profile"]
        assert profile["backend"] == "sqlite"
        assert [s["kind"] for s in profile["stages"]][-1] == "ObjectIntersect"

    def test_no_sidecar_is_clean(self, db, capsys):
        run(capsys, "init", "--db", db)
        code, out, _err = run(capsys, "events", "--db", db)
        assert code == 0
        assert "no events recorded" in out

    def test_tail_limits_output(self, loaded, capsys):
        for _ in range(4):
            run(capsys, "query", "--db", loaded,
                "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000")
        code, out, _err = run(
            capsys, "events", "--db", loaded, "--tail", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestTop:
    def test_renders_frames(self, loaded, capsys):
        code, out, _err = run(
            capsys, "top", "--db", loaded, "--frames", "2",
            "--interval", "0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert "qps" in lines[0] and "q_p95_ms" in lines[0]
        assert len(lines) == 3  # header + 2 frames

    def test_loader_threads_generate_traffic(self, loaded, capsys):
        code, out, _err = run(
            capsys, "top", "--db", loaded, "--frames", "2",
            "--interval", "0.1", "--threads", "2",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000")
        assert code == 0
        frames = out.strip().splitlines()[1:]
        qps_values = [float(line.split()[1]) for line in frames]
        assert any(v > 0 for v in qps_values)

    def test_rejects_bad_knobs(self, loaded, capsys):
        code, _out, err = run(
            capsys, "top", "--db", loaded, "--frames", "0")
        assert code == 1
        assert "--frames" in err


class TestSearchCommand:
    def test_search_streams_matching_xml(self, loaded, capsys):
        code, out, err = run(capsys, "search", "--db", loaded,
                             "--attr", "grid/ARPS")
        assert code == 0
        assert "1 matching object(s); streaming 1 from offset 0" in err
        assert canonical(parse(out)) is not None  # stdout is pure XML

    def test_search_pagination(self, loaded, fig3_file, capsys):
        run(capsys, "ingest", "--db", loaded, fig3_file)
        run(capsys, "ingest", "--db", loaded, fig3_file)
        code, out, err = run(capsys, "search", "--db", loaded,
                             "--attr", "grid/ARPS",
                             "--offset", "1", "--limit", "1")
        assert code == 0
        assert "3 matching object(s); streaming 1 from offset 1" in err
        assert out.count("<LEADresource>") == 1

    def test_search_offset_past_end_is_empty(self, loaded, capsys):
        code, out, err = run(capsys, "search", "--db", loaded,
                             "--attr", "grid/ARPS", "--offset", "10")
        assert code == 0
        assert out == ""
        assert "streaming 0" in err

    def test_search_negative_flags_rejected(self, loaded, capsys):
        code, _out, err = run(capsys, "search", "--db", loaded,
                              "--attr", "grid/ARPS", "--offset", "-1")
        assert code == 1
        assert "--offset" in err

    def test_search_through_closed_pipe_never_tracebacks(
            self, loaded, fig3_file):
        """The satellite acceptance: `repro search | head` exits
        cleanly with no BrokenPipeError traceback."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        for _ in range(8):  # enough output to overrun the pipe buffer
            subprocess.run(
                [sys.executable, "-m", "repro", "ingest",
                 "--db", loaded, fig3_file],
                env=env, cwd=os.getcwd(), capture_output=True, check=True,
            )
        proc = subprocess.run(
            f"{sys.executable} -m repro search --db {loaded} "
            f"--attr grid/ARPS | head -c 64",
            shell=True, env=env, cwd=os.getcwd(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr


class TestPipeSafeWriter:
    def test_goes_quiet_after_broken_pipe(self, monkeypatch):
        import io
        import sys as _sys

        from repro.cli import PipeSafeWriter

        writes = []

        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                raise io.UnsupportedOperation("fileno")

        monkeypatch.setattr(_sys, "stdout", BrokenStdout())
        writer = PipeSafeWriter()
        assert writer.line("first") is False
        assert writer.closed is True
        # Subsequent writes are refused without touching stdout.
        monkeypatch.setattr(_sys, "stdout", type(
            "Recorder", (), {"write": staticmethod(writes.append)})())
        assert writer.write("second") is False
        assert writes == []


class TestServeCommand:
    def test_serve_round_trip_and_clean_shutdown(self, loaded):
        """Start `repro serve` as a subprocess on an ephemeral port,
        run an authenticated round trip, SIGINT it, expect exit 0."""
        import os
        import re
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", loaded,
             "--port", "0"],
            env=env, cwd=os.getcwd(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"no address line: {line!r}"
            host, port = match.group(1), int(match.group(2))

            from repro.core import AttributeCriteria, ObjectQuery
            from repro.server import CatalogClient

            with CatalogClient(host, port) as client:
                assert client.create_user("ann")[0] == 201
                client.open_session("ann")
                status, exp = client.create_experiment("run-1")
                assert status == 201
                status, receipt = client.add_file(
                    exp["experiment_id"], FIG3_DOCUMENT, name="fig3"
                )
                assert status == 201
                query = ObjectQuery().add_attribute(
                    AttributeCriteria("grid", "ARPS")
                )
                status, result = client.query(query)
                assert status == 200
                assert receipt["object_id"] in result["ids"]
                page = client.search(query, limit=1)
                assert page.total >= 1 and len(page.ids) == 1
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, err
        assert "server stopped" in out
        # A second SIGINT was never needed and nothing tracebacked.
        assert "Traceback" not in err


class TestImportCost:
    def test_cli_import_loads_no_http_server(self):
        """Only ``repro serve`` needs the HTTP server; importing the CLI
        must not load it (or the standard library's ``http.server``)."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parent.parent)
        probe = (
            "import sys, repro.cli; "
            "print(sorted(m for m in ('repro.server', 'http.server') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
