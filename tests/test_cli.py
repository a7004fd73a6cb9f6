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


@pytest.fixture()
def sharded_db(db, fig3_file, capsys):
    """A 3-shard federation with Fig-3 definitions and two Fig-3
    documents ingested (ids 1 and 2, routed by hashed object id)."""
    assert main(["init", "--db", db, "--shards", "3"]) == 0
    assert main(["define", "--db", db, "grid", "ARPS",
                 "--element", "dx:float", "--element", "dz:float"]) == 0
    assert main(["ingest", "--db", db, fig3_file, fig3_file]) == 0
    capsys.readouterr()
    return db


class TestShardedCli:
    def test_init_creates_topology_sidecar_and_shard_files(self, db, capsys):
        import pathlib

        code, out, _err = run(capsys, "init", "--db", db, "--shards", "3")
        assert code == 0
        assert "3 shard(s)" in out
        assert pathlib.Path(db + ".shards.json").exists()
        for index in range(3):
            assert pathlib.Path(f"{db}.shard{index}").exists()
        assert not pathlib.Path(db).exists()  # no monolithic file

    def test_init_refuses_overwrite_via_sidecar(self, db, capsys):
        # The base db file never exists for a sharded layout; the
        # sidecar alone must block a second init.
        run(capsys, "init", "--db", db, "--shards", "2")
        code, _out, err = run(capsys, "init", "--db", db)
        assert code == 1
        assert "already exists" in err

    def test_init_rejects_zero_shards(self, db, capsys):
        code, _out, err = run(capsys, "init", "--db", db, "--shards", "0")
        assert code == 1
        assert "--shards" in err

    def test_reopen_roundtrip_across_invocations(self, sharded_db, capsys):
        # Each CLI invocation reopens the federation from the sidecar.
        code, out, _err = run(
            capsys, "query", "--db", sharded_db,
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
        )
        assert code == 0
        assert "2 matching object(s): [1, 2]" in out
        code, out, _err = run(capsys, "fetch", "--db", sharded_db, "1", "2")
        assert code == 0
        assert out.count("<LEADresource>") == 2

    def test_trace_shows_the_five_fig4_stages(self, sharded_db, capsys):
        code, out, _err = run(
            capsys, "query", "--db", sharded_db, "--trace",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
        )
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()[:5]]
        assert names == [
            "query-criteria", "elements-meeting-criteria",
            "attributes-direct", "attributes-indirect", "object-ids",
        ]
        assert "object-ids                        2 rows" in out
        assert "shard-0" not in out and "scatter-gather" not in out

    def test_queries_are_journaled_with_slow_query_profiles(
            self, sharded_db, capsys):
        """--slow-ms and the event log reach a sharded catalog: it is
        the one HybridCatalog, so the audit comes with it."""
        code, _out, _err = run(
            capsys, "query", "--db", sharded_db, "--slow-ms", "0",
            "--attr", "grid/ARPS", "--elem", "dx/ARPS = 1000",
        )
        assert code == 0
        import json

        code, out, _err = run(capsys, "events", "--db", sharded_db, "--json")
        assert code == 0
        records = {
            record["event"]: record["fields"]
            for record in map(json.loads, out.splitlines())
        }
        assert records["query"]["matches"] == 2
        assert records["slow_query"]["profile"]["backend"] == "sharded"

    def test_retry_policy_reaches_every_shard_store(
            self, sharded_db, monkeypatch):
        import repro.cli as cli

        opened = []
        real_open = cli._open

        def spy(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "_open", spy)
        assert main(["info", "--db", sharded_db,
                     "--retry-attempts", "7", "--retry-backoff", "0.25"]) == 0
        store = opened[-1].store
        assert len(store.stores) == 3
        for target in (store, *store.stores):
            assert target.retry_policy.max_attempts == 7
            assert target.retry_policy.base_delay == 0.25

    def test_fsck_reports_federation_summary(self, sharded_db, capsys):
        code, out, _err = run(capsys, "fsck", "--db", sharded_db, "--deep")
        assert code == 0
        assert "2 objects across 3 shard(s), no violations" in out

    def test_shard_status_lists_every_shard(self, sharded_db, capsys):
        code, out, _err = run(capsys, "shard-status", "--db", sharded_db)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("router: hash")
        assert len(lines) == 2 + 3 + 1  # router + header + shards + totals
        totals = lines[-1].split()
        assert totals[0] == "all" and totals[1] == "2"
        assert f"{sharded_db}.shard0" in out

    def test_shard_status_on_unsharded_catalog(self, loaded, capsys):
        code, out, _err = run(capsys, "shard-status", "--db", loaded)
        assert code == 0
        assert "not sharded" in out

    def test_by_user_router_recorded_in_topology(self, db, capsys):
        from repro.sharding import read_topology

        code, _out, _err = run(
            capsys, "init", "--db", db, "--shards", "2", "--by-user")
        assert code == 0
        assert read_topology(db).router == "user"
        code, out, _err = run(capsys, "shard-status", "--db", db)
        assert code == 0
        assert "router: user" in out


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

    def test_serve_round_trip_on_a_sharded_catalog(self, db, capsys):
        """`repro serve` takes any catalog: a 2-shard one serves the
        authenticated add_file → query → paginated search round trip,
        objects land on both shards, SIGINT exits 0."""
        import os
        import re
        import signal
        import subprocess
        import sys

        assert main(["init", "--db", db, "--shards", "2"]) == 0
        assert main(["define", "--db", db, "grid", "ARPS",
                     "--element", "dx:float", "--element", "dz:float"]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", db,
             "--port", "0"],
            env=env, cwd=os.getcwd(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            match = re.search(r"http://([\d.]+):(\d+)", proc.stdout.readline())
            assert match
            host, port = match.group(1), int(match.group(2))

            from repro.core import AttributeCriteria, ObjectQuery
            from repro.server import CatalogClient

            with CatalogClient(host, port) as client:
                assert client.create_user("ann")[0] == 201
                client.open_session("ann")
                status, exp = client.create_experiment("run-1")
                assert status == 201
                added = []
                for index in range(6):
                    status, receipt = client.add_file(
                        exp["experiment_id"], FIG3_DOCUMENT, name=f"f{index}"
                    )
                    assert status == 201
                    added.append(receipt["object_id"])
                query = ObjectQuery().add_attribute(
                    AttributeCriteria("grid", "ARPS")
                )
                status, result = client.query(query)
                assert status == 200 and result["ids"] == added
                first = client.search(query, limit=2)
                rest = client.search(query, offset=2)
                assert first.total == rest.total == 6
                assert first.ids + rest.ids == added
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, err
        assert "server stopped" in out and "Traceback" not in err
        capsys.readouterr()
        code, out, _err = run(capsys, "shard-status", "--db", db)
        assert code == 0
        objects = [int(line.split()[1]) for line in out.splitlines()[2:4]]
        # Six files plus the experiment's own aggregation object.
        assert sum(objects) == 7 and all(objects)
        code, out, _err = run(capsys, "fsck", "--db", db, "--deep")
        assert code == 0
        assert "7 objects across 2 shard(s), no violations" in out
