"""``repro lint`` CLI contract: exit codes, ``--json``, ``--rule``."""

import argparse
import json
import pathlib
import re

import pytest

from repro.analysis import parse_json_report
from repro.analysis.linter import default_rules
from repro.cli import build_parser, main

from .conftest import FIXTURES

REPO_FAULT_TESTS = pathlib.Path(__file__).parents[1] / "faults"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        # The shipped package must lint clean (the acceptance gate).
        code = main(["lint", "--fault-tests", str(REPO_FAULT_TESTS)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, capsys):
        code = main(["lint", "--src", str(FIXTURES / "txn_bad")])
        assert code == 1
        assert "TXN01" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["lint", "--rule", "NOPE99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err
        assert "TXN01" in err  # known ids are listed

    def test_missing_src_exits_two(self, capsys):
        code = main(["lint", "--src", str(FIXTURES / "no_such_tree")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--not-a-flag"])
        assert exc.value.code == 2


#: The topics ``repro --help`` lists for ``lint``, and the rules each
#: one stands for.
HELP_TOPICS = {
    "transaction safety": {"TXN01"},
    "fault-site coverage": {"FLT01"},
    "metric naming": {"OBS01"},
    "backend parity": {"PAR01"},
    "lock discipline": {"LCK01", "LCK02"},
    "guarded fields": {"GRD01"},
    "resource lifecycle": {"RES01"},
    "SQL construction safety": {"SQL01"},
}


class TestHelp:
    def test_help_names_only_live_rules(self):
        """Every topic the subcommand help lists stands for a rule in
        the live registry, and every registered rule is covered."""
        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        text = next(
            action.help for action in sub._choices_actions
            if action.dest == "lint"
        )
        topics = re.search(r"\((.*)\)", text).group(1).split(", ")
        assert sorted(topics) == sorted(HELP_TOPICS)
        covered = set().union(*(HELP_TOPICS[topic] for topic in topics))
        assert covered == {rule.id for rule in default_rules()}


class TestJsonOutput:
    def test_schema_round_trips(self, capsys):
        code = main(
            ["lint", "--json", "--src", str(FIXTURES / "txn_bad")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/v1"
        findings = parse_json_report(json.dumps(payload))
        assert payload["counts"]["total"] == len(findings)
        assert payload["counts"]["active"] == sum(
            1 for f in findings if not f.suppressed
        )
        assert all(f.rule_id == "TXN01" for f in findings)

    def test_suppressed_findings_survive_json(self, capsys):
        main(["lint", "--json", "--src", str(FIXTURES / "txn_bad")])
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["suppressed"] for entry in payload["findings"])


class TestRuleFiltering:
    def test_filter_isolates_one_rule(self, capsys):
        code = main(
            ["lint", "--json", "--rule", "TXN01",
             "--src", str(FIXTURES / "txn_bad")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload["findings"]} == {"TXN01"}

    def test_filtered_out_violations_pass(self, capsys):
        # txn_bad has TXN01 violations only; under FLT01 it is clean.
        code = main(
            ["lint", "--rule", "FLT01", "--src", str(FIXTURES / "txn_bad")]
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_rule_flag_repeats(self, capsys):
        code = main(
            ["lint", "--json", "--rule", "TXN01", "--rule", "FLT01",
             "--src", str(FIXTURES / "txn_bad")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload["findings"]} == {"TXN01"}


class TestSarifOutput:
    def test_sarif_is_valid_2_1_0(self, capsys):
        code = main(
            ["lint", "--sarif", "--no-cache",
             "--src", str(FIXTURES / "txn_bad")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert "TXN01" in {rule["id"] for rule in driver["rules"]}
        assert all(r["ruleId"] == "TXN01" for r in run["results"])

    def test_suppressed_findings_become_suppressions(self, capsys):
        main(
            ["lint", "--sarif", "--no-cache",
             "--src", str(FIXTURES / "txn_bad")]
        )
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(suppressed) == 1
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
        # Active findings carry no suppressions key at all.
        assert all(
            "suppressions" not in r for r in results if r not in suppressed
        )


class TestFindingsCache:
    def copy_fixture(self, tmp_path):
        import shutil

        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "txn_bad", tree)
        return tree, tmp_path / "cache"

    def test_warm_run_replays_the_stored_entry(self, tmp_path, capsys):
        tree, cache_dir = self.copy_fixture(tmp_path)
        argv = ["lint", "--json", "--src", str(tree),
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 1
        cold = capsys.readouterr().out
        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == 1
        # Tamper with the stored findings: if the warm run replays the
        # cache (rather than re-linting), the tampered text shows up.
        payload = json.loads(entries[0].read_text())
        payload["findings"][0]["message"] = "replayed-from-cache"
        entries[0].write_text(json.dumps(payload))
        assert main(argv) == 1
        warm = capsys.readouterr().out
        assert warm != cold
        assert "replayed-from-cache" in warm

    def test_source_edit_invalidates_the_key(self, tmp_path, capsys):
        tree, cache_dir = self.copy_fixture(tmp_path)
        argv = ["lint", "--json", "--src", str(tree),
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 1
        capsys.readouterr()
        target = tree / "core" / "storage.py"
        target.write_text(target.read_text() + "\n# touched\n")
        assert main(argv) == 1
        capsys.readouterr()
        # A different content digest means a second entry, not a reuse.
        assert len(list(cache_dir.glob("*.json"))) == 2

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        tree, cache_dir = self.copy_fixture(tmp_path)
        assert main(
            ["lint", "--json", "--no-cache", "--src", str(tree),
             "--cache-dir", str(cache_dir)]
        ) == 1
        capsys.readouterr()
        assert not cache_dir.exists()


class TestSyntaxErrorExit:
    def test_broken_file_exits_two_without_traceback(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "broken.py").write_text("def f(:\n")
        code = main(["lint", "--no-cache", "--src", str(tree)])
        assert code == 2
        captured = capsys.readouterr()
        assert "PARSE" in captured.out
        assert "Traceback" not in captured.out + captured.err


class TestChangedScope:
    def make_repo(self, tmp_path, monkeypatch):
        import shutil
        import subprocess

        if shutil.which("git") is None:
            pytest.skip("git not available")
        repo = tmp_path / "proj"
        shutil.copytree(FIXTURES / "txn_bad", repo / "tree")
        monkeypatch.chdir(repo)
        git = ["git", "-c", "user.email=t@t", "-c", "user.name=t"]
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "seed"], check=True)
        return repo

    def test_clean_checkout_reports_nothing(self, tmp_path, monkeypatch,
                                            capsys):
        repo = self.make_repo(tmp_path, monkeypatch)
        code = main(
            ["lint", "--changed", "--json", "--src", str(repo / "tree")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["active"] == 0

    def test_touched_file_comes_back_into_scope(self, tmp_path, monkeypatch,
                                                capsys):
        repo = self.make_repo(tmp_path, monkeypatch)
        target = repo / "tree" / "core" / "storage.py"
        target.write_text(target.read_text() + "\n# touched\n")
        code = main(
            ["lint", "--changed", "--json", "--src", str(repo / "tree")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["active"] > 0
        assert {e["path"] for e in payload["findings"]} == {
            "tree/core/storage.py"
        }

    def test_outside_a_checkout_exits_two(self, tmp_path, monkeypatch,
                                          capsys):
        import shutil

        if shutil.which("git") is None:
            pytest.skip("git not available")
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "txn_bad", tree)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        code = main(["lint", "--changed", "--src", str(tree)])
        assert code == 2
        assert "--changed requires a git checkout" in capsys.readouterr().err
