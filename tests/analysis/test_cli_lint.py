"""``repro lint`` CLI contract: exit codes, help, ``--sarif``."""

import argparse
import json
import pathlib
import re

import pytest

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
    "lock discipline": {"LCK01", "LCK02"},
    "guarded fields": {"GRD01"},
    "resource lifecycle": {"RES01"},
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

    def test_lint_takes_three_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--help"])
        assert exc.value.code == 0
        options = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert options == ["--sarif", "--src", "--fault-tests"]


class TestSarifOutput:
    def test_sarif_is_valid_2_1_0(self, capsys):
        code = main(
            ["lint", "--sarif", "--src", str(FIXTURES / "txn_bad")]
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
            ["lint", "--sarif", "--src", str(FIXTURES / "txn_bad")]
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


class TestSyntaxErrorExit:
    def test_broken_file_exits_two_without_traceback(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "broken.py").write_text("def f(:\n")
        code = main(["lint", "--src", str(tree)])
        assert code == 2
        captured = capsys.readouterr()
        assert "PARSE" in captured.out
        assert "Traceback" not in captured.out + captured.err
