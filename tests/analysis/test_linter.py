"""The rule engine itself: pragma parsing, reporters, and findings."""

import ast

from repro.analysis import (
    Finding,
    Severity,
    active,
    render_text_report,
    run_lint,
)
from repro.analysis.linter import (
    SourceModule,
    call_name,
    local_str_values,
    parse_pragmas,
    str_prefix,
)
from repro.analysis.rules import FaultSiteRule, LockReachabilityRule, TxnSafetyRule

from .conftest import FIXTURES, lint_fixture


class TestPragmas:
    def test_bracketed_rules(self):
        pragmas = parse_pragmas(
            "x = 1\ny = 2  # reprolint: ignore[TXN01, FLT01]\n"
        )
        assert pragmas == {2: {"TXN01", "FLT01"}}

    def test_bare_ignore_waives_everything(self):
        pragmas = parse_pragmas("z = 3  # reprolint: ignore\n")
        assert pragmas == {1: {"*"}}

    def test_unrelated_comments_ignored(self):
        assert parse_pragmas("a = 1  # TODO: reconsider\n") == {}

    def test_pragma_on_closing_line_of_wrapped_statement(self, tmp_path):
        # The finding anchors on the statement's first line; the pragma
        # sits on the closing paren three lines down.  Both must meet.
        target = tmp_path / "core" / "storage.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def write(store):\n"
            "    return store.run_transaction(\n"
            '        "not_a_site", lambda: None\n'
            "    )  # reprolint: ignore[FLT01]\n"
        )
        findings = run_lint(tmp_path, rules=[FaultSiteRule()])
        assert len(findings) == 1
        assert findings[0].suppressed
        assert active(findings) == []

    def test_pragma_on_decorator_line_covers_the_def(self, tmp_path):
        # LCK01 reports on the `def` line, but the reader's waiver sits
        # on the decorator above it.
        target = tmp_path / "core" / "storage.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "class LocklessStore(HybridStore):  # noqa: F821\n"
            "    @staticmethod  # reprolint: ignore[LCK01]\n"
            "    def has_object(object_id):\n"
            "        return len(str(object_id)) > 0\n"
        )
        findings = run_lint(tmp_path, rules=[LockReachabilityRule()])
        assert len(findings) == 1
        assert findings[0].rule_id == "LCK01"
        assert findings[0].suppressed
        assert active(findings) == []


class TestEngine:
    def test_syntax_error_yields_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = run_lint(tmp_path, rules=[])
        assert len(findings) == 1
        assert findings[0].rule_id == "PARSE"
        assert "does not parse" in findings[0].message

    def test_findings_are_sorted_by_location(self):
        findings = lint_fixture("txn_bad", TxnSafetyRule())
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)

    def test_source_module_suffix_matching(self):
        module = SourceModule(
            FIXTURES / "txn_bad" / "core" / "storage.py", "core/storage.py"
        )
        assert module.endswith("core/storage.py")
        assert not module.endswith("backends/sqlite.py")


class TestHelpers:
    def test_call_name_handles_attributes(self):
        call = ast.parse("self.db.insert(x)").body[0].value
        assert call_name(call) == "insert"

    def test_str_prefix_reads_fstring_head(self):
        node = ast.parse('f"DELETE FROM {t}"').body[0].value
        assert str_prefix(node) == "DELETE FROM "

    def test_local_str_values_resolves_loops_and_assigns(self):
        scope = ast.parse(
            "def f():\n"
            "    a = 'x'\n"
            "    for b in ('y', 'z'):\n"
            "        pass\n"
        ).body[0]
        assert local_str_values(scope, "a") == ["x"]
        assert sorted(local_str_values(scope, "b")) == ["y", "z"]
        assert local_str_values(scope, "missing") is None


class TestReporters:
    def test_text_report_marks_suppressions(self):
        findings = lint_fixture("txn_bad", TxnSafetyRule())
        text = render_text_report(findings)
        assert "(suppressed)" in text
        assert text.endswith("4 finding(s), 1 suppressed")


class TestFindings:
    def test_active_excludes_suppressed_and_warnings(self):
        findings = [
            Finding("X01", "a.py", 1, "live"),
            Finding("X01", "a.py", 2, "waived", suppressed=True),
            Finding("X01", "a.py", 3, "advisory", severity=Severity.WARNING),
        ]
        assert [f.message for f in active(findings)] == ["live"]
