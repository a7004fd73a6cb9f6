"""Seeded-bug demos: each test copies the real source tree, deletes or
swaps one concurrency-critical construct, and asserts the linter
catches exactly that regression.  The ``assert old in text`` inside
``mutate`` makes the demos fail loudly if the real code drifts away
from the seeded shape instead of silently testing nothing."""

import pathlib
import shutil

from repro.analysis import active, run_lint
from repro.analysis.rules import (
    FaultSiteRule,
    GuardedFieldRule,
    LockOrderRule,
    LockReachabilityRule,
    MetricNameRule,
    ResourceLifecycleRule,
    TxnSafetyRule,
)

SRC = pathlib.Path(__file__).parents[2] / "src" / "repro"
FAULT_TESTS = pathlib.Path(__file__).parents[1] / "faults"


def copy_tree(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def mutate(path, old, new):
    text = path.read_text()
    assert old in text, f"seeded-bug anchor not found in {path.name}"
    path.write_text(text.replace(old, new))


class TestSeededBugs:
    def test_deleted_read_lock_is_caught(self, tmp_path):
        tree = copy_tree(tmp_path)
        rule = LockReachabilityRule()
        assert active(run_lint(tree, rules=[rule])) == []
        mutate(
            tree / "core" / "storage.py",
            "    def has_object(self, object_id: int) -> bool:\n"
            "        with self.read_locked():\n"
            "            return bool(",
            "    def has_object(self, object_id: int) -> bool:\n"
            "        return bool(",
        )
        findings = active(run_lint(tree, rules=[LockReachabilityRule()]))
        assert len(findings) == 1
        assert findings[0].rule_id == "LCK01"
        assert "MemoryHybridStore.has_object is a read entry point" in (
            findings[0].message
        )

    def test_response_rows_read_without_the_read_lock_is_caught(self, tmp_path):
        """``build_responses`` is one algorithm on ``HybridStore``; the
        read section is the backend's ``_clob_rows``, so that is the
        entry LCK01 holds to it."""
        tree = copy_tree(tmp_path)
        mutate(
            tree / "core" / "storage.py",
            "        with self.read_locked():\n"
            "            objects, clobs = ",
            "        if True:\n"
            "            objects, clobs = ",
        )
        findings = active(run_lint(tree, rules=[LockReachabilityRule()]))
        assert [f.rule_id for f in findings] == ["LCK01"]
        assert "MemoryHybridStore._clob_rows is a read entry point" in (
            findings[0].message
        )

    def test_query_read_section_without_its_lock_is_caught(self, tmp_path):
        """A query is one interpreter over three keyed reads, all inside
        the backend's ``_read_section``; that is the entry LCK01 holds
        to the read lock on memory and to ``_reader()`` on sqlite."""
        tree = copy_tree(tmp_path)
        for path, cls, old, new in (
            (tree / "core" / "storage.py", "MemoryHybridStore",
             "        return self.read_locked()\n",
             "        return nullcontext()\n"),
            (tree / "backends" / "sqlite.py", "SqliteHybridStore",
             "        with self._reader() as cur:\n"
             "            self._section.cursor = cur\n",
             "        with nullcontext(self.connection) as cur:\n"
             "            self._section.cursor = cur\n"),
        ):
            mutate(path, old, new)
            findings = active(run_lint(tree, rules=[LockReachabilityRule()]))
            assert [f.rule_id for f in findings] == ["LCK01"]
            assert f"{cls}._read_section is a read entry point" in (
                findings[0].message
            )
            shutil.copy(SRC / path.relative_to(tree), path)

    def test_swapped_lock_order_is_caught(self, tmp_path):
        """The catalog takes ``_write_lock`` and then, in ``_moved``,
        ``_token_lock``; a path nesting them the other way round closes
        a lock-order cycle."""
        tree = copy_tree(tmp_path)
        assert active(run_lint(tree, rules=[LockOrderRule()])) == []
        mutate(
            tree / "core" / "catalog.py",
            '        """Definitions changed: retire cached answers."""\n'
            "        self._moved(definitions=True)",
            '        """Definitions changed: retire cached answers."""\n'
            "        with self._token_lock:\n"
            "            with self._write_lock:\n"
            "                self.generation += 1",
        )
        findings = active(run_lint(tree, rules=[LockOrderRule()]))
        assert len(findings) == 1
        assert findings[0].rule_id == "LCK02"
        assert "lock-order cycle" in findings[0].message
        assert "HybridCatalog._write_lock" in findings[0].message
        assert "HybridCatalog._token_lock" in findings[0].message

    def test_batch_insert_outside_a_transaction_is_caught(self, tmp_path):
        """``Table.extend`` shares its name with ``list.extend``; the
        rule knows it by its ``.table(...)`` receiver, so the memory
        ``_insert_rows`` stays transaction-only by proof."""
        tree = copy_tree(tmp_path)
        mutate(
            tree / "core" / "storage.py",
            "    def has_object(self, object_id: int) -> bool:\n"
            "        with self.",
            "    def plant(self, row):\n"
            "        self._insert_rows(\"objects\", [row])\n"
            "\n"
            "    def has_object(self, object_id: int) -> bool:\n"
            "        with self.",
        )
        findings = active(run_lint(tree, rules=[TxnSafetyRule()]))
        assert [f.rule_id for f in findings] == ["TXN01"]
        assert (
            "MemoryHybridStore._insert_rows mutates catalog state outside a "
            "transaction (extend)"
        ) in findings[0].message

    def test_removed_finally_release_is_caught(self, tmp_path):
        tree = copy_tree(tmp_path)
        rule = ResourceLifecycleRule()
        assert active(run_lint(tree, rules=[rule])) == []
        mutate(
            tree / "backends" / "pool.py",
            "            raise\n"
            "        finally:\n"
            "            self._release(conn)",
            "            raise",
        )
        findings = active(run_lint(tree, rules=[ResourceLifecycleRule()]))
        assert len(findings) == 1
        assert findings[0].rule_id == "RES01"
        assert "_acquire() result bound to 'conn' is never released" in (
            findings[0].message
        )

    def test_primitive_called_outside_a_transaction_is_caught(self, tmp_path):
        """The row primitives are transaction-only because every call
        reaches them from a HybridStore shell's ``run_transaction``; a
        backend method that calls one bare breaks the proof, on either
        backend."""
        tree = copy_tree(tmp_path)
        assert active(run_lint(tree, rules=[TxnSafetyRule()])) == []
        for path, cls, mutator in (
            (tree / "backends" / "sqlite.py", "SqliteHybridStore", "execute"),
            (tree / "core" / "storage.py", "MemoryHybridStore", "delete_rowids"),
        ):
            mutate(
                path,
                "    def has_object(self, object_id: int) -> bool:\n"
                "        with self.",
                "    def drop_clobs(self, object_id):\n"
                "        self._delete_rows(\"clobs\", object_id)\n"
                "\n"
                "    def has_object(self, object_id: int) -> bool:\n"
                "        with self.",
            )
            findings = active(run_lint(tree, rules=[TxnSafetyRule()]))
            assert [f.rule_id for f in findings] == ["TXN01"]
            assert (
                f"{cls}._delete_rows mutates catalog state outside a "
                f"transaction ({mutator})"
            ) in findings[0].message
            shutil.copy(SRC / path.relative_to(tree), path)

    def test_unregistered_transaction_label_is_caught(self, tmp_path):
        """A renamed ``run_transaction`` label no longer names a
        registered site, so every fault plan aimed at it goes dead."""
        tree = copy_tree(tmp_path)

        def lint():
            return active(run_lint(tree, FAULT_TESTS, rules=[FaultSiteRule()]))

        assert lint() == []
        mutate(
            tree / "core" / "storage.py",
            'self.run_transaction("delete_object", write)',
            'self.run_transaction("delete_objects", write)',
        )
        findings = lint()
        assert [f.rule_id for f in findings] == ["FLT01"]
        assert "site 'delete_objects' passed to run_transaction is not " \
            "registered" in findings[0].message

    def test_session_pop_without_the_lock_is_caught(self, tmp_path):
        tree = copy_tree(tmp_path)
        assert active(run_lint(tree, rules=[GuardedFieldRule()])) == []
        mutate(
            tree / "server" / "auth.py",
            "        with self._lock:\n"
            "            session = self._sessions.pop(token, None)\n"
            "            count = len(self._sessions)\n",
            "        session = self._sessions.pop(token, None)\n"
            "        count = len(self._sessions)\n",
        )
        findings = active(run_lint(tree, rules=[GuardedFieldRule()]))
        assert [f.rule_id for f in findings] == ["GRD01"]
        assert "SessionManager._sessions is guarded by" in findings[0].message

    def test_undeclared_metric_name_is_caught(self, tmp_path):
        tree = copy_tree(tmp_path)
        assert active(run_lint(tree, rules=[MetricNameRule()])) == []
        mutate(
            tree / "core" / "storage.py",
            '"planner_queries_total", "query plans executed"',
            '"planner_query_total", "query plans executed"',
        )
        findings = active(run_lint(tree, rules=[MetricNameRule()]))
        assert [f.rule_id for f in findings] == ["OBS01"]
        assert "planner_query_total" in findings[0].message
