"""Two invariants checked as plain tests rather than lint rules.

* **One store interface.**  The catalog, the service and the server
  call a store only through :class:`HybridStore`; a public method that
  one concrete store adds works in every direct test and raises
  ``AttributeError`` the first time generic code calls it on another.
  ``abc`` already refuses to build a store that misses an abstract
  method, so what is left to check is the other direction.
* **No values in SQL text.**  Every statement is a literal or sits in a
  literal table; the only holes allowed in a string that opens with a
  SQL verb are direct :func:`~repro.identifiers.quote_identifier` calls
  (table names read back from ``sqlite_master``).  Values go through
  ``?`` parameters.
"""

import ast
import inspect
import pathlib
import re
import shutil

from repro.backends import SqliteHybridStore
from repro.core.storage import HybridStore, MemoryHybridStore

SRC = pathlib.Path(__file__).parents[2] / "src" / "repro"


def stray_public_methods(cls):
    return sorted(
        name for name, _ in inspect.getmembers(cls, callable)
        if not name.startswith("_") and not hasattr(HybridStore, name)
    )


class TestOneStoreInterface:
    def test_concrete_stores_add_no_public_method(self):
        assert stray_public_methods(MemoryHybridStore) == []
        assert stray_public_methods(SqliteHybridStore) == []
        for cls in (MemoryHybridStore, SqliteHybridStore):
            assert not inspect.isabstract(cls), cls.__name__

    def test_a_stray_method_is_caught(self):
        stray = type("Stray", (MemoryHybridStore,), {"compact": lambda self: 0})
        assert stray_public_methods(stray) == ["compact"]


_SQL_HEAD = re.compile(
    r"\s*(SELECT|INSERT|UPDATE|DELETE|REPLACE|CREATE|DROP|WITH|PRAGMA|"
    r"ATTACH|VACUUM|BEGIN|ALTER)\b"
)


def _opens_sql(node):
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _SQL_HEAD.match(node.value) is not None
    )


def _quoted(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "quote_identifier"
    )


def _operands(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _operands(node.left) + _operands(node.right)
    return [node]


def _holes(node):
    """The interpolated expressions of a string built from a SQL head,
    or ``None`` when ``node`` builds no such string."""
    if isinstance(node, ast.JoinedStr) and _opens_sql(node):
        return [v.value for v in node.values if isinstance(v, ast.FormattedValue)]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        if _opens_sql(node.left):
            right = node.right
            return list(right.elts) if isinstance(right, ast.Tuple) else [right]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and _opens_sql(node.func.value)
    ):
        return list(node.args) + [kw.value for kw in node.keywords]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        operands = _operands(node)
        if _opens_sql(operands[0]):
            return [
                op for op in operands[1:]
                if not (isinstance(op, ast.Constant) and isinstance(op.value, str))
            ]
    return None


def sql_interpolations(root):
    """``path:line`` of every SQL string with a hole that is not a
    direct ``quote_identifier(...)`` call."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            holes = _holes(node)
            if holes and not all(_quoted(hole) for hole in holes):
                found.append(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    return found


class TestNoValuesInSql:
    def test_sql_holes_are_quoted_identifiers(self):
        assert sql_interpolations(SRC) == []

    def test_an_interpolated_value_is_caught(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
        target = tree / "core" / "integrity.py"
        old = 'f"SELECT * FROM {quote_identifier(name)}"'
        text = target.read_text()
        assert old in text, "seeded-bug anchor not found"
        target.write_text(text.replace(
            old, 'f"SELECT * FROM {quote_identifier(name)} WHERE object_id = {object_id}"'
        ))
        assert len(sql_interpolations(tree)) == 1

    def test_every_construction_shape_is_read(self):
        shapes = [
            'f"DELETE FROM t WHERE id = {object_id}"',
            '"SELECT * FROM %s" % table',
            '"INSERT INTO {} VALUES (?)".format(table)',
            '"UPDATE t SET " + column + " = ?"',
        ]
        for source in shapes:
            node = ast.parse(source).body[0].value
            assert _holes(node), source
        safe = ast.parse('f"DROP TABLE {quote_identifier(t)}"').body[0].value
        assert all(_quoted(hole) for hole in _holes(safe))
        assert _holes(ast.parse('f"insert:{table}"').body[0].value) is None
