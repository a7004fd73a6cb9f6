"""Pin: the engine exports only what the rest of ``src/repro`` uses.

``repro.relational`` once carried a predicate language and a relational
algebra that nothing outside the package ever executed.  Every exported
name must be imported by some module under ``src/repro`` outside the
package, so unexecuted engine surface cannot regrow unnoticed.
"""

import ast
from pathlib import Path

import repro
import repro.relational


def _names_imported_from_the_engine(root: Path, package: Path) -> set:
    names = set()
    for path in root.rglob("*.py"):
        if package in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                "relational" in node.module.split(".")
            ):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_used_outside_the_package():
    root = Path(repro.__file__).parent
    package = root / "relational"
    exported = repro.relational.__all__
    assert len(set(exported)) == len(exported)
    unused = set(exported) - _names_imported_from_the_engine(root, package)
    assert not unused, f"exported but unused outside repro.relational: {unused}"
    # __all__ is the whole public surface, not a subset of it.
    public = {n for n in vars(repro.relational) if not n.startswith("_")}
    submodules = {p.stem for p in package.glob("*.py")}
    assert public - submodules == set(exported)
