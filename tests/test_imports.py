"""No module of the library or of its tests imports a name that it does
not read.

An import that nothing reads costs load time and names a dependency the
module does not have.  This module parses ``src/`` and ``tests/`` and lists
every module-level imported name that its module never reads
(``__future__`` imports aside).
"""

import ast
from pathlib import Path
from typing import List

TESTS = Path(__file__).resolve().parent
LIBRARY = TESTS.parent / "src" / "mcmccalc"


def _unused_imports(folder: Path) -> List[str]:
    found = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
                found += [f"{path.stem}.{name}" for name in bound if name not in read]
    return found


def test_every_module_level_import_is_read():
    assert _unused_imports(LIBRARY) == []


def test_every_test_module_import_is_read():
    assert _unused_imports(TESTS) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import importlib.resources\n"
        "import math, os\n"
        "from typing import List, Sequence as Seq\n"
        "def entry(xs: List[float]) -> float:\n"
        "    return math.fsum(xs)\n",
        encoding="utf-8")
    assert _unused_imports(tmp_path) == ["mod.importlib", "mod.os", "mod.Seq"]
