"""No parameter of a library function shadows a module-level name of its
own module.

A parameter named like a module-level function or constant hides it inside
the body: a call meant for the imported rule reaches the argument instead.
This module parses ``src/`` and lists every such parameter.
"""

import ast
from pathlib import Path
from typing import List, Set

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "mcmccalc"


def _bound_names(target) -> Set[str]:
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


def _module_names(tree: ast.Module) -> Set[str]:
    """Names that the module's top-level statements bind."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in stmt.names}
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                names |= _bound_names(target)
        elif isinstance(stmt, ast.AnnAssign):
            names |= _bound_names(stmt.target)
    return names


def _parameters(fn) -> List[ast.arg]:
    args = fn.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs,
            *(a for a in (args.vararg, args.kwarg) if a is not None)]


def _shadowing_parameters(folder: Path) -> List[str]:
    found = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                where = getattr(node, "name", "<lambda>")
                found += [f"{path.stem}.{where}({arg.arg})"
                          for arg in _parameters(node) if arg.arg in names]
    return found


def test_no_parameter_shadows_a_module_level_name():
    assert _shadowing_parameters(LIBRARY) == []


def test_the_scan_sees_a_shadowing_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .measures import check_start\n"
        "LIMIT = 3\n"
        "def entry(grid, check_start=True):\n"
        "    return lambda LIMIT: LIMIT\n",
        encoding="utf-8")
    assert _shadowing_parameters(tmp_path) == ["mod.entry(check_start)", "mod.<lambda>(LIMIT)"]
