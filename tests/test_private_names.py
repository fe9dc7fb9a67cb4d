"""Every private top-level name of the package is read somewhere.

A private function, class or constant that nothing reads is dead code, and
no linter ships with the package's test dependencies to say so.  This reads
the syntax trees of the package, its tests, the benchmark and the demos:
each private name defined at the top level of a package module must be
referenced outside its own definition, as a name, an attribute, an import
or a string (``monkeypatch.setattr(module, "_name", ...)``, the benchmark's
``("module", "_name")`` seams).  Docstrings do not count."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resourcekit"
TREES = ("src", "tests", "perfbench", "demos")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _private_defined(stmt):
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _docstrings(tree):
    """ids of the string nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _referenced(node, docstrings):
    """Every identifier a subtree reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            names.update(WORD.findall(sub.value))
    return names


def test_every_private_top_level_name_is_referenced():
    defined, read = set(), set()
    for tree_dir in TREES:
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            tree = ast.parse(path.read_text())
            docstrings = _docstrings(tree)
            in_package = path.parent == PACKAGE
            for stmt in tree.body:
                own = _private_defined(stmt) if in_package else set()
                defined |= {(path.stem, name) for name in own}
                # a definition's reads of its own name (recursion, the
                # target of its assignment) do not keep it alive
                read |= _referenced(stmt, docstrings) - own
    assert defined, "no private names found"
    assert sorted(f"{module}.{name}" for module, name in defined if name not in read) == []
