"""No module of the package imports a name it does not use.

No linter ships with the package's test dependencies, so this reads each
module's syntax tree: every name an import binds must be read somewhere in
the module.  ``__init__.py`` is exempt, since the names it imports are the
package's public surface.  The only names kept unused are the benchmark's
seams, which perfbench/sweep.py reads off ``indicators``."""

import ast
from pathlib import Path

import resourcekit

PACKAGE = Path(resourcekit.__file__).parent
SEAMS = {("indicators", "_decode_raw"), ("indicators", "_frac_power_raw")}


def _unused(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_no_module_imports_a_name_it_does_not_use():
    # the seams are listed exactly: one that is read again, or deleted,
    # leaves the list
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            unused |= {(path.stem, name) for name in _unused(ast.parse(path.read_text()))}
    assert unused == SEAMS
