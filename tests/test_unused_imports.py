"""Every name a module of the package imports is used in that module, and
every private helper is used somewhere in the package.

AST scans, since no linter is a dependency: a name bound by `import` or
`from ... import` must appear as a name somewhere else in the module.
`__init__.py` is skipped, because its imports are the package's exports.
A module-level function or class whose name starts with one underscore
must be read, as a name or an attribute, somewhere in the package outside
its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repmech"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_name():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert _unused_imports(source) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _dead_helpers(sources):
    """(module, name) of each private module-level function or class that no
    module in `sources` (module name -> source) reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            name = getattr(node, "name", "")
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and name.startswith("_") and not name.startswith("__")):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(read == name and id(ref) not in own for ref, read in reads):
                dead.append((module, name))
    return sorted(dead)


def test_the_scan_finds_a_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\n"
             "class _Orphan:\n    pass\n",
        "b": "import a\n\ndef public():\n    return a._used()\n",
    }
    assert _dead_helpers(sources) == [("a", "_Orphan"), ("a", "_dead")]


def test_every_private_helper_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _dead_helpers(sources) == []
