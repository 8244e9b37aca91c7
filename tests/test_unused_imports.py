"""Every name a module of the package imports is used in that module, every
private helper is used somewhere in the package, and every public function
or method that the package never reads is on a list that says why it stays.

AST scans, since no linter is a dependency: a name bound by `import` or
`from ... import` must appear as a name somewhere else in the module.
`__init__.py` is skipped, because its imports are the package's exports.
A module-level function or class whose name starts with one underscore
must be read, as a name or an attribute, somewhere in the package outside
its own definition. A public module-level function, or a public method of a
module-level class, that no package module reads outside its own definition
must be on UNREAD_PUBLIC, and nothing else may be. A function is read
through its name, an import or an attribute of its name; a method only
through an attribute of its name, so a local variable or a parameter that
shares the name is not a read. An export from `__init__.py` is not a read.
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


# (module, name) -> why a public name that no package code reads stays
UNREAD_PUBLIC = {
    ("brane", "integral_gauge_check"): "perfbench span",
    ("brane", "nonrelativistic_brane_expansion"): "item 11 candidate: item 6's model",
    ("fields", "SymmetricTensorField.contraction_gradient"): "perfbench span",
    ("fields", "SymmetricTensorField.contraction_hessian"): "perfbench span",
    ("geometry", "weak_field_metric"): "item 3 candidate: its weak_field config kind",
    ("lagrangian", "hamiltonian_residual"): "perfbench span",
    ("lagrangian", "momentum_position_directional"): "perfbench span",
    ("lagrangian", "velocity_hessian"): "perfbench span",
    ("worldline", "conserved_drift"): "perfbench span",
    ("worldline", "el_residual"): "perfbench span",
}


def _unread_public(sources):
    """(module, name) of each public module-level function, and each public
    method of a module-level class as "Class.method", that no module in
    `sources` reads outside its own definition: a function as a name, an
    import outside `__init__` or an attribute, a method as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes, names = [], []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.append((node, node.attr))
            elif isinstance(node, ast.Name):
                names.append((node, node.id))
            elif isinstance(node, ast.ImportFrom) and module != "__init__":
                names += [(node, alias.name) for alias in node.names]
    unread = []
    for module, tree in trees.items():
        defs = [(node.name, node, attributes + names)
                for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{node.name}.{method.name}", method, attributes)
                 for node in tree.body if isinstance(node, ast.ClassDef)
                 for method in node.body if isinstance(method, ast.FunctionDef)]
        for qualname, node, reads in defs:
            if node.name.startswith("_"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(read == node.name and id(ref) not in own for ref, read in reads):
                unread.append((module, qualname))
    return sorted(unread)


def test_the_scan_finds_an_unread_public_name():
    sources = {
        "a": "def used():\n    pass\n\ndef unread():\n    return unread()\n\n"
             "def imported():\n    pass\n\n"
             "def _private():\n    pass\n\n"
             "class Field:\n    def read(self):\n        pass\n\n"
             "    def unread_method(self):\n        pass\n\n"
             "    def shadowed(self):\n        pass\n\n"
             "    def __call__(self):\n        pass\n",
        "b": "from a import imported, used\n\n"
             "def public(f, shadowed):\n    return used(), f.read(), shadowed\n",
        "c": "def other():\n    shadowed = 1\n    return shadowed\n",
        "__init__": "from a import Field, unread\n",
    }
    assert _unread_public(sources) == [("a", "Field.shadowed"), ("a", "Field.unread_method"),
                                       ("a", "unread"), ("b", "public"), ("c", "other")]


def test_every_unread_public_name_is_listed_with_a_reason():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _unread_public(sources) == sorted(UNREAD_PUBLIC)
    assert all(UNREAD_PUBLIC.values())
