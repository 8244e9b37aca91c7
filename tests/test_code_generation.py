"""Code generation lives in one place: worldline's kernel emitter.

An AST scan of the package: exec, eval and compile, called by name or as
builtins.<name>, appear only in worldline._kernel, which compiles the
emitted RK4 marches.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repmech"
CODEGEN = {"exec", "eval", "compile"}


def _codegen_calls(source):
    """(enclosing function, name) of each exec, eval or compile call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in CODEGEN:
                    found.append((function, func.id))
                elif (isinstance(func, ast.Attribute) and func.attr in CODEGEN
                      and isinstance(func.value, ast.Name) and func.value.id == "builtins"):
                    found.append((function, func.attr))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_the_scan_finds_each_form():
    source = ("import builtins, re\nexec('1')\ndef f():\n    return eval('1')\n"
              "def g():\n    builtins.compile('1', 'x', 'eval')\n    re.compile('a')\n")
    assert _codegen_calls(source) == [("<module>", "exec"), ("f", "eval"), ("g", "compile")]


def test_only_the_kernel_emitter_generates_code():
    found = {path.name: _codegen_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "worldline.py": [("_kernel", "compile"), ("_kernel", "exec")]}
