"""Every function and method that perfbench/tracing.py wraps must exist in repmech.

The tracer resolves its targets only when a traced benchmark run starts, so a
renamed or deleted target would otherwise go unnoticed by the test suite. The
target tables are read from the source with `ast`; perfbench is not imported.
"""

import importlib

import pytest

from oracles import perfbench_trace_targets

TABLES = perfbench_trace_targets()


def test_both_tables_are_found():
    assert set(TABLES) == {"FUNCTIONS", "METHODS"}
    assert TABLES["FUNCTIONS"] and TABLES["METHODS"]


@pytest.mark.parametrize("name", sorted(TABLES.get("FUNCTIONS", {})))
def test_traced_function_resolves(name):
    module, attr = TABLES["FUNCTIONS"][name]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(TABLES.get("METHODS", {})))
def test_traced_method_resolves(name):
    module, cls_name, attr = TABLES["METHODS"][name]
    cls = getattr(importlib.import_module(module), cls_name)
    # the tracer replaces the method in the class's own namespace
    assert callable(cls.__dict__[attr])
