"""Every name the benchmark binds in the package resolves.

``benchmarks/tracing.py`` wraps the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` by name, and ``benchmarks/workloads.py`` calls the
package as ``dm.<name>``.  Both files are read here as text, not imported,
so a change to the package that drops one of those names fails this test
instead of a workload.
"""

import ast
import importlib
import re
from pathlib import Path

import dmparam

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _tracing_table(name):
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"tracing.py defines no {name}")


def test_traced_functions_resolve():
    table = _tracing_table("FUNCTIONS")
    assert table
    missing = [f"{mod}.{attr}" for mod, attr in table
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing


def test_traced_methods_resolve():
    table = _tracing_table("METHODS")
    assert table
    # the tracer patches ``cls.__dict__[method]``
    missing = [f"{mod}.{cls}.{method}" for mod, cls, method in table
               if method not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert not missing


def test_workload_names_resolve():
    names = set(re.findall(r"\bdm\.(\w+)", (BENCH / "workloads.py").read_text(encoding="utf-8")))
    assert names
    assert not sorted(name for name in names if not hasattr(dmparam, name))
