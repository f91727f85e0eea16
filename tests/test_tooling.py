"""The benchmark tracer finds every fano3 attribute it shims.

perfbench/tracing.py replaces functions at fano3 module attributes; a
renamed or deleted attribute breaks it.  This reads the tracer as text,
so the check needs no perfbench import and runs with the tier-1 suite.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def shimmed_attributes(source: str) -> set:
    """(module, attribute) for each ``self.wrap*(module, "attribute", ...)``
    call, where ``module`` is imported from fano3."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fano3"
        for alias in node.names
    }
    found = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("wrap")
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in modules
            and isinstance(node.args[1], ast.Constant)
        ):
            found.add((node.args[0].id, node.args[1].value))
    return found


def test_tracer_targets_exist():
    shims = shimmed_attributes(TRACING.read_text())
    assert ("search", "step2") in shims and ("search", "_process_units") in shims
    missing = [
        f"fano3.{module}.{attr}"
        for module, attr in sorted(shims)
        if not hasattr(importlib.import_module(f"fano3.{module}"), attr)
    ]
    assert missing == []


def test_traced_steps_are_generator_functions():
    """wrap_generator calls next() on what step1 and step2 return."""
    from fano3 import search

    assert inspect.isgeneratorfunction(search.step1)
    assert inspect.isgeneratorfunction(search.step2)


def test_shim_detection():
    source = (
        "def install(self):\n"
        "    from fano3 import search\n"
        "    self.wrap(search, 'step1', 'x')\n"
        "    self.wrap_generator(search, 'gone', 'y')\n"
        "    self.wrap(other, 'skipped', 'z')\n"
    )
    assert shimmed_attributes(source) == {("search", "step1"), ("search", "gone")}
