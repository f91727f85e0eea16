"""Import hygiene: every module-level import in the package is used or
re-exported, every exported name exists, every module-level private name
is referenced, every public name, method and property is read, exported
from ``fano3`` or allow-listed with a reason, no module holds an assert statement,
`import fano3` loads no process-pool or dataclass machinery, `eliminate`
and the CLI read LB and the budget through one kernel each, and each
Riemann-Roch term has one writer."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import fano3
from conftest import run_python

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fano3"


def exported_names(tree) -> list:
    """The names a module lists in ``__all__``, empty without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads and
    does not list in ``__all__`` (``from __future__`` excepted)."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    exported = set(exported_names(tree))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


def referenced_names(node) -> Counter:
    """How often each identifier is read under ``node``: names, attributes
    and the names a ``from`` import takes."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            found.update(a.name for a in n.names)
    return found


def module_bindings(tree):
    """(name, node) for each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def definitions(tree):
    """(name, node) for each of ``module_bindings(tree)``, and
    ("Class.name", node) for each method and property of a module-level
    class."""
    for name, node in module_bindings(tree):
        yield name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{name}.{member.name}", member


def unread_definitions(sources: dict) -> list:
    """``module.name`` of every module-level function, class or assigned
    name, and ``module.Class.name`` of every method and property, dunders
    excepted, in ``sources`` (module name -> source) that no code of any
    of the sources names outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(referenced_names, trees.values()), Counter())
    return [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in definitions(tree)
        for name in [qualname.rsplit(".", 1)[-1]]
        if not name.startswith("__") and everywhere[name] == referenced_names(node)[name]
    ]


def is_private(qualname: str) -> bool:
    return qualname.rsplit(".", 1)[-1].startswith("_")


def orphan_private_defs(sources: dict) -> list:
    """The private names among ``unread_definitions(sources)``."""
    return [name for name in unread_definitions(sources) if is_private(name)]


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_no_orphan_private_definitions():
    assert orphan_private_defs(package_sources()) == []


#: public names that no package code reads and ``fano3.__all__`` leaves out
PUBLIC_ENTRIES = {
    "certificates.certificate_from_dict": "loads a certificate back from the CLI's JSON, "
    "the entry a separate certificate checker builds on",
    "tables.TABLE_EQ66": "the paper's 7-row q = 66 table, which the tests and the "
    "benchmark harness check the equal-mode search against",
    "wps.anticanonical_degree": "weighted-P^3 oracle: the index of P(5,6,22,33) is 66",
    "wps.anticanonical_volume": "weighted-P^3 oracle: the volume the q = 66 row must match",
}


def test_public_names_are_read_exported_or_listed():
    # a public name only tests read is a second way into code the engine
    # reaches another way; each allow-list entry must still be unread.
    # Exporting a class from ``fano3`` excuses the class, not its methods
    unread = [name for name in unread_definitions(package_sources()) if not is_private(name)]
    exported = {n for n in unread if n.split(".", 1)[1] in fano3.__all__}
    assert [n for n in unread if n not in exported and n not in PUBLIC_ENTRIES] == []
    assert set(PUBLIC_ENTRIES) <= set(unread)


def test_orphan_detection():
    sources = {
        "a": (
            "from .b import _shared\n"
            "def _kept(): return _shared()\n"
            "def _self_only(n): return _self_only(n - 1)\n"
            "class _Gone: pass\n"
            "def public(): return _kept\n"
        ),
        "b": "def _shared(): return 1\ndef _read(): pass\nx = a._read\n",
    }
    assert orphan_private_defs(sources) == ["a._self_only", "a._Gone"]
    assert unread_definitions(sources) == ["a._self_only", "a._Gone", "a.public", "b.x"]


def test_unread_method_detection():
    source = (
        "class Box:\n"
        "    def __init__(self): self.n = self.size\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def spare(self): return self.spare()\n"
        "    def _hidden(self): pass\n"
        "Box()\n"
    )
    assert unread_definitions({"m": source}) == ["m.Box.spare", "m.Box._hidden"]
    assert orphan_private_defs({"m": source}) == ["m.Box._hidden"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_exported_names_exist(path):
    names = exported_names(ast.parse(path.read_text()))
    if not names:
        return  # importing __main__ would run the command line
    module = importlib.import_module("fano3" if path.stem == "__init__" else f"fano3.{path.stem}")
    assert [name for name in names if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts; every check in the package is an explicit raise
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from math import gcd, lcm\n"
        "__all__ = ['lcm']\n"
        "def f():\n"
        "    return os.sep + j.dumps(1)\n"
    )
    assert unused_imports(source) == ["gcd"]


def test_import_loads_no_process_machinery():
    # the process pool is imported only when run_search asks for workers
    code = (
        "import fano3, sys; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_loads_no_dataclass_machinery():
    # every dataclass exec-compiles its methods in each fresh process, and
    # dataclasses imports inspect
    code = "import fano3, fano3.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_csv():
    # only CSV output imports csv, inside cli._render
    done = run_python("-c", "import fano3.cli, sys; print('csv' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_eliminate_reads_lb_of_and_the_integer_budget():
    # in eliminate and the CLI, LB comes from the one cached kernel
    # lb_of(R, N), with no LBContext or lb call, and every budget bound from
    # the integer kernel; the Fraction curve_cost is left to
    # verify_candidate's independent re-check
    for module in ("eliminate.py", "cli.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        calls = [
            n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        ]
        names = referenced_names(tree)
        assert (calls.count("LBContext"), calls.count("lb"), names["curve_cost"]) == (0, 0, 0), module
        assert calls.count("lb_of") > 0, module


def test_cli_renders_through_one_writer_per_format():
    # every command's JSON envelope and CSV table come from cli._render
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [
        f"{n.func.value.id}.{n.func.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
    ]
    assert (calls.count("json.dumps"), calls.count("csv.writer")) == (1, 1)


def top_level_defs(tree) -> dict:
    """name -> module-level function definition."""
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def arithmetic_names(node) -> set:
    """Identifiers read inside the binary operations and augmented
    assignments under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.BinOp, ast.AugAssign)):
            found |= set(referenced_names(n))
    return found


def calls_to(node, name: str) -> int:
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
        for n in ast.walk(node)
    )


def test_one_writer_per_riemann_roch_term():
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in ("basket", "rr", "search")}
    defs = {m: top_level_defs(tree) for m, tree in trees.items()}
    # the orbifold term sigma_numerator(y, r) * r_X / r: written in
    # basket.orbifold_column alone, which rr and the search walk read
    assert referenced_names(trees["search"])["sigma_numerator"] == 0
    writers = {name for name, fn in defs["basket"].items() if referenced_names(fn)["sigma_numerator"]}
    assert writers == {"orbifold_column"}
    assert {"sigma_numerator", "r_x"} <= arithmetic_names(defs["basket"]["orbifold_column"])
    for reader in (defs["basket"]["_index_points"], defs["rr"]["orbifold_columns"], defs["search"]["step2"]):
        assert calls_to(reader, "orbifold_column") == 1, reader.name
    # the volume, curve and A_1 terms: written in rr.rr_terms alone; the
    # builder keeps only its quadratic sigma table, outside any arithmetic
    rr_writers = {name for name, fn in defs["rr"].items() if referenced_names(fn)["sigma_numerator"]}
    assert rr_writers == {"rr_terms", "residue_term_builder"}
    term_names = {"sigma_numerator", "numerator", "degree_rXKC", "generator_unit", "x_A1"}
    assert term_names <= arithmetic_names(defs["rr"]["rr_terms"])
    for name in ("h0_s_part", "residue_term_builder"):
        fn = defs["rr"][name]
        assert calls_to(fn, "rr_terms") == 1, name
        assert arithmetic_names(fn) & term_names == set(), name
        assert referenced_names(fn)["degree_rXKC"] + referenced_names(fn)["numerator"] == 0, name


def test_cert_steps_are_built_only_in_certificates():
    # EliminationCertificate.add is the one constructor call, so every step
    # goes through its kind and citation checks; a module that needs steps
    # outside a certificate writes them through a scratch one
    builders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Call)
        and "CertStep" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]
    assert builders == ["certificates.py"]
