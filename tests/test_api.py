import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planecharge

SRC = str(Path(planecharge.__file__).parent.parent)


def test_public_names_resolve():
    missing = [name for name in planecharge.__all__ if not hasattr(planecharge, name)]
    assert not missing
    namespace = {}
    exec("from planecharge import *", namespace)
    assert set(planecharge.__all__) <= set(namespace)
    # charge is counted in plain int twelfths; there is no wrapper type
    assert not hasattr(planecharge, "Charge")


def test_each_export_is_its_modules_own_object():
    """Loading the submodules ``catalog`` and ``square`` binds them on the
    package, yet their names still give the functions they define."""
    for name, module in planecharge._OWNER.items():
        owner = importlib.import_module(f"planecharge.{module}")
        assert getattr(planecharge, name) is getattr(owner, name), name
        namespace = {}
        exec(f"from planecharge import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name


def test_namespace_lists_and_refuses_names():
    assert set(planecharge.__all__) <= set(dir(planecharge))
    assert "__version__" in dir(planecharge)
    with pytest.raises(AttributeError, match="^module 'planecharge' has no attribute 'nope'$"):
        planecharge.nope


def _loaded_after(code):
    """The planecharge modules (and dataclasses, if loaded) in sys.modules
    once ``code`` has run in a fresh interpreter."""
    code += (
        "\nimport sys; print(*sorted(m for m in sys.modules"
        " if m.startswith('planecharge') or m == 'dataclasses'))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_only_what_a_run_uses(tmp_path):
    loaded = _loaded_after(
        "import planecharge; planecharge.catalog(); planecharge.named_examples()"
    )
    assert "planecharge.catalog" in loaded
    unused = {"choosability", "discharging", "matcher", "reducibility", "square", "cli"}
    assert not loaded & {"dataclasses", *(f"planecharge.{m}" for m in unused)}

    graph = tmp_path / "c6.graph"
    graph.write_text('{"n": 6, "rot": [[1, 5], [2, 0], [1, 3], [2, 4], [3, 5], [4, 0]]}')
    loaded = _loaded_after(
        "from planecharge.cli import main; import contextlib, io\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert main(['inspect', {str(graph)!r}]) == 0"
    )
    assert "planecharge.cli" in loaded
    unused = {"choosability", "discharging", "matcher", "reducibility"}
    assert not loaded & {f"planecharge.{m}" for m in unused}


SOURCES = sorted(Path(planecharge.__file__).parent.glob("*.py"))


def _absolute_imports():
    """(file name, top-level module) of every absolute import in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, name.split(".")[0]) for name in names)


def test_package_imports_only_the_stdlib():
    """Every absolute import in the package names planecharge itself or a
    standard-library module."""
    assert len(SOURCES) > 10
    foreign = [
        (file, top)
        for file, top in _absolute_imports()
        if top != "planecharge" and top not in sys.stdlib_module_names
    ]
    assert not foreign


def test_no_module_imports_dataclasses():
    """Records are NamedTuples: dataclasses would load inspect, ast and dis
    at every launch."""
    assert not [(file, top) for file, top in _absolute_imports() if top == "dataclasses"]


def test_no_assert_statements():
    """Every invariant in the package raises explicitly, so it still runs
    under python -O, which strips assert statements."""
    asserts = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts


def _choosability_imports(path):
    """The names a source file imports from ``choosability``, with
    "choosability" itself among them when it imports the module whole."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("choosability"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {"choosability" for a in node.names if a.name.endswith("choosability")}
    return names


def test_reducibility_uses_only_hall_rule_from_choosability():
    path = Path(planecharge.__file__).parent / "reducibility.py"
    assert _choosability_imports(path) == {"MAX_DEMAND", "clique_f_choosable"}


def test_oracles_import_nothing_from_choosability():
    assert _choosability_imports(Path(__file__).parent / "oracles.py") == set()
