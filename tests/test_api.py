import ast
import sys
from pathlib import Path

import planecharge


def test_public_names_resolve():
    missing = [name for name in planecharge.__all__ if not hasattr(planecharge, name)]
    assert not missing
    namespace = {}
    exec("from planecharge import *", namespace)
    assert set(planecharge.__all__) <= set(namespace)
    # charge is counted in plain int twelfths; there is no wrapper type
    assert not hasattr(planecharge, "Charge")


def test_package_imports_only_the_stdlib():
    """Every absolute import in the package names planecharge itself or a
    standard-library module."""
    sources = sorted(Path(planecharge.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "planecharge" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, name))
    assert not foreign


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
