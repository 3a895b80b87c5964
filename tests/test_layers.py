"""The package's imports run one way, read off the source.

The modules form layers, in the order of LAYERS: each imports at module
level, only from the layers before its own, and takes every name from the
module that defines it.  The package's __init__ sits above every layer, and
cli alone imports the package API, with `from . import (...)`.

One import is held: cubillage.expand imports _ideal and _plates from order in
its body.  expand belongs in order, but the benchmark's traced run names its
metrics by the defining module (cubillage.expand.calls, .self_s), so the move
waits for the benchmark change that renames them.
"""

import ast
from pathlib import Path

import zonocube

LAYERS = ("colors", "cubillage", "masks", "order", "geom", "systems", "bruhat", "cli")
PACKAGE = Path(zonocube.__file__).parent


def _defined(tree) -> set:
    """The names a module binds at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _names_the_package(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == zonocube.__name__ for alias in node.names)
    return node.level == 0 and node.module.split(".")[0] == zonocube.__name__


def violations(package: Path = PACKAGE) -> list[str]:
    """One line for each import of the package's modules that breaks a rule."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    rank = {name: k for k, name in enumerate(LAYERS + ("__init__",))}
    out = []
    for name, tree in trees.items():
        for top, node in ((top, node) for top in tree.body for node in ast.walk(top)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{name}.py:{node.lineno}"
            if node is not top:
                out.append(f"{where}: import below module level, in {getattr(top, 'name', '?')}")
            elif _names_the_package(node):
                out.append(f"{where}: the package imported by its absolute name")
            elif not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            elif node.module is None:
                if name != "cli":
                    out.append(f"{where}: the package API imported outside cli")
            elif rank[node.module] >= rank[name]:
                out.append(f"{where}: {name} imports {node.module}, not a layer before it")
            else:
                defined = _defined(trees[node.module])
                out += [f"{where}: {alias.name} imported through {node.module}, which does "
                        f"not define it" for alias in node.names if alias.name not in defined]
    return out


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS) | {"__init__"}


HELD = "import below module level, in expand"


def test_imports_run_down_the_layers():
    found = violations()
    held = [v for v in found if v.startswith("cubillage.py:") and v.endswith(HELD)]
    assert len(held) == 1
    assert [v for v in found if v not in held] == []


def test_each_kind_of_violation_is_reported(tmp_path):
    sources = {
        "colors": "X = 1\n",
        "cubillage": "from .colors import X\n\ndef f():\n    from .order import g\n",
        "masks": "from .order import g\n",
        "order": "from .cubillage import X\n\ndef g():\n    pass\n",
        "geom": "import zonocube.colors\n",
        "systems": "from . import X\n",
        "cli": "import json\nfrom . import X\nfrom .colors import X\n",
    }
    for name, text in sources.items():
        (tmp_path / f"{name}.py").write_text(text, encoding="utf-8")
    assert violations(tmp_path) == [
        "cubillage.py:4: import below module level, in f",
        "geom.py:1: the package imported by its absolute name",
        "masks.py:1: masks imports order, not a layer before it",
        "order.py:1: X imported through cubillage, which does not define it",
        "systems.py:1: the package API imported outside cli",
    ]
