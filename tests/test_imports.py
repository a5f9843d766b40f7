import ast
import os

import pytest

import glassey_lab

SRC = os.path.dirname(glassey_lab.__file__)
# __init__ imports its names to re-export them
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_caught():
    src = "import math\nfrom .core import RadialGrid, ProblemSpec\nProblemSpec(3, 2.0)\n"
    assert unused_imports(src) == ["math", "RadialGrid"]
