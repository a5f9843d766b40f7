import ast
import os
import re

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


def defined_names(source: str) -> list:
    """The module-level ALL_CAPS constants and _private names a module defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names
            if re.fullmatch(r"[A-Z][A-Z0-9_]*", name)
            or (name.startswith("_") and not name.startswith("__"))]


def read_names(sources) -> set:
    """Every name the sources read, bare or as a module attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def dead_names(module_source: str, all_sources) -> list:
    """Constants and private names a module defines that no source reads."""
    read = read_names(all_sources)
    return [name for name in defined_names(module_source) if name not in read]


def _sources() -> dict:
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_no_dead_name(module):
    sources = _sources()
    assert dead_names(sources[module], sources.values()) == []


def test_dead_name_is_caught():
    mod = ("LIMIT = 3\nUNUSED = 4\n_helper = 1\n"
           "def _gone():\n    return LIMIT\nclass Kept:\n    pass\n")
    other = "from .mod import _helper\nx = _helper + mod.LIMIT\n"
    assert dead_names(mod, [mod, other]) == ["UNUSED", "_gone"]


def _catches_package_errors() -> set:
    """The names a handler can give to catch a GlasseyLabError: the class, its
    subclasses and its bases."""
    from glassey_lab import errors

    subclasses = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.GlasseyLabError)}
    return subclasses | {"Exception", "BaseException"}


def swallowed_errors(source: str, allowed=()) -> list:
    """'function:line' of each except handler that catches a GlasseyLabError
    (bare, or naming it, a subclass or a base) and does not end in `raise`,
    outside the functions named in `allowed`."""
    names = _catches_package_errors()
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and function not in allowed:
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                named = {getattr(c, "id", getattr(c, "attr", None)) for c in caught}
                catches = child.type is None or bool(named & names)
                if catches and not isinstance(child.body[-1], ast.Raise):
                    found.append(f"{function}:{child.lineno}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(source), None)
    return found


# a package error is refused or reported, never turned into a value: only
# cli.main, which maps errors to exit codes, may end a handler without raise
@pytest.mark.parametrize("module", MODULES)
def test_no_handler_swallows_a_package_error(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert swallowed_errors(fh.read(), {"main"} if module == "cli.py" else ()) == []


def test_swallowed_error_is_caught():
    # the sweep point wrapper that once made a failed epsilon a skipped point
    sweep_one = (
        "def _sweep_one(args):\n"
        "    try:\n"
        "        return measure_lifespan(*args)\n"
        "    except GlasseyLabError as exc:\n"
        "        return exc\n"
    )
    others = (
        "def rethrows():\n"
        "    try:\n        pass\n"
        "    except (OSError, errors.Divergence) as exc:\n"
        "        note(exc)\n        raise\n"
        "def bare():\n"
        "    try:\n        pass\n"
        "    except:\n        pass\n"
        "def unrelated():\n"
        "    try:\n        pass\n"
        "    except ValueError:\n        return None\n"
        "def main():\n"
        "    try:\n        pass\n"
        "    except Exception:\n        return 1\n"
    )
    assert swallowed_errors(sweep_one + others, {"main"}) == ["_sweep_one:4", "bare:15"]
    assert swallowed_errors(others) == ["bare:10", "main:20"]


def test_every_step_default_is_the_solvers():
    # the step policy lives in solver alone: every --cfl and --stride default
    # and every default of a cfl or sample_stride parameter is one of its two
    # constants, so no subcommand or function steps by a policy of its own
    import argparse
    import importlib
    import inspect

    from glassey_lab import cli, solver

    policy = {"cfl": solver.DEFAULT_CFL, "stride": solver.DEFAULT_STRIDE,
              "sample_stride": solver.DEFAULT_STRIDE}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {(name, a.dest) for name, parser in subparsers.choices.items()
             for a in parser._actions if a.dest in policy}
    assert {name for name, dest in flags if dest == "cfl"} == set(subparsers.choices) - {"ineq"}
    for name, dest in flags:
        assert subparsers.choices[name].get_default(dest) == policy[dest], (name, dest)

    checked = 0
    # __main__ runs the CLI on import
    for module in set(MODULES) - {"__main__.py"}:
        mod = importlib.import_module("glassey_lab." + module[:-3])
        functions = [f for _, f in inspect.getmembers(mod, inspect.isfunction)]
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            functions += [f for _, f in inspect.getmembers(cls, inspect.isfunction)]
        for fn in functions:
            if fn.__module__ != mod.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.name in policy and param.default is not param.empty:
                    assert param.default == policy[param.name], (fn.__qualname__, param.name)
                    checked += 1
    assert checked >= 8
