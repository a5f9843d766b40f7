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


def definitions(source: str) -> list:
    """The module-level functions and classes a module defines, and the
    methods of those classes as 'Class.method', dunders left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    return found


def unreferenced(source: str, sources) -> list:
    """Definitions of a module that no source references: a function or class
    through a name, an import or a module attribute, a method through an
    attribute name alone, so a local variable of the same name does not count."""
    names, attributes = set(), set()
    for other in sources:
        for node in ast.walk(ast.parse(other)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    referenced = names | attributes
    return [name for name in definitions(source)
            if name.rpartition(".")[2] not in (attributes if "." in name else referenced)]


# a definition in src has a caller in src, so a CLI path can reach it: a
# helper for the tests alone lives in the tests (tests/oracles.py); the
# re-exports of __init__ are no caller
@pytest.mark.parametrize("module", MODULES)
def test_every_definition_has_a_caller_in_src(module):
    sources = _sources()
    callers = [text for name, text in sources.items() if name != "__init__.py"]
    assert unreferenced(sources[module], callers) == []


def test_unreferenced_definition_is_caught():
    mod = ("def used():\n    pass\ndef gone():\n    pass\n"
           "class Field:\n    def __init__(self):\n        pass\n"
           "    def kept(self):\n        pass\n    def scaled(self):\n        pass\n")
    other = ("from .mod import used\nimport mod\n"
             "def run(f):\n    scaled = mod.Field()\n    return scaled.kept()\n")
    assert unreferenced(mod, [mod, other]) == ["gone", "Field.scaled"]


def _catches_package_errors() -> set:
    """The names a handler can give to catch a GlasseyLabError: the class, its
    subclasses and its bases."""
    from glassey_lab import errors

    subclasses = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.GlasseyLabError)}
    return subclasses | {"Exception", "BaseException"}


def _name(node):
    """The name an expression gives, bare or as a module attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def _caught_names(handler: ast.ExceptHandler) -> set:
    """The names an except handler gives."""
    if handler.type is None:
        return set()
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {_name(c) for c in caught}


def swallowed_errors(source: str, allowed=()) -> list:
    """'function:line' of each except handler that catches a GlasseyLabError
    (bare, or naming it, a subclass or a base) and does not end in `raise`,
    outside the functions named in `allowed`."""
    names = _catches_package_errors()
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and function not in allowed:
                catches = child.type is None or bool(_caught_names(child) & names)
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


def error_classes(source: str) -> list:
    """The classes a module defines, at any depth."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]


def unnamed_errors(errors_source: str, sources) -> list:
    """Classes errors.py defines that no source raises or catches by name."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                named.add(_name(exc))
            elif isinstance(node, ast.ExceptHandler):
                named |= _caught_names(node)
    return [name for name in error_classes(errors_source) if name not in named]


def error_subclasses(source: str, errors) -> list:
    """Classes a module defines on one of the named error classes."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and {_name(b) for b in node.bases} & set(errors)]


# one refusal type: an error class is raised or caught by name, and only
# errors.py defines one, so a new refusal raises PreconditionViolation
def test_every_error_class_is_raised_or_caught():
    sources = _sources()
    assert unnamed_errors(sources["errors.py"], sources.values()) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"errors.py"}))
def test_only_errors_defines_an_error_class(module):
    sources = _sources()
    assert error_subclasses(sources[module], error_classes(sources["errors.py"])) == []


def test_unnamed_error_is_caught():
    errors = ("class GlasseyLabError(Exception):\n    pass\n"
              "class PreconditionViolation(GlasseyLabError):\n    pass\n"
              "class Divergence(GlasseyLabError):\n    pass\n"
              "class Unraised(GlasseyLabError):\n    pass\n")
    user = ("def step():\n    raise PreconditionViolation('dt')\n"
            "def main():\n"
            "    try:\n        step()\n"
            "    except (errors.Divergence, GlasseyLabError):\n        return 2\n")
    assert unnamed_errors(errors, [errors, user]) == ["Unraised"]
    local = "class Local(errors.PreconditionViolation):\n    pass\nclass Plain:\n    pass\n"
    assert error_subclasses(local, error_classes(errors)) == ["Local"]


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
