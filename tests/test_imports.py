"""No module under src/, scripts/ or tests/ imports a name it never uses,
and nothing defined under src/ or in tests/oracles.py goes unused.

Both scans read syntax trees with the standard library alone. A name bound
by an import statement must appear as a name somewhere else in its file;
``__future__`` imports are exempt, and perfbench/ is left out, since it
belongs to the benchmark. A function, method or class defined under src/
must be referenced, outside its own definition, somewhere in src/,
scripts/ or perfbench/: as a name, as an attribute, or as a part of a
dotted string constant such as perfbench's ``"training.Adam.step"``.
Dunder names are exempt; tests do not count as a use. One defined in
tests/oracles.py must be referenced so somewhere under tests/, where tests
are the only users. A parameter with a default, of a def under src/, must
be passed, by position or by keyword, by some call in src/, scripts/ or
perfbench/: a default no caller overrides is a constant.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno,
                          alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_the_scan_finds_each_unused_name():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class A:\n"
              "    x: np.ndarray\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "os"), (5, "field")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "scripts", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert found == []


def _docstrings(tree) -> set[int]:
    """ids of the docstring constants in ``tree``."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def orphaned_names(sources: dict[str, str],
                   defining) -> list[tuple[str, int, str]]:
    """(file, line, name) of each function, method or class defined in a
    file of ``defining`` whose name no file of ``sources`` (file name to
    text) references outside that definition."""
    definitions, references = [], []
    for path, source in sources.items():
        tree = ast.parse(source)
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((path, node))
            elif isinstance(node, ast.Name):
                references.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and id(node) not in docstrings \
                    and re.fullmatch(r"[\w.]+", node.value):
                references += [(path, node.lineno, part)
                               for part in node.value.split(".")]

    def used(path, node) -> bool:
        return any(name == node.name and not (
            where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in references)

    return sorted((path, node.lineno, node.name)
                  for path, node in definitions
                  if path in defining
                  and not re.fullmatch(r"__\w+__", node.name)
                  and not used(path, node))


def test_the_orphan_scan_finds_each_unused_definition():
    library = '''
class Used:
    def __len__(self):
        return 0

    def by_attribute(self):
        return self.by_attribute()

    def by_string(self):
        """by_string: a docstring is no use"""


def recursive(n):
    return recursive(n - 1)


def called():
    """recursive"""


class Orphan:
    pass
'''
    user = ("import lib\n"
            "lib.called()\n"
            "x: lib.Used\n"
            "y = lib.Used().by_attribute\n"
            "PATCHES = {'lib.Used.by_string': 1}\n")
    assert orphaned_names({"lib.py": library, "user.py": user},
                          ("lib.py",)) == [("lib.py", 13, "recursive"),
                                           ("lib.py", 21, "Orphan")]


def _sources(*folders) -> dict[str, str]:
    return {str(path.relative_to(ROOT)): path.read_text("utf-8")
            for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))}


def test_nothing_under_src_is_orphaned():
    sources = _sources("src", "scripts", "perfbench")
    defining = [path for path in sources if path.startswith("src")]
    assert orphaned_names(sources, defining) == []


def test_no_oracle_is_orphaned():
    assert orphaned_names(_sources("tests"), ["tests/oracles.py"]) == []


def unpassed_defaults(sources: dict[str, str],
                      defining) -> list[tuple[str, int, str]]:
    """(file, line, "name(parameter=)") of each parameter with a default,
    of a def in a file of ``defining``, that no call in ``sources`` passes
    by position or by keyword. Calls match defs by name, as the orphan
    scan's references do: a call of a name or an attribute counts for
    every def of that name, and a call of a class for its ``__init__``.
    A def in a class body is a method, whose first parameter no call
    passes. A ``*args`` counts for every position from its own on, and a
    ``**kwargs`` for every parameter."""
    defs, calls = [], {}
    for path, source in sources.items():
        tree = ast.parse(source)
        methods = {}  # id of each method's def -> the name calls use
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[id(item)] = (node.name
                                             if item.name == "__init__"
                                             else item.name)
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                calls.setdefault(name, []).append(node)
        defs += [(path, node, methods.get(id(node), node.name),
                  id(node) in methods)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]

    def passes(call, position, name) -> bool:
        stars = [i for i, arg in enumerate(call.args)
                 if isinstance(arg, ast.Starred)]
        return (position is not None and (
                    position < len(call.args)
                    or any(i <= position for i in stars))
                or any(k.arg in (name, None) for k in call.keywords))

    found = []
    for path, node, callee, bound in defs:
        if path not in defining:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [(i - bound, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                      if d is not None]
        found += [(path, node.lineno, f"{node.name}({name}=)")
                  for position, name in defaulted
                  if not any(passes(call, position, name)
                             for call in calls.get(callee, ()))]
    return sorted(found)


def test_the_default_scan_finds_each_unpassed_parameter():
    library = '''
class Widget:
    def __init__(self, size=1, colour="red"):
        pass

    def draw(self, scale=1.0, *, fill=None):
        pass


def make(n, spare=0, *, mode="a", kind="b"):
    pass


def spread(a=0, b=0, c=0):
    pass
'''
    user = ("import lib\n"
            "w = lib.Widget(3)\n"
            "w.draw(fill=1)\n"
            "lib.make(1, mode='c')\n"
            "lib.spread(1, *rest)\n"
            "lib.make(2, **options)\n")
    assert unpassed_defaults({"lib.py": library, "user.py": user},
                             ("lib.py",)) == [
        ("lib.py", 3, "__init__(colour=)"),
        ("lib.py", 6, "draw(scale=)")]


def test_every_default_under_src_is_passed():
    sources = _sources("src", "scripts", "perfbench")
    defining = [path for path in sources if path.startswith("src")]
    # ``main`` is the console entry point: its ``argv`` defaults to the
    # command line, and only tests pass it arguments
    assert [(path, name) for path, _, name
            in unpassed_defaults(sources, defining)
            if (path, name) != ("src/metatagger/cli.py", "main(argv=)")] == []
