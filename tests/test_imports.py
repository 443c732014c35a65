"""No module under src/, scripts/ or tests/ imports a name it never uses.

The scan reads each file's syntax tree with the standard library alone: a
name bound by an import statement must appear as a name somewhere else in
the file. ``__future__`` imports are exempt. perfbench/ is left out; it
belongs to the benchmark.
"""

import ast
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
