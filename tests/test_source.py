"""Scans of the source tree itself.

The package may not rely on ``assert`` statements, since ``python -O``
strips them, no module under ``src/p2lab``, ``tests`` or ``scripts``
may import a name it never reads, and every mutant that
``tests/mutants.py`` records must still apply.
"""
import ast
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]


def python_files(*dirs):
    return sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))


def test_the_package_has_no_assert_statements():
    bad = [f"{path.relative_to(ROOT)}:{node.lineno}"
           for path in python_files("src/p2lab")
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.Assert)]
    assert not bad


def unused_imports(path):
    """Each name that the module at path imports and never reads, as
    ``file:line: name``."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_reads():
    # package __init__ modules import to re-export
    bad = [found
           for path in python_files("src/p2lab", "tests", "scripts")
           if path.name != "__init__.py"
           for found in unused_imports(path)]
    assert not bad


def test_every_recorded_mutant_still_applies():
    # tests/mutants.py edits each old text, which must occur exactly once;
    # a refactor that moves one updates its record
    stale = [f"{m.source}: {m.file} has {mutants.occurrences(m)}"
             for m in mutants.MUTANTS if mutants.occurrences(m) != 1]
    assert not stale
