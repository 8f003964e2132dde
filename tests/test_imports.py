"""Every imported name is used: a scan of the modules and the tests with the
standard `ast` module.

A name counts as used where the module loads it, or where it appears in an
annotation written as a string.  The package's `__init__.py` imports
nothing it re-exports, so it is left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "modelk").glob("*.py")
               if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree) -> set[str]:
    """Names the module loads, with those inside string annotations."""
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded |= _loaded(ast.parse(node.value, mode="eval"))
    return loaded


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _loaded(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_a_name_in_a_string_annotation_counts_as_used():
    tree = ast.parse("from x import A, B\n"
                     "def f(a: 'A') -> None:\n    pass\n")
    assert _loaded(tree) >= {"A"} and "B" not in _loaded(tree)
