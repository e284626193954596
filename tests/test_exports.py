"""Every exported name is used outside the tests, and no package module
imports a name it does not use.

A name in `polyfock.__all__` counts as used when code outside `tests/` reads
it: a package module other than the export table in `__init__.py` (its own
module included, but not its definition), a script in `scripts/`, the
benchmark harness in `perfbench/`, or the README library tour, which CI
runs.  Uses are read from the syntax tree, so a docstring or a comment that
names a function is not a use, and neither is an import on its own.
"""

import ast
import pathlib
import re

import pytest

import polyfock

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyfock"


def read_names(tree: ast.AST) -> set[str]:
    """Every name the code reads, bare (`f`) or as an attribute (`pf.f`),
    string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
    return names


def library_tour() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library tour\s+```python\n(.*?)```", readme,
                     re.S).group(1)


def test_every_export_is_used_outside_the_tests():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               + sorted((ROOT / "scripts").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))
               if path != PACKAGE / "__init__.py"]
    used = set().union(*(read_names(ast.parse(text))
                         for text in sources + [library_tour()]))
    assert sorted(set(polyfock.__all__) - used) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    # imports under `if TYPE_CHECKING:` are checked like any other
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).partition(".")[0]
                         for alias in node.names}
    assert sorted(imported - read_names(tree)) == []
