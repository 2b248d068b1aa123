"""Every module of the package and of the test suite uses each name it
imports. ``__init__.py`` is exempt: its imports are the re-exported API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*(ROOT / "src" / "twdglm").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def _imported(tree):
    """(name bound, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used(tree) -> set:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
