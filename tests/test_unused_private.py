"""Every private module-level function and class of the package is used
somewhere in the package. Tests do not count as a use: code that only
the suite calls belongs in ``tests/``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twdglm"
MODULES = sorted(PACKAGE.glob("*.py"))


def _references(tree) -> Counter:
    """How often each name is read, as a bare name, as an attribute or
    in a ``from ... import``."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _private_defs(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield node


TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in MODULES}
ALL_REFERENCES = sum((_references(tree) for tree in TREES.values()),
                     Counter())


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_private_definitions(path):
    # a definition's references to itself (recursion) are not a use
    unused = [f"line {node.lineno}: {node.name}"
              for node in _private_defs(TREES[path])
              if ALL_REFERENCES[node.name]
              - _references(node)[node.name] == 0]
    assert not unused, (f"{path.name} defines private names nothing in "
                        f"the package uses: {unused}")
