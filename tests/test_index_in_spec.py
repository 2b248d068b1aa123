"""The index p has one home, the ``FamilySpec``: no function of the
package takes a bare index (``p`` or ``p_hat``) beside a spec, which it
could contradict. A function that needs another p takes
``spec.with_p(p)``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twdglm"
MODULES = sorted(PACKAGE.glob("*.py"))
INDEX_NAMES = {"p", "p_hat"}


def _parameters(fn):
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs


def _is_spec(arg):
    """A parameter annotated ``FamilySpec`` or named ``spec...``."""
    note = arg.annotation
    annotated = ((isinstance(note, ast.Name) and note.id == "FamilySpec")
                 or (isinstance(note, ast.Constant)
                     and note.value == "FamilySpec"))
    return annotated or arg.arg.startswith("spec")


def _index_beside_spec(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = _parameters(node)
            if any(_is_spec(a) for a in params):
                for arg in params:
                    if arg.arg in INDEX_NAMES:
                        yield f"line {node.lineno}: {node.name}({arg.arg})"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_index_parameter_beside_a_spec(path):
    found = list(_index_beside_spec(
        ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, (f"{path.name}: functions that take an index beside "
                       f"a FamilySpec: {found}")
