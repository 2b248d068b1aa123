"""The index p has one home, the ``FamilySpec``: no function of the
package takes a bare index (``p`` or ``p_hat``) beside a spec, which it
could contradict. A function that needs another p takes
``spec.with_p(p)``.
"""

import ast

import pytest

from static_scan import MODULES, SCANS, parameters

INDEX_NAMES = {"p", "p_hat"}


def _is_spec(arg):
    """A parameter annotated ``FamilySpec`` or named ``spec...``."""
    note = arg.annotation
    annotated = ((isinstance(note, ast.Name) and note.id == "FamilySpec")
                 or (isinstance(note, ast.Constant)
                     and note.value == "FamilySpec"))
    return annotated or arg.arg.startswith("spec")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_index_parameter_beside_a_spec(path):
    found = [f"line {fn.lineno}: {fn.name}({arg.arg})"
             for fn in SCANS[path].functions
             if any(_is_spec(a) for a in parameters(fn))
             for arg in parameters(fn) if arg.arg in INDEX_NAMES]
    assert not found, (f"{path.name}: functions that take an index beside "
                       f"a FamilySpec: {found}")
