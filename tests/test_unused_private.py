"""Every private module-level function and class of the package is used
somewhere in the package. Tests do not count as a use: code that only
the suite calls belongs in ``tests/``.

Every public module-level function and class, and every public method
and property, is read in the package outside ``__init__.py``, whose
re-exports are not a use; a method that overrides a base class's is
read by the base. Exempt are the paper's API, which the package offers
without calling it, and each name the benchmark's tracer wraps, whose
loss would stop a traced run at start-up.
"""

import ast
import importlib

import pytest

from static_scan import MODULES, SCANS, package_references, references
from test_bench_spans import _load_spans

PAPER_API = ("log_density", "sse", "deviance_ratio", "fit_ridge",
             "fit_unpenalized", "objective")
EXEMPT = set(PAPER_API) | {attr for _, attr, _, _ in _load_spans()._targets()}


def _unused(defs, refs):
    # a definition's references to itself (recursion) are not a use
    return [f"line {node.lineno}: {node.name}" for node in defs
            if refs[node.name] - references(node)[node.name] == 0]


def _methods(path, cls):
    bases = getattr(importlib.import_module(f"twdglm.{path.stem}"),
                    cls.name).__mro__[1:]
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)
            and not any(hasattr(base, node.name) for base in bases)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_private_definitions(path):
    unused = _unused([node for node in SCANS[path].module_defs()
                      if node.name.startswith("_")
                      and not node.name.startswith("__")],
                     package_references())
    assert not unused, (f"{path.name} defines private names nothing in "
                        f"the package uses: {unused}")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_public_definitions(path):
    defs = SCANS[path].module_defs()
    defs += [node for cls in defs if isinstance(cls, ast.ClassDef)
             for node in _methods(path, cls)]
    unused = _unused([node for node in defs if node.name[0] != "_"
                      and node.name not in EXEMPT],
                     package_references(exclude=("__init__.py",)))
    assert not unused, (f"{path.name} defines public names nothing in the "
                        f"package reads: {unused}")
