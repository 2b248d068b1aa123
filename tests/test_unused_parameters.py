"""Every parameter of a module-level function of the package, public
ones included, is read: a function that takes a spec, links or theta it
never reads would invite a caller to expect them to matter. Every
default a private module-level function declares is used by some call
in the package. Tests do not count as a caller: a default that only the
suite relies on is a code path that only the suite runs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twdglm"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for path in MODULES}


def _private_functions(tree):
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield node


def _module_functions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def _unread(fn):
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    return [name for name in names if name not in read]


def _defaults(fn):
    """{name: positional index or None} of the defaulted parameters."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None)
    return out


def _uses(name):
    """(reads of ``name`` as a bare name or an attribute, the calls
    among them) over the whole package."""
    reads, calls = 0, []
    for tree in TREES.values():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute)
                        and node.attr == name)):
                reads += 1
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == name)
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == name)):
                calls.append(node)
    return reads, calls


def _passes(call, name, index):
    """Whether ``call`` passes the parameter explicitly. Unpacked
    arguments (``*args``, ``**kwargs``) count as not passing it, so that
    a default they may leave in use is never reported."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    positional = call.args
    if any(isinstance(a, ast.Starred) for a in positional):
        return False
    return index is not None and index < len(positional)


def _defaults_only_tests_use(fn):
    """Defaulted parameters that every call in the package passes. A
    function also read without being called (stored, or handed to
    another function) may be called where the scan cannot see, and is
    skipped."""
    defaults = _defaults(fn)
    if not defaults:
        return []
    reads, calls = _uses(fn.name)
    if not calls or reads != len(calls):
        return []
    return [name for name, index in defaults.items()
            if all(_passes(call, name, index) for call in calls)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_parameters_are_read(path):
    found = [f"line {fn.lineno}: {fn.name}({name})"
             for fn in _module_functions(TREES[path])
             for name in _unread(fn)]
    assert not found, (f"{path.name}: functions with parameters their "
                       f"bodies never read: {found}")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_defaults_are_used(path):
    found = [f"line {fn.lineno}: {fn.name}({name}=)"
             for fn in _private_functions(TREES[path])
             for name in _defaults_only_tests_use(fn)]
    assert not found, (f"{path.name}: private functions whose defaults no "
                       f"call in the package uses: {found}")

