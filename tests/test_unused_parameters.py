"""Every parameter of a module-level function of the package, public
ones included, is read: a function that takes a spec, links or theta it
never reads would invite a caller to expect them to matter. Every
default a private module-level function declares is used by some call
in the package. Tests do not count as a caller: a default that only the
suite relies on is a code path that only the suite runs.
"""

import ast

import pytest

from static_scan import MODULES, PACKAGE_SCANS, SCANS, parameters


def _unread(fn):
    args = fn.args
    names = [a.arg for a in parameters(fn)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    return [name for name in names if name not in read]


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
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    # name -> positional index, or None for a keyword-only parameter
    defaults = {a.arg: i for i, a in enumerate(positional) if i >= first}
    defaults.update((a.arg, None) for a, d in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                    if d is not None)
    # reads of the name, as a bare name or an attribute, and its calls
    reads = sum(s.loads[fn.name] + s.attrs[fn.name] for s in PACKAGE_SCANS)
    calls = [call for s in PACKAGE_SCANS for call in s.calls[fn.name]]
    if not defaults or not calls or reads != len(calls):
        return []
    return [name for name, index in defaults.items()
            if all(_passes(call, name, index) for call in calls)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_parameters_are_read(path):
    found = [f"line {fn.lineno}: {fn.name}({name})"
             for fn in SCANS[path].module_defs(ast.FunctionDef)
             for name in _unread(fn)]
    assert not found, (f"{path.name}: functions with parameters their "
                       f"bodies never read: {found}")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_defaults_are_used(path):
    found = [f"line {fn.lineno}: {fn.name}({name}=)"
             for fn in SCANS[path].module_defs(ast.FunctionDef)
             if fn.name.startswith("_") and not fn.name.startswith("__")
             for name in _defaults_only_tests_use(fn)]
    assert not found, (f"{path.name}: private functions whose defaults no "
                       f"call in the package uses: {found}")
