"""One writer for the package's output files: under ``src/twdglm`` only
``cli.py`` opens a file for writing, and the 17-digit format ``.17g``
appears in one function, so every number a table holds is written by
the same rule."""

import ast

from static_scan import PACKAGE_SCANS

WRITE_MODES = set("wax+")


def _opens_for_writing(call) -> bool:
    """Whether an ``open`` call may write: its mode holds w, a, x or +,
    or is not a constant the scan can read."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not WRITE_MODES & set(mode.value))


def _enclosing_function(scan, node) -> str:
    """The name of the innermost function around ``node``."""
    around = [fn for fn in scan.functions
              if fn.lineno <= node.lineno <= fn.end_lineno]
    return max(around, key=lambda fn: fn.lineno).name if around \
        else "<module>"


def test_only_cli_opens_files_for_writing():
    found = [f"{scan.path.name}:{call.lineno}" for scan in PACKAGE_SCANS
             if scan.path.name != "cli.py"
             for call in scan.calls["open"]
             if isinstance(call.func, ast.Name) and _opens_for_writing(call)]
    assert not found, f"files opened for writing outside cli.py: {found}"


def test_seventeen_digits_in_one_function():
    where = {(scan.path.name, _enclosing_function(scan, node))
             for scan in PACKAGE_SCANS for node in ast.walk(scan.tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and ".17g" in node.value}
    assert len(where) == 1, f".17g is written in several places: {where}"
