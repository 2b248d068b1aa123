"""One parse of the package and of the suite for the static checks: the
unused import, parameter, private and public name checks, the
index-in-spec check and the member-table checks. ``SCANS`` maps each
file to its ``Scan``."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "twdglm").glob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def references(node) -> Counter:
    """How often each name is read under ``node``, as a bare name, as
    an attribute or in a ``from ... import``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


class Scan:
    """A file's tree and what one walk of it finds."""

    def __init__(self, path):
        self.path = path
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.refs = references(self.tree)
        self.loads = Counter()          # bare names read
        self.attrs = Counter()          # attribute names
        self.names = set()              # bare names, string annotations in
        self.imports = []               # (name bound, line), no __future__
        self.calls = defaultdict(list)  # callee name -> its calls
        self.functions = []             # every def, methods and nested
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name):
                self.names.add(node.id)
                self.loads[node.id] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute):
                self.attrs[node.attr] += 1
            elif isinstance(node, ast.Call):
                func = node.func
                self.calls[getattr(func, "id", getattr(func, "attr", None))
                           ].append(node)
            elif isinstance(node, ast.Import):
                self.imports += [(a.asname or a.name.split(".")[0],
                                  node.lineno) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.module != "__future__":
                    self.imports += [(a.asname or a.name, node.lineno)
                                     for a in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.append(node)
            for note in (getattr(node, "annotation", None),
                         getattr(node, "returns", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value,
                                                                 str):
                    self.names.update(
                        sub.id for sub in ast.walk(ast.parse(note.value))
                        if isinstance(sub, ast.Name))

    def module_defs(self, kinds=(ast.FunctionDef, ast.ClassDef)):
        return [node for node in self.tree.body if isinstance(node, kinds)]


SCANS = {path: Scan(path) for path in MODULES + TEST_MODULES}
PACKAGE_SCANS = [SCANS[path] for path in MODULES]


def package_references(exclude=()) -> Counter:
    """``references`` over the package modules not named in ``exclude``."""
    return sum((scan.refs for scan in PACKAGE_SCANS
                if scan.path.name not in exclude), Counter())


def parameters(fn):
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs


def attribute_reads(node, owner) -> list:
    """The ``owner.<name>`` reads under ``node``, also when ``owner`` is
    itself an attribute (``fam.Member.POISSON``)."""
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
            and getattr(sub.value, "id", getattr(sub.value, "attr", None))
            == owner]


def imported_modules(node) -> set:
    """The last dotted part of every module an import under ``node``
    names: ``from .family import x``, ``from . import family`` and
    ``import twdglm.family`` each give ``family``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            found.update(a.name.split(".")[-1] for a in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            if sub.module:
                found.add(sub.module.split(".")[-1])
            if not sub.module or sub.module == "twdglm":
                found.update(a.name for a in sub.names)
    return found
