"""The benchmark's tracer wraps package functions by name: each must
still exist, or ``bench/run.py --trace 1`` fails at start-up."""

import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # reads the table only: ``install`` would wrap package functions
    # for the rest of the session
    targets = _load_spans()._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert inspect.getattr_static(owner, attr, None) is not None, \
            f"{name}: {owner.__name__}.{attr} is gone"
