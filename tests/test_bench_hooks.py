import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def test_every_bench_hook_resolves(monkeypatch):
    # The traced bench pass wraps these names and raises AttributeError on one
    # that is gone, so a rename in the package must keep each of them.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    for module_name, attr, _ in tracer.HOOKS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
