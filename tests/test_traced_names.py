"""Every function the benchmark's tracer wraps exists in rsskit.

bench/tracer.py wraps rsskit.<layer>.<fn> by name, so renaming or
deleting one of them breaks every traced benchmark run.  The tracer's
LAYERS table is read here, not edited, so the test suite catches that.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(layer, fn) for layer, fns in tracer.LAYERS.items() for fn in fns]
    missing = [f"rsskit.{layer}.{fn}" for layer, fn in names
               if not callable(getattr(importlib.import_module(f"rsskit.{layer}"), fn, None))]
    assert names and not missing
