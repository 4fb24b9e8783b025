"""The package names the benchmark harness binds to must exist.

perfbench/tracer.py wraps the functions in LAYERS by name, and
perfbench/worker.py empties the memo caches in CACHES at set-up. A renamed
or deleted function would otherwise break only a traced run or the
benchmark's set-up, neither of which the test suite runs.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load("tracer")
    assert tracer.LAYERS
    for module_name, attr in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_benchmark_cache_can_be_cleared_and_read():
    worker = load("worker")
    assert worker.CACHES
    for name, fn in worker.CACHES.items():
        assert callable(getattr(fn, "cache_clear", None)), name
        assert callable(getattr(fn, "cache_info", None)), name
