"""The names the benchmark harness binds to must exist.

perfbench/tracer.py wraps the functions in LAYERS by name,
perfbench/worker.py empties the memo caches in CACHES at set-up, and
perfbench/checks.py checks the `documents` answers with references it reads
from tests/bruteforce.py. A renamed or deleted function would otherwise
break only a traced run, the benchmark's set-up or its checker, none of
which the test suite runs.
"""

import ast
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


def test_every_bruteforce_reference_of_the_checker_exists():
    checks = load("checks")
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "bf")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "bf")
        )
    }
    assert names
    bf = checks.load_bruteforce(PERFBENCH.parent)
    for name in sorted(names):
        assert callable(getattr(bf, name, None)), f"bf.{name}"
