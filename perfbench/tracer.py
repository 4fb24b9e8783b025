"""In-memory span recorder for the traced benchmark run.

The tracer wraps package functions from outside the package. The package
imports names directly (``from .perm import orbits``), so each wrapper is
bound in place of the original in every ``hypermaps`` module that holds it,
including module-level dicts of callables such as the registry's wrapper
table. ``Hypermap.__init__`` is wrapped on the class itself.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1. Spans stay in memory until ``write`` is called at the
end of the run. Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["LAYERS", "SIZES", "Tracer", "layer_name"]

# (module relative to the package, function). "Hypermap" means the
# constructor, which validates every input.
LAYERS: tuple[tuple[str, str], ...] = (
    ("perm", "normal_closure"),
    ("perm", "generate_group"),
    ("perm", "quotient_action"),
    ("perm", "recognize_group"),
    ("perm", "orbits"),
    ("_kernels", "canonical_code"),
    ("_kernels", "spherical_triples"),
    ("hypermap", "Hypermap"),
    ("theta", "theta_coloring"),
    ("theta", "automorphisms"),
    ("theta", "is_regular"),
    ("theta", "is_theta_regular"),
    ("theta", "bipartite_type"),
    ("theta", "is_bipartite_uniform"),
    ("theta", "is_bipartite_chiral"),
    ("theta", "theta_preserving_automorphisms"),
    ("build", "todd_coxeter"),
    ("build", "walsh"),
    ("build", "pin"),
    ("build", "unwalsh"),
    ("build", "unpin"),
    ("quotients", "covering_core"),
    ("quotients", "closure_cover"),
    ("quotients", "irregularity"),
    ("quotients", "analyze"),
    ("catalog.cli", "main"),
    ("catalog.oracle", "brute_oracle"),
    ("catalog.oracle", "_classes_from_triples"),
    ("catalog.oracle", "_recount_fixed_h0"),
)

# Sizes summed over calls: layer name -> (quantity, f(result, args)).
SIZES = {
    "perm.generate_group": ("elements", lambda res, args: res.order),
    "perm.normal_closure": ("elements", lambda res, args: res.order),
    "kernels.canonical_code": ("flags", lambda res, args: args[0].shape[1]),
    "build.todd_coxeter": ("cosets", lambda res, args: res.n_cosets),
    "quotients.covering_core": ("flags", lambda res, args: res.n_flags),
}

PACKAGE = "hypermaps"


def layer_name(module: str, function: str) -> str:
    """Metric prefix of a layer; metric names may not start with "_"."""
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Spans, call counts, error counts and sizes of one repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(idx)
            if size is not None:
                self.sizes[name] += int(size[1](result, args))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever the package holds it."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, attr in LAYERS:
            name = layer_name(module_name, attr)
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(home, attr)
            if isinstance(original, type):
                original.__init__ = self._wrap(name, original.__init__)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path) -> None:
        """Spans as JSON: a name table plus rows [name index, start, end, parent]."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": list(names), "spans": rows}, fh)
