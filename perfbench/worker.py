"""One cold repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <setup|run|trace> [<trace file>]

run.py starts this with ``PYTHONPATH`` set to the checkout's ``src``. Set-up
imports the package, generates the workload's inputs from the seed, empties
the package's memo caches and checks with ``cache_info()`` that they are
empty, then prints ``ready``. In ``setup`` mode the worker stops there.
Otherwise it runs the workload's ops one at a time, each timed on its own,
and prints one JSON line with the latencies, the outputs run.py checks, the
peak resident memory and, in ``trace`` mode, the per-layer figures.

Every op is a call into the package as a user makes it: ``cli.main`` with
the CLI's own argument list (stdin and stdout swapped for in-memory
buffers), or a library function. An exception from an op is recorded as
that op's outcome; it does not stop the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

import hypermaps
from hypermaps import Permutation, are_isomorphic, from_text, hypermap, pin, quotients, relabel, theta, to_text, walsh
from hypermaps import _kernels
from hypermaps.catalog import CATALOG_NAMES, build_named, cli, oracle, registry

# The memo caches whose state a repetition starts from; all must be empty.
CACHES = {
    "catalog.registry.build_named": registry.build_named,
    "catalog.registry.full_catalog": registry.full_catalog,
    "hypermap.monodromy_group": hypermap.monodromy_group,
    "hypermap._canonical": hypermap._canonical,
    "theta._stab_matched_flags": theta._stab_matched_flags,
    "quotients._stab_and_closure": quotients._stab_and_closure,
}

# ---------------------------------------------------------------- tables
#
# The paper-table reproduction at the sizes the tables are printed for. The
# inputs are the tables themselves, so the seed does not change them.

TABLE_COMMANDS = (
    ("table2", ["verify-table2", "--n-max", "6", "--json"]),
    ("table3", ["verify-table3", "--n-max", "5", "--json"]),
    ("mk", ["verify-mk", "--k-max", "8", "--json"]),
)


def tables_inputs(rng: random.Random) -> list[tuple]:
    return [("cli", name, argv, "") for name, argv in TABLE_COMMANDS]


# ---------------------------------------------------------------- oracle
#
# The exhaustive search of hypermaps with at most 8 flags, in its stages: the
# complete CLI search up to 4 flags, every stage at 6 flags, and at 8 flags
# the full triple scan, the fixed-h0 recount, and canonical classification of
# the spherical triples whose h0 is one of H0_SLICES seeded involutions. Each
# slice holds 2688 triples and meets all 20 classes, because relabelling the
# flags moves any fixed-point-free h0 to any other. Classifying all 105
# slices takes about 70 s, more than one run may last.

H0_SLICES = 6


def oracle_inputs(rng: random.Random) -> list[tuple]:
    ops: list[tuple] = [("cli", "oracle4", ["oracle", "--max-flags", "4", "--json"], "")]
    ops += [("scan", 6), ("classify", 6, None), ("recount", 6), ("scan", 8)]
    ops += [("classify", 8, h0) for h0 in sorted(rng.sample(range(105), H0_SLICES))]
    ops.append(("recount", 8))
    return ops


# ---------------------------------------------------------------- documents
#
# A stream of single-document ops. Random documents are uniform random
# triples of fixed-point-free involutions, redrawn until transitive. Left
# out: random documents of 10 or more flags and the catalog entry
# wal(pin(T)), whose analysis grows past 1.9 GB and ends in MemoryError.

RANDOM_DOCS = {6: 50, 8: 50}
EXCLUDED = ("wal(pin(T))",)
FINITE_TYPES = (
    (2, 3, 3), (3, 2, 3), (3, 3, 2), (2, 3, 4), (4, 3, 2), (3, 4, 2),
    (2, 3, 5), (5, 3, 2), (3, 5, 2), (2, 2, 5), (2, 7, 2), (1, 6, 6),
)
TRANSFORM_SOURCES = ("T", "C", "O", "D", "I", "P5", "P6", "D6", "M4", "M7", "wal(T)", "pin(T)", "dual01(C)", "dual02(D)")
TRANSFORMS_PER_OP = 6
SIGMAS = ("id", "01", "02", "12", "012", "021")
ISO_MAPS_240 = ("pin(dual01(D))", "pin(D)", "pin(dual02(D))", "wal(D)", "wal(dual02(D))", "wal(dual12(D))", "wal(I)")
ISO_RELABELINGS = 4
ISO_MAPS_480 = ("pin(pin(dual01(D)))", "wal(pin(D))")


def random_document(rng: random.Random, n: int) -> str:
    def involution() -> list[int]:
        points = list(range(n))
        rng.shuffle(points)
        img = [0] * n
        for a, b in zip(points[::2], points[1::2]):
            img[a], img[b] = b, a
        return img

    while True:
        rows = [involution() for _ in range(3)]
        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for row in rows:
                if row[x] not in seen:
                    seen.add(row[x])
                    todo.append(row[x])
        if len(seen) == n:
            return f"hypermap {n}\n" + "".join(f"h{i}: {' '.join(map(str, r))}\n" for i, r in enumerate(rows))


def documents_inputs(rng: random.Random) -> list[tuple]:
    analyze = ["analyze", "--json"]
    ops: list[tuple] = []
    for n, count in RANDOM_DOCS.items():
        ops += [("cli", f"analyze.random{n}", analyze, random_document(rng, n)) for _ in range(count)]
    ops += [("cli", "analyze.catalog", analyze, to_text(build_named(name)))
            for name in CATALOG_NAMES if name not in EXCLUDED]
    ops += [("cli", "build.from-type", ["build", "from-type", ",".join(map(str, t))], "")
            for t in FINITE_TYPES]
    for op in ("wal", "pin", "dual"):
        for name in rng.sample(TRANSFORM_SOURCES, TRANSFORMS_PER_OP):
            argv = ["transform", op] + ([rng.choice(SIGMAS)] if op == "dual" else [])
            ops.append(("cli", f"transform.{op}", argv, to_text(build_named(name))))
    for op, forward in (("unwal", walsh), ("unpin", pin)):
        for name in rng.sample(TRANSFORM_SOURCES, TRANSFORMS_PER_OP):
            source = build_named(name)
            ops.append(("cli", f"transform.{op}", ["transform", op], to_text(forward(source)), to_text(source)))
    iso_maps = [name for name in ISO_MAPS_240 for _ in range(ISO_RELABELINGS)] + list(ISO_MAPS_480)
    for name in iso_maps:
        h = build_named(name)
        sigma = list(range(h.n_flags))
        rng.shuffle(sigma)
        ops.append(("iso", to_text(h), sigma))
    rng.shuffle(ops)
    return ops


INPUTS = {"tables": tables_inputs, "oracle": oracle_inputs, "documents": documents_inputs}

# ---------------------------------------------------------------- ops


def call_cli(argv: list[str], stdin_text: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


class Executor:
    """Runs ops; holds the oracle's scan results between its stages.

    Package functions are looked up on their modules at call time
    (``cli.main``, ``_kernels.spherical_triples``), so a traced run goes
    through the tracer's wrappers.
    """

    def __init__(self):
        self.invs: dict[int, object] = {}
        self.triples: dict[int, object] = {}

    def __call__(self, op: tuple) -> dict:
        kind = op[0]
        if kind == "cli":
            return call_cli(op[2], op[3])
        if kind == "iso":
            h = from_text(op[1])
            return {"answer": are_isomorphic(h, relabel(h, Permutation(op[2])))}
        n = op[1]
        if kind == "scan":
            self.invs[n] = oracle.fixed_point_free_involutions(n)
            self.triples[n] = _kernels.spherical_triples(self.invs[n])
            return {"spherical": int(self.triples[n].shape[0])}
        if kind == "classify":
            triples = self.triples[n]
            if op[2] is not None:
                triples = triples[triples[:, 0] == op[2]]
            classes = oracle._classes_from_triples(self.invs[n], triples)
            return {"triples": int(triples.shape[0]), "codes": sorted(key.hex() for key in classes)}
        if kind == "recount":
            return {"classes": oracle._recount_fixed_h0(self.invs[n], n)}
        raise ValueError(f"unknown op {kind!r}")


# Machine-speed probe: interpreter work on numpy scalars, the kind of loop
# the package's canonical codes, orbits and coset enumeration spend their
# time in. The machine's speed drifts by 15-30% over seconds to minutes. In
# the workloads of SCALED, the worker runs a burst of probes between ops,
# one per PROBE_INTERVAL_S of op time, and run.py scales each op's latency
# by the probes of the bursts just before and just after it. The tables
# workload spends its time enumerating large groups, whose speed does not
# follow the probe; scaling widened its spread, so it is not probed.
SCALED = ("oracle", "documents")
PROBE_ITERATIONS = 8_000
PROBE_INTERVAL_S = 0.1
PROBE_BURST_MAX = 50
SETUP_PROBES = 10
PROBE_SCALARS = np.arange(64, dtype=np.int32)


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc ^= int(PROBE_SCALARS[i & 63]) + i
    return time.perf_counter() - t0


def probe_burst(seconds_since_last: float) -> list[float]:
    """One probe per PROBE_INTERVAL_S of work since the last burst."""
    count = min(PROBE_BURST_MAX, max(1, round(seconds_since_last / PROBE_INTERVAL_S)))
    return [probe() for _ in range(count)]


def op_name(op: tuple) -> str:
    if op[0] == "cli":
        return op[1]
    return "iso" if op[0] == "iso" else f"{op[0]}{op[1]}"


def cache_state() -> dict[str, list[int]]:
    return {name: list(fn.cache_info()[:2]) for name, fn in CACHES.items()}


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    src = Path.cwd() / "src"
    if not Path(hypermaps.__file__).resolve().is_relative_to(src.resolve()):
        print(f"hypermaps imported from {hypermaps.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = INPUTS[workload](random.Random(f"{workload}:{seed}"))
    for fn in CACHES.values():
        fn.cache_clear()
    if any(fn.cache_info()[:2] != (0, 0) or fn.cache_info().currsize for fn in CACHES.values()):
        print(f"memo caches not empty at start: {cache_state()}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    scaled = workload in SCALED
    if scaled:
        probe()  # the first call pays for warming up
    bursts = [[probe() for _ in range(SETUP_PROBES if scaled else 0)]]
    if mode == "setup":
        print(json.dumps({"probe_bursts": bursts}))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload}:{seed}:{os.getpid()}")
        tracer.install()
    execute = Executor()
    latencies, outputs, burst_before = [], [], []
    probing = 0.0
    last_burst = start = time.perf_counter()
    for op in ops:
        burst_before.append(len(bursts) - 1)
        t0 = time.perf_counter()
        try:
            with tracer.span(f"op.{op_name(op)}") if tracer else contextlib.nullcontext():
                out = execute(op)
        except Exception as exc:  # an op's failure is its outcome, not the run's
            out = {"exception": f"{type(exc).__name__}: {exc}"[:200]}
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append(out)
        if scaled and t1 - last_burst >= PROBE_INTERVAL_S:
            bursts.append(probe_burst(t1 - last_burst))
            last_burst = time.perf_counter()
            probing += last_burst - t1
    wall = time.perf_counter() - start - probing
    bursts.append(probe_burst(time.perf_counter() - last_burst) if scaled else [])

    result = {
        "probe_bursts": bursts,
        "burst_before": burst_before,
        "wall_s": wall,
        "latencies_s": latencies,
        "ops": [list(op) for op in ops],
        "outputs": outputs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": cache_state(),
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": tracer.self_times(),
            "calls": dict(tracer.calls),
            "errors": dict(tracer.errors),
            "sizes": dict(tracer.sizes),
            "top_level_s": tracer.top_level_s(),
        }
        tracer.write(sys.argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
