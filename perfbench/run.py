"""Benchmark of the hypermaps package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <tables|oracle|documents> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The package runs from ``src/`` and the CLI
is called in-process through ``hypermaps.catalog.cli.main``; nothing is
installed. Workloads (see worker.py for their inputs):

* ``tables``: the three paper-table verifiers through the CLI; an op is a
  verified row (123 per repetition).
* ``oracle``: the exhaustive search up to 8 flags, with the 8-flag
  classification done on seeded h0 slices; an op is a triple scanned
  (1,161,028 per repetition).
* ``documents``: a seeded stream of single-document CLI and library ops.

A repetition runs every op of the workload once, in a fresh interpreter
started from this script, so the package's memo caches start empty. It
runs one worker at a time, closed loop, and starts repetitions until
the next one would end after ``--seconds``; at least one runs. Set-up is
also timed, in untraced runs, in SETUP_SAMPLES extra workers that stop after
set-up.

Times of ``oracle`` and ``documents`` are reported in nominal seconds.
Between ops their workers time bursts of a fixed probe (``worker.probe``).
An op's latency is multiplied by NOMINAL_PROBE_S over the mean probe time
of the bursts just before and just after it; set-up by the same ratio for
the burst that follows it; per-layer times by the ratio for all of the
worker's probes. The machine's speed drifts by 15-30% over seconds to
minutes; the probe follows the drift, while a change to the package leaves
the probe as it is. ``tables`` is not probed (see ``worker.SCALED``) and
its times are as measured. The measured walls and the scales are printed
on stderr.

With ``--trace 0`` the last line of stdout is the end-to-end metrics:

* ``wall_s``: first op start to last op end, without the probes, median
  over repetitions;
* ``ops_per_s``: the workload's ops over ``wall_s``, median;
* ``op_p50_ms``, ``op_p90_ms``: latency of one timed call into the package
  (a document op; a verifier command; an oracle stage or h0 slice),
  nearest-rank percentiles per repetition, median;
* ``ok_frac``: ops that did not fail over ops attempted. A wrong answer, a
  nonzero exit on a valid input or an exception fails an op. For a fixed
  seed it is the same on every run;
* ``setup_s``: interpreter start, import and input generation, median over
  every worker started;
* ``peak_rss_mb``: ``ru_maxrss`` of a repetition's worker, median.

With ``--trace 1`` repetitions alternate untraced and traced, starting
untraced; the last line holds the per-layer metrics of the traced
repetitions (median), named ``<module>.<function>.<quantity>``, the hit
ratio of each memo cache, and ``bench.*`` figures: the untraced and traced wall time,
their difference (the tracing overhead) and the time covered by top-level
op spans. Spans are written to ``perfbench/traces/``.

Outputs are checked after the timed ops (checks.py); ``correct`` is false
when any answer was wrong. Every repetition runs the same ops, so
``attempted`` and ``failed`` count the ops of one repetition, ``failed``
being the most failures any repetition had: for a fixed seed they do not
depend on how many repetitions fit in ``--seconds``. The script exits nonzero without a result when
the package or the test references are missing, or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import LAYERS, SIZES, layer_name

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
TRACE_DIR = HERE / "traces"
SETUP_SAMPLES = 5
# Time the worker's speed probe takes when the machine runs at the speed the
# reported figures are expressed in (measured as typical on the machine the
# baseline comes from).
NOMINAL_PROBE_S = 0.0025
# A run ends within this many seconds even if a worker hangs.
RUN_LIMIT_S = 170
CACHES = (
    "catalog.registry.build_named",
    "hypermap.monodromy_group",
    "hypermap._canonical",
    "theta._stab_matched_flags",
    "quotients._stab_and_closure",
)
CHECKERS = {"tables": checks.check_tables, "oracle": checks.check_oracle}
E2E_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, fn in LAYERS:
        name = layer_name(module, fn)
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
        if name in SIZES:
            units[f"{name}.{SIZES[name][0]}"] = "count"
    units.update({f"{cache}.hit_ratio": "ratio" for cache in CACHES})
    units.update({
        "bench.untraced_wall_s": "s",
        "bench.traced_wall_s": "s",
        "bench.trace_overhead_s": "s",
        "bench.top_level_s": "s",
    })
    return units


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, workload: str, seed: int, mode: str, deadline: float,
               trace_path: Path | None = None) -> dict:
    """One worker from start to exit: its result, set-up time and scaled latencies.

    The worker is killed if it is still running at ``deadline`` (a
    ``time.perf_counter()`` value).
    """
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    argv = [sys.executable, str(WORKER), workload, str(seed), mode]
    if trace_path is not None:
        argv.append(str(trace_path))
    t0 = time.perf_counter()
    # Unbuffered, so reading the ready line reads nothing past it.
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, bufsize=0)
    ready = proc.stdout.readline().strip() == b"ready"
    setup = time.perf_counter() - t0
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} worker still running at the run's time limit") from None
    lines = out.decode().strip().splitlines()
    if not ready or proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    # Without probes (an unscaled workload) every mean is the nominal time.
    means = [sum(burst) / len(burst) if burst else NOMINAL_PROBE_S for burst in result["probe_bursts"]]
    result["setup_s"] = setup * NOMINAL_PROBE_S / means[0]
    if mode != "setup":
        probes = [t for burst in result["probe_bursts"] for t in burst]
        result["scale"] = NOMINAL_PROBE_S * len(probes) / sum(probes) if probes else 1.0
        result["scaled_latencies_s"] = [
            t * 2 * NOMINAL_PROBE_S / (means[b] + means[b + 1])
            for t, b in zip(result["latencies_s"], result["burst_before"])
        ]
    return result


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reps, workers, attempted, failed) -> dict[str, float]:
    """``attempted`` and ``failed`` count the ops of one repetition."""
    med = statistics.median
    walls = [sum(r["scaled_latencies_s"]) for r in reps]
    return {
        "wall_s": med(walls),
        "ops_per_s": med(attempted / wall for wall in walls),
        "op_p50_ms": med(1000 * percentile(r["scaled_latencies_s"], 0.5) for r in reps),
        "op_p90_ms": med(1000 * percentile(r["scaled_latencies_s"], 0.9) for r in reps),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": med(w["setup_s"] for w in workers),
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
    }


def per_layer(untraced, traced) -> dict[str, float]:
    med = statistics.median
    values = {}
    for module, fn in LAYERS:
        name = layer_name(module, fn)
        values[f"{name}.calls"] = med(r["trace"]["calls"].get(name, 0) for r in traced)
        values[f"{name}.self_s"] = med(r["scale"] * r["trace"]["self_s"].get(name, 0.0) for r in traced)
        values[f"{name}.errors"] = med(r["trace"]["errors"].get(name, 0) for r in traced)
        if name in SIZES:
            values[f"{name}.{SIZES[name][0]}"] = med(r["trace"]["sizes"].get(name, 0) for r in traced)
    for cache in CACHES:
        ratios = []
        for r in traced:
            hits, misses = r["caches"][cache]
            ratios.append(hits / (hits + misses) if hits + misses else 0.0)
        values[f"{cache}.hit_ratio"] = med(ratios)
    untraced_wall = med(r["scale"] * r["wall_s"] for r in untraced)
    traced_wall = med(r["scale"] * r["wall_s"] for r in traced)
    values.update({
        "bench.untraced_wall_s": untraced_wall,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": traced_wall - untraced_wall,
        "bench.top_level_s": med(r["scale"] * r["trace"]["top_level_s"] for r in traced),
    })
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["tables", "oracle", "documents"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/hypermaps/__init__.py", "tests/bruteforce.py") if not (root / p).is_file()]
    if missing:
        print(f"run from a checkout of the repository; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    check = CHECKERS.get(args.workload) or checks.make_document_checker(checks.load_bruteforce(root))

    reps = []
    attempted = failed = wrong = 0
    traced = args.trace == 1
    if traced:
        TRACE_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    try:
        while True:
            index = len(reps)
            mode = "trace" if traced and index % 2 else "run"
            trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}-rep{index}.json" if mode == "trace" else None
            t0 = time.perf_counter()
            rep = run_worker(root, args.workload, args.seed, mode, deadline, trace_path)
            rep["elapsed_s"] = time.perf_counter() - t0
            rep["mode"] = mode
            reps.append(rep)
            # Every repetition runs the same ops, and how many repetitions fit
            # in --seconds depends on the machine's speed; so the counts are
            # those of one repetition, with the most failures any one had.
            attempted, f, w = check(rep["ops"], rep["outputs"])
            failed, wrong = max(failed, f), wrong + w
            if traced and index == 0:
                continue  # a traced run needs an untraced and a traced repetition
            if time.perf_counter() - start + rep["elapsed_s"] > args.seconds:
                break
        setups = [] if traced else [
            run_worker(root, args.workload, args.seed, "setup", deadline) for _ in range(SETUP_SAMPLES)
        ]
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    if traced:
        metrics = per_layer([r for r in reps if r["mode"] == "run"], [r for r in reps if r["mode"] == "trace"])
        units = per_layer_units()
    else:
        metrics = end_to_end(reps, reps + setups, attempted, failed)
        units = E2E_UNITS
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    scales = " ".join(f"{r['scale']:.3f}" for r in reps)
    print(
        f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
        f"{failed}/{attempted} failed, {wrong} wrong answers; "
        f"measured walls {walls} s, scales {scales}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
