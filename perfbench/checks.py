"""Output checks for each workload, run by run.py after the timed ops.

Each checker takes the ops and outputs of one repetition and returns
``(attempted, failed, wrong)`` in the workload's units: table rows, oracle
triples, document ops. A wrong answer makes the run incorrect; a refusal
(nonzero exit on a valid input) or an exception fails its op without being
a wrong answer.

Document answers are compared with the naive references in
``tests/bruteforce.py``, which share no code with the package, or with
answers known by construction.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

# Rows each verifier reports at the benchmark's sizes.
TABLE_ROWS = {"table2": 64, "table3": 51, "mk": 8}
# Triples scanned per flag count: (number of fixed-point-free involutions)^3.
TRIPLES = {2: 1, 4: 27, 6: 3375, 8: 1_157_625}
# Spherical triples and isomorphism classes per flag count (the oracle's own
# figures for the search up to 8 flags).
SPHERICAL = {2: 1, 4: 18, 6: 1440, 8: 282_240}
CLASSES = {2: 1, 4: 3, 6: 6, 8: 20}
SLICE_TRIPLES = SPHERICAL[8] // 105

SIGMA_IMAGES = {"id": (0, 1, 2), "01": (1, 0, 2), "02": (2, 1, 0), "12": (0, 2, 1), "012": (1, 2, 0), "021": (2, 0, 1)}


def load_bruteforce(root: Path):
    spec = importlib.util.spec_from_file_location("bruteforce", root / "tests" / "bruteforce.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_document(text: str) -> tuple[tuple[int, ...], ...]:
    """Image rows of a text document, read without the package."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return tuple(tuple(int(x) for x in ln.split(":", 1)[1].split()) for ln in lines[1:4])


def check_tables(ops, outputs) -> tuple[int, int, int]:
    attempted = failed = wrong = 0
    for op, out in zip(ops, outputs):
        expected = TABLE_ROWS[op[1]]
        attempted += expected
        if out.get("rc") not in (0, 2):
            failed += expected
            continue
        rows = json.loads(out["stdout"])
        bad = sum(r["status"] != "match" for r in rows) + abs(expected - len(rows))
        failed += min(bad, expected)
        wrong += bad
    return attempted, failed, wrong


def check_oracle(ops, outputs) -> tuple[int, int, int]:
    """Attempted and failed count triples; a failed stage fails its flag count."""
    failing: set[int] = set()
    wrong = 0
    slice_codes = set()
    for op, out in zip(ops, outputs):
        kind = op[0]
        if "exception" in out:
            failing.add(4 if kind == "cli" else op[1])
            continue
        if kind == "cli":
            n = 4
            ok = out["rc"] == 0
            if ok:
                report = json.loads(out["stdout"])
                ok = (
                    report["ok"]
                    and report["class_counts"] == {str(k): CLASSES[k] for k in (2, 4)}
                    and report["spherical_triples"] == {str(k): SPHERICAL[k] for k in (2, 4)}
                    and report["triples_scanned"] == {str(k): TRIPLES[k] for k in (2, 4)}
                )
        elif kind == "scan":
            n = op[1]
            ok = out["spherical"] == SPHERICAL[n]
        elif kind == "recount":
            n = op[1]
            ok = out["classes"] == CLASSES[n]
        else:
            n = op[1]
            want = SPHERICAL[n] if op[2] is None else SLICE_TRIPLES
            ok = out["triples"] == want and len(out["codes"]) == CLASSES[n]
            if op[2] is not None:
                slice_codes.add(tuple(out["codes"]))
        if not ok:
            failing.add(n)
            wrong += 1
    if len(slice_codes) > 1:  # every h0 slice meets the same classes
        failing.add(8)
        wrong += 1
    failed_sizes = {2, 4} if 4 in failing else set()
    failed_sizes |= failing - {4}
    return sum(TRIPLES.values()), sum(TRIPLES[n] for n in failed_sizes), wrong


class DocumentReference:
    """Reference answers for document ops, computed once per distinct input."""

    def __init__(self, bf):
        self.bf = bf
        self._analysis: dict[str, dict] = {}

    def analysis(self, text: str) -> dict:
        if text not in self._analysis:
            bf = self.bf
            triple = parse_document(text)
            n = len(triple[0])
            self._analysis[text] = {
                "flags": n,
                "type": list(bf.triple_type(triple)),
                "euler_characteristic": bf.triple_euler(triple),
                "monodromy_order": len(bf.closure(triple)),
                "regular": bf.automorphism_count(triple) == n,
            }
        return self._analysis[text]

    def is_hypermap(self, triple) -> bool:
        n = len(triple[0])
        return (
            all(sorted(row) == list(range(n)) for row in triple)
            and all(row[x] != x and row[row[x]] == x for row in triple for x in range(n))
            and len(self.bf.triple_orbits(triple, (0, 1, 2))) == 1
        )

    def answer_ok(self, op, out) -> bool:
        bf = self.bf
        if op[0] == "iso":
            return out["answer"] is True
        name, argv, stdin = op[1], op[2], op[3]
        if name.startswith("analyze"):
            report = json.loads(out["stdout"])
            return all(report[k] == v for k, v in self.analysis(stdin).items())
        result = parse_document(out["stdout"])
        if name == "build.from-type":
            l, m, n = (int(x) for x in argv[2].split(","))
            flags = round(4 / (1 / l + 1 / m + 1 / n - 1))
            return (
                self.is_hypermap(result)
                and len(result[0]) == flags
                and bf.triple_type(result) == (l, m, n)
                and bf.automorphism_count(result) == flags
            )
        source = parse_document(stdin)
        if name in ("transform.wal", "transform.pin"):
            return (
                self.is_hypermap(result)
                and len(result[0]) == 2 * len(source[0])
                and bf.triple_vertex_coloring(result) is not None
            )
        if name == "transform.dual":
            images = SIGMA_IMAGES[argv[2]]
            inv = [0, 0, 0]
            for i, s in enumerate(images):
                inv[s] = i
            return result == tuple(source[inv[k]] for k in range(3))
        # unwal / unpin: the input was built as wal(h) or pin(h); the answer is h.
        return bf.isomorphism_exists(result, parse_document(op[4]))


def make_document_checker(bf):
    reference = DocumentReference(bf)

    def answer_ok(op, out) -> bool:
        try:
            return reference.answer_ok(op, out)
        except (ValueError, KeyError, IndexError, TypeError):  # malformed output
            return False

    def check(ops, outputs) -> tuple[int, int, int]:
        failed = wrong = 0
        for op, out in zip(ops, outputs):
            if "exception" in out or out.get("rc", 0) != 0:
                failed += 1
            elif not answer_ok(op, out):
                failed += 1
                wrong += 1
        return len(ops), failed, wrong

    return check
