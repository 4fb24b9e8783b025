"""Acceptance gate: eight criteria, each printing one PASS/FAIL line.

Budgets are wall-clock seconds of each criterion's own run, on the numpy
kernels. Run with -s (or read failure output) to see the per-criterion
lines.

The verifier rows, the 8-flag oracle report and the catalog-wide law
results are session fixtures (conftest.py) that the other modules read
too, so each is computed once per run. Criteria 5 and 7 read the outcome
of each law of test_properties.LAWS from law_results; run on its own,
this module still runs every law, once.
"""

from __future__ import annotations

import time

import pytest

from hypermaps import (
    euler_characteristic,
    is_regular,
    is_uniform,
    regular_from_type,
    type_of,
)
from hypermaps.catalog import verify_table3, verify_theorem_mk
from hypermaps.hypermap import monodromy_group

from conftest import LawResults


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _laws_verdict(results) -> tuple[bool, str]:
    failed = results.failed()
    held = len(results.laws) - len(failed)
    return not failed, f"{held} of {len(results.laws)} laws hold, failed={failed}"


def test_criterion_1_spherical_regular_families(table1):
    rows, elapsed = table1
    problems = [r.row_id for r in rows if not r.matches]
    # the published list, spelled out independently of the verifier
    expected = [((1, k, k), 2 * k) for k in range(1, 7)]
    expected += [((2, 2, k), 4 * k) for k in range(1, 7)]
    expected += [((2, 3, 3), 24), ((2, 3, 4), 48), ((2, 3, 5), 120)]
    for (l, m, n), flags in expected:
        h = regular_from_type(l, m, n)
        good = (
            h.n_flags == flags
            and is_uniform(h)
            and is_regular(h)
            and euler_characteristic(h) == 2
            and type_of(h).as_tuple() == (l, m, n)
            and monodromy_group(h).order == flags
        )
        if not good:
            problems.append(f"({l},{m},{n})")
    ok = not problems and len(rows) == 15 and elapsed < 5.0
    _verdict(1, ok, f"{len(rows)} rows, problems={problems}, {elapsed:.2f}s (budget 5s)")


def test_criterion_2_bipartite_regular_families(table2):
    rows, elapsed = table2
    bad = [r.row_id for r in rows if not r.matches]
    overlap = [r for r in rows if str(r.row_id).startswith("overlap")]
    ok = not bad and len(rows) == 64 and len(overlap) == 6 and elapsed < 10.0
    _verdict(2, ok, f"{len(rows)} rows, mismatches={bad}, {elapsed:.2f}s (budget 10s)")


def test_criterion_3_quotient_table(table3):
    rows, elapsed = table3
    bad = [r.row_id for r in rows if not r.matches]
    a5 = [r for r in rows if r.computed.get("upsilon") == "Alt5"]
    genera = {r.computed["core_genus"] for r in a5}
    core_sizes = {r.computed["core_flags"] for r in a5}
    biggest = max(r.computed["core_flags"] for r in rows)
    ok = (
        not bad
        and len(rows) == 51
        and len(a5) == 6
        and genera == {841, 1141, 1381, 661}
        and core_sizes == {14400}
        and biggest == 14400
        and elapsed < 300.0
    )
    _verdict(
        3,
        ok,
        f"{len(rows)} rows, mismatches={bad}, A5 genera={sorted(genera)}, "
        f"largest core {biggest} flags, {elapsed:.2f}s (budget 300s)",
    )


def test_criterion_4_one_face_map_theorem(theorem_mk):
    rows, elapsed = theorem_mk
    problems = [r.row_id for r in rows if not r.matches]
    for row in rows:
        k = int(str(row.row_id).split("=")[1])
        g = row.computed["genus"]
        expected_g = (k - 1) // 2 if k % 2 else k // 2
        pattern = (
            g == expected_g
            and row.computed["iota_pin"] == (2 * g + 1 if k % 2 else 4 * g)
            and row.computed["iota_wal"] == (4 * g + 2 if k % 2 else 4 * g)
            and row.computed["ups_wal"] == f"Cyclic({2 * k})"
            and row.computed["ups_pin_order"] == (k if k % 2 else 2 * k)
        )
        if not pattern:
            problems.append(f"pattern at k={k}")
    ok = not problems and len(rows) == 8 and elapsed < 5.0
    _verdict(4, ok, f"{len(rows)} rows, problems={problems}, {elapsed:.2f}s (budget 5s)")


def test_criterion_5_catalog_wide_laws(law_results):
    _verdict(5, *_laws_verdict(law_results))


def test_criterion_6_exhaustive_small_search(oracle8_timed):
    report, elapsed = oracle8_timed
    ok = (
        report.ok
        and report.violations == ()
        and report.sizes == (2, 4, 6, 8)
        and report.class_counts == {2: 1, 4: 3, 6: 6, 8: 20}
        and report.class_counts == report.recount_class_counts
        and elapsed < 300.0
    )
    _verdict(
        6,
        ok,
        f"classes={report.class_counts}, violations={len(report.violations)}, "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_criterion_7_general_classification(table2, table3, theorem_mk, law_results, oracle8_timed):
    """The full classification is not finitely enumerable; its acceptance
    is the conjunction of the family verifications, the catalog-wide laws,
    and the exhaustive small-size search, plus every published row being
    realized constructively."""
    t2_ok = all(r.matches for r in table2[0]) and len(table2[0]) == 64
    t3_ok = all(r.matches for r in table3[0]) and len(table3[0]) == 51
    mk_ok = all(r.matches for r in theorem_mk[0]) and len(theorem_mk[0]) == 8
    laws_ok = not law_results.failed()
    search_ok = oracle8_timed[0].ok
    ok = t2_ok and t3_ok and mk_ok and laws_ok and search_ok
    _verdict(
        7,
        ok,
        "constructive rows "
        f"{'all match' if t2_ok and t3_ok and mk_ok else 'MISMATCH'}, "
        f"laws {'green' if laws_ok else 'RED'}, "
        f"search {'clean' if search_ok else 'DIRTY'}",
    )


def test_criterion_8_tables_at_eight_times_their_printed_range():
    """Table 3 to n = 40 and Theorem M_k to k = 64, 8 times the printed
    sizes; the verifiers at 100 and 128 are a separate timed run (README)."""
    start = time.perf_counter()
    t3 = verify_table3(40)
    mk = verify_theorem_mk(64)
    elapsed = time.perf_counter() - start
    bad = [r.row_id for r in t3 + mk if not r.matches]
    cyclic = all(r.computed["ups_wal"] == f"Cyclic({2 * k})" for k, r in enumerate(mk, 1))
    ok = not bad and len(t3) == 296 and len(mk) == 64 and cyclic and elapsed < 4.0
    _verdict(
        8,
        ok,
        f"{len(t3)} + {len(mk)} rows, mismatches={bad}, {elapsed:.2f}s (budget 4s)",
    )


class TestLawResults:
    """The memo behind criteria 5 and 7, on laws made up here."""

    @staticmethod
    def broken_registry(calls):
        def holds():
            calls.append("holds")

        def broken():
            calls.append("broken")
            raise AssertionError("broken on purpose")

        return {"holds": holds, "broken": broken}

    def test_a_law_runs_once_and_its_exception_is_kept(self):
        calls = []
        results = LawResults(self.broken_registry(calls))
        first = results.outcome("broken")
        assert isinstance(first, AssertionError)
        assert results.outcome("broken") is first
        assert results.failed() == ["broken"]
        assert calls == ["broken", "holds"]

    def test_check_reraises_the_stored_exception(self):
        results = LawResults(self.broken_registry([]))
        with pytest.raises(AssertionError, match="broken on purpose") as raised:
            results.check("broken")
        assert raised.value is results.outcome("broken")
        results.check("holds")

    def test_criterion_5_names_the_failed_law(self, capsys):
        results = LawResults(self.broken_registry([]))
        with pytest.raises(AssertionError, match="broken"):
            _verdict(5, *_laws_verdict(results))
        assert capsys.readouterr().out.startswith("criterion 5: FAIL - 1 of 2 laws hold, failed=['broken']")
