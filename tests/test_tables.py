"""The four published-data verifiers must reproduce every row exactly."""

import pytest

from hypermaps import ParseError
from hypermaps.catalog import CATALOG_NAMES, build_named, full_catalog


def by_id(rows):
    return {row.row_id: row for row in rows}


def assert_all_match(rows):
    bad = [(r.row_id, r.mismatches()) for r in rows if not r.matches]
    assert not bad, f"mismatched rows: {bad}"


class TestRegistry:
    def test_catalog_has_at_least_sixty_entries(self):
        assert len(CATALOG_NAMES) >= 60
        assert len(full_catalog()) == len(CATALOG_NAMES)

    def test_named_builds_are_cached_and_consistent(self):
        a = build_named("wal(T)")
        b = build_named("wal(T)")
        assert a is b

    def test_nested_expressions(self):
        h = build_named("dual02(dual02(P3))")
        assert h == build_named("P3")

    def test_bad_names_rejected(self):
        for bad in ("", "Q3", "wal(", "dual03(T)", "P0", "walsh(T)"):
            with pytest.raises(ParseError):
                build_named(bad)


class TestTable1:
    def test_all_rows_match(self, table1):
        assert_all_match(table1[0])

    def test_row_count(self, table1):
        # two parameterized families at k <= 6 plus three fixed rows
        assert len(table1[0]) == 15

    def test_spot_checks(self, table1):
        rows = by_id(table1[0])
        assert rows["3"].expected["flags"] == 24
        assert rows["3"].expected["mon_order"] == 24
        assert rows["4"].expected["flags"] == 48
        assert rows["5"].expected["flags"] == 120
        assert rows["1[k=4]"].expected["flags"] == 8
        assert rows["2[k=5]"].expected["flags"] == 20


class TestTable2:
    def test_all_rows_match(self, table2):
        assert_all_match(table2[0])

    def test_row_count(self, table2):
        # 16 fixed rows, 7 parameterized at n <= 6, plus 6 overlap rows
        assert len(table2[0]) == 16 + 7 * 6 + 6

    def test_doubled_tetrahedron_row(self, table2):
        row = by_id(table2[0])["14"]
        assert row.expected["vertex_profile"] == ((2, 6), (3, 4))
        assert row.expected["edge_profile"] == (2, 12)
        assert row.expected["face_profile"] == (6, 4)
        assert row.expected["flags"] == 48

    def test_doubled_prism_row_at_n4(self, table2):
        row = by_id(table2[0])["2[n=4]"]
        assert row.expected["vertex_profile"] == ((1, 8), (2, 4))
        assert row.expected["edge_profile"] == (4, 4)
        assert row.expected["face_profile"] == (8, 2)
        assert row.expected["flags"] == 32

    def test_doubled_dipole_row_at_n2(self, table2):
        row = by_id(table2[0])["23[n=2]"]
        assert row.expected["vertex_profile"] == ((2, 1), (2, 1))
        assert row.expected["edge_profile"] == (2, 2)
        assert row.expected["face_profile"] == (2, 2)
        assert row.expected["flags"] == 8

    def test_every_row_is_spherical_and_bipartite_regular(self, table2):
        for row in table2[0]:
            if "chi" in row.expected:
                assert row.expected["chi"] == 2
                assert row.expected["bipartite_regular"] is True


class TestTable3:
    def test_all_rows_match(self, table3):
        assert_all_match(table3[0])

    def test_row_count(self, table3):
        # 16 fixed rows, 7 parameterized at n <= 5
        assert len(table3[0]) == 16 + 7 * 5

    def test_doubled_tetrahedron_row(self, table3):
        row = by_id(table3[0])["6"]
        assert row.expected["cc_type"] == (1, 2, 2)
        assert row.expected["cc_flags"] == 4
        assert row.expected["core_type"] == (3, 4, 6)
        assert row.expected["core_flags"] == 576
        assert row.expected["core_genus"] == 37
        assert row.expected["iota"] == 12
        assert row.expected["upsilon"] == "Alt4"

    def test_doubled_prism_row_at_n2(self, table3):
        row = by_id(table3[0])["2[n=2]"]
        assert row.expected["iota"] == 2
        assert row.expected["upsilon"] == "Cyclic(2)"
        assert row.expected["core_flags"] == 32
        assert row.expected["core_genus"] == 1

    def test_doubled_prism_wal_row_at_n3(self, table3):
        row = by_id(table3[0])["13[n=3]"]
        assert row.expected["iota"] == 1
        assert row.expected["cc_flags"] == 24
        assert row.expected["core_flags"] == 24
        assert row.label == "wal(P3)"

    def test_largest_rows_reach_published_genera(self, table3):
        rows = by_id(table3[0])
        genera = {rows["8"].expected["core_genus"], rows["16"].expected["core_genus"],
                  rows["18"].expected["core_genus"], rows["22"].expected["core_genus"],
                  rows["10"].expected["core_genus"], rows["5"].expected["core_genus"]}
        assert {841, 1141, 1381, 661} <= genera
        assert rows["8"].expected["core_flags"] == 14400


class TestTheoremMk:
    def test_all_rows_match(self, theorem_mk):
        assert_all_match(theorem_mk[0])

    def test_row_count(self, theorem_mk):
        assert len(theorem_mk[0]) == 8

    def test_odd_case(self, theorem_mk):
        row = by_id(theorem_mk[0])["k=3"]
        assert row.expected["genus"] == 1
        assert row.expected["iota_pin"] == 3
        assert row.expected["iota_wal"] == 6
        assert row.expected["ups_wal"] == "Cyclic(6)"
        assert row.expected["ups_pin_order"] == 3

    def test_even_case(self, theorem_mk):
        row = by_id(theorem_mk[0])["k=2"]
        assert row.expected["genus"] == 1
        assert row.expected["iota_pin"] == 4
        assert row.expected["iota_wal"] == 4
        assert row.expected["ups_pin_order"] == 4

    def test_every_mk_is_regular_and_orientable(self, theorem_mk):
        for row in theorem_mk[0]:
            assert row.expected["regular"] is True
            assert row.expected["orientable"] is True
