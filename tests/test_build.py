"""Coset enumeration, the named builders, and the doubling constructions."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermaps import (
    Degenerate,
    LimitExceeded,
    NoValencyOneClass,
    NotAMap,
    NotBipartite,
    Permutation,
    Presentation,
    are_isomorphic,
    bipartite_type,
    canonical_code,
    dual,
    euler_characteristic,
    is_uniform,
    k_faces,
    relabel,
    surface_class,
    todd_coxeter,
    type_of,
    valencies,
)
from hypermaps import build
from hypermaps.build import (
    build_Dn,
    build_Mk,
    build_platonic,
    build_Pn,
    pin,
    regular_from_type,
    six_duals,
    unpin,
    unwalsh,
    walsh,
)
from hypermaps.catalog.registry import CATALOG_NAMES, build_named
from hypermaps.hypermap import Hypermap, monodromy_group

import bruteforce as bf
from test_benchmark_names import load


def type_relators(l: int, m: int, n: int) -> Presentation:
    return Presentation(relators=(((1, 2) * l), ((2, 0) * m), ((0, 1) * n)))


class TestToddCoxeter:
    def test_spherical_triangle_counts(self):
        assert todd_coxeter(type_relators(2, 3, 3)).n_cosets == 24
        assert todd_coxeter(type_relators(2, 3, 4)).n_cosets == 48
        assert todd_coxeter(type_relators(2, 3, 5)).n_cosets == 120

    def test_dipole_counts(self):
        for k in range(1, 7):
            assert todd_coxeter(type_relators(1, k, k)).n_cosets == 2 * k

    def test_infinite_group_exceeds_limit(self):
        with pytest.raises(LimitExceeded):
            todd_coxeter(type_relators(2, 3, 6), coset_limit=5000)

    def test_limit_names_the_coset_budget(self):
        with pytest.raises(LimitExceeded, match="coset_limit=500 exceeded") as info:
            todd_coxeter(type_relators(2, 3, 6), coset_limit=500)
        assert (info.value.budget, info.value.limit) == ("coset_limit", 500)

    def test_table_is_total_and_symmetric(self):
        table = todd_coxeter(type_relators(2, 2, 3))
        assert table.n_cosets == 12
        for row in table.table.T:
            assert sorted(row.tolist()) == list(range(12))
            assert row[row].tolist() == list(range(12))

    def test_relators_hold_in_the_action(self):
        pres = type_relators(2, 3, 3)
        rows = todd_coxeter(pres).table.T
        for word in pres.relators:
            acc = list(range(rows.shape[1]))
            for g in word:
                acc = rows[g][acc].tolist()
            assert acc == list(range(rows.shape[1]))

    def test_trivializing_relators_collapse_to_one_coset(self):
        pres = Presentation(relators=((0,), (1,), (2,)))
        assert todd_coxeter(pres).n_cosets == 1

    def test_empty_relator_rejected(self):
        with pytest.raises(ValueError):
            Presentation(relators=((),))


def assert_matches_plain_hlt(presentation: Presentation, coset_limit: int = 1_000_000) -> None:
    """todd_coxeter gives plain HLT's table, or both pass the coset limit."""
    reference = bf.todd_coxeter(presentation.relators, coset_limit)
    if reference is None:
        with pytest.raises(LimitExceeded):
            todd_coxeter(presentation, coset_limit)
    else:
        assert tuple(map(tuple, todd_coxeter(presentation, coset_limit).table.tolist())) == reference


def builder_presentations(monkeypatch, builds) -> list[Presentation]:
    """The presentation of every todd_coxeter call the builds make."""
    seen = []

    def spy(presentation, *args):
        seen.append(presentation)
        return todd_coxeter(presentation, *args)

    monkeypatch.setattr(build, "todd_coxeter", spy)
    for make in builds:
        make()
    return seen


def spherical_types(bound: int) -> list[tuple[int, int, int]]:
    """Every (l, m, n) <= bound with 1/l + 1/m + 1/n > 1: a finite group."""
    sides = range(1, bound + 1)
    return [(l, m, n) for l in sides for m in sides for n in sides if m * n + l * n + l * m > l * m * n]


class TestOneScanPerOrbit:
    """Scanning a relator (x y)^k once per <x, y>-orbit leaves the coset
    table that plain HLT (tests/bruteforce.py) gives, scanning every relator
    at every coset."""

    def test_catalog_atoms(self, monkeypatch):
        atoms = [name for name in CATALOG_NAMES if "(" not in name]
        seen = builder_presentations(monkeypatch, [lambda name=name: build_named.__wrapped__(name) for name in atoms])
        assert len(atoms) == len(seen) == 25
        for presentation in seen:
            assert_matches_plain_hlt(presentation)

    def test_benchmark_finite_types(self):
        finite_types = load("worker").FINITE_TYPES
        assert finite_types
        for lmn in finite_types:
            assert_matches_plain_hlt(type_relators(*lmn))

    def test_every_spherical_type_up_to_twelve(self):
        types = spherical_types(12)
        assert len(types) == 443
        for lmn in types:
            assert_matches_plain_hlt(type_relators(*lmn))

    def test_one_face_maps_up_to_sixteen(self, monkeypatch):
        seen = builder_presentations(monkeypatch, [lambda k=k: build_Mk(k) for k in range(1, 17)])
        assert len(seen) == 16
        for presentation in seen:
            assert_matches_plain_hlt(presentation)

    @pytest.mark.parametrize(
        "relators",
        [
            ((0, 1) * 4, (1, 2) * 2, (2, 0) * 2),
            ((0, 1), (1, 2), (2, 0)),
            ((0, 1) * 2, (1, 2) * 3, (2, 0) * 3),
            ((2, 0, 1, 0, 1, 0, 1, 0), (0, 1) * 6),
            ((0, 1, 0), (0, 2) * 3),
            ((0, 1, 2) * 2, (0, 1) * 2, (1, 2) * 2, (2, 0) * 2),
            ((0, 1, 1, 2), (0, 1) * 3),
            ((0, 0), (1, 2) * 3, (0, 2) * 2, (0, 1) * 5, (1, 2) * 6),
            ((1, 0) * 3, (0, 1) * 3, (2, 1) * 2, (0, 2) * 4),
        ],
    )
    def test_presentations(self, relators):
        assert_matches_plain_hlt(Presentation(relators))

    def test_infinite_group_passes_the_limit_at_the_same_point(self):
        for lmn in [(3, 3, 3), (2, 3, 6), (2, 4, 4), (2, 2, 2)]:
            assert_matches_plain_hlt(type_relators(*lmn), coset_limit=400)

    @settings(max_examples=120, deadline=None)
    @given(
        relators=st.lists(
            st.one_of(
                st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 6)).map(
                    lambda xyk: (xyk[0], xyk[1]) * xyk[2]
                ),
                st.lists(st.integers(0, 2), min_size=1, max_size=9).map(tuple),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example(relators=[(0, 1) * 3, (1, 2) * 2, (0, 2) * 3, (2, 1, 0) * 2])
    def test_random_presentations(self, relators):
        assert_matches_plain_hlt(Presentation(tuple(relators)), coset_limit=300)

    def test_long_relator_is_linear(self):
        # (h0 h1)^4000 is scanned at 2 cosets, not at all 16,000: plain HLT
        # took 6.7 to 13 s on 2 shared cores, this about 0.1 s
        start = time.perf_counter()
        h = regular_from_type(2, 2, 4000)
        elapsed = time.perf_counter() - start
        assert h.n_flags == 16_000 and type_of(h).as_tuple() == (2, 2, 4000)
        assert elapsed < 2.0, f"{elapsed:.2f}s (budget 2s)"


class TestRegularFromType:
    def test_order_48_triangle_type(self):
        h = regular_from_type(2, 3, 4)
        assert h.n_flags == 48
        assert are_isomorphic(h, dual(build_platonic("C"), (1, 0, 2)))

    def test_prism_types(self):
        for k in range(1, 7):
            h = regular_from_type(2, 2, k)
            assert h.n_flags == 4 * k
            assert are_isomorphic(h, build_Pn(k))

    def test_dipole_duals(self):
        for k in range(1, 7):
            h = regular_from_type(1, k, k)
            assert h.n_flags == 2 * k
            assert are_isomorphic(h, dual(build_Dn(k), (2, 1, 0)))

    def test_every_result_is_uniform_regular_spherical(self):
        for lmn in [(2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 2, 5), (1, 4, 4)]:
            h = regular_from_type(*lmn)
            assert is_uniform(h)
            assert type_of(h).as_tuple() == lmn
            assert euler_characteristic(h) == 2
            assert monodromy_group(h).order == h.n_flags

    def test_unrealizable_type_collapses(self):
        # relator interaction can force a smaller quotient; the result
        # is still a valid hypermap, just not of the requested type
        h = regular_from_type(1, 1, 2)
        assert h.n_flags == 2
        assert type_of(h).as_tuple() == (1, 1, 1)

    def test_nonpositive_type_rejected(self):
        with pytest.raises(ValueError):
            regular_from_type(0, 2, 2)


class TestBuilders:
    def test_dipole_shapes(self):
        for n in (1, 2, 3, 6):
            h = build_Dn(n)
            assert h.n_flags == 2 * n
            assert type_of(h).as_tuple() == (n, n, 1)
            assert euler_characteristic(h) == 2

    def test_prism_shapes(self):
        for n in (1, 2, 3, 6):
            h = build_Pn(n)
            assert h.n_flags == 4 * n
            assert type_of(h).as_tuple() == (2, 2, n)

    def test_platonic_flag_counts(self):
        expected = {"T": 24, "C": 48, "O": 48, "D": 120, "I": 120}
        for name, count in expected.items():
            assert build_platonic(name).n_flags == count

    def test_octahedron_is_dual_cube(self):
        o = build_platonic("O")
        c = build_platonic("C")
        assert are_isomorphic(o, dual(c, (2, 1, 0)))

    def test_unknown_platonic_rejected(self):
        with pytest.raises(ValueError):
            build_platonic("X")

    def test_one_face_torus_map(self):
        m = build_Mk(3)
        assert m.n_flags == 12
        assert type_of(m).as_tuple() == (3, 2, 6)
        assert surface_class(m).genus == 1
        assert surface_class(m).orientable

    def test_smallest_one_face_map(self):
        # naive recomputation of the shape invariants on the raw triple
        m = build_Mk(1)
        assert m.n_flags == 4
        triple = bf.as_triple(m)
        assert bf.triple_type(triple) == (1, 2, 2)
        assert bf.triple_euler(triple) == 2
        s = surface_class(m)
        assert s.orientable and s.genus == 0

    def test_one_face_maps_have_one_face(self):
        for k in range(1, 9):
            m = build_Mk(k)
            assert m.n_flags == 4 * k
            assert len(k_faces(m, 2)) == 1
            g = monodromy_group(m)
            assert g.order == 4 * k

    def test_bad_parameters_rejected(self):
        for builder in (build_Dn, build_Pn, build_Mk):
            with pytest.raises(ValueError):
                builder(0)


class TestWalsh:
    def test_doubled_tetrahedron_profile(self):
        w = walsh(build_platonic("T"))
        assert w.n_flags == 48
        assert bipartite_type(w).as_tuple() == (2, 3, 2, 6)
        sizes = sorted(len(f) for f in k_faces(w, 0))
        # six hypervertices of valency 2 and four of valency 3
        assert sizes == [4] * 6 + [6] * 4
        assert len(k_faces(w, 1)) == 12
        assert len(k_faces(w, 2)) == 4

    def test_doubled_dipoles(self):
        for n in (1, 2, 3, 5):
            w = walsh(build_Dn(n))
            assert w.n_flags == 4 * n
            assert bipartite_type(w).as_tuple() == (n, n, 2, 2)

    def test_output_is_a_map(self, catalog):
        for name, h in catalog[:20]:
            w = walsh(h)
            prod = w.h0 * w.h2
            assert (prod * prod).is_identity()

    def test_euler_is_preserved(self, catalog):
        for _, h in catalog[:20]:
            assert euler_characteristic(walsh(h)) == euler_characteristic(h)


class TestPin:
    def test_doubled_tetrahedron_profile(self):
        p = pin(build_platonic("T"))
        assert p.n_flags == 48
        assert bipartite_type(p).as_tuple() == (1, 3, 4, 6)
        sizes = sorted(len(f) for f in k_faces(p, 0))
        # twelve valency-1 hypervertices and four of valency 3
        assert sizes == [2] * 12 + [6] * 4
        assert len(k_faces(p, 1)) == 6
        assert len(k_faces(p, 2)) == 4

    def test_doubled_prisms(self):
        for n in (1, 2, 3, 5):
            p = pin(build_Pn(n))
            assert p.n_flags == 8 * n
            assert bipartite_type(p).as_tuple() == (1, 2, 4, 2 * n)

    def test_doubled_dipole_duals(self):
        for n in (2, 3, 4):
            p = pin(dual(build_Dn(n), (0, 2, 1)))
            assert p.n_flags == 4 * n
            assert bipartite_type(p).as_tuple() == (1, n, 2, 2 * n)

    def test_one_color_class_has_valency_one(self, catalog):
        from hypermaps import BIPARTITE, theta_coloring

        for _, h in catalog[:20]:
            p = pin(h)
            colors = theta_coloring(p, BIPARTITE)
            assert colors is not None
            vals = {}
            for face in k_faces(p, 0):
                vals.setdefault(colors[face[0]], set()).add(len(face) // 2)
            assert vals[1] == {1}

    def test_euler_is_preserved(self, catalog):
        for _, h in catalog[:20]:
            assert euler_characteristic(pin(h)) == euler_characteristic(h)


class TestUnwalsh:
    def test_recovers_tetrahedron_map_or_its_dual(self):
        # flag 0's class gives one; relabelling flag 1 (t0 of flag 0) to 0
        # restricts to the other class, which gives the other
        t = build_platonic("T")
        w = walsh(t)
        swap = Permutation.from_cycles(w.n_flags, [(0, 1)])
        codes = {canonical_code(unwalsh(w)), canonical_code(unwalsh(relabel(w, swap)))}
        expected = {canonical_code(t), canonical_code(dual(t, (1, 0, 2)))}
        assert codes == expected

    def test_recovers_dipole(self):
        d = build_Dn(5)
        w = walsh(d)
        h = unwalsh(w)
        assert are_isomorphic(h, d) or are_isomorphic(h, dual(d, (1, 0, 2)))

    def test_rejects_non_bipartite(self):
        with pytest.raises(NotBipartite):
            unwalsh(build_platonic("T"))

    def test_rejects_non_map(self):
        with pytest.raises(NotAMap):
            unwalsh(pin(build_platonic("T")))

    def test_round_trip_on_catalog(self, catalog):
        for _, h in catalog[:15]:
            g = unwalsh(walsh(h))
            assert are_isomorphic(g, h) or are_isomorphic(g, dual(h, (1, 0, 2)))


class TestUnpin:
    def test_recovers_cube(self):
        c = build_platonic("C")
        assert are_isomorphic(unpin(pin(c)), c)

    def test_recovers_dipole_duals(self):
        for n in (2, 3, 5):
            h = dual(build_Dn(n), (2, 1, 0))
            assert are_isomorphic(unpin(pin(h)), h)

    def test_rejects_doubled_dipole_without_valency_one_class(self):
        with pytest.raises(NoValencyOneClass):
            unpin(walsh(build_Dn(3)))

    def test_rejects_non_bipartite(self):
        with pytest.raises(NotBipartite):
            unpin(build_platonic("T"))

    def test_round_trip_on_catalog(self, catalog):
        for _, h in catalog[:15]:
            assert are_isomorphic(unpin(pin(h)), h)


class TestExactImages:
    """The doubles and their inverses flag by flag, against the plain 2w + c
    definitions in bruteforce, on the whole catalog."""

    def test_doubles_match_reference(self, catalog, wal_of, pin_of):
        for name, h in catalog:
            triple = bf.as_triple(h)
            assert bf.as_triple(wal_of[name]) == bf.walsh_triple(triple), name
            assert bf.as_triple(pin_of[name]) == bf.pin_triple(triple), name

    def test_doubles_equal_the_checked_construction(self, catalog):
        # the doubles skip the constructor's checks and derive their faces
        # from h's; the checked constructor must accept them and agree
        for name, h in catalog:
            for double in (walsh(h), pin(h)):
                checked = Hypermap(double.n_flags, *double.generator_matrix())
                assert double == checked, name
                assert np.array_equal(double._faces, checked._faces), name
                assert double._tree is None, name

    def test_unwalsh_inverts_walsh(self, catalog, wal_of):
        for name, h in catalog:
            assert unwalsh(wal_of[name]) == h, name

    def test_unpin_inverts_pin_or_keeps_copy_one(self, catalog, pin_of):
        # when every hypervertex of h has valency 1 both classes of pin(h)
        # qualify, and copy 1, the class without flag 0, is kept
        inverted = 0
        for name, h in catalog:
            got = unpin(pin_of[name])
            if set(valencies(h, 0)) == {1}:
                g1, g2, g0, _ = bf.vertex_class_restriction(bf.as_triple(pin_of[name]), 1)
                assert bf.as_triple(got) == (g0, g1, g2), name
            else:
                assert got == h, name
            inverted += got == h
        assert (len(catalog), inverted) == (63, 56)


class TestSixDuals:
    def test_six_results_with_permuted_types(self):
        h = build_platonic("C")
        base = type_of(h).as_tuple()
        duals = six_duals(h)
        assert len(duals) == 6
        got = sorted(type_of(d).as_tuple() for d in duals)
        import itertools

        expected = sorted(
            tuple(base[s.index(k)] for k in range(3))
            for s in itertools.permutations(range(3))
        )
        assert got == expected

    def test_closed_under_duality(self):
        h = build_Pn(3)
        codes = {canonical_code(d) for d in six_duals(h)}
        for d in six_duals(h):
            for dd in six_duals(d):
                assert canonical_code(dd) in codes
