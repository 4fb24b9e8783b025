"""Monodromy, regular quotients, irregularity, and the analysis report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypermaps import (
    BIPARTITE,
    Degenerate,
    GroupName,
    Hypermap,
    NotBipartite,
    NotBipartiteRegular,
    NotTransitive,
    are_isomorphic,
    automorphisms,
    dual,
    euler_characteristic,
    find_covering,
    from_text,
    generate_group,
    is_regular,
    is_theta_regular,
    normal_closure,
    perm,
    quotient_action,
    recognize_group,
    surface_class,
    type_of,
    validate,
)
from hypermaps import hypermap, quotients, theta, to_text
from hypermaps._kernels import DTYPE
from hypermaps.build import build_Dn, build_Mk, build_platonic, build_Pn, pin, walsh
from hypermaps.catalog import build_named, tables, verify_table1, verify_table2, verify_table3, verify_theorem_mk
from hypermaps.catalog.oracle import fixed_point_free_involutions
from hypermaps.hypermap import _bfs_tree, _extensions, _vertex_class_restriction, monodromy_group
from hypermaps.quotients import (
    QuotientSummary,
    _closure_action,
    _closure_summary,
    _merge,
    _stab_and_closure,
    analyze,
    closure_cover,
    core_summary,
    covering_core,
    irregularity,
)

import bruteforce as bf

SRC = Path(__file__).resolve().parents[1] / "src"

# A valid document whose monodromy group is S4 acting on 6 flags: its closure
# cover has one class, so every generator acts trivially on it.
DEGENERATE_6 = """hypermap 6
h0: 1 0 3 2 5 4
h1: 1 0 4 5 2 3
h2: 2 5 0 4 3 1
"""
# Inputs that pin the three orientability cases of the covering core; the
# degenerate document is the one with a non-orientable h and orientable core.
ORIENTABLE_6 = ((1, 0, 3, 2, 5, 4), (1, 0, 3, 2, 5, 4), (2, 4, 0, 5, 1, 3))
ORIENTABLE_CORE_6 = tuple(tuple(p.images.tolist()) for p in from_text(DEGENERATE_6).h)
NON_ORIENTABLE_CORE_8 = (
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (4, 5, 7, 6, 0, 1, 3, 2),
)
INVOLUTIONS = {n: [tuple(row.tolist()) for row in fixed_point_free_involutions(n)] for n in (6, 8)}
INVOLUTION_ROWS = {n: fixed_point_free_involutions(n) for n in range(4, 13, 2)}
# Both sides of 2|Aut| >= n, where |Mon| and Upsilon are read without Mon:
# bipartite-regular but not regular; (0,1,0)-regular only; regular; and
# |Aut| = 2 on 6 flags.
TWO_ORBIT_SIDES = (
    build_named("pin(D2)"),
    build_named("dual01(pin(T))"),
    build_named("C"),
    from_text(DEGENERATE_6),
)


def assert_matches_group_reference(h):
    """closure_cover and core_summary against the explicit group constructions:
    Mon modulo the normal closure of the flag-0 stabilizer, and the core."""
    mon = monodromy_group(h)
    count, perms = quotient_action(mon, normal_closure(mon, mon.matrix[mon.matrix[:, 0] == 0]))
    if any(p.is_identity() for p in perms):
        with pytest.raises(Degenerate):
            closure_cover(h)
    else:
        assert are_isomorphic(closure_cover(h), Hypermap(count, *perms))
    core = covering_core(h)
    assert core_summary(h) == QuotientSummary(core.n_flags, type_of(core), surface_class(core).genus)


def refuse_enumeration(monkeypatch):
    """Make every group enumeration fail; all of them go through perm._closure."""

    def refuse(*args):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(perm, "_closure", refuse)
    monodromy_group.cache_clear()


def irregularity_or_none(h):
    try:
        return irregularity(h)
    except NotBipartiteRegular:
        return None


@st.composite
def doubled_triples(draw):
    """A random transitive triple of 4 to 12 flags, or its walsh or pin double."""
    n = draw(st.sampled_from(sorted(INVOLUTION_ROWS)))
    rows = INVOLUTION_ROWS[n]
    triple = [rows[draw(st.integers(0, len(rows) - 1))] for _ in range(3)]
    try:
        h = validate(n, *triple)
    except NotTransitive:
        assume(False)
    double = draw(st.sampled_from((None, walsh, pin)))
    return h if double is None else double(h)


@st.composite
def random_hypermaps(draw, sizes=range(2, 17, 2)):
    """A transitive triple of fixed-point-free involutions on 2 to 16 flags
    (or the given sizes), each pairing consecutive points of a random
    ordering."""
    n = draw(st.sampled_from(sizes))
    rows = []
    for _ in range(3):
        order = draw(st.permutations(range(n)))
        img = [0] * n
        for a, b in zip(order[::2], order[1::2]):
            img[a], img[b] = b, a
        rows.append(img)
    try:
        return validate(n, *rows)
    except NotTransitive:
        assume(False)


@st.composite
def quotient_actions(draw):
    """A random hypermap's generator images and their action on the classes
    of the congruence that a few random flag pairs generate; that action
    may fix classes."""
    h = draw(random_hypermaps())
    flag = st.integers(0, h.n_flags - 1)
    pairs = np.array(draw(st.lists(st.tuples(flag, flag), max_size=2)), dtype=DTYPE).reshape(-1, 2).T
    labels = np.unique(_merge(h.generator_matrix(), pairs), return_inverse=True)[1].astype(DTYPE)
    return h.generator_matrix(), _closure_action(h, labels)


@st.composite
def transitive_triples(draw):
    n = draw(st.sampled_from(sorted(INVOLUTIONS)))
    triple = tuple(draw(st.sampled_from(INVOLUTIONS[n])) for _ in range(3))
    try:
        validate(n, *triple)
    except NotTransitive:
        assume(False)
    return triple


class TestMonodromy:
    def test_prism_orders(self):
        for n in (1, 2, 3, 5):
            assert monodromy_group(build_Pn(n)).order == 4 * n

    def test_doubled_tetrahedron_order(self):
        assert monodromy_group(pin(build_platonic("T"))).order == 576

    def test_regular_hypermaps_have_flag_sized_monodromy(self, catalog, mon_order):
        for name, h in catalog:
            if h.n_flags <= 240 and is_regular(h):
                assert mon_order[name] == h.n_flags

    def test_matches_naive_closure(self):
        h = build_Mk(2)
        assert monodromy_group(h).order == len(bf.closure(bf.as_triple(h)))


class TestCoveringCore:
    def test_regular_input_is_its_own_core(self):
        h = build_platonic("T")
        assert are_isomorphic(covering_core(h), h)

    def test_doubled_tetrahedron_core(self):
        core = covering_core(pin(build_platonic("T")))
        assert core.n_flags == 576
        assert type_of(core).as_tuple() == (3, 4, 6)
        s = surface_class(core)
        assert s.orientable and s.genus == 37

    def test_doubled_cube_dual_core(self):
        core = covering_core(walsh(dual(build_platonic("C"), (2, 1, 0))))
        assert core.n_flags == 384
        assert type_of(core).as_tuple() == (4, 2, 6)
        s = surface_class(core)
        assert s.orientable and s.genus == 9

    def test_core_is_regular_and_covers_the_input(self):
        for h in (pin(build_Pn(2)), walsh(build_Dn(3))):
            core = covering_core(h)
            assert is_regular(core)
            assert core.n_flags == monodromy_group(h).order
            psi = find_covering(core, h)
            assert psi is not None

    def test_core_flag_count_is_monodromy_order(self, catalog):
        for _, h in catalog[:12]:
            assert covering_core(h).n_flags == monodromy_group(h).order

    @settings(max_examples=80, deadline=None)
    @given(random_hypermaps(sizes=(2, 6, 10, 14, 18)))
    def test_even_words_have_index_two_when_flags_are_2_mod_4(self, h):
        # each generator is then a product of an odd number of transpositions,
        # so core_summary takes the core as orientable with no second chain
        h0, h1, h2 = h.h
        assert 2 * perm.schreier_sims((h0 * h1, h1 * h2), h.n_flags)[0] == _stab_and_closure(h)[1]
        if not surface_class(h).orientable:
            assert _stab_and_closure(h)[1] > h.n_flags

    def test_regular_non_orientable_summary_enumerates_no_group(self, monkeypatch):
        # a regular input is its own core, so no even-word subgroup is needed
        h = validate(8, *NON_ORIENTABLE_CORE_8)
        assert is_regular(h) and not surface_class(h).orientable
        closure, calls = perm._closure, []

        def spy(*args):
            calls.append(args)
            return closure(*args)

        monkeypatch.setattr(perm, "_closure", spy)
        monodromy_group.cache_clear()
        summary = core_summary(h)
        assert calls == []
        core = covering_core(h)
        assert len(calls) == 1
        assert (summary.flags, summary.genus) == (core.n_flags, surface_class(core).genus)


class TestClosureCover:
    def test_doubled_cube_collapses_to_four_flags(self):
        small = closure_cover(walsh(build_platonic("C")))
        assert small.n_flags == 4
        assert type_of(small).as_tuple() == (1, 2, 2)

    def test_doubled_prisms_collapse_to_double_prisms(self):
        for n in (1, 2, 3):
            small = closure_cover(walsh(build_Pn(n)))
            assert small.n_flags == 8 * n
            assert are_isomorphic(small, build_Pn(2 * n))

    def test_regular_input_is_its_own_cover(self):
        h = build_platonic("D")
        assert are_isomorphic(closure_cover(h), h)

    def test_input_covers_the_closure_cover(self):
        for h in (pin(build_platonic("T")), walsh(build_Dn(4))):
            small = closure_cover(h)
            assert is_regular(small)
            psi = find_covering(h, small)
            assert psi is not None

    def test_cover_flag_count_divides_input(self, catalog):
        for _, h in catalog[:12]:
            small = closure_cover(h)
            assert h.n_flags % small.n_flags == 0

    def test_degenerate_cover_is_typed(self):
        h = from_text(DEGENERATE_6)
        with pytest.raises(Degenerate, match=r"h0, h1, h2 in the closure cover \(class count 1\)"):
            closure_cover(h)
        assert analyze(h).closure_cover is None


class TestMerge:
    """The union-find closure against a fixpoint that rescans every joined
    couple: random permutation rows (not involutions), 0 to 5 random pairs."""

    def test_random_rows_and_pairs_match_reference(self):
        rng = np.random.default_rng(29)
        classes = set()
        for _ in range(300):
            n = int(rng.integers(1, 41))
            rows = np.stack([rng.permutation(n) for _ in range(3)]).astype(DTYPE)
            pairs = rng.integers(0, n, size=(2, int(rng.integers(0, 6)))).astype(DTYPE)
            roots = _merge(rows, pairs)
            assert roots.dtype == DTYPE
            expected = bf.merge_fixpoint(rows.tolist(), list(zip(*pairs.tolist())))
            assert roots.tolist() == list(expected)
            classes.add(min(len(set(expected)), 3))
        assert classes == {1, 2, 3}  # one class, two, and more

    def test_catalog_closures_match_reference(self, catalog):
        for _, h in catalog[:20]:
            rows = h.generator_matrix()
            pairs = np.array([[0, 0], [1, h.n_flags - 1]], dtype=DTYPE)
            expected = bf.merge_fixpoint(rows.tolist(), list(zip(*pairs.tolist())))
            assert _merge(rows, pairs).tolist() == list(expected)


def assert_summary_matches_built_cover(h):
    try:
        cc = closure_cover(h)
    except Degenerate:
        assert _closure_summary(h) is None
    else:
        assert _closure_summary(h) == QuotientSummary(cc.n_flags, type_of(cc), surface_class(cc).genus)


class TestClosureSummary:
    """analyze's closure-cover summary, derived without building the cover."""

    def test_catalog(self, catalog):
        for _, h in catalog:
            assert_summary_matches_built_cover(h)

    def test_examples_cover_every_case(self, catalog):
        # an orientable h has an orientable, non-degenerate closure cover
        extra = [validate(len(t[0]), *t) for t in (ORIENTABLE_CORE_6, NON_ORIENTABLE_CORE_8)]
        cases = set()
        for h in [h for _, h in catalog] + extra:
            cover = None if _closure_summary(h) is None else surface_class(closure_cover(h)).orientable
            cases.add((surface_class(h).orientable, cover))
        assert cases == {(True, True), (False, False), (False, None)}

    @settings(max_examples=80, deadline=None)
    @given(h=random_hypermaps(), double=st.sampled_from((None, walsh, pin)))
    @example(h=validate(6, *ORIENTABLE_CORE_6), double=None)
    @example(h=validate(8, *NON_ORIENTABLE_CORE_8), double=None)
    def test_random_hypermaps(self, h, double):
        assert_summary_matches_built_cover(h if double is None else double(h))


class TestOffTreeExtensionCheck:
    """_extensions tests only the pairs off its spanning tree; ok must be
    what checking every (flag, generator) pair of psi gives."""

    @staticmethod
    def assert_matches_full_check(a, b, grow, reference=True):
        blocks = list(_extensions(_bfs_tree(a), b, np.arange(b.shape[1], dtype=DTYPE), grow=grow))
        psi = np.concatenate([psi for psi, _ in blocks], axis=1)
        ok = np.concatenate([ok for _, ok in blocks])
        full = np.all([psi[a[i]] == b[i][psi] for i in range(3)], axis=(0, 1))
        assert np.array_equal(ok, full)
        if reference:
            ta, tb = (tuple(map(tuple, rows.tolist())) for rows in (a, b))
            for t in range(b.shape[1]):
                phi = bf.extend_morphism(ta, tb, t)
                assert (phi is not None) == ok[t]
                assert phi is None or phi == tuple(psi[:, t].tolist())

    def test_catalog_and_its_duals(self, catalog):
        for _, h in catalog:
            rows = h.generator_matrix()
            for swapped in (rows, rows[[1, 0, 2]], rows[[0, 2, 1]]):
                self.assert_matches_full_check(rows, swapped, grow=False, reference=False)

    def test_action_with_fixed_classes(self):
        # D3 with flags 0 and 1 merged: three classes, some of them fixed
        h = build_Dn(3)
        q = _closure_action(h, np.unique(_merge(h.generator_matrix(), np.array([[0], [1]])), return_inverse=True)[1])
        assert q.shape[1] == 3 and (q == np.arange(3)).any()
        assert not (q == np.arange(3)).all(axis=1).any()
        for a, b in ((q, q), (h.generator_matrix(), q)):
            self.assert_matches_full_check(a, b, grow=False)

    @settings(max_examples=80, deadline=None)
    @given(actions=quotient_actions(), grow=st.booleans())
    def test_random_triples_and_quotient_actions(self, actions, grow):
        rows, q = actions
        for a, b in ((rows, rows), (q, q), (rows, q)):
            self.assert_matches_full_check(a, b, grow)


class TestAgainstGroupReference:
    def test_catalog(self, catalog, mon_order, extension_block):
        small = [h for name, h in catalog if mon_order[name] <= 2500]
        assert len(small) >= 60
        for h in small:
            assert_matches_group_reference(h)
        # 30 entries split the classes of every cover over 5 classes into blocks
        extension_block(30)
        for h in small:
            assert_matches_group_reference(h)

    def test_eight_flag_classes(self, classes8):
        for hs in classes8.values():
            assert_matches_group_reference(validate(8, *hs))

    def test_examples_cover_every_case(self):
        cases = set()
        for triple in (ORIENTABLE_6, ORIENTABLE_CORE_6, NON_ORIENTABLE_CORE_8):
            h = validate(len(triple[0]), *triple)
            cases.add((surface_class(h).orientable, surface_class(covering_core(h)).orientable))
        assert cases == {(True, True), (False, True), (False, False)}

    @settings(max_examples=60, deadline=None)
    @given(triple=transitive_triples())
    @example(triple=ORIENTABLE_6)
    @example(triple=ORIENTABLE_CORE_6)
    @example(triple=NON_ORIENTABLE_CORE_8)
    def test_random_triples(self, triple):
        assert_matches_group_reference(validate(len(triple[0]), *triple))


class TestDerivedMonodromy:
    def test_examples_cover_both_sides(self):
        sides = [2 * automorphisms(h).order >= h.n_flags for h in TWO_ORBIT_SIDES]
        assert sides == [True, True, True, False]
        kinds = [(is_regular(h), is_theta_regular(h, BIPARTITE)) for h in TWO_ORBIT_SIDES[:3]]
        assert kinds == [(False, True), (False, False), (True, True)]

    @settings(max_examples=80, deadline=None)
    @given(h=doubled_triples())
    @example(h=TWO_ORBIT_SIDES[0])
    @example(h=TWO_ORBIT_SIDES[1])
    @example(h=TWO_ORBIT_SIDES[2])
    @example(h=TWO_ORBIT_SIDES[3])
    def test_matches_enumeration(self, h):
        elements = bf.closure(bf.as_triple(h), limit=5000)
        assume(elements is not None)
        assert core_summary(h).flags == analyze(h).monodromy_order == len(elements)
        if is_theta_regular(h, BIPARTITE):
            mon = monodromy_group(h)
            stab = generate_group(mon.matrix[mon.matrix[:, 0] == 0], mon.degree)
            report = irregularity(h)
            assert (report.index, report.group) == (stab.order, recognize_group(stab))


class TestChain:
    """The quotient record on both sides of 2|Aut| >= n, the derived order
    and the Schreier–Sims chain, against enumeration."""

    def test_orders_match_catalog_enumeration(self, catalog, mon_order):
        assert "wal(pin(T))" in mon_order
        sides = set()
        for name, h in catalog:
            assert _stab_and_closure(h)[1] == mon_order[name], name
            sides.add(2 * automorphisms(h).order >= h.n_flags)
        assert sides == {True, False}

    @settings(max_examples=80, deadline=None)
    @given(h=random_hypermaps(sizes=(6, 8)), double=st.sampled_from((None, walsh, pin)))
    @example(h=from_text(DEGENERATE_6), double=None)
    @example(h=TWO_ORBIT_SIDES[0], double=None)
    @example(h=TWO_ORBIT_SIDES[1], double=None)
    def test_closure_classes_are_normal_closure_orbits(self, h, double):
        h = h if double is None else double(h)
        triple = bf.as_triple(h)
        elements = bf.closure(triple, limit=5000)
        assume(elements is not None)
        normal = bf.normal_closure_brute(triple, [g for g in elements if g[0] == 0])
        labels = _stab_and_closure(h)[0]
        for x in range(h.n_flags):
            assert {g[x] for g in normal} == set(np.flatnonzero(labels == labels[x]).tolist())


class TestGroupFree:
    """The table reproductions and every analysis enumerate no group: with
    at most two automorphism orbits |Mon| is derived, with more it comes
    from the Schreier–Sims chain."""

    def test_table_reproductions(self, monkeypatch):
        with monkeypatch.context() as m:
            refuse_enumeration(m)
            rows = verify_table1(6) + verify_table2(6) + verify_table3(5) + verify_theorem_mk(8)
        assert len(rows) == 15 + 64 + 51 + 8 and all(row.matches for row in rows)

    def test_two_orbit_analyses(self, catalog, monkeypatch):
        inputs = [h for _, h in catalog]
        inputs += [double(h) for h in inputs if h.n_flags <= 60 for double in (walsh, pin)]
        inputs = [h for h in inputs if 2 * automorphisms(h).order >= h.n_flags]
        with monkeypatch.context() as m:
            refuse_enumeration(m)
            answers = [(analyze(h), core_summary(h), irregularity_or_none(h)) for h in inputs]
        assert len(inputs) == 160
        for h, (report, core, irr) in zip(inputs, answers):
            assert report.covering_core == core and report.monodromy_order == core.flags
            assert report.irregularity == irr
            mon = monodromy_group(h)
            assert core.flags == mon.order
            if irr is not None:
                stab = generate_group(mon.matrix[mon.matrix[:, 0] == 0], mon.degree)
                assert (irr.index, irr.group) == (stab.order, recognize_group(stab))

    def test_doubled_pin_tetrahedron(self, monkeypatch):
        h = build_named("wal(pin(T))")
        with monkeypatch.context() as m:
            refuse_enumeration(m)
            report = analyze(h)
        assert 2 * automorphisms(h).order < h.n_flags
        assert report.monodromy_order == 331776
        assert report.covering_core == QuotientSummary(331776, type_of(h), 27649)

    @settings(max_examples=60, deadline=None)
    @given(h=random_hypermaps())
    def test_random_analyses(self, h):
        with pytest.MonkeyPatch.context() as m:
            refuse_enumeration(m)
            report = analyze(h)
        elements = bf.closure(bf.as_triple(h), limit=5000)
        assert elements is None or report.monodromy_order == len(elements)


class TestIrregularity:
    def test_doubled_dodecahedron(self):
        report = irregularity(pin(build_platonic("D")))
        assert report.index == 60
        assert report.group == GroupName("Alt5")

    def test_doubled_cube_dual(self):
        report = irregularity(walsh(dual(build_platonic("C"), (0, 2, 1))))
        assert report.index == 24
        assert report.group == GroupName("Sym4")

    def test_doubled_odd_prism(self):
        report = irregularity(pin(build_Pn(3)))
        assert report.index == 6
        assert report.group == GroupName("Dihedral", 3)

    def test_balanced_orders(self):
        for h in (pin(build_platonic("T")), walsh(build_Pn(2)), pin(build_Pn(2))):
            report = irregularity(h)
            assert report.lower_group_order == report.index
            assert report.upper_group_order == report.index

    def test_index_one_iff_regular(self, catalog):
        for _, h in catalog[:15]:
            try:
                report = irregularity(h)
            except NotBipartiteRegular:
                continue
            assert (report.index == 1) == is_regular(h)

    def test_non_bipartite_rejected(self):
        with pytest.raises(NotBipartiteRegular):
            irregularity(build_platonic("T"))

    def test_bipartite_but_irregular_rejected(self, classes8):
        # doubling a non-regular hypermap gives a bipartite hypermap
        # that is not bipartite-regular
        for hs in classes8.values():
            triple = tuple(tuple(int(v) for v in row) for row in hs)
            if bf.automorphism_count(triple) == len(triple[0]):
                continue
            w = walsh(validate(8, *triple))
            with pytest.raises(NotBipartiteRegular):
                irregularity(w)
            return
        raise AssertionError("every 8-flag spherical class counted as regular")

    def test_monodromy_factorization(self):
        h = pin(build_platonic("C"))
        report = irregularity(h)
        assert monodromy_group(h).order == h.n_flags * report.index


class TestUpsilonFromDeckExtension:
    """Upsilon named from the flag-0 cycle lengths of the deck extension
    equals Upsilon recognized from the enumerated deck group."""

    @staticmethod
    def assert_matches_deck_group(h):
        deck = theta._automorphism_group(h, np.flatnonzero(_stab_and_closure(h)[0] == 0))
        report = irregularity(h)
        assert (report.index, report.group) == (deck.order, recognize_group(deck))
        return report.group

    def test_bipartite_regular_catalog_entries(self, catalog, wal_of, pin_of):
        inputs = [h for _, h in catalog] + list(wal_of.values()) + list(pin_of.values())
        inputs = [h for h in inputs if is_theta_regular(h, BIPARTITE)]
        assert len(inputs) == 136
        tags = {self.assert_matches_deck_group(h).tag for h in inputs}
        assert tags == {"Trivial", "Cyclic", "Dihedral", "KleinFour", "Alt4", "Sym4", "Alt5"}

    def test_table3_to_twelve(self):
        exprs = {
            spec.expr.format(n=n)
            for spec in tables._T3_ROWS
            for n in (range(1, 13) if spec.parameterized else (0,))
        }
        assert len(exprs) == 100
        for expr in sorted(exprs):
            self.assert_matches_deck_group(build_named(expr))

    def test_doubled_one_face_maps_to_sixteen(self):
        for k in range(1, 17):
            for double in (walsh, pin):
                self.assert_matches_deck_group(double(build_Mk(k)))


class TestDelta0Monodromy:
    """The group of t1, t2, t0 t1 t0, t0 t2 t0 on the color-0 flags."""

    def test_doubled_tetrahedron_map(self):
        t = build_platonic("T")
        g = generate_group(_vertex_class_restriction(walsh(t)))
        assert g.order == monodromy_group(t).order == 24

    def test_doubled_dodecahedron(self):
        d = build_platonic("D")
        gens = _vertex_class_restriction(pin(d))
        assert generate_group(gens).order == perm.schreier_sims(gens)[0] == monodromy_group(d).order == 120

    def test_doubled_dipoles(self):
        for n in (2, 3, 5):
            assert generate_group(_vertex_class_restriction(walsh(build_Dn(n)))).order == 2 * n

    def test_requires_bipartite(self):
        with pytest.raises(NotBipartite):
            _vertex_class_restriction(build_platonic("T"))

    def test_acts_on_one_color_class(self):
        w = walsh(build_Pn(2))
        g = generate_group(_vertex_class_restriction(w))
        assert g.degree == w.n_flags // 2

    def test_generators_match_definition_on_every_double(self, catalog, wal_of, pin_of):
        for name, _ in catalog:
            for d in (wal_of[name], pin_of[name]):
                expected = bf.vertex_class_restriction(bf.as_triple(d), 0)
                assert tuple(map(tuple, _vertex_class_restriction(d).tolist())) == expected, name


class TestAnalyze:
    def test_doubled_tetrahedron_map_profile(self):
        report = analyze(walsh(build_platonic("T")))
        assert report.bipartite_type.as_tuple() == (2, 3, 2, 6)
        assert report.bipartite_regular
        assert not report.regular
        assert report.irregularity is not None
        assert report.irregularity.index == 12
        assert report.irregularity.group == GroupName("Alt4")
        assert report.covering_core.genus == 25

    def test_regular_prism_profile(self):
        report = analyze(build_Pn(4))
        assert report.uniform
        assert report.regular
        assert report.irregularity is not None
        assert report.irregularity.index == 1
        assert report.bipartite_chiral is False

    def test_one_face_genus_one_map(self):
        # naive euler recomputation pins the genus; the vertex coloring
        # reference confirms non-bipartiteness
        m = build_Mk(2)
        triple = bf.as_triple(m)
        assert bf.triple_euler(triple) == 0
        assert bf.triple_vertex_coloring(triple) is None
        report = analyze(m)
        assert report.surface.genus == 1 and report.surface.orientable
        assert not report.theta_colorable["100"]
        assert report.bipartite_type is None
        assert report.bipartite_chiral is None
        assert report.irregularity is None

    def test_report_is_consistent(self, catalog):
        for _, h in catalog[:10]:
            report = analyze(h)
            assert report.flags == h.n_flags
            assert report.euler_characteristic == euler_characteristic(h)
            assert report.monodromy_order == monodromy_group(h).order
            assert report.regular == is_regular(h)
            assert (report.irregularity is not None) == report.bipartite_regular

    def test_regular_entry_builds_one_hypermap_and_one_all_target_extension(self, monkeypatch):
        # the input is the only hypermap; its closure cover is derived, and
        # regularity, read off the one all-target self-extension, makes the
        # flags the closure classes without a second one
        text = to_text(build_named("P6"))
        built, all_targets = [], []
        init = Hypermap.__init__

        def spy_init(self, *args):
            built.append(args[0])
            init(self, *args)

        def spy_extensions(tree, b_rows, targets, grow=False):
            if targets.shape[0] == b_rows.shape[1]:
                all_targets.append(targets.shape[0])
            return _extensions(tree, b_rows, targets, grow)

        monkeypatch.setattr(Hypermap, "__init__", spy_init)
        for module in (hypermap, theta, quotients):
            monkeypatch.setattr(module, "_extensions", spy_extensions)
        theta._stab_matched_flags.cache_clear()
        _stab_and_closure.cache_clear()
        report = analyze(from_text(text))
        assert report.regular and report.closure_cover.flags == report.flags == 24
        assert built == [24]
        assert all_targets == [24]

    @pytest.mark.parametrize("name", ["P6", "pin(T)", "wal(D)", "D6", "M4", "pin(dual01(D))"])
    def test_analysis_builds_one_tree_per_hypermap(self, monkeypatch, name):
        # the constructor's transitivity check builds the tree from flag 0;
        # parities, automorphisms and Upsilon all read it
        text = to_text(build_named(name))
        trees = []
        real = hypermap._bfs_tree

        def spy(rows):
            trees.append(rows)
            return real(rows)

        # every module that holds its own reference to the tree builder
        for name, module in list(sys.modules.items()):
            if name.startswith("hypermaps") and vars(module).get("_bfs_tree") is real:
                monkeypatch.setattr(module, "_bfs_tree", spy)
        h = from_text(text)
        theta._stab_matched_flags.cache_clear()
        _stab_and_closure.cache_clear()
        analyze(h)
        assert len(trees) == 1 and trees[0] is h.generator_matrix()

    def test_doubled_pin_tetrahedron_fits_in_memory(self):
        # |Mon| = 331776: a normal closure over the group ran out of memory
        # here; the group-free quotients stay well under the limit
        script = (
            "import json\n"
            "from hypermaps.catalog.registry import build_named\n"
            "from hypermaps.quotients import analyze\n"
            "r = analyze(build_named('wal(pin(T))'))\n"
            "print(json.dumps([r.monodromy_order, r.closure_cover.flags,\n"
            "    r.covering_core.flags, r.covering_core.type.as_tuple(), r.covering_core.genus]))\n"
        )
        limit = 1536 * 2**20

        def cap_address_space():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [331776, 4, 331776, [12, 2, 12], 27649]

    def test_large_random_document_is_refused_within_memory(self):
        # A random 240-flag document: Mon is the symmetric or alternating
        # group, whose Schreier–Sims chain needs more work than CHAIN_LIMIT
        # allows; the chain stops there, within memory.
        rng = np.random.default_rng(1)
        rows = np.empty((3, 240), dtype=int)
        for row in rows:
            order = rng.permutation(240)
            row[order[::2]], row[order[1::2]] = order[1::2], order[::2]
        doc = to_text(validate(240, *rows))
        limit = 3_000_000 * 1024

        def cap_address_space():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "hypermaps.catalog.cli", "analyze"],
            input=doc,
            env=env,
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == f"LimitExceeded: CHAIN_LIMIT={perm.CHAIN_LIMIT} exceeded\n"
