"""Parity-vector colorings, automorphisms, and the bipartite classification."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypermaps import (
    BIPARTITE,
    ORIENTING,
    PARITY_VECTORS,
    BipartiteType,
    NotBipartite,
    NotConservative,
    NotTransitive,
    ParityVector,
    Permutation,
    automorphisms,
    bipartite_type,
    euler_characteristic,
    is_bipartite_chiral,
    is_bipartite_uniform,
    is_regular,
    is_theta_regular,
    relabel,
    theta_coloring,
    theta_preserving_automorphisms,
    validate,
)
from hypermaps import dual, perm, theta
from hypermaps.build import build_Mk, build_platonic, build_Pn, pin, walsh
from hypermaps.catalog import build_named
from hypermaps.hypermap import _extensions
from hypermaps.theta import _stab_matched_flags

import bruteforce as bf


class TestParityVector:
    def test_seven_vectors_in_fixed_order(self):
        assert len(PARITY_VECTORS) == 7
        assert PARITY_VECTORS[0].eps == (1, 0, 0)
        assert PARITY_VECTORS[-1].eps == (1, 1, 1)
        assert len({v.eps for v in PARITY_VECTORS}) == 7

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ParityVector((0, 0, 0))

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            ParityVector((2, 0, 0))

    def test_bits_string(self):
        assert BIPARTITE.bits == "100"
        assert ORIENTING.bits == "111"


class TestThetaColoring:
    def test_doubled_map_splits_evenly(self):
        w = walsh(build_platonic("T"))
        colors = theta_coloring(w, BIPARTITE)
        assert colors is not None
        assert colors.count(0) == 24 and colors.count(1) == 24
        assert colors[0] == 0

    def test_odd_face_valency_blocks_vertex_coloring(self):
        assert theta_coloring(build_platonic("T"), BIPARTITE) is None

    def test_spherical_hypermaps_are_orientable(self, catalog):
        for _, h in catalog:
            if euler_characteristic(h) == 2:
                assert theta_coloring(h, ORIENTING) is not None

    def test_coloring_respects_parity(self, catalog):
        for _, h in catalog[:15]:
            for eps in PARITY_VECTORS:
                colors = theta_coloring(h, eps)
                if colors is None:
                    continue
                for x in range(h.n_flags):
                    for k in range(3):
                        assert colors[h.h[k](x)] == colors[x] ^ eps.eps[k]

    def test_matches_naive_vertex_coloring(self, catalog):
        for _, h in catalog[:15]:
            naive = bf.triple_vertex_coloring(bf.as_triple(h))
            got = theta_coloring(h, BIPARTITE)
            if naive is None:
                assert got is None
            else:
                assert got is not None and list(got) == naive


class TestAutomorphisms:
    def test_regular_spherical_map_has_full_group(self):
        t = build_platonic("T")
        assert automorphisms(t).order == 24 == t.n_flags

    def test_doubled_tetrahedron_count_by_brute_enumeration(self):
        # reference first: exhaustive equivariant extension over all
        # 48 candidate images of flag 0
        p = pin(build_platonic("T"))
        assert bf.automorphism_count(bf.as_triple(p)) == 24
        g = automorphisms(p)
        assert g.order == 24
        # transitive on one 24-flag color class, not on all 48 flags
        assert g.order == p.n_flags // 2

    def test_spherical_eight_flag_counts_match_brute(self, classes8):
        # library and naive enumeration agree on every automorphism
        # count; notably no spherical 8-flag hypermap is asymmetric
        assert len(classes8) == 20
        for hs in classes8.values():
            triple = tuple(tuple(int(v) for v in row) for row in hs)
            h = validate(8, *triple)
            brute = bf.automorphism_count(triple)
            assert brute >= 2
            assert automorphisms(h).order == brute

    def test_asymmetric_eight_flag_hypermaps_exist_off_sphere(self):
        # exhaustive scan of all 8-flag hypermaps, h0 normalized to the
        # standard pairing: asymmetric ones exist, all with euler
        # characteristic below 2, and the library reports trivial groups
        from hypermaps.catalog import fixed_point_free_involutions

        invs = [tuple(int(v) for v in row) for row in fixed_point_free_involutions(8)]
        std = tuple(i ^ 1 for i in range(8))
        asymmetric = []
        for a in invs:
            for b in invs:
                triple = (std, a, b)
                if len(bf.triple_orbits(triple, (0, 1, 2))) != 1:
                    continue
                if bf.automorphism_count(triple) == 1:
                    asymmetric.append(triple)
        assert len(asymmetric) > 0
        assert all(bf.triple_euler(t) < 2 for t in asymmetric)
        for triple in asymmetric[:25]:
            assert automorphisms(validate(8, *triple)).order == 1

    def test_group_elements_commute_with_generators(self):
        w = walsh(build_Pn(2))
        g = automorphisms(w)
        for a in g.elements:
            for hk in w.h:
                assert a * hk == hk * a

    def test_identity_always_present(self, catalog):
        for _, h in catalog[:8]:
            g = automorphisms(h)
            assert g.element(0).is_identity()


class TestRegularity:
    def test_uniform_spherical_prisms_are_regular(self):
        for n in range(1, 7):
            assert is_regular(build_Pn(n))

    def test_doubled_prism_regular_both_ways(self):
        w = walsh(build_Pn(2))
        assert is_theta_regular(w, BIPARTITE)
        assert is_regular(w)

    def test_doubled_tetrahedron_bipartite_regular_only(self):
        p = pin(build_platonic("T"))
        assert is_theta_regular(p, BIPARTITE)
        assert not is_regular(p)

    def test_regular_iff_index_one(self, catalog, mon_order):
        for name, h in catalog:
            if h.n_flags <= 240:
                assert is_regular(h) == (mon_order[name] // h.n_flags == 1)

    def test_theta_regular_needs_coloring(self):
        t = build_platonic("T")
        assert not is_theta_regular(t, BIPARTITE)


class TestBipartiteType:
    def test_doubled_cube(self):
        assert bipartite_type(pin(build_platonic("C"))).as_tuple() == (1, 3, 4, 8)

    def test_doubled_dodecahedron(self):
        assert bipartite_type(walsh(build_platonic("D"))).as_tuple() == (2, 3, 2, 10)

    def test_doubled_prism(self):
        assert bipartite_type(pin(build_Pn(3))).as_tuple() == (1, 2, 4, 6)

    def test_non_bipartite_has_none(self):
        assert bipartite_type(build_platonic("T")) is None

    def test_class_order_is_sorted(self):
        bt = BipartiteType(1, 3, 4, 8)
        assert bt.l1 <= bt.l2
        with pytest.raises(ValueError):
            BipartiteType(3, 1, 4, 8)

    def test_uniform_flag_agrees(self, catalog):
        for _, h in catalog[:20]:
            assert is_bipartite_uniform(h) == (bipartite_type(h) is not None)


class TestBipartiteChiral:
    def test_doubled_tetrahedron_is_chiral(self):
        assert is_bipartite_chiral(pin(build_platonic("T")))

    def test_doubled_prism_is_not(self):
        assert not is_bipartite_chiral(walsh(build_Pn(2)))

    def test_doubled_torus_map_is_chiral(self):
        assert is_bipartite_chiral(walsh(build_Mk(3)))

    def test_requires_bipartite(self):
        with pytest.raises(NotBipartite):
            is_bipartite_chiral(build_platonic("T"))


class TestThetaPreservingAutomorphisms:
    def test_orientation_preserving_half_of_tetrahedron(self):
        t = build_platonic("T")
        plus = theta_preserving_automorphisms(t, ORIENTING)
        assert plus.order == 12

    def test_orientation_preserving_of_vertex_edge_dual_cube(self):
        d = dual(build_platonic("C"), (1, 0, 2))
        plus = theta_preserving_automorphisms(d, ORIENTING)
        assert plus.order == 24

    def test_index_at_most_two(self):
        w = walsh(build_Pn(2))
        full = automorphisms(w)
        kept = theta_preserving_automorphisms(w, BIPARTITE)
        assert full.order % kept.order == 0
        assert full.order // kept.order in (1, 2)

    def test_requires_conservative(self):
        with pytest.raises(NotConservative):
            theta_preserving_automorphisms(build_platonic("T"), BIPARTITE)

    def test_subgroup_of_automorphisms(self):
        w = walsh(build_Pn(3))
        full = {a for a in automorphisms(w).elements}
        kept = theta_preserving_automorphisms(w, BIPARTITE)
        assert all(a in full for a in kept.elements)


# Bipartite-regular and chiral: 4 automorphisms, all keeping flag 0's color.
BIPARTITE_CHIRAL_8 = (
    (7, 3, 4, 1, 2, 6, 5, 0),
    (3, 7, 5, 0, 6, 2, 4, 1),
    (4, 7, 5, 6, 0, 2, 3, 1),
)
# No automorphism but the identity.
ASYMMETRIC_12 = (
    (3, 8, 9, 0, 7, 11, 10, 4, 1, 2, 6, 5),
    (8, 6, 7, 11, 5, 4, 1, 2, 0, 10, 9, 3),
    (1, 0, 3, 2, 5, 4, 7, 6, 11, 10, 9, 8),
)


@st.composite
def transitive_triples(draw, sizes=(6, 8, 10, 12)):
    """Three fixed-point-free involutions on one of sizes flags, acting transitively."""
    n = draw(st.sampled_from(sizes))
    triple = []
    for _ in range(3):
        points = draw(st.permutations(range(n)))
        images = [0] * n
        for a, b in zip(points[::2], points[1::2]):
            images[a], images[b] = b, a
        triple.append(tuple(images))
    try:
        validate(n, *triple)
    except NotTransitive:
        assume(False)
    return tuple(triple)


def assert_mask_matches_reference(h):
    triple = bf.as_triple(h)
    expected = [bf.extend_morphism(triple, triple, x) is not None for x in range(h.n_flags)]
    assert _stab_matched_flags(h).tolist() == expected


class TestExtensionMask:
    def test_catalog_matches_reference(self, catalog, extension_block):
        for _, h in catalog:
            assert_mask_matches_reference(h)
        # 100 entries split the targets of every map over 10 flags into blocks
        extension_block(100)
        for _, h in catalog:
            assert_mask_matches_reference(h)

    def test_examples_are_what_they_claim(self):
        chiral = validate(8, *BIPARTITE_CHIRAL_8)
        assert is_theta_regular(chiral, BIPARTITE) and is_bipartite_chiral(chiral)
        assert automorphisms(chiral).order == bf.automorphism_count(BIPARTITE_CHIRAL_8) == 4
        assert bf.automorphism_count(ASYMMETRIC_12) == 1
        assert automorphisms(validate(12, *ASYMMETRIC_12)).order == 1

    @settings(max_examples=60, deadline=None)
    @given(triple=transitive_triples())
    @example(triple=BIPARTITE_CHIRAL_8)
    @example(triple=ASYMMETRIC_12)
    def test_random_triples_match_reference(self, triple):
        assert_mask_matches_reference(validate(len(triple[0]), *triple))


def random_transitive(rng, n):
    """A seeded random transitive triple of fixed-point-free involutions on n flags."""
    while True:
        rows = []
        for _ in range(3):
            points = rng.permutation(n)
            images = np.empty(n, dtype=np.int64)
            images[points[0::2]], images[points[1::2]] = points[1::2], points[0::2]
            rows.append(images)
        try:
            return validate(n, *rows)
        except NotTransitive:
            pass


# Past 64 flags: one Aut-orbit (M64, regular), two (pin(P20), wal(M16),
# pin(dual01(D))), four (wal(pin(T))), and one per flag (the random maps).
MASK_MAPS = ("M64", "pin(P20)", "wal(M16)", "wal(pin(T))", "pin(dual01(D))")


class TestMatchedFlagsFromOrbits:
    """The mask read off orbits of found automorphisms, against the
    all-target reference, with rounds of the default size and of 8 and 24
    targets (so that every map here takes several rounds), and with
    extension blocks of 100 and 1000 entries that rounds straddle."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(29)
        maps = [build_named(name) for name in MASK_MAPS]
        maps += [random_transitive(rng, n) for n in (96, 130, 176, 240)]
        out = []
        for h in maps:
            triple = bf.as_triple(h)
            out.append((h, [bf.extend_morphism(triple, triple, x) is not None for x in range(h.n_flags)]))
        # pin(dual01(D)) relabelled so that the flags Aut sends 0 to come
        # last: the first rounds find no automorphism
        h, expected = out[4]
        order = sorted(range(h.n_flags), key=lambda x: (x > 0 and expected[x], x))
        sigma = np.argsort(order)
        out.append((relabel(h, Permutation(sigma)), [expected[x] for x in order]))
        return out

    def test_orbit_counts(self, cases):
        counts = [h.n_flags // sum(expected) for h, expected in cases]
        assert counts == [1, 2, 2, 4, 2, 96, 130, 176, 240, 2]
        assert cases[-1][1][:121] == [True] + [False] * 120

    @pytest.mark.parametrize("rounds", [None, 8, 24])
    @pytest.mark.parametrize("block", [None, 100, 1000])
    def test_matches_reference(self, cases, extension_block, monkeypatch, rounds, block):
        if rounds is not None:
            monkeypatch.setattr(theta, "_MATCH_BLOCK", rounds)
        if block is not None:
            extension_block(block)
        _stab_matched_flags.cache_clear()
        for h, expected in cases:
            assert _stab_matched_flags(h).tolist() == expected

    def test_catalog_in_rounds_of_eight(self, catalog, extension_block, monkeypatch):
        monkeypatch.setattr(theta, "_MATCH_BLOCK", 8)
        extension_block(1000)
        for _, h in catalog:
            assert_mask_matches_reference(h)

    def test_doubled_prism_tests_few_targets(self, monkeypatch):
        # pin(P400) has 3,200 flags and two Aut-orbits; the all-target sweep
        # tested all 3,200
        h = build_named("pin(P400)")
        tested = []

        def spy(tree, b_rows, targets, grow=False):
            tested.append(targets.shape[0])
            return _extensions(tree, b_rows, targets, grow)

        monkeypatch.setattr(theta, "_extensions", spy)
        _stab_matched_flags.cache_clear()
        assert int(_stab_matched_flags(h).sum()) == 1600
        assert sum(tested) <= 128
        _stab_matched_flags.cache_clear()


# Bipartite, on the Klein bottle (chi 0): only (1,0,0) colors it.
NON_ORIENTABLE_8 = (
    (2, 3, 0, 1, 7, 6, 5, 4),
    (6, 4, 3, 2, 1, 7, 0, 5),
    (4, 6, 5, 7, 0, 2, 1, 3),
)
# Spherical, not bipartite: only (1,1,1) colors it.
NON_BIPARTITE_8 = (
    (5, 4, 3, 2, 1, 0, 7, 6),
    (2, 3, 0, 1, 5, 4, 7, 6),
    (5, 7, 4, 6, 2, 0, 3, 1),
)


def assert_colorings_match_reference(h):
    triple = bf.as_triple(h)
    for eps in PARITY_VECTORS:
        expected = bf.triple_parity_coloring(triple, eps.eps)
        got = theta_coloring(h, eps)
        assert (got if got is None else list(got)) == expected


class TestParityColorings:
    def test_catalog_matches_reference(self, catalog):
        for _, h in catalog:
            assert_colorings_match_reference(h)

    def test_examples_are_what_they_claim(self):
        klein = validate(8, *NON_ORIENTABLE_8)
        assert euler_characteristic(klein) == 0
        assert theta_coloring(klein, ORIENTING) is None
        assert theta_coloring(klein, BIPARTITE) is not None
        sphere = validate(8, *NON_BIPARTITE_8)
        assert euler_characteristic(sphere) == 2
        assert theta_coloring(sphere, BIPARTITE) is None
        assert theta_coloring(sphere, ORIENTING) is not None

    @settings(max_examples=60, deadline=None)
    @given(triple=transitive_triples(sizes=(6, 8, 10, 12, 14, 16)))
    @example(triple=NON_ORIENTABLE_8)
    @example(triple=NON_BIPARTITE_8)
    def test_random_triples_match_reference(self, triple):
        assert_colorings_match_reference(validate(len(triple[0]), *triple))


class TestGroupFree:
    def test_automorphism_questions_enumerate_no_group(self, catalog, monkeypatch):
        # every group enumeration goes through perm._closure
        def refuse(*args):
            raise AssertionError("a group was enumerated")

        monkeypatch.setattr(perm, "_closure", refuse)
        _stab_matched_flags.cache_clear()
        names = [name for name, _ in catalog]
        assert "wal(pin(T))" in names
        for _, h in catalog:
            is_regular(h)
            for eps in PARITY_VECTORS:
                is_theta_regular(h, eps)
                try:
                    theta_preserving_automorphisms(h, eps)
                except NotConservative:
                    assert theta_coloring(h, eps) is None
            try:
                is_bipartite_chiral(h)
            except NotBipartite:
                assert theta_coloring(h, BIPARTITE) is None
            assert automorphisms(h).order == int(_stab_matched_flags(h).sum())
