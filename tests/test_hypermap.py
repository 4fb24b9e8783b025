"""Hypermap core: validation, faces, surfaces, duality, isomorphism, coverings."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermaps import (
    HasFixedPoint,
    Hypermap,
    HypermapType,
    NotInvolution,
    NotTransitive,
    Permutation,
    SurfaceClass,
    are_isomorphic,
    canonical_code,
    canonical_form,
    dual,
    euler_characteristic,
    find_covering,
    from_text,
    is_regular,
    is_uniform,
    k_faces,
    relabel,
    six_duals,
    surface_class,
    to_text,
    type_of,
    valencies,
    validate,
)
from hypermaps import _kernels, hypermap
from hypermaps.build import (
    build_Dn,
    build_Mk,
    build_platonic,
    build_Pn,
    pin,
    regular_from_type,
    unpin,
    unwalsh,
    walsh,
)
from hypermaps.catalog import build_named, verify_table2, verify_table3, verify_theorem_mk
from hypermaps.catalog.cli import main
from hypermaps.hypermap import _canonical, _face_valencies, _parity_coloring, monodromy_group
from hypermaps.perm import orbits
from hypermaps.theta import _stab_matched_flags
from hypermaps.quotients import closure_cover, covering_core

import bruteforce as bf


class TestValidate:
    def test_four_flag_dipole_triple(self):
        # direct cross-check against the builder at n=2
        h = validate(4, [1, 0, 3, 2], [1, 0, 3, 2], [2, 3, 0, 1])
        assert h.n_flags == 4
        assert are_isomorphic(h, build_Dn(2))

    def test_fixed_point_rejected(self):
        with pytest.raises(HasFixedPoint) as info:
            validate(4, [0, 1, 3, 2], [1, 0, 3, 2], [2, 3, 0, 1])
        assert info.value.index == 0

    def test_non_involution_rejected(self):
        with pytest.raises(NotInvolution):
            validate(4, [1, 2, 3, 0], [1, 0, 3, 2], [2, 3, 0, 1])

    def test_two_components_rejected(self):
        a = [1, 0, 3, 2, 5, 4, 7, 6]
        b = [2, 3, 0, 1, 6, 7, 4, 5]
        with pytest.raises(NotTransitive) as info:
            validate(8, a, b, a)
        assert info.value.orbit_count == 2

    @pytest.mark.parametrize(
        "rows, bad",
        [
            (([1.5, 0.5], [1, 0], (1.0, 0.0)), 0),
            (([1, 0], [True, False], [1, 0]), 1),
            (([1, 0], [1, 0], ["1", "0"]), 2),
            (([1, 0], np.array([1, 0], dtype=np.float64), [1, 0]), 1),
        ],
    )
    def test_non_integer_images_rejected(self, rows, bad):
        with pytest.raises(ValueError, match=f"h{bad} has images of dtype .*, not integers"):
            Hypermap(2, *rows)

    @pytest.mark.parametrize(
        "n, rows, message",
        [
            (4, ([1, 0, 3, 2], [1, 0, 3, 4], [2, 3, 0, 1]), "h1 image out of range"),
            (4, ([1, 0, 3, 2], [1, 0, 3, 2], [-1, 3, 0, 1]), "h2 image out of range"),
            (4, ([1, 0], [1, 0, 3, 2], [2, 3, 0, 1]), r"h0 has shape \(2,\)"),
            (4, ([1, 0, 3, 2], [[1, 0, 3, 2]], [2, 3, 0, 1]), r"h1 has shape \(1, 4\)"),
            (4, ([1, 0, 3, 2], Permutation([1, 0]), [2, 3, 0, 1]), r"h1 has shape \(2,\)"),
            (0, ([], [], []), "h0 has shape"),
        ],
    )
    def test_raw_rows_checked_for_shape_and_range(self, n, rows, message):
        with pytest.raises(ValueError, match=message):
            Hypermap(n, *rows)

    def test_in_range_non_bijection_is_not_an_involution(self):
        # the raw rows build no Permutation; the involution check catches it
        with pytest.raises(NotInvolution) as info:
            validate(4, [1, 0, 3, 2], [1, 1, 3, 2], [2, 3, 0, 1])
        assert info.value.index == 1

    def test_odd_flag_count_impossible(self):
        with pytest.raises(Exception):
            validate(3, [1, 0, 2], [1, 0, 2], [1, 0, 2])

    def test_hypermap_is_immutable(self):
        h = build_Dn(2)
        with pytest.raises(AttributeError):
            h.n_flags = 8


class TestKFaces:
    def test_vertices_of_type_233(self):
        h = regular_from_type(2, 3, 3)
        faces = k_faces(h, 0)
        assert len(faces) == 6
        assert all(len(f) == 4 for f in faces)

    def test_dipole_hyperfaces_have_valency_one(self):
        for n in (1, 2, 3, 5):
            h = build_Dn(n)
            faces = k_faces(h, 2)
            assert len(faces) == n
            assert all(len(f) == 2 for f in faces)
            assert valencies(h, 2) == tuple([1] * n)

    def test_map_hyperedges_are_small(self):
        # whenever (h0 h2)^2 = 1 every hyperedge orbit has size 4 or 2
        for h in (walsh(build_platonic("T")), build_platonic("C"), build_Pn(3)):
            prod = h.h0 * h.h2
            assert (prod * prod).is_identity()
            for f in k_faces(h, 1):
                assert len(f) in (2, 4)

    def test_faces_partition_flags(self):
        h = build_platonic("O")
        for k in range(3):
            flat = sorted(x for f in k_faces(h, k) for x in f)
            assert flat == list(range(h.n_flags))

    def test_matches_naive_orbits(self):
        h = build_Pn(4)
        triple = bf.as_triple(h)
        for k, picks in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
            assert list(k_faces(h, k)) == bf.triple_orbits(triple, picks)

    def test_long_relabelled_dipole_matches_naive_orbits(self):
        # D500's faces and flag set have diameters in the hundreds; a random
        # relabelling scatters them, which is where label propagation
        # without root hooking needs as many rounds as the diameter
        h = build_Dn(500)
        sigma = np.random.default_rng(5).permutation(h.n_flags)
        h = relabel(h, Permutation(sigma))
        triple = bf.as_triple(h)
        assert list(orbits(h.h, h.n_flags)) == bf.triple_orbits(triple, (0, 1, 2))
        for k, picks in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
            assert list(k_faces(h, k)) == bf.triple_orbits(triple, picks)
            assert list(orbits([h.h[i] for i in picks], h.n_flags)) == bf.triple_orbits(triple, picks)

    def test_bad_k_rejected(self):
        with pytest.raises(Exception):
            k_faces(build_Dn(2), 3)

    def test_relabel_carries_the_faces(self, catalog):
        # each k-face keeps its flags, renamed, and its least new flag as label;
        # a dual's k-faces are h's sigma^-1(k)-faces
        rng = np.random.default_rng(7)
        for _, h in catalog[::4]:
            for moved in (relabel(h, Permutation(rng.permutation(h.n_flags))), *six_duals(h)):
                fresh = validate(moved.n_flags, *moved.h)
                for k in range(3):
                    assert k_faces(moved, k) == k_faces(fresh, k)


class TestKeptData:
    """Face valencies and parity colorings are computed once per hypermap, on
    first use, and handed out read-only."""

    def test_constructor_keeps_nothing_yet(self):
        # nothing but the transitivity check's tree, which every later use reads
        h = from_text(to_text(build_named("pin(T)")))
        assert h._tree is not None and hypermap._flag_tree(h) is h._tree
        assert h._valencies == {} and h._colorings == {}
        # no builder labels faces: each hypermap does so on its first face read
        made = [h, dual(h, (1, 2, 0)), relabel(h, Permutation(np.roll(np.arange(h.n_flags), 5)))]
        made += [walsh(h), pin(h), closure_cover(h)]
        for g in made:
            assert g._faces is None
        for g, read in zip(made, itertools.cycle((k_faces, valencies))):
            read(g, 1)
            faces = g._faces
            assert faces is not None and faces.shape == (3, g.n_flags) and not faces.flags.writeable
            assert len(k_faces(g, 0)) and len(valencies(g, 2)) and g._faces is faces

    def test_generator_matrix_is_one_read_only_array(self):
        h = from_text(to_text(build_named("pin(T)")))
        rows = h.generator_matrix()
        assert h.generator_matrix() is rows and rows.shape == (3, h.n_flags)
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        for p, row in zip(h.h, rows):
            assert p.images.base is rows and np.array_equal(p.images, row)
        for derived in (dual(h, (1, 0, 2)), relabel(h, Permutation(np.roll(np.arange(h.n_flags), 1)))):
            assert derived.generator_matrix() is derived.generator_matrix()
            assert not derived.generator_matrix().flags.writeable

    def test_text_intake_builds_no_permutation(self, monkeypatch, capsys):
        # rows are checked once, as text, then as one matrix; every builder
        # hands its rows to the same checked constructor
        text = to_text(build_named("wal(pin(D))"))
        t, d = build_platonic("T"), build_Dn(3)
        wal_t, pin_t = walsh(t), pin(t)
        built = []
        init = Permutation.__init__

        def spy_init(self, images):
            built.append(len(images))
            init(self, images)

        monkeypatch.setattr(Permutation, "__init__", spy_init)
        h = from_text(text)
        assert built == [] and to_text(h) == text
        made = [
            walsh(t), pin(t), unwalsh(wal_t), unpin(pin_t), regular_from_type(2, 3, 3), build_Mk(3),
            closure_cover(pin(d)), covering_core(d),
        ]
        assert main(["build", "from-presentation", "bcbc,cacaca,ababab"]) == 0
        assert built == [] and from_text(capsys.readouterr().out).n_flags == 24
        for g in (h, *made):
            rows = g.generator_matrix()
            assert all(g.h[i].images.base is rows for i in range(3))

    def test_valencies_are_kept_read_only(self):
        h = from_text(to_text(build_named("pin(T)")))
        for k in range(3):
            first, vals = _face_valencies(h, k)
            assert _face_valencies(h, k)[0] is first and _face_valencies(h, k)[1] is vals
            for array in (first, vals):
                with pytest.raises(ValueError):
                    array[0] = 0
        assert valencies(h, 0) == tuple(_face_valencies(h, 0)[1].tolist())

    def test_colorings_are_kept_read_only(self):
        h = from_text(to_text(build_named("pin(T)")))
        kept = 0
        for eps in itertools.product((0, 1), repeat=3):
            if eps == (0, 0, 0):
                continue
            colors = _parity_coloring(h, eps)
            assert _parity_coloring(h, eps) is colors
            if colors is not None:
                kept += 1
                with pytest.raises(ValueError):
                    colors[0] = 1
        assert kept >= 2  # pin(T) is bipartite and orientable


class TestEulerCharacteristic:
    def test_spherical_type_233(self):
        h = regular_from_type(2, 3, 3)
        assert euler_characteristic(h) == 6 + 4 + 4 - 12

    def test_doubled_tetrahedron_map(self):
        w = walsh(build_platonic("T"))
        assert w.n_flags == 48
        assert euler_characteristic(w) == 2

    def test_one_face_torus_map(self):
        m = build_Mk(3)
        assert euler_characteristic(m) == 2 + 3 + 1 - 6

    def test_matches_naive(self, catalog):
        for _, h in catalog:
            if h.n_flags <= 240:
                assert euler_characteristic(h) == bf.triple_euler(bf.as_triple(h))


class TestSurfaceClass:
    def test_spherical_means_orientable_genus_zero(self, catalog):
        for _, h in catalog:
            if euler_characteristic(h) == 2:
                s = surface_class(h)
                assert s.orientable and s.genus == 0

    def test_one_face_map_genus_two(self):
        m = build_Mk(4)
        assert type_of(m).as_tuple() == (8, 2, 8)
        assert m.n_flags == 16
        s = surface_class(m)
        assert s.orientable and s.genus == 2

    def test_core_of_doubled_prism_is_torus(self):
        core = covering_core(pin(build_Pn(2)))
        s = surface_class(core)
        assert s.orientable and s.genus == 1

    def test_from_characteristic_validation(self):
        assert SurfaceClass.from_characteristic(2, True).genus == 0
        assert SurfaceClass.from_characteristic(0, False).genus == 2
        with pytest.raises(ValueError):
            SurfaceClass.from_characteristic(1, True)
        with pytest.raises(ValueError):
            SurfaceClass.from_characteristic(4, True)


class TestTypeAndUniform:
    def test_prism_type(self):
        h = build_Pn(3)
        assert type_of(h) == HypermapType(2, 2, 3)
        assert is_uniform(h)

    def test_doubled_tetrahedron_type_is_lcm_not_uniform(self):
        w = walsh(build_platonic("T"))
        assert type_of(w).as_tuple() == (6, 2, 6)
        assert not is_uniform(w)
        assert set(valencies(w, 0)) == {2, 3}

    def test_dipole_type(self):
        for n in (1, 2, 4, 6):
            h = build_Dn(n)
            assert type_of(h).as_tuple() == (n, n, 1)
            assert is_uniform(h)

    def test_type_matches_naive(self, catalog):
        for _, h in catalog:
            if h.n_flags <= 120:
                assert type_of(h).as_tuple() == bf.triple_type(bf.as_triple(h))


class TestDual:
    def test_double_dual_is_identity_bitwise(self):
        h = build_platonic("C")
        d = dual(dual(h, (2, 1, 0)), (2, 1, 0))
        assert d == h

    def test_dual_permutes_type(self):
        t = build_platonic("T")
        assert type_of(t).as_tuple() == (3, 2, 3)
        assert type_of(dual(t, (1, 0, 2))).as_tuple() == (2, 3, 3)

    def test_dual_preserves_surface(self, catalog):
        sigmas = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
        for _, h in catalog:
            if h.n_flags > 240:
                continue
            base = surface_class(h)
            for sigma in sigmas:
                d = dual(h, sigma)
                assert euler_characteristic(d) == base.euler_characteristic
                assert surface_class(d) == base

    def test_dual_by_identity(self):
        h = build_Dn(3)
        assert dual(h, (0, 1, 2)) == h


class TestCanonicalAndIsomorphism:
    def test_relabeling_is_isomorphic(self):
        h = build_Pn(3)
        rng = np.random.default_rng(7)
        sigma = Permutation(rng.permutation(h.n_flags))
        g = relabel(h, sigma)
        assert are_isomorphic(h, g)
        assert canonical_code(h) == canonical_code(g)
        assert relabel(h, canonical_form(h)) == relabel(g, canonical_form(g))

    def test_doubling_absorbs_vertex_edge_swap(self):
        t = build_platonic("T")
        assert are_isomorphic(walsh(dual(t, (1, 0, 2))), walsh(t))

    def test_tetrahedron_map_differs_from_its_dual(self):
        # reference first: exhaustive equivariant-extension search finds
        # no isomorphism between the map and its vertex-edge dual
        t = build_platonic("T")
        d = dual(t, (1, 0, 2))
        assert not bf.isomorphism_exists(bf.as_triple(t), bf.as_triple(d))
        assert not are_isomorphic(t, d)

    def test_isomorphism_is_equivalence(self, catalog):
        small = [(name, h) for name, h in catalog if h.n_flags <= 48][:12]
        for _, a in small:
            assert are_isomorphic(a, a)
        for _, a in small:
            for _, b in small:
                assert are_isomorphic(a, b) == are_isomorphic(b, a)

    def test_different_sizes_never_isomorphic(self):
        assert not are_isomorphic(build_Dn(2), build_Dn(3))


@pytest.fixture(scope="module")
def dual_pairs(catalog):
    """(a, b, equal codes) for the equal-size pairs among the six duals of
    every catalog entry of at most 240 flags."""
    maps = [d for _, h in catalog if h.n_flags <= 240 for d in six_duals(h)]
    codes = [canonical_code(h) for h in maps]
    return [
        (maps[i], maps[j], codes[i] == codes[j])
        for i, j in itertools.combinations(range(len(maps)), 2)
        if maps[i].n_flags == maps[j].n_flags
    ]


def refuse_codes(monkeypatch):
    """Make every canonical code fail; all of them go through _kernels.canonical_codes."""

    def refuse(*args):
        raise AssertionError("a canonical code was computed")

    monkeypatch.setattr(_kernels, "canonical_codes", refuse)
    _canonical.cache_clear()


@st.composite
def transitive_triples(draw, n):
    """Three fixed-point-free involutions on n flags, acting transitively."""
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


@st.composite
def triples_and_relabelling(draw):
    """Two transitive triples on the same 6 to 16 flags, and a relabelling."""
    n = draw(st.sampled_from(range(6, 17, 2)))
    return draw(transitive_triples(n)), draw(transitive_triples(n)), draw(st.permutations(range(n)))


class TestIsomorphismByExtension:
    """are_isomorphic extends flag 0 and computes no canonical code."""

    def test_catalog_dual_pairs_match_codes(self, dual_pairs, monkeypatch):
        assert len(dual_pairs) == 6633
        assert sum(same for _, _, same in dual_pairs) == 1008
        refuse_codes(monkeypatch)
        for a, b, same in dual_pairs:
            assert are_isomorphic(a, b) == same

    def test_table_reproductions_compute_no_code(self, monkeypatch):
        refuse_codes(monkeypatch)
        rows = verify_table2(6) + verify_table3(5) + verify_theorem_mk(8)
        assert len(rows) == 64 + 51 + 8 and all(row.matches for row in rows)

    def test_isomorphism_past_the_first_block(self, extension_block):
        b = build_named("wal(pin(T))")
        a = relabel(b, Permutation(np.random.default_rng(1).permutation(b.n_flags)))
        tb = bf.as_triple(b)
        other = next(d for d in six_duals(a) if not bf.isomorphism_exists(tb, bf.as_triple(d)))
        first = find_covering(b, a)[0]
        assert first > 1
        # blocks of `first` targets: the first isomorphism starts the second block
        extension_block(first * b.n_flags)
        assert are_isomorphic(b, a) and are_isomorphic(a, b)
        assert not are_isomorphic(b, other)

    @settings(max_examples=80, deadline=None)
    @given(case=triples_and_relabelling())
    def test_random_triples_match_reference(self, case):
        s, t, sigma = case
        a, b = validate(len(sigma), *s), validate(len(sigma), *t)
        assert are_isomorphic(a, relabel(a, Permutation(sigma)))
        assert are_isomorphic(a, b) == (bf.canonical_code(s)[0] == bf.canonical_code(t)[0])


class TestFindCovering:
    def test_identity_covering(self):
        h = build_Pn(2)
        psi = find_covering(h, h)
        assert psi is not None
        assert list(psi) == list(range(h.n_flags))

    def test_doubled_tetrahedron_covers_its_regular_quotient(self):
        p = pin(build_platonic("T"))
        small = closure_cover(p)
        assert small.n_flags == 4
        assert type_of(small).as_tuple() == (1, 2, 2)
        psi = find_covering(p, small)
        assert psi is not None
        assert set(psi) == set(range(4))

    def test_tetrahedron_does_not_cover_cube(self):
        # reference first: face valency 3 cannot divide into 4, and the
        # exhaustive extension search agrees there is no covering
        t = build_platonic("T")
        c = build_platonic("C")
        assert not bf.covering_exists(bf.as_triple(t), bf.as_triple(c))
        assert find_covering(t, c) is None

    def test_covering_is_equivariant(self):
        p = pin(build_platonic("T"))
        small = closure_cover(p)
        psi = find_covering(p, small)
        for x in range(p.n_flags):
            for k in range(3):
                assert psi[p.h[k](x)] == small.h[k](psi[x])

    def test_first_hit_in_flag_order(self):
        h = build_Dn(3)
        psi = find_covering(h, h)
        assert psi[0] == 0

    def test_first_consistent_target_matches_reference(self, catalog, extension_block):
        # onto a non-regular map, a relabelled source's flag 0 may have to go
        # elsewhere than flag 0; psi is the extension to the first target the
        # reference finds consistent, scanning targets in increasing order
        rng = np.random.default_rng(7)
        cases = []
        for _, b in catalog:
            if is_regular(b) or monodromy_group(b).order > 576:
                continue
            tb = bf.as_triple(b)
            for a in (b, covering_core(b)):
                a = relabel(a, Permutation(rng.permutation(a.n_flags)))
                ta = bf.as_triple(a)
                hits = (bf.extend_morphism(ta, tb, t) for t in range(b.n_flags))
                cases.append((a, b, next(phi for phi in hits if phi is not None)))
        for a, b, expected in cases:
            assert find_covering(a, b) == expected
        assert any(expected[0] != 0 for _, _, expected in cases)
        # blocks of 48 // a.n_flags targets (at least one): some first hit
        # lies past the first block
        extension_block(48)
        for a, b, expected in cases:
            assert find_covering(a, b) == expected
        assert any(expected[0] >= max(1, 48 // a.n_flags) for a, _, expected in cases)


def first_hit_case(b: Hypermap, t: int, seed: int) -> tuple[Hypermap, Hypermap]:
    """Relabellings (a, b') of b such that the first target of b' to which
    a's flag 0 extends is t: the automorphism orbit of b's flag 0 is moved to
    labels t and up, and a is b' relabelled with flag t becoming flag 0."""
    tb = bf.as_triple(b)
    orbit = {y for y in range(b.n_flags) if bf.extend_morphism(tb, tb, y) is not None}
    rest = [x for x in range(b.n_flags) if x not in orbit]
    assert t <= len(rest)
    order = rest[:t] + sorted(orbit) + rest[t:]  # order[label] is the flag of b
    tau = np.empty(b.n_flags, dtype=np.int64)
    tau[order] = np.arange(b.n_flags)
    b2 = relabel(b, Permutation(tau))
    sigma = np.random.default_rng(seed).permutation(b.n_flags).tolist()
    i = sigma.index(0)
    sigma[i], sigma[t] = sigma[t], 0
    return relabel(b2, Permutation(sigma)), b2


def extension_spy(monkeypatch) -> list[int]:
    """Record the targets of each psi block that hypermap._extensions yields."""
    from hypermaps import hypermap

    blocks: list[int] = []
    real = hypermap._extensions

    def spy(*args, **kwargs):
        for psi, ok in real(*args, **kwargs):
            blocks.append(psi.shape[1])
            yield psi, ok

    monkeypatch.setattr(hypermap, "_extensions", spy)
    return blocks


class TestGrowingBlocks:
    """find_covering scans targets in blocks of 1, 4, 16, ... targets."""

    @pytest.mark.parametrize("t", [0, 1, 4, 5, 20, 21, 72])
    def test_first_hit_in_each_growing_block_matches_reference(self, t):
        # blocks [0], [1..4], [5..20], [21..84]: t is a block's first or last target
        a, b = first_hit_case(build_named("wal(pin(T))"), t, seed=t)
        ta, tb = bf.as_triple(a), bf.as_triple(b)
        expected = next(phi for phi in (bf.extend_morphism(ta, tb, s) for s in range(b.n_flags)) if phi)
        assert expected[0] == t
        assert find_covering(a, b) == expected

    def test_no_covering_scans_every_block(self, monkeypatch, extension_block):
        b = build_named("wal(pin(T))")
        other = next(d for d in six_duals(b) if not bf.isomorphism_exists(bf.as_triple(b), bf.as_triple(d)))
        blocks = extension_spy(monkeypatch)
        assert find_covering(other, b) is None and not are_isomorphic(other, b)
        assert blocks == [1, 4, 16, 64, 11] * 2
        blocks.clear()
        extension_block(10 * b.n_flags)
        assert find_covering(other, b) is None
        assert blocks == [1, 4] + [10] * 9 + [1]

    def test_isomorphism_computes_entries_linear_in_first_hit(self, monkeypatch):
        b = build_named("wal(pin(D))")
        a = relabel(b, Permutation(np.random.default_rng(1).permutation(b.n_flags)))
        t = find_covering(b, a)[0]  # 7, in the third block
        blocks = extension_spy(monkeypatch)
        assert are_isomorphic(b, a)
        # the whole scan, one block of every target, is n_a * n_b = 230,400 entries
        assert sum(blocks) * b.n_flags <= b.n_flags * (4 * t + 1) < b.n_flags**2


class TestMonodromy:
    def test_order_matches_naive_closure(self):
        h = build_Pn(2)
        g = monodromy_group(h)
        assert g.order == len(bf.closure(bf.as_triple(h)))

    def test_regular_map_monodromy_acts_like_flags(self):
        h = build_platonic("T")
        assert monodromy_group(h).order == h.n_flags


class TestMonodromyCache:
    def test_cache_keeps_four_maps(self):
        for n in range(1, 7):
            monodromy_group(build_Pn(n))
        assert monodromy_group.cache_info().currsize == 4


class TestBoundedCaches:
    def test_canonical_and_automorphism_mask_keep_64_maps(self):
        base = build_Pn(3)
        rng = np.random.default_rng(1)
        maps = {relabel(base, Permutation(rng.permutation(base.n_flags))) for _ in range(80)}
        assert len(maps) > 64
        for h in maps:
            canonical_code(h)
            _stab_matched_flags(h)
        assert _canonical.cache_info().currsize == 64
        assert _stab_matched_flags.cache_info().currsize == 64


class TestSerialization:
    def test_text_round_trip(self, catalog):
        for _, h in catalog[:10]:
            assert from_text(to_text(h)) == h

    def test_text_is_stable(self):
        h = build_Dn(2)
        assert to_text(h) == to_text(from_text(to_text(h)))

    def test_malformed_text_rejected(self):
        from hypermaps import ParseError

        with pytest.raises(ParseError):
            from_text("not a document")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("hypermap 4\nh0: 1\u30000 3 2\nh1: 1 0 3 2\nh2: 2 3 0 1\n", 2),  # IDEOGRAPHIC SPACE
            ("hypermap 4\nh0: 1 0 3 2\nh1: 1\xa00 3 2\nh2: 2 3 0 1\n", 3),  # NO-BREAK SPACE
            ("hypermap 4\x1ch0: 1 0 3 2\x1ch1: 1 0 3 2\x1ch2: 2 3 0 1\n", 1),
            ("hypermap 4\x1dh0: 1 0 3 2\x1dh1: 1 0 3 2\x1dh2: 2 3 0 1\n", 1),
            ("hypermap 4\u2028h0: 1 0 3 2\u2028h1: 1 0 3 2\u2028h2: 2 3 0 1\n", 1),
            ("hypermap 4\rh0: 1 0 3 2\rh1: 1 0 3 2\rh2: 2 3 0 1\r", 1),
            ("hypermap 4\nh0: 1 0 3 2\nh1: 1 0 3 2\x0b\nh2: 2 3 0 1\n", 3),
            ("hypermap 4\nh0: 1 0 3 2\nh1: 1 0 3 2\nh2: 2 3 0 1\r\r\n", 4),
            ("\nhypermap 4\nh0: 1 0 3 2\nh1: 1 0 3 2\nh2: 2 3 0 1\x85\n", 5),
        ],
    )
    def test_only_space_and_tab_separate_fields(self, text, line):
        # str.split() and str.splitlines() take these; the format does not
        from hypermaps import ParseError

        with pytest.raises(ParseError, match="is not a separator") as exc:
            from_text(text)
        assert exc.value.line == line

    # The separator rule as a lookahead pattern, the reference for the
    # character class in from_text.
    REFERENCE_SEPARATOR = re.compile(r"\r(?!\n)|(?![ \t\n\r])[\s\x00-\x1f\x7f-\x9f]")

    def test_separator_class_matches_reference_on_every_code_point(self):
        # Both patterns look one character ahead at most, so matching every
        # position of a string that repeats a context around each code point
        # gives the first match of each context on its own.
        every = "".join(map(chr, range(0x110000)))
        contexts = {
            "a{c}b": "a" + "ba".join(every) + "b",
            "a{c}\\n": "a" + "\na".join(every) + "\n",
            "{c}": every,
            "{c}\\r and \\r{c}": "\r" + "\r".join(every) + "\r",
        }
        for name, text in contexts.items():
            found = [m.start() for m in hypermap._FOREIGN_SEPARATOR.finditer(text)]
            assert found == [m.start() for m in self.REFERENCE_SEPARATOR.finditer(text)], name
        # the last character of a text: only a carriage return looks ahead
        for c in ("\r", "\n", " ", "\t", "a", "\x85", "\u3000"):
            for text in (c, c + "\r", "\r" + c, "a" + c):
                ours, ref = (p.search(text) for p in (hypermap._FOREIGN_SEPARATOR, self.REFERENCE_SEPARATOR))
                assert (ours and ours.start()) == (ref and ref.start()), repr(text)

    @pytest.mark.parametrize("c", ["\r", "\x0b", "\x85", "\xa0", "\u2028", "\u3000", "\x00", "\x7f"])
    def test_separator_error_names_the_reference_line_in_crlf_documents(self, c):
        from hypermaps import ParseError

        crlf = to_text(build_Dn(3)).replace("\n", "\r\n")
        assert from_text(crlf) == build_Dn(3)
        for at in range(0, len(crlf) + 1, 3):
            text = crlf[:at] + c + crlf[at:]
            ref = self.REFERENCE_SEPARATOR.search(text)
            with pytest.raises(ParseError, match="is not a separator") as exc:
                from_text(text)
            assert exc.value.line == text.count("\n", 0, ref.start()) + 1
            assert str(exc.value).endswith(f"U+{ord(ref.group()):04X} is not a separator")

    def test_crlf_and_tabs_parse(self):
        h = build_Dn(2)
        text = to_text(h)
        assert from_text(text.replace("\n", "\r\n")) == h
        assert from_text(text.replace(" ", "\t").replace("\n", " \t\n\n")) == h

    @pytest.mark.parametrize(
        "header, h0, line",
        [
            ("hypermap 4", "+1 0 3 2", 2),
            ("hypermap 4", "1 0_0 3 2", 2),
            ("hypermap 4", "\u0661 0 3 2", 2),  # ARABIC-INDIC DIGIT ONE
            ("hypermap 4", "1 -1 3 2", 2),
            ("hypermap +4", "1 0 3 2", 1),
        ],
    )
    def test_only_ascii_decimal_digits(self, header, h0, line):
        # int() takes each of these; the format takes what to_text writes
        from hypermaps import ParseError

        good = "1 0 3 2"
        assert from_text(f"hypermap 4\nh0: {good}\nh1: {good}\nh2: 2 3 0 1\n").n_flags == 4
        with pytest.raises(ParseError) as exc:
            from_text(f"{header}\nh0: {h0}\nh1: {good}\nh2: 2 3 0 1\n")
        assert exc.value.line == line


    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("\n\nhypermap x\nh0: 1 0\nh1: 1 0\nh2: 1 0\n", 3, "expected 'hypermap <n_flags>', got 'hypermap x'"),
            ("hypermap 4\nh0: 1 0 3 2\n\nh1: 1 0 3 9\nh2: 2 3 0 1\n", 4, "h1 image out of range"),
            (
                "hypermap 4\r\n\r\nh0: 1 0 3 2\r\nh1: 1 0 3 2\r\n\r\nh2: 2 3 0\r\n",
                6,
                "h2 has 3 images, expected 4",
            ),
        ],
    )
    def test_errors_name_the_physical_line(self, text, line, message):
        # blank lines count, as in the separator error
        from hypermaps import ParseError

        with pytest.raises(ParseError) as exc:
            from_text(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"


class TestPublicNames:
    def test_every_export_is_listed_in_its_submodule(self):
        # the package re-exports each name with one `from .<submodule> import`
        import ast
        import importlib
        from pathlib import Path

        import hypermaps
        from hypermaps import HypermapsError, errors

        tree = ast.parse(Path(hypermaps.__file__).read_text())
        source = {
            alias.name: node.module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for name in hypermaps.__all__:
            module = importlib.import_module(f"hypermaps.{source[name]}")
            obj = getattr(hypermaps, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
            if module is errors:
                assert isinstance(obj, type) and issubclass(obj, HypermapsError), name
            else:
                assert name in module.__all__, f"{name} is missing from {module.__name__}.__all__"

    def test_every_submodule_export_resolves(self):
        # a stale name in __all__ breaks only `from hypermaps.<module> import *`
        import importlib
        import pkgutil

        import hypermaps

        names = [info.name for info in pkgutil.walk_packages(hypermaps.__path__, "hypermaps.")]
        assert {"hypermaps.perm", "hypermaps.catalog.cli"} <= set(names)
        for module in map(importlib.import_module, ["hypermaps", *names]):
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
