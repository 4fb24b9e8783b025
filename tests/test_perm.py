"""Permutation and finite-group layer, checked against naive references."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypermaps import (
    EmptyGenerators,
    FiniteGroup,
    GroupName,
    LimitExceeded,
    NotAMember,
    NotNormal,
    NotTransitive,
    Permutation,
    automorphisms,
    generate_group,
    irregularity,
    normal_closure,
    orbits,
    quotient_action,
    recognize_group,
    validate,
)
from hypermaps import perm as perm_module
from hypermaps.build import build_platonic, pin, regular_from_type, walsh
from hypermaps.perm import schreier_sims
from hypermaps.hypermap import monodromy_group

import bruteforce as bf


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, cycles)


class TestPermutation:
    def test_identity_and_call(self):
        e = Permutation.identity(5)
        assert [e(i) for i in range(5)] == list(range(5))
        assert e.is_identity()

    def test_composition_is_left_to_right(self):
        a = Permutation([1, 0, 2])
        b = Permutation([0, 2, 1])
        # (a*b)(0) = b(a(0)) = b(1) = 2
        assert (a * b)(0) == 2
        assert list((a * b).images) == [bf.compose((1, 0, 2), (0, 2, 1))[i] for i in range(3)]

    def test_inverse_and_power(self):
        c = perm((0, 1, 2, 3), degree=5)
        assert (c * ~c).is_identity()
        assert c ** 4 == Permutation.identity(5)
        assert c ** -1 == ~c
        assert c ** 3 == ~c

    def test_order_matches_naive(self):
        c = perm((0, 1, 2), (3, 4), degree=6)
        assert c.order() == 6
        assert c.order() == bf.perm_order(tuple(int(v) for v in c.images))

    def test_involution_and_fixed_points(self):
        t = perm((0, 1), degree=4)
        assert t.is_involution()
        assert list(t.fixed_points()) == [2, 3]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    @pytest.mark.parametrize(
        "images", [[1.9, 0.2], [1.0, 0.0], ["1", "0"], [True, False], np.array([1, 0], dtype=np.float32)]
    )
    def test_rejects_non_integer_images(self, images):
        with pytest.raises(ValueError, match="not integers"):
            Permutation(images)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.uint64])
    def test_accepts_every_integer_dtype(self, dtype):
        assert Permutation(np.array([2, 0, 1], dtype=dtype)) == perm((0, 2, 1), degree=3)

    def test_rejects_out_of_range_before_narrowing(self):
        # 2**32 would wrap to 0 in the 32-bit image array
        with pytest.raises(ValueError, match="out of range"):
            Permutation([2**32, 1])

    def test_conjugation(self):
        a = perm((0, 1), degree=3)
        g = perm((0, 1, 2), degree=3)
        assert a.conjugated_by(g) == ~g * a * g


class TestGenerateGroup:
    def test_klein_four_from_commuting_involutions(self):
        g = generate_group([perm((0, 1), (2, 3), degree=4), perm((0, 3), (1, 2), degree=4)])
        assert g.order == 4
        assert sorted(int(o) for o in g.element_orders()) == [1, 2, 2, 2]

    def test_full_monodromy_of_24_flag_map(self):
        h = build_platonic("T")
        g = monodromy_group(h)
        assert g.order == 24
        # naive closure over the same three involutions agrees
        naive = bf.closure([tuple(int(v) for v in p.images) for p in h.h])
        assert len(naive) == 24

    def test_single_cycle(self):
        g = generate_group([perm((0, 1, 2), degree=3)])
        assert g.order == 3

    def test_empty_generators_rejected(self):
        with pytest.raises(EmptyGenerators):
            generate_group([])

    def test_order_limit_is_an_explicit_budget(self, monkeypatch):
        # S5 has 120 elements; the budget is checked after each closure round
        gens = [perm((0, 1), degree=5), perm((0, 1, 2, 3, 4), degree=5)]
        monkeypatch.setattr(perm_module, "ORDER_LIMIT", 120)
        assert generate_group(gens).order == 120
        monkeypatch.setattr(perm_module, "ORDER_LIMIT", 119)
        with pytest.raises(LimitExceeded, match="ORDER_LIMIT=119 exceeded") as info:
            generate_group(gens)
        assert (info.value.budget, info.value.limit) == ("ORDER_LIMIT", 119)

    def test_byte_limit_is_checked_before_a_round(self, monkeypatch):
        # S5 on 5 points, 20 bytes an element: its largest round keeps 107
        # elements and gathers 2 x 19 candidates, (107 + 38) x 20 = 2,900 bytes
        gens = [perm((0, 1), degree=5), perm((0, 1, 2, 3, 4), degree=5)]
        monkeypatch.setattr(perm_module, "BYTE_LIMIT", 2900)
        assert generate_group(gens).order == 120
        monkeypatch.setattr(perm_module, "BYTE_LIMIT", 2899)
        with pytest.raises(LimitExceeded, match="BYTE_LIMIT=2899 exceeded") as info:
            generate_group(gens)
        assert (info.value.budget, info.value.limit) == ("BYTE_LIMIT", 2899)

    def test_identity_first_and_membership(self):
        g = generate_group([perm((0, 1, 2), degree=3)])
        assert g.element(0).is_identity()
        assert perm((0, 2, 1), degree=3) in g
        assert Permutation([1, 0, 2]) not in g


class TestOrbits:
    def test_vertex_orbits_of_24_flag_map(self):
        h = regular_from_type(2, 3, 3)
        assert len(orbits([h.h1, h.h2], h.n_flags)) == 6
        assert len(orbits([h.h0, h.h1], h.n_flags)) == 4

    def test_no_generators_gives_singletons(self):
        assert orbits([], 4) == ((0,), (1,), (2,), (3,))

    def test_orbit_stabilizer_product(self):
        g = generate_group(bf.dihedral_gens(6), degree=6)
        orb = orbits(list(g.generators), 6)[0]
        assert len(orb) * np.count_nonzero(g.matrix[:, 0] == 0) == g.order


@st.composite
def chain_inputs(draw):
    """A transitive triple of fixed-point-free involutions on 2 to 10 flags,
    or its walsh or pin double, as rows."""
    n = draw(st.sampled_from(range(2, 11, 2)))
    rows = []
    for _ in range(3):
        order = draw(st.permutations(range(n)))
        img = [0] * n
        for a, b in zip(order[::2], order[1::2]):
            img[a], img[b] = b, a
        rows.append(img)
    try:
        h = validate(n, *rows)
    except NotTransitive:
        assume(False)
    double = draw(st.sampled_from((None, walsh, pin)))
    return bf.as_triple(h if double is None else double(h))


class TestSchreierSims:
    @settings(max_examples=80, deadline=None)
    @given(triple=chain_inputs())
    def test_orders_and_stabilizer_match_enumeration(self, triple):
        # Mon and the even words <h0 h1, h1 h2>, wherever the closure fits
        h0, h1, h2 = triple
        for gens in (triple, (bf.compose(h0, h1), bf.compose(h1, h2))):
            elements = bf.closure(gens, limit=5000)
            if elements is None:
                continue
            order, stab = schreier_sims(gens, len(h0))
            assert order == len(elements)
            assert stab.shape[1] == len(h0) and not stab.flags.writeable
            reached = bf.closure([tuple(s) for s in stab.tolist()] or [bf.identity(len(h0))])
            assert reached == {g for g in elements if g[0] == 0}

    def test_base_points_past_a_fixed_zero(self):
        # every generator fixes 0: the stabilizer is the whole group
        gens = [perm((1, 2), degree=4), perm((2, 3), degree=4)]
        order, stab = schreier_sims(gens)
        assert order == 6
        assert bf.closure([tuple(s) for s in stab.tolist()]) == bf.closure([tuple(g.images.tolist()) for g in gens])
        assert schreier_sims([Permutation.identity(3)])[0] == 1

    def test_chain_limit_is_an_explicit_budget(self, monkeypatch):
        # the chain of S5 from a transposition and a 5-cycle costs 64
        # products of degree 5
        gens = [perm((0, 1), degree=5), perm((0, 1, 2, 3, 4), degree=5)]
        monkeypatch.setattr(perm_module, "CHAIN_LIMIT", 320)
        assert schreier_sims(gens)[0] == 120
        monkeypatch.setattr(perm_module, "CHAIN_LIMIT", 319)
        with pytest.raises(LimitExceeded, match="CHAIN_LIMIT=319 exceeded") as info:
            schreier_sims(gens)
        assert (info.value.budget, info.value.limit) == ("CHAIN_LIMIT", 319)


class TestPointStabilizer:
    """Stabilizer orders read off the enumeration."""

    def test_regular_action_has_trivial_stabilizer(self):
        g = generate_group([perm((0, 1, 2, 3, 4), degree=5)])
        assert np.count_nonzero(g.matrix[:, 2] == 2) == 1

    def test_natural_dihedral_stabilizer_has_order_two(self):
        for n in (3, 4, 5):
            g = generate_group(bf.dihedral_gens(n), degree=n)
            assert np.count_nonzero(g.matrix[:, 0] == 0) == 2

    def test_flag_stabilizer_of_doubled_tetrahedron(self):
        g = monodromy_group(pin(build_platonic("T")))
        assert g.degree == 48
        assert generate_group(g.matrix[g.matrix[:, 0] == 0], g.degree).order == 12


class TestLazyIndex:
    """The element index is built on the first membership lookup, once."""

    def test_automorphisms_and_upsilon_build_no_index(self, monkeypatch):
        """Aut builds its group without an index; Upsilon builds no group."""
        init, built = FiniteGroup.__init__, []

        def spy(group, *args):
            init(group, *args)
            built.append(group)

        monkeypatch.setattr(FiniteGroup, "__init__", spy)
        for h, index in ((pin(build_platonic("T")), 12), (walsh(build_platonic("D")), 60)):
            built.clear()
            report = irregularity(h)
            assert report.index == index and built == []
            aut = automorphisms(h)
            assert aut.order == h.n_flags // 2 and built == [aut]
            assert aut._index is None
            assert aut.matrix.flags.c_contiguous and not aut.matrix.flags.writeable

    def test_first_lookup_builds_the_index_once(self):
        g = monodromy_group(pin(build_platonic("T")))
        member = g.element(g.order - 1)
        outsider = perm((0, 1), degree=g.degree)
        assert not (g.matrix == outsider.images).all(axis=1).any()
        assert g._index is None
        assert member in g
        index = g._index
        assert len(index) == g.order
        assert outsider not in g
        assert g._index is index

    def test_matrix_is_c_contiguous_and_read_only(self):
        g = generate_group(bf.dihedral_gens(6), degree=6)
        n = normal_closure(g, [g.element(3)])
        aut = automorphisms(walsh(build_platonic("T")))
        for group in (g, n, aut, FiniteGroup(6, g.generators, np.asfortranarray(g.matrix))):
            assert group.matrix.flags.c_contiguous and not group.matrix.flags.writeable


def _alt5_group() -> FiniteGroup:
    return generate_group([perm((0, 1, 2, 3, 4), degree=5), perm((0, 1, 2), degree=5)])


@st.composite
def groups_and_seeds(draw):
    """(degree, generators, seed picks): a group of degree <= 6 and indices
    of seed elements, taken modulo the group order (0 is the identity)."""
    degree = draw(st.integers(2, 6))
    gens = draw(st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, 719), max_size=3))
    return degree, gens, picks


class TestNormalClosure:
    def test_identity_seed_gives_trivial_subgroup(self):
        g = generate_group(bf.dihedral_gens(4), degree=4)
        assert normal_closure(g, [Permutation.identity(4)]).order == 1

    def test_simple_group_closure_is_everything(self):
        # reference first: the order-60 perfect group has no proper
        # nontrivial normal subgroup, so every nonidentity seed fills it
        g = _alt5_group()
        gens = [tuple(int(v) for v in p.images) for p in g.generators]
        elems = bf.closure(gens)
        assert len(elems) == 60
        minimal = bf.minimal_normal_subgroups(elems, gens)
        assert [len(m) for m in minimal] == [60]
        for i in (1, g.order // 2, g.order - 1):
            assert normal_closure(g, [g.element(i)]).order == 60

    def test_seed_outside_group_rejected(self):
        g = generate_group([perm((0, 1), degree=4)])
        with pytest.raises(NotAMember):
            normal_closure(g, [perm((0, 2), degree=4)])

    def test_conjugation_invariance(self):
        g = generate_group(bf.dihedral_gens(6), degree=6)
        n = normal_closure(g, [g.element(3)])
        sub = {tuple(int(v) for v in e.images) for e in n.elements}
        gens = [tuple(int(v) for v in p.images) for p in g.generators]
        assert bf.is_normal(gens, frozenset(sub))

    @settings(max_examples=60, deadline=None)
    @given(case=groups_and_seeds())
    @example(case=(4, bf.dihedral_gens(4), []))
    @example(case=(4, bf.dihedral_gens(4), [0]))
    @example(case=(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], [1, 7]))
    def test_matches_brute_closure(self, case):
        degree, gens, picks = case
        g = generate_group(gens, degree=degree)
        seeds = [g.element(i % g.order) for i in picks]
        expected = bf.normal_closure_brute(
            gens, [tuple(int(v) for v in s.images) for s in seeds] or [bf.identity(degree)]
        )
        closure = normal_closure(g, seeds)
        assert {tuple(int(v) for v in e.images) for e in closure.elements} == expected
        assert closure.order == len(expected)
        assert closure.generators == (tuple(seeds) or (Permutation.identity(degree),))

    def test_dodecahedral_pin_stabilizer_closure(self):
        # reference first: conjugation-closed closure of the flag-0
        # stabilizer inside the order-14400 monodromy group, all in
        # plain tuples, must reach exactly 3600 elements
        g = monodromy_group(pin(build_platonic("D")))
        assert g.order == 14400
        stab = g.matrix[g.matrix[:, 0] == 0]
        gens = [tuple(int(v) for v in p.images) for p in g.generators]
        naive = bf.normal_closure_brute(gens, map(tuple, stab.tolist()))
        assert len(naive) == 3600
        closure = normal_closure(g, stab)
        assert closure.order == 3600
        assert closure.order == (g.order // g.degree) ** 2


class TestQuotientAction:
    def test_quotient_by_whole_group(self):
        g = generate_group(bf.dihedral_gens(4), degree=4)
        count, images = quotient_action(g, g)
        assert count == 1
        assert all(p.is_identity() for p in images)

    def test_quotient_by_trivial_subgroup(self):
        g = generate_group(bf.dihedral_gens(3), degree=3)
        trivial = generate_group([Permutation.identity(3)])
        count, images = quotient_action(g, trivial)
        assert count == g.order
        assert generate_group(images).order == g.order

    def test_quotient_by_unique_minimal_normal_subgroup(self):
        # reference first: scan the order-24 monodromy group of the
        # 24-flag spherical map for minimal normal subgroups
        g = monodromy_group(build_platonic("T"))
        gens = [tuple(int(v) for v in p.images) for p in g.generators]
        elems = bf.closure(gens)
        minimal = bf.minimal_normal_subgroups(elems, gens)
        assert len(minimal) == 1 and len(minimal[0]) == 4
        assert bf.coset_count(elems, minimal[0]) == 6

        seeds = [Permutation(list(p)) for p in sorted(minimal[0])][1:]
        normal = normal_closure(g, seeds)
        assert normal.order == 4
        count, images = quotient_action(g, normal)
        assert count == 6
        assert generate_group(images).order == 6

    def test_rejects_non_normal_subgroup(self):
        g = generate_group(bf.dihedral_gens(3), degree=3)
        reflection = generate_group([g.generators[1]], degree=3)
        with pytest.raises(NotNormal):
            quotient_action(g, reflection)

    def test_quotient_respects_relations(self):
        # generator images must satisfy every short relation the
        # originals satisfy
        g = monodromy_group(build_platonic("C"))
        normal = normal_closure(g, g.matrix[g.matrix[:, 0] == 0])
        _, images = quotient_action(g, normal)
        originals = list(g.generators)
        import itertools

        for length in range(1, 5):
            for word in itertools.product(range(len(originals)), repeat=length):
                before = originals[word[0]]
                after = images[word[0]]
                for k in word[1:]:
                    before = before * originals[k]
                    after = after * images[k]
                if before.is_identity():
                    assert after.is_identity()


def _sl23_generators() -> list[Permutation]:
    """SL(2,3) acting on the 8 nonzero row vectors of F_3^2 by v -> vM."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def act(m):
        return Permutation([
            vectors.index(((a * m[0][0] + b * m[1][0]) % 3, (a * m[0][1] + b * m[1][1]) % 3))
            for a, b in vectors
        ])

    return [act(((1, 1), (0, 1))), act(((0, 2), (1, 0)))]


def _near_miss_groups() -> dict[str, FiniteGroup]:
    """Groups of orders 8, 12 and 24 whose element-order counts come close
    to the dihedral and S4 rules, each from permutation generators."""
    shifted_d6 = [tuple(range(6)) + tuple(6 + v for v in g) for g in bf.dihedral_gens(6)]
    return {
        "Q8": generate_group([perm((0, 1, 2, 3), (4, 5, 6, 7), degree=8),
                              perm((0, 4, 2, 6), (1, 7, 3, 5), degree=8)]),
        "C4xC2": generate_group([perm((0, 1, 2, 3), degree=6), perm((4, 5), degree=6)]),
        "C2^3": generate_group([perm((0, 1), degree=6), perm((2, 3), degree=6), perm((4, 5), degree=6)]),
        "D4": generate_group(bf.dihedral_gens(4), degree=4),
        "Dic3": generate_group([perm((0, 1, 2), degree=7), perm((1, 2), (3, 4, 5, 6), degree=7)]),
        "C6xC2": generate_group([perm((0, 1, 2), (3, 4), degree=7), perm((5, 6), degree=7)]),
        "D6": generate_group(bf.dihedral_gens(6), degree=6),
        "A4": generate_group([perm((0, 1), (2, 3), degree=4), perm((0, 1, 2), degree=4)]),
        "SL(2,3)": generate_group(_sl23_generators()),
        "C2xA4": generate_group([perm((0, 1), (2, 3), degree=6), perm((0, 1, 2), degree=6),
                                 perm((4, 5), degree=6)]),
        "D12": generate_group(bf.dihedral_gens(12), degree=12),
        "C2xD6": generate_group([*map(Permutation, shifted_d6), perm((0, 1), degree=12)]),
        "S4": generate_group([perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)]),
    }


class TestRecognizeGroup:
    def test_near_misses_match_brute_predicates(self):
        # reference first: dihedral by a search for r, t with t r t = r^-1,
        # S4 as order 24, element orders within {1,2,3,4} and trivial centre
        names = {}
        for label, g in _near_miss_groups().items():
            elems = bf.closure([tuple(int(v) for v in p.images) for p in g.generators])
            assert len(elems) == g.order, label
            name = names[label] = recognize_group(g)
            assert (name.tag == "Dihedral") == bf.is_dihedral(elems), label
            is_sym4 = (
                len(elems) == 24
                and set(bf.element_orders(elems)) <= {1, 2, 3, 4}
                and bf.center_is_trivial(elems)
            )
            assert (name == GroupName("Sym4")) == is_sym4, label
        named = {"D4": GroupName("Dihedral", 4), "D6": GroupName("Dihedral", 6),
                 "A4": GroupName("Alt4"), "D12": GroupName("Dihedral", 12), "S4": GroupName("Sym4")}
        orders = {"Q8": 8, "C4xC2": 8, "C2^3": 8, "Dic3": 12, "C6xC2": 12, "SL(2,3)": 24,
                  "C2xA4": 24, "C2xD6": 24}
        expected = {**named, **{k: GroupName("Unrecognized", n) for k, n in orders.items()}}
        assert names == expected

    def test_trivial(self):
        g = generate_group([Permutation.identity(1)])
        assert recognize_group(g) == GroupName("Trivial")

    def test_cyclic_six(self):
        g = generate_group([perm((0, 1, 2, 3, 4, 5), degree=6)])
        assert recognize_group(g) == GroupName("Cyclic", 6)

    def test_klein_four(self):
        g = generate_group([perm((0, 1), (2, 3), degree=4), perm((0, 3), (1, 2), degree=4)])
        assert recognize_group(g) == GroupName("KleinFour")

    def test_dihedral(self):
        for n in (3, 4, 5, 6):
            g = generate_group(bf.dihedral_gens(n), degree=n)
            assert recognize_group(g) == GroupName("Dihedral", n)

    def test_alt4(self):
        g = generate_group(
            [perm((0, 1), (2, 3), degree=4), perm((0, 1, 2), degree=4)]
        )
        assert g.order == 12
        assert recognize_group(g) == GroupName("Alt4")

    def test_sym4(self):
        g = generate_group([perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)])
        assert g.order == 24
        assert recognize_group(g) == GroupName("Sym4")

    def test_order_60_perfect_group(self):
        # reference first: an explicit even-permutation model of the
        # same order with matching element-order multiset, and a brute
        # perfectness check on the group under test
        g = _alt5_group()
        gens = [tuple(int(v) for v in p.images) for p in g.generators]
        elems = bf.closure(gens)
        model = bf.even_permutations(5)
        assert len(model) == 60
        assert bf.element_orders(elems) == bf.element_orders(model)
        assert bf.commutator_closure(elems) == elems
        assert recognize_group(g) == GroupName("Alt5")

    def test_order_60_alt5_exactly_when_perfect(self):
        # A5 is the only perfect group of order 60; the others here have
        # one Sylow 5-subgroup, so 4 elements of order 5 instead of 24
        shifted_d5 = [tuple(range(3)) + tuple(3 + v for v in g) for g in bf.dihedral_gens(5)]
        groups = {
            "A5": _alt5_group(),
            "C60": generate_group([perm(tuple(range(60)), degree=60)]),
            "D30": generate_group(bf.dihedral_gens(30), degree=30),
            "A4xC5": generate_group(
                [perm((0, 1), (2, 3), degree=9), perm((0, 1, 2), degree=9),
                 perm((4, 5, 6, 7, 8), degree=9)]
            ),
            "S3xD5": generate_group(
                [perm((0, 1), degree=8), perm((0, 1, 2), degree=8), *map(Permutation, shifted_d5)]
            ),
        }
        perfect = set()
        for name, g in groups.items():
            assert g.order == 60, name
            elems = bf.closure([tuple(int(v) for v in p.images) for p in g.generators])
            assert len(elems) == 60, name
            if bf.commutator_closure(elems) == elems:
                perfect.add(name)
            assert (recognize_group(g) == GroupName("Alt5")) == (name in perfect), name
        assert perfect == {"A5"}

    def test_flag_stabilizer_of_doubled_tetrahedron_is_alt4(self):
        g = monodromy_group(pin(build_platonic("T")))
        stab = generate_group(g.matrix[g.matrix[:, 0] == 0], g.degree)
        assert recognize_group(stab) == GroupName("Alt4")

    def test_unrecognized_order(self):
        g = generate_group([perm((0, 1, 2, 3, 4, 5, 6), degree=7)])
        name = recognize_group(g)
        assert name == GroupName("Cyclic", 7)
        q = generate_group(
            [perm((0, 1, 2, 3, 4, 5, 6, 7), degree=8), perm((1, 3), (2, 6), (5, 7), degree=8)]
        )
        if q.order == 16:
            assert recognize_group(q).group_order == 16

    def test_agrees_with_order_multiset_fingerprint_up_to_24(self):
        cases = [
            generate_group([Permutation.identity(2)]),
            generate_group([perm((0, 1), degree=2)]),
            generate_group([perm((0, 1, 2), degree=3)]),
            generate_group(bf.dihedral_gens(3), degree=3),
            generate_group(bf.dihedral_gens(4), degree=4),
            generate_group([perm((0, 1), (2, 3), degree=4), perm((0, 1, 2), degree=4)]),
            generate_group([perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)]),
        ]
        for g in cases:
            name = recognize_group(g)
            assert name.group_order == g.order
            elems = bf.closure([tuple(int(v) for v in p.images) for p in g.generators])
            assert tuple(sorted(int(o) for o in g.element_orders())) == bf.element_orders(elems)


class TestFiniteGroupInvariants:
    def test_orbit_stabilizer_exhaustive_small_degrees(self):
        groups = [
            generate_group(bf.dihedral_gens(5), degree=5),
            monodromy_group(build_platonic("T")),
            generate_group([perm((0, 1), (2, 3), degree=4), perm((0, 1, 2), degree=4)]),
        ]
        for g in groups:
            assert g.degree <= 48
            for x in range(g.degree):
                orbit = {int(row[x]) for row in g.matrix}
                assert len(orbit) * np.count_nonzero(g.matrix[:, x] == x) == g.order

    def test_elements_are_closed_and_contain_inverses(self):
        g = generate_group(bf.dihedral_gens(4), degree=4)
        elems = set(g.elements)
        for a in elems:
            assert ~a in elems
            for b in elems:
                assert a * b in elems
