"""Exhaustive small-size search, cross-validated by a from-scratch recount."""

import math
import random

import numpy as np
import pytest

from hypermaps import _kernels, perm
from hypermaps.catalog import brute_oracle, fixed_point_free_involutions, oracle
from hypermaps.catalog.oracle import (
    _centralizer_generators,
    _classes_from_triples,
    _cycle_counts,
    _fixed_h0_spherical,
    _recount_fixed_h0,
)

import bruteforce as bf


def double_factorial_odd(n: int) -> int:
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


class TestInvolutionEnumeration:
    def test_counts_follow_the_pairing_formula(self):
        for n in (2, 4, 6, 8):
            assert fixed_point_free_involutions(n).shape[0] == double_factorial_odd(n)

    def test_rows_are_fixed_point_free_involutions(self):
        for n in (2, 4, 6):
            for row in fixed_point_free_involutions(n):
                img = tuple(int(v) for v in row)
                assert bf.compose(img, img) == bf.identity(n)
                assert all(img[x] != x for x in range(n))

    def test_rows_are_distinct(self):
        rows = fixed_point_free_involutions(8)
        assert len({tuple(int(v) for v in r) for r in rows}) == rows.shape[0]

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_free_involutions(5)


def independent_classes(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """From-scratch enumeration of spherical classes with n flags.

    Every class has a representative whose h0 is the standard pairing
    (conjugate h0 onto it), so scanning (h1, h2) pairs is exhaustive.
    Dedupe is by pairwise equivariant-extension isomorphism search.
    """
    invs = [tuple(int(v) for v in row) for row in fixed_point_free_involutions(n)]
    std = tuple(i ^ 1 for i in range(n))
    reps: list[tuple[tuple[int, ...], ...]] = []
    for h1 in invs:
        for h2 in invs:
            triple = (std, h1, h2)
            if len(bf.triple_orbits(triple, (0, 1, 2))) != 1:
                continue
            if bf.triple_euler(triple) != 2:
                continue
            if not any(bf.isomorphism_exists(triple, rep) for rep in reps):
                reps.append(triple)
    return reps


class TestBruteOracleSmall:
    def test_four_flag_report(self):
        report = brute_oracle(max_flags=4)
        assert report.ok
        assert report.violations == ()
        assert report.sizes == (2, 4)
        assert report.triples_scanned == {2: 1, 4: 27}
        assert report.class_counts == report.recount_class_counts

    def test_four_flag_spherical_triple_count_independent(self):
        invs = [tuple(int(v) for v in row) for row in fixed_point_free_involutions(4)]
        count = 0
        for a in invs:
            for b in invs:
                for c in invs:
                    triple = (a, b, c)
                    if len(bf.triple_orbits(triple, (0, 1, 2))) != 1:
                        continue
                    if bf.triple_euler(triple) == 2:
                        count += 1
        report = brute_oracle(max_flags=4)
        assert report.spherical_triples[4] == count
        assert report.spherical_triples[2] == 1

    def test_mass_formula_catches_a_lost_class(self, monkeypatch):
        dedupe = oracle._classes_from_triples

        def drop_last_class(invs, triples):
            classes = dedupe(invs, triples)
            if invs.shape[1] == 4:
                classes.popitem()
            return classes

        monkeypatch.setattr(oracle, "_classes_from_triples", drop_last_class)
        report = brute_oracle(max_flags=4)
        assert not report.ok
        assert [v for v in report.violations if v.startswith("n=4: mass formula")]

    def test_other_caps_rejected(self):
        for bad in (0, 2, 6, 10):
            with pytest.raises(ValueError):
                brute_oracle(max_flags=bad)


class TestBruteOracleFull:
    def test_no_violations(self, oracle8):
        assert oracle8.ok
        assert oracle8.violations == ()
        assert oracle8.sizes == (2, 4, 6, 8)
        assert oracle8.class_counts == oracle8.recount_class_counts

    def test_class_counts_match_independent_enumeration(self, oracle8):
        counts = {n: len(independent_classes(n)) for n in (2, 4, 6, 8)}
        assert oracle8.class_counts == counts

    def test_classification_totals_match_independent_enumeration(self, oracle8):
        uniform = bipartite = bip_uniform = 0
        for n in (2, 4, 6, 8):
            for triple in independent_classes(n):
                vsets = [
                    {len(o) // 2 for o in bf.triple_orbits(triple, picks)}
                    for picks in ((1, 2), (0, 2), (0, 1))
                ]
                if all(len(s) == 1 for s in vsets):
                    uniform += 1
                    # spherical uniform hypermaps must be regular
                    assert bf.automorphism_count(triple) == n
                colors = bf.triple_vertex_coloring(triple)
                if colors is None:
                    continue
                bipartite += 1
                per_class = [set(), set()]
                for orbit in bf.triple_orbits(triple, (1, 2)):
                    per_class[colors[orbit[0]]].add(len(orbit) // 2)
                if (
                    all(len(s) == 1 for s in per_class)
                    and len(vsets[1]) == 1
                    and len(vsets[2]) == 1
                ):
                    bip_uniform += 1
                    # and bipartite-uniform ones must be bipartite-regular
                    class0 = [x for x in range(n) if colors[x] == 0]
                    hits = sum(
                        1
                        for t in class0
                        if (phi := bf.extend_morphism(triple, triple, t)) is not None
                        and len(set(phi)) == n
                    )
                    assert hits == len(class0)
        assert oracle8.uniform_classes == uniform
        assert oracle8.bipartite_classes == bipartite
        assert oracle8.bipartite_uniform_classes == bip_uniform

    def test_rooted_count_is_tuttes_bicubic_count(self):
        # rooted spherical hypermaps with n = 2k flags are rooted bicubic
        # planar maps (Tutte 1963): no canonical code is involved
        for k in range(1, 5):
            n = 2 * k
            invs = fixed_point_free_involutions(n)
            slice_size = _fixed_h0_spherical(invs, n).shape[0]
            rooted, rest = divmod(
                3 * 2 ** (k - 1) * math.factorial(2 * k), math.factorial(k) * math.factorial(k + 2)
            )
            assert (rooted, rest) == ((1, 3, 12, 56)[k - 1], 0)
            assert slice_size * invs.shape[0] * n == rooted * math.factorial(n)

    def test_json_dict_shape(self, oracle8):
        data = oracle8.to_json_dict()
        assert data["ok"] is True
        assert data["violations"] == []
        assert data["class_counts"] == {str(k): v for k, v in oracle8.class_counts.items()}


def plain_cycle_count(perm: list[int]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return cycles


class TestFixedH0Recount:
    def test_cycle_counts_match_a_plain_count(self):
        rng = random.Random(7)
        for n in range(1, 31):
            # the identity, and an n-cycle: n - 1 steps are all needed
            perms = [list(range(n)), [(x + 1) % n for x in range(n)]]
            for _ in range(8):
                perms.append(rng.sample(range(n), n))
            counts = _cycle_counts(np.array(perms))
            assert counts.tolist() == [plain_cycle_count(p) for p in perms]
            assert counts[0] == n and counts[1] == 1

    def test_array_filter_matches_reference(self):
        kept_counts, intransitive_spheres = {}, {}
        for n in (4, 6, 8):
            invs = fixed_point_free_involutions(n)
            rows = [tuple(int(v) for v in row) for row in invs]
            standard = tuple(x ^ 1 for x in range(n))
            expected = []
            intransitive_spheres[n] = 0
            for h1 in rows:
                for h2 in rows:
                    triple = (standard, h1, h2)
                    if bf.triple_euler(triple) != 2:
                        continue
                    if len(bf.triple_orbits(triple, (0, 1, 2))) == 1:
                        expected.append(triple)
                    else:
                        intransitive_spheres[n] += 1
            kept = _fixed_h0_spherical(invs, n)
            assert [tuple(tuple(int(v) for v in row) for row in hs) for hs in kept] == expected
            kept_counts[n] = len(expected)
        assert kept_counts == {4: 6, 6: 96, 8: 2688}
        # Euler sum 2 alone lets these through; reachability must drop them
        assert intransitive_spheres[8] == 140

    def test_independent_of_the_array_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the recount used the array scan")

        monkeypatch.setattr(_kernels, "_orbit_labels", refuse)
        monkeypatch.setattr(_kernels, "spherical_triples", refuse)
        monkeypatch.setattr(oracle, "_centralizer_generators", refuse)
        counts = {n: _recount_fixed_h0(fixed_point_free_involutions(n), n) for n in (2, 4, 6, 8)}
        assert counts == {2: 1, 4: 3, 6: 6, 8: 20}


def classes_by_every_code(invs: np.ndarray, triples: np.ndarray) -> dict[bytes, np.ndarray]:
    """Reference dedupe: canonicalize every triple, keep the first per code."""
    firsts: dict[bytes, np.ndarray] = {}
    codes, _ = _kernels.canonical_codes(invs[triples])
    for code, triple in zip(codes, triples):
        firsts.setdefault(code.tobytes(), triple)
    return {key: invs[triple] for key, triple in firsts.items()}


def assert_same_classes(invs: np.ndarray, triples: np.ndarray) -> None:
    got, want = _classes_from_triples(invs, triples), classes_by_every_code(invs, triples)
    assert list(got) == list(want)
    for key, hs in want.items():
        assert np.array_equal(got[key], hs)


class TestCentralizerOrbits:
    def test_generators_generate_the_centralizer(self):
        for n in (4, 6, 8):
            k = n // 2
            for h0 in fixed_point_free_involutions(n):
                gens = _centralizer_generators(h0)
                assert gens.shape == (k, n)
                for g in gens:
                    assert np.array_equal(g[g], np.arange(n))
                    assert np.array_equal(g[h0], h0[g])
                group = perm.generate_group([tuple(map(int, g)) for g in gens], n)
                assert group.order == 2**k * math.factorial(k)

    def test_matches_every_code_on_seeded_slices(self):
        rng = random.Random(14)
        for n in (2, 4, 6, 8):
            invs = fixed_point_free_involutions(n)
            triples = _kernels.spherical_triples(invs)
            for h0 in rng.sample(range(invs.shape[0]), min(3, invs.shape[0])):
                assert_same_classes(invs, triples[triples[:, 0] == h0])

    def test_matches_every_code_on_mixed_h0(self):
        invs = fixed_point_free_involutions(6)
        triples = _kernels.spherical_triples(invs)
        assert len(set(triples[:, 0].tolist())) == invs.shape[0]
        assert_same_classes(invs, triples)
        assert_same_classes(invs, triples[np.random.default_rng(6).permutation(triples.shape[0])])

    def test_matches_every_code_on_open_subsets(self):
        # subsets and shuffles are not closed under the centralizer, so
        # orbits split and the dedupe by code must merge them again
        invs = fixed_point_free_involutions(8)
        triples = _kernels.spherical_triples(invs)
        one_slice = triples[triples[:, 0] == 38]
        rng = np.random.default_rng(14)
        for size in (0, 1, 7, 60, 500, 2000, one_slice.shape[0]):
            assert_same_classes(invs, one_slice[rng.permutation(one_slice.shape[0])[:size]])

    def test_closed_slice_canonicalizes_one_triple_per_class(self, monkeypatch):
        invs = fixed_point_free_involutions(8)
        triples = _kernels.spherical_triples(invs)
        sent = []
        codes = _kernels.canonical_codes

        def spy(hs):
            sent.append(hs.shape[0])
            return codes(hs)

        monkeypatch.setattr(_kernels, "canonical_codes", spy)
        classes = _classes_from_triples(invs, triples[triples[:, 0] == 0])
        assert len(classes) == 20
        assert sum(sent) == 20
