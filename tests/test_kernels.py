"""The hot kernels against their definitions and the naive references."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

import bruteforce as bf
from hypermaps import _kernels
from hypermaps.catalog import build_named, fixed_point_free_involutions, full_catalog

SMALL_ENTRIES = [name for name, h in full_catalog() if h.n_flags <= 240]
# Every catalog entry (at most 480 flags) and the largest maps the benchmark codes.
REFERENCE_ENTRIES = [name for name, h in full_catalog() if h.n_flags <= 480] + [
    "wal(pin(D))",
    "pin(pin(dual01(D)))",
]


def rows_of(hs) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in np.asarray(hs).tolist())


def assert_matches_reference(hs, codes, sigmas):
    """Each (code, sigma) equals bruteforce's, the first least start included."""
    assert codes.dtype == sigmas.dtype == _kernels.DTYPE
    assert codes.shape == (hs.shape[0], 3 * hs.shape[2])
    for triple, code, sigma in zip(hs, codes, sigmas):
        ref_code, ref_sigma = bf.canonical_code(rows_of(triple))
        assert code.tolist() == ref_code
        assert sigma.tolist() == ref_sigma


def random_transitive_triple(rng, n: int) -> np.ndarray:
    """Three random fixed-point-free involutions on n flags, redrawn until transitive."""
    while True:
        hs = np.empty((3, n), dtype=_kernels.DTYPE)
        for row in hs:
            points = rng.permutation(n)
            row[points[::2]], row[points[1::2]] = points[1::2], points[::2]
        if len(bf.triple_orbits(rows_of(hs), (0, 1, 2))) == 1:
            return hs


@pytest.fixture(scope="module")
def eight_flag_slice():
    """The 8-flag spherical triples whose h0 is involution 0, as (2688, 3, 8)."""
    invs = fixed_point_free_involutions(8)
    triples = _kernels.spherical_triples(invs)
    return invs[triples[triples[:, 0] == 0]]


class TestCanonicalCode:
    @pytest.mark.parametrize("name", SMALL_ENTRIES)
    def test_code_is_a_valid_relabeling(self, name):
        h = build_named(name)
        hs = h.generator_matrix().astype(_kernels.DTYPE)
        code, sigma = _kernels.canonical_code(hs)
        n = h.n_flags
        assert sorted(sigma.tolist()) == list(range(n))
        relabeled = np.empty_like(hs)
        for i in range(3):
            relabeled[i][sigma] = sigma[hs[i]]
        assert np.array_equal(code.reshape(3, n), relabeled)

    @pytest.mark.parametrize("name", REFERENCE_ENTRIES)
    def test_matches_reference(self, name):
        hs = build_named(name).generator_matrix()
        code, sigma = _kernels.canonical_code(hs)
        assert_matches_reference(hs[None], code[None], sigma[None])

    def test_eight_flag_slice_matches_reference(self, eight_flag_slice):
        assert eight_flag_slice.shape == (2688, 3, 8)
        assert_matches_reference(eight_flag_slice, *_kernels.canonical_codes(eight_flag_slice))

    def test_small_blocks_match_reference(self, monkeypatch, eight_flag_slice):
        # 5 whole 8-flag triples per block (the last block short); maps of
        # 24 or more flags split their starts into blocks whose winners merge.
        block = 5 * 8 * 8
        monkeypatch.setattr(_kernels, "_CODE_BLOCK", block)
        hs = eight_flag_slice[:203]
        assert_matches_reference(hs, *_kernels.canonical_codes(hs))
        rng = np.random.default_rng(5)
        maps = [build_named(name).generator_matrix() for name in ("T", "pin(T)", "D")]
        maps += [random_transitive_triple(rng, n) for n in (24, 40, 64)]
        late_winners = 0
        for hs in maps:
            code, sigma = _kernels.canonical_code(hs)
            assert_matches_reference(hs[None], code[None], sigma[None])
            late_winners += sigma.tolist().index(0) >= block // hs.shape[1]
        assert late_winners > 0  # some winner came from a later start block

    def test_intransitive_generators_are_rejected(self):
        pairing = [1, 0, 3, 2]
        with pytest.raises(ValueError, match="transitive"):
            _kernels.canonical_code(np.array([pairing] * 3))
        batch = np.array([[pairing, [2, 3, 0, 1], pairing], [pairing] * 3])
        with pytest.raises(ValueError, match="transitive"):
            _kernels.canonical_codes(batch)

    def test_memory_stays_within_labels_and_order(self):
        # lab and order of all 480 starts take 1.8 MiB; a materialized
        # (480, 1440) code matrix alone would add 2.6 MiB.
        hs = build_named("wal(pin(D))").generator_matrix()
        tracemalloc.start()
        try:
            _kernels.canonical_code(hs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestSphericalTriples:
    @pytest.mark.parametrize("n", [4, 6])
    def test_spherical_triples_match_bruteforce(self, n):
        invs = fixed_point_free_involutions(n)
        rows = [tuple(int(v) for v in row) for row in invs]
        expected = [
            (i, j, k)
            for i, j, k in product(range(len(rows)), repeat=3)
            if len(bf.triple_orbits((rows[i], rows[j], rows[k]), (0, 1, 2))) == 1
            and bf.triple_euler((rows[i], rows[j], rows[k])) == 2
        ]
        got = _kernels.spherical_triples(invs)
        assert got.dtype == _kernels.DTYPE
        assert [tuple(row) for row in got.tolist()] == expected

    def test_eight_flag_slice_matches_bruteforce(self):
        invs = fixed_point_free_involutions(8)
        rows = [tuple(int(v) for v in row) for row in invs]
        expected = [
            (0, j, k)
            for j, k in product(range(len(rows)), repeat=2)
            if len(bf.triple_orbits((rows[0], rows[j], rows[k]), (0, 1, 2))) == 1
            and bf.triple_euler((rows[0], rows[j], rows[k])) == 2
        ]
        got = _kernels.spherical_triples(invs)
        assert got.dtype == _kernels.DTYPE
        assert len(rows) ** 2 == 11025 and len(expected) == 2688
        assert [tuple(row) for row in got[got[:, 0] == 0].tolist()] == expected
