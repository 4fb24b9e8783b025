"""The hot kernels against their definitions and the naive references."""

import random
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


def h0_block_outcome(triple) -> tuple[set[int], int]:
    """(heads, tied): the heads of the h0 block at which some start of the
    triple first exceeds the least h0 block, and how many starts tie on it."""
    n = len(triple[0])
    blocks = [bf.start_code(triple, start)[0][:n] for start in range(n)]
    least = min(blocks)
    heads = {next(k for k in range(n) if block[k] != least[k]) for block in blocks if block != least}
    return heads, blocks.count(least)


def full_scan_reference(invs: np.ndarray) -> np.ndarray:
    """The orbit-label filter run on every h0 slice, all m**3 triples: the
    reference for the scan, which filters one slice and relabels it."""
    invs = np.ascontiguousarray(invs, dtype=_kernels.DTYPE)
    m, n = invs.shape
    points = np.arange(n, dtype=_kernels.DTYPE)
    pairs = np.stack(np.broadcast_arrays(invs[:, None], invs[None, :]), axis=2)
    labels = _kernels._orbit_labels(pairs, np.broadcast_to(points, (m, m, n)))
    counts = (labels == points).sum(axis=-1)
    out = []
    for i in range(m):
        jk = np.argwhere(counts + counts[i] + counts[i, :, None] == n // 2 + 2)
        gens = np.stack(np.broadcast_arrays(invs[i], *invs[jk.T]), axis=1)
        hits = jk[~_kernels._orbit_labels(gens, labels[i, jk[:, 0]]).any(axis=1)]
        out.append(np.column_stack([np.full(hits.shape[0], i), hits]).astype(_kernels.DTYPE))
    return np.concatenate(out).reshape(-1, 3)


def bruteforce_slice(invs: np.ndarray, i: int) -> list[tuple[int, int, int]]:
    """The spherical triples (i, j, k), by bruteforce's orbits and Euler sum."""
    rows = [tuple(int(v) for v in row) for row in invs]
    return [
        (i, j, k)
        for j, k in product(range(len(rows)), repeat=2)
        if len(bf.triple_orbits((rows[i], rows[j], rows[k]), (0, 1, 2))) == 1
        and bf.triple_euler((rows[i], rows[j], rows[k])) == 2
    ]


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

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_random_batches_match_reference(self, n):
        rng = np.random.default_rng(n)
        hs = np.stack([random_transitive_triple(rng, n) for _ in range(200)])
        outcomes = [h0_block_outcome(rows_of(triple)) for triple in hs]
        # starts drop at several heads, and some triples tie past the h0 block
        assert len(set().union(*(heads for heads, _ in outcomes))) >= 3
        assert any(tied > 1 for _, tied in outcomes)
        assert_matches_reference(hs, *_kernels.canonical_codes(hs))

    @pytest.mark.parametrize(
        "regular, doubled",
        [(("T", "dual01(T)"), ("pin(M3)", "wal(dual02(P3))")), (("C", "O"), ("pin(T)", "wal(T)"))],
        ids=["24", "48"],
    )
    def test_regular_and_doubled_maps_among_random_ones(self, regular, doubled):
        first, last = (build_named(name).generator_matrix() for name in regular)
        n = first.shape[1]
        rng = np.random.default_rng(n)
        middle = [build_named(name).generator_matrix() for name in doubled]
        middle += [random_transitive_triple(rng, n) for _ in range(6)]
        hs = np.stack([first, *middle, last])
        codes, sigmas = _kernels.canonical_codes(hs)
        assert_matches_reference(hs, codes, sigmas)
        # On a regular map every start ties to the end, and start 0 wins.
        for i in (0, -1):
            assert len({tuple(bf.start_code(rows_of(hs[i]), start)[0]) for start in range(n)}) == 1
            assert sigmas[i, 0] == 0

    def test_h0_block_drops_most_searches(self, monkeypatch, eight_flag_slice):
        # 2688 triples times 8 starts: count the searches still live after
        # the h0 block (9600, as bruteforce counts the ties on it); no timing.
        live = []
        search = _kernels._search

        def counted(hs, starts):
            out = search(hs, starts)
            live.append(out[2].size)
            return out

        monkeypatch.setattr(_kernels, "_search", counted)
        _kernels.canonical_codes(eight_flag_slice)
        assert sum(live) < 21504 // 2

    def test_intransitive_generators_are_rejected(self):
        pairing = [1, 0, 3, 2]
        with pytest.raises(ValueError, match="transitive"):
            _kernels.canonical_code(np.array([pairing] * 3))
        batch = np.array([[pairing, [2, 3, 0, 1], pairing], [pairing] * 3])
        with pytest.raises(ValueError, match="transitive"):
            _kernels.canonical_codes(batch)
        # one intransitive triple among transitive ones whose starts drop
        rng = np.random.default_rng(1)
        batch = [random_transitive_triple(rng, 10) for _ in range(6)]
        batch.insert(3, np.stack([np.arange(10, dtype=_kernels.DTYPE) ^ 1] * 3))
        with pytest.raises(ValueError, match="transitive"):
            _kernels.canonical_codes(np.stack(batch))

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

    def test_batch_memory_stays_below_keeping_every_search(self, eight_flag_slice):
        # Comparing all 21504 searches only after the whole labelling peaked
        # at 7.35 MiB here; dropping losers at each head keeps it near 4.6 MiB.
        tracemalloc.start()
        try:
            _kernels.canonical_codes(eight_flag_slice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.3 * 2**20


def random_involutions(rng, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Random fixed-point-free involutions on n points, as a (*shape, n) array."""
    out = np.empty(shape + (n,), dtype=_kernels.DTYPE)
    for row in out.reshape(-1, n):
        points = rng.permutation(n)
        row[points[::2]], row[points[1::2]] = points[1::2], points[::2]
    return out


def polygon_pair(cycle: int, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Involutions x, y with one orbit on 2 * cycle points, on which xy has
    two cycles of length cycle: the sides of a 2 * cycle-gon, alternately
    x's and y's, relabelled by sigma (old point p becomes sigma[p])."""
    n = 2 * cycle
    points = np.arange(n)
    x, y = np.empty(n, dtype=_kernels.DTYPE), np.empty(n, dtype=_kernels.DTYPE)
    x[sigma], y[sigma] = sigma[points ^ 1], sigma[(points + 2 * (points % 2) - 1) % n]
    return x, y


class TestPairOrbitLabels:
    """Doubling along xy gives the general kernel's least-point labels."""

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16, 18, 34, 64])
    def test_matches_orbit_labels(self, shape, n):
        rng = np.random.default_rng(n)
        x, y = random_involutions(rng, shape, n), random_involutions(rng, shape, n)
        points = np.arange(n, dtype=_kernels.DTYPE)
        expected = _kernels._orbit_labels(np.stack([x, y], axis=-2), np.broadcast_to(points, shape + (n,)))
        assert np.array_equal(_kernels._pair_orbit_labels(x, y), expected)

    @pytest.mark.parametrize("cycle", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32])
    def test_single_orbit_with_a_long_cycle(self, cycle):
        # cycles of 2**k points take k rounds, and of 2**k + 1 points one
        # more: every start must reach the cycle's one least point
        rng = np.random.default_rng(cycle)
        for sigma in (np.arange(2 * cycle), *(rng.permutation(2 * cycle) for _ in range(5))):
            x, y = polygon_pair(cycle, sigma)
            assert (_kernels._pair_orbit_labels(x, y) == 0).all()
            assert (_kernels._pair_orbit_labels(y, x) == 0).all()


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

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_equals_the_full_scan(self, n):
        invs = fixed_point_free_involutions(n)
        got, expected = _kernels.spherical_triples(invs), full_scan_reference(invs)
        assert got.dtype == expected.dtype == _kernels.DTYPE
        assert np.array_equal(got, expected)

    def test_relabelled_eight_flag_slices_match_bruteforce(self):
        # Slice 0 (h0 the standard pairing) is the one the scan filters;
        # every other slice is relabelled from it.
        invs = fixed_point_free_involutions(8)
        assert invs[0].tolist() == [1, 0, 3, 2, 5, 4, 7, 6]
        got = _kernels.spherical_triples(invs)
        for i in random.Random(13).sample(range(1, 105), 2):
            expected = bruteforce_slice(invs, i)
            assert len(expected) == 2688
            assert [tuple(row) for row in got[got[:, 0] == i].tolist()] == expected

    def test_row_order_is_free(self):
        invs = fixed_point_free_involutions(6)
        shuffled = invs[np.random.default_rng(3).permutation(invs.shape[0])]
        assert np.array_equal(_kernels.spherical_triples(shuffled), full_scan_reference(shuffled))


class TestSphericalTriplesRefusals:
    def test_missing_row(self):
        with pytest.raises(ValueError, match="105 fixed-point-free involutions, not 104"):
            _kernels.spherical_triples(fixed_point_free_involutions(8)[1:])

    def test_extra_row(self):
        invs = fixed_point_free_involutions(6)
        with pytest.raises(ValueError, match="15 fixed-point-free involutions, not 16"):
            _kernels.spherical_triples(np.concatenate([invs, invs[:1]]))

    def test_duplicate_row(self):
        invs = fixed_point_free_involutions(6).copy()
        invs[7] = invs[3]
        with pytest.raises(ValueError, match="repeats a row"):
            _kernels.spherical_triples(invs)

    @pytest.mark.parametrize(
        "row",
        [[0, 1, 3, 2], [1, 2, 3, 0], [1, 0, 3, 4]],
        ids=["fixed-point", "four-cycle", "out-of-range"],
    )
    def test_row_that_is_not_a_fixed_point_free_involution(self, row):
        invs = fixed_point_free_involutions(4).copy()
        invs[2] = row
        with pytest.raises(ValueError, match="not a fixed-point-free involution"):
            _kernels.spherical_triples(invs)

    def test_odd_point_count(self):
        with pytest.raises(ValueError, match="not 3"):
            _kernels.spherical_triples(np.zeros((1, 3), dtype=_kernels.DTYPE))

    def test_row_missing_from_the_table_is_not_looked_up(self):
        invs = fixed_point_free_involutions(6)
        for gone in (0, 7, 14):
            table = np.delete(invs, gone, axis=0)
            with pytest.raises(ValueError, match="not in the table"):
                _kernels._row_index(table, invs)
        assert _kernels._row_index(invs, invs[::-1]).tolist() == list(range(14, -1, -1))

    def test_row_keys_have_no_width_limit(self):
        # 16 points: a base-n key would pass int64 (16**16 = 2**64)
        table = np.random.default_rng(16).permuted(np.tile(np.arange(16, dtype=_kernels.DTYPE), (6, 1)), axis=1)
        assert _kernels._row_index(table, table[[3, 0, 5, 3]]).tolist() == [3, 0, 5, 3]
