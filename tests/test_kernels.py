"""The hot kernels against their definitions and the naive references."""

from itertools import product

import numpy as np
import pytest

import bruteforce as bf
from hypermaps import _kernels
from hypermaps.catalog import build_named, fixed_point_free_involutions, full_catalog

SMALL_ENTRIES = [name for name, h in full_catalog() if h.n_flags <= 240]


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
