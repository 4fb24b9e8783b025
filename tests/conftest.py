"""Shared fixtures: the built catalog and oracle results."""

import pytest

from hypermaps import _kernels
from hypermaps.catalog import brute_oracle, full_catalog


@pytest.fixture(scope="session")
def catalog():
    return full_catalog()


@pytest.fixture(scope="session")
def oracle8_timed():
    import time

    start = time.perf_counter()
    report = brute_oracle(max_flags=8)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def oracle8(oracle8_timed):
    return oracle8_timed[0]


@pytest.fixture(scope="session")
def classes8():
    """Canonical representatives of every 8-flag spherical class."""
    from hypermaps.catalog.oracle import _classes_from_triples, fixed_point_free_involutions

    invs = fixed_point_free_involutions(8)
    return _classes_from_triples(invs, _kernels.spherical_triples(invs))
