"""Shared fixtures: the built catalog, oracle results, a small extension block."""

import pytest

from hypermaps import _kernels, hypermap
from hypermaps.catalog import brute_oracle, full_catalog
from hypermaps.quotients import _stab_and_closure
from hypermaps.theta import _stab_matched_flags


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
    """Canonical representatives of every 8-flag spherical class.

    Only the triples whose h0 is the first involution are classified:
    relabelling the flags moves any fixed-point-free h0 to any other, so
    that slice meets every class. The oracle8 fixture runs the full search.
    """
    from hypermaps.catalog.oracle import _classes_from_triples, fixed_point_free_involutions

    invs = fixed_point_free_involutions(8)
    triples = _kernels.spherical_triples(invs)
    classes = _classes_from_triples(invs, triples[triples[:, 0] == 0])
    assert len(classes) == 20
    return classes


@pytest.fixture
def extension_block(monkeypatch):
    """Setter of hypermap._EXTENSION_BLOCK for the rest of the test, so that
    maps with more than block // n_flags targets take several blocks. The
    per-map caches filled from extensions are cleared when it is set and
    when the test ends."""

    def set_block(block):
        monkeypatch.setattr(hypermap, "_EXTENSION_BLOCK", block)
        _stab_matched_flags.cache_clear()
        _stab_and_closure.cache_clear()

    yield set_block
    _stab_matched_flags.cache_clear()
    _stab_and_closure.cache_clear()
