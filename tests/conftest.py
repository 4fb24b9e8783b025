"""Shared fixtures: the built catalog, its doublings and monodromy orders,
the catalog-wide law results, verifier rows, oracle results, a small
extension block."""

import time

import pytest

from hypermaps import _kernels, hypermap, pin, walsh
from hypermaps.catalog import (
    brute_oracle,
    full_catalog,
    verify_table1,
    verify_table2,
    verify_table3,
    verify_theorem_mk,
)
from hypermaps.quotients import _stab_and_closure
from hypermaps.theta import _stab_matched_flags


@pytest.fixture(scope="session")
def catalog():
    return full_catalog()


@pytest.fixture(scope="session")
def wal_of(catalog):
    return {name: walsh(h) for name, h in catalog}


@pytest.fixture(scope="session")
def pin_of(catalog):
    return {name: pin(h) for name, h in catalog}


@pytest.fixture(scope="session")
def mon_order(catalog):
    """|Mon| of every catalog entry, enumerated once for the session."""
    return {name: hypermap.monodromy_group(h).order for name, h in catalog}


class LawResults:
    """What each law of a registry raised, or None, each law run once.

    A law runs on the first request for its outcome, with the inputs given
    here as keyword arguments; later requests read the stored outcome.
    """

    def __init__(self, laws, **inputs):
        self.laws = laws
        self._inputs = inputs
        self._outcomes = {}

    def outcome(self, name):
        if name not in self._outcomes:
            try:
                self.laws[name](**self._inputs)
            except Exception as exc:
                self._outcomes[name] = exc
            else:
                self._outcomes[name] = None
        return self._outcomes[name]

    def check(self, name):
        """Re-raise what the law raised, with its own message and traceback."""
        error = self.outcome(name)
        if error is not None:
            raise error

    def failed(self):
        """Names of the laws that raised, in registry order."""
        return [name for name in self.laws if self.outcome(name) is not None]


@pytest.fixture(scope="session")
def law_results(catalog, wal_of, pin_of, mon_order):
    """The catalog-wide laws of test_properties.py, run once per session."""
    from test_properties import LAWS

    return LawResults(LAWS, catalog=catalog, wal_of=wal_of, pin_of=pin_of, mon_order=mon_order)


def _timed(runner, bound):
    start = time.perf_counter()
    rows = runner(bound)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def table1():
    """(rows, seconds) of verify_table1(6)."""
    return _timed(verify_table1, 6)


@pytest.fixture(scope="session")
def table2():
    """(rows, seconds) of verify_table2(6)."""
    return _timed(verify_table2, 6)


@pytest.fixture(scope="session")
def table3():
    """(rows, seconds) of verify_table3(5)."""
    return _timed(verify_table3, 5)


@pytest.fixture(scope="session")
def theorem_mk():
    """(rows, seconds) of verify_theorem_mk(8)."""
    return _timed(verify_theorem_mk, 8)


@pytest.fixture(scope="session")
def oracle8_timed():
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
