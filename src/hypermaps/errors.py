"""Exception types shared across the package.

Every precondition failure has its own class so callers (and the CLI) can
report the violated condition by name instead of parsing messages.
"""

from __future__ import annotations


class HypermapsError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# group machinery


class EmptyGenerators(HypermapsError):
    """generate_group was called with no generators."""


class NotAMember(HypermapsError):
    """A permutation expected to lie in a group does not."""


class NotNormal(HypermapsError):
    """quotient_action got a subgroup that is not normal (or not a subgroup)."""


# ---------------------------------------------------------------------------
# hypermap validation


class NotInvolution(HypermapsError):
    """Generator i is not an involution."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"h{index} is not an involution")


class HasFixedPoint(HypermapsError):
    """Generator i fixes a flag."""

    def __init__(self, index: int, flag: int):
        self.index = index
        self.flag = flag
        super().__init__(f"h{index} fixes flag {flag}")


class NotTransitive(HypermapsError):
    """The three involutions do not act transitively."""

    def __init__(self, orbit_count: int):
        self.orbit_count = orbit_count
        super().__init__(f"action has {orbit_count} orbits, expected 1")


# ---------------------------------------------------------------------------
# budgets, coset enumeration and builders


class LimitExceeded(HypermapsError):
    """A computation outgrew its explicit budget, named by its argument:
    todd_coxeter's coset_limit, perm.CHAIN_LIMIT, perm.ORDER_LIMIT or
    perm.BYTE_LIMIT."""

    def __init__(self, budget: str, limit: int):
        self.budget = budget
        self.limit = limit
        super().__init__(f"{budget}={limit} exceeded")


class Degenerate(HypermapsError):
    """A quotient generator is the identity or has a fixed point: not a hypermap."""


# ---------------------------------------------------------------------------
# doubling transforms and their inverses


class NotAMap(HypermapsError):
    """Input is not a map: (h0 h2)^2 is not the identity."""


class NotBipartite(HypermapsError):
    """Input admits no 2-coloring in which h0 alone flips the color."""


class NoValencyOneClass(HypermapsError):
    """Neither color class consists entirely of valency-1 hypervertices."""


class KernelMismatch(HypermapsError):
    """The two candidate h0 restrictions disagree on the chosen class."""


# ---------------------------------------------------------------------------
# theta / quotients preconditions


class NotConservative(HypermapsError):
    """The requested parity 2-coloring does not exist."""


class NotBipartiteRegular(HypermapsError):
    """Operation requires a bipartite-regular hypermap."""


# ---------------------------------------------------------------------------
# serialization


class ParseError(HypermapsError):
    """A hypermap document failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
