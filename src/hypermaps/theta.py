"""Parity 2-colorings, automorphisms, and the regularity hierarchy.

Each of the seven nontrivial parity vectors eps = (eps0, eps1, eps2) induces
a notion of 2-colorability: generator h_i flips a flag's color exactly when
eps_i = 1. The vector (1,0,0) is bipartiteness (hypervertices 2-colorable);
(1,1,1) is orientability. A hypermap is eps-regular when it is eps-colorable
and the automorphism group is transitive on the color class of flag 0.

Automorphisms are the generator-equivariant flag bijections. One sending
flag 0 to a flag x exists exactly when the equivariant extension 0 -> x is
consistent, and then it is unique; everything here is computed from those
extensions (hypermap._extensions), so no monodromy group is enumerated. Past
128 flags not every flag is extended to: the orbits of a few automorphisms
found on the way decide the rest (_stab_matched_flags).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import DTYPE, _orbit_labels
from .errors import NotBipartite, NotConservative
from .hypermap import Hypermap, _extensions, _face_valencies, _flag_tree, _parity_coloring
from .perm import FiniteGroup, Permutation, _freeze

__all__ = [
    "ParityVector",
    "BipartiteType",
    "PARITY_VECTORS",
    "BIPARTITE",
    "ORIENTING",
    "theta_coloring",
    "automorphisms",
    "is_regular",
    "is_theta_regular",
    "bipartite_type",
    "is_bipartite_uniform",
    "is_bipartite_chiral",
    "theta_preserving_automorphisms",
]


@dataclass(frozen=True)
class ParityVector:
    """One of the seven nontrivial parity vectors (eps0, eps1, eps2)."""

    eps: tuple[int, int, int]

    def __post_init__(self):
        if len(self.eps) != 3 or any(e not in (0, 1) for e in self.eps):
            raise ValueError("eps must be three bits")
        if self.eps == (0, 0, 0):
            raise ValueError("the all-zero vector induces no 2-coloring")

    @functools.cached_property
    def bits(self) -> str:
        return "".join(str(e) for e in self.eps)

    def __str__(self) -> str:
        return self.bits


# All seven, in a fixed reporting order.
PARITY_VECTORS: tuple[ParityVector, ...] = tuple(
    ParityVector(eps)
    for eps in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
)

BIPARTITE = PARITY_VECTORS[0]  # (1,0,0): h0 flips the vertex 2-coloring
ORIENTING = PARITY_VECTORS[6]  # (1,1,1): all generators flip


@dataclass(frozen=True)
class BipartiteType:
    """Four-tuple (l1, l2; m; n) with l1 <= l2 and m, n even.

    l1, l2 are the common hypervertex valencies of the two color classes;
    m and n the common hyperedge and hyperface valencies (even whenever a
    bipartition exists, since those faces alternate between the classes).
    """

    l1: int
    l2: int
    m: int
    n: int

    def __post_init__(self):
        if min(self.l1, self.l2, self.m, self.n) < 1:
            raise ValueError("components must be positive")
        if self.l1 > self.l2:
            raise ValueError("l1 must not exceed l2")
        if self.m % 2 or self.n % 2:
            raise ValueError("hyperedge and hyperface valencies must be even")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l1, self.l2, self.m, self.n)

    def __str__(self) -> str:
        return f"({self.l1},{self.l2};{self.m};{self.n})"


def theta_coloring(h: Hypermap, eps: ParityVector) -> tuple[int, ...] | None:
    """The eps-2-coloring with flag 0 colored 0, or None if none exists.

    When defined it is unique given the base flag, and both classes have
    exactly n_flags/2 members.
    """
    colors = _parity_coloring(h, eps.eps)
    return None if colors is None else tuple(colors.tolist())


# Targets of the first round of _stab_matched_flags, and of each round after
# one that found a new automorphism; maps of at most twice this many flags
# test every flag in one round, which costs them less than the orbit work.
_MATCH_BLOCK = 64


@functools.lru_cache(maxsize=64)
def _stab_matched_flags(h: Hypermap) -> np.ndarray:
    """Boolean mask over flags: some automorphism sends flag 0 there.

    A flag x is matched exactly when the equivariant extension 0 -> x is
    consistent (equivalently, when x's monodromy stabilizer equals flag
    0's), over h's tree from flag 0. Aut acts semiregularly, so the matched
    flags are flag 0's Aut-orbit, and each orbit of a group H of found
    automorphisms is wholly matched or wholly unmatched: x g is matched
    exactly when x = (x g) g^-1 is, for g in H. So a first round tests the
    first _MATCH_BLOCK flags, and each round keeps up to 8 of its consistent
    columns as generators of H. Each later round tests the least flag of
    every H-orbit that holds no tested flag (the first _MATCH_BLOCK of them
    after a round that found a new automorphism, each consistent one being
    new, and all of them after a round that found none), and every orbit is
    marked from any tested member.
    """
    tree, rows, n = _flag_tree(h), h.generator_matrix(), h.n_flags
    points = np.arange(n, dtype=DTYPE)
    if n <= 2 * _MATCH_BLOCK:
        mask = np.concatenate([ok for _, ok in _extensions(tree, rows, points)])
        mask.setflags(write=False)
        return mask
    labels, gens = points, np.empty((0, n), dtype=DTYPE)
    tested, hit = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    targets, last = points[:_MATCH_BLOCK], False
    while targets.size:
        new = []
        for psi, ok in _extensions(tree, rows, targets):
            hit[psi[0]] = ok
            new.extend(psi[:, np.flatnonzero(ok & (psi[0] != 0))[:8 - len(new)]].T)
        if last:
            break
        tested[targets] = True
        if new:
            gens = np.vstack([gens, *new])
            labels = _orbit_labels(gens, labels)
        seen = np.zeros(n, dtype=bool)
        seen[labels[tested]] = True
        targets = np.flatnonzero((labels == points) & ~seen).astype(DTYPE)
        last = not new or targets.size <= _MATCH_BLOCK
        targets = targets if last else targets[:_MATCH_BLOCK]
    matched = np.zeros(n, dtype=bool)
    matched[labels[hit]] = True
    mask = matched[labels]
    mask.setflags(write=False)
    return mask


def _automorphism_group(h: Hypermap, targets: np.ndarray) -> FiniteGroup:
    """The automorphisms sending flag 0 to each of targets, as a group.

    targets must be matched flags, listed with flag 0 first.
    """
    blocks = _extensions(_flag_tree(h), h.generator_matrix(), targets.astype(DTYPE))
    # the psi.T blocks concatenate F-ordered; rows of the C-ordered copy are the generators
    matrix = _freeze(np.concatenate([psi.T for psi, _ in blocks]))
    return FiniteGroup(h.n_flags, tuple(map(Permutation._wrap, matrix)), matrix)


def automorphisms(h: Hypermap) -> FiniteGroup:
    """The full automorphism group, acting on flags.

    One automorphism per flag to which the extension from flag 0 is
    consistent; the action is semi-regular, so the group order equals that
    flag count.
    """
    return _automorphism_group(h, np.flatnonzero(_stab_matched_flags(h)))


def is_regular(h: Hypermap) -> bool:
    """|Aut| == |flags| (equivalently |Mon| == |flags|).

    True exactly when the extension from flag 0 to every flag is consistent.
    Past 128 flags the mask tests the first 64 targets, and the orbit of
    flag 0 under 8 automorphisms found there usually covers the rest.
    """
    return bool(_stab_matched_flags(h).all())


def is_theta_regular(h: Hypermap, eps: ParityVector) -> bool:
    """eps-colorable with automorphisms transitive on flag 0's color class.

    Computed as: the extension from flag 0 to every flag colored like
    flag 0 is consistent (the other class then follows by symmetry).
    """
    colors = _parity_coloring(h, eps.eps)
    if colors is None:
        return False
    return bool(np.all(_stab_matched_flags(h)[colors == 0]))


def bipartite_type(h: Hypermap) -> BipartiteType | None:
    """(l1, l2; m; n) when h is bipartite-uniform, else None.

    Requires the (1,0,0)-coloring to exist, hypervertex valencies constant
    within each color class, and hyperedge/hyperface valencies each constant
    overall.
    """
    colors = _parity_coloring(h, BIPARTITE.eps)
    if colors is None:
        return None
    first, vals = _face_valencies(h, 0)
    vertex = [vals[colors[first] == c] for c in (0, 1)]
    edge, face = (_face_valencies(h, k)[1] for k in (1, 2))
    if any(np.ptp(v) for v in (*vertex, edge, face)):
        return None
    l1, l2 = sorted(int(v[0]) for v in vertex)
    return BipartiteType(l1, l2, int(edge[0]), int(face[0]))


def is_bipartite_uniform(h: Hypermap) -> bool:
    return bipartite_type(h) is not None


def is_bipartite_chiral(h: Hypermap) -> bool:
    """No automorphism swaps the two vertex color classes.

    True exactly when the extension from flag 0 to every flag colored
    opposite to flag 0 is inconsistent. For bipartite-regular h this
    coincides with "theta-regular but not regular".
    """
    colors = _parity_coloring(h, BIPARTITE.eps)
    if colors is None:
        raise NotBipartite("hypermap admits no vertex 2-coloring")
    return not bool(np.any(_stab_matched_flags(h)[colors == 1]))


def theta_preserving_automorphisms(h: Hypermap, eps: ParityVector) -> FiniteGroup:
    """Subgroup of automorphisms mapping each eps color class to itself.

    An automorphism is determined by the image of flag 0, and preserves the
    classes exactly when that image has color 0.
    """
    colors = _parity_coloring(h, eps.eps)
    if colors is None:
        raise NotConservative(f"no {eps.bits}-coloring exists")
    return _automorphism_group(h, np.flatnonzero(_stab_matched_flags(h) & (colors == 0)))
