"""Builders: coset enumeration, named families, Walsh and Pin.

The enumeration targets groups generated by three involutions a, b, c
(indices 0, 1, 2). Relators are words over those indices; the squares
a^2 = b^2 = c^2 = 1 are built into the table itself (entries are filled
symmetrically), so presentations list only the additional relators.

Enumeration over the trivial subgroup turns a finite presentation into the
regular hypermap whose flags are the group elements; a relator (x y)^k is
scanned once per <x, y>-orbit of cosets, so a long one costs linear time.
Walsh and Pin are one doubling of a hypermap's flag set, differing only in
t2 on copy 1; unwalsh/unpin recover the original by one restriction to a
vertex color class (up to the documented choices). Every builder hands its
generator rows to the checked Hypermap constructor, except the doubles,
which are valid by construction and hand over rows only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ._kernels import DTYPE
from .errors import Degenerate, KernelMismatch, LimitExceeded, NoValencyOneClass, NotAMap
from .hypermap import _SIGMA_IMAGES, Hypermap, _face_valencies, _vertex_class_restriction, dual

__all__ = [
    "Presentation",
    "CosetTable",
    "todd_coxeter",
    "regular_from_type",
    "build_Dn",
    "build_Pn",
    "build_platonic",
    "build_Mk",
    "walsh",
    "pin",
    "unwalsh",
    "unpin",
    "six_duals",
]


@dataclass(frozen=True)
class Presentation:
    """Relators over generator indices 0, 1, 2; generator squares implicit."""

    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for word in self.relators:
            if not word:
                raise ValueError("empty relator")
            if any(letter not in (0, 1, 2) for letter in word):
                raise ValueError(f"relator letters must be 0, 1, or 2: {word!r}")


class CosetTable:
    """A closed coset table: columns are involutions, row 0 the subgroup."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table
        self.table.setflags(write=False)

    @property
    def n_cosets(self) -> int:
        return self.table.shape[0]


def todd_coxeter(presentation: Presentation, coset_limit: int = 1_000_000) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; HLT with lookahead-free fill.

    Table entries are set in symmetric pairs (generators are involutions, and
    fixed rows delta(c, g) = c are legal). Coincidences merge through an
    ancestor chain with the smaller coset surviving, so the result is
    deterministic. Raises LimitExceeded if more than coset_limit cosets get
    defined before the table closes.

    A relator (x y)^k is scanned once per <x, y>-orbit. Once it holds at a
    live coset c, it holds at every coset of c's orbit, which is the path it
    traces from c: at c (xy)^i it reads the same cycle from another start,
    and at c x it reads x (xy)^k = (yx)^k x, the cycle backwards. So that
    path is marked, and marked cosets skip the scan, which would only read
    defined entries and close; coincidences keep the relation at the
    surviving cosets. The table is the one plain HLT gives, with each such
    relator costing O(length) per orbit instead of per coset.
    """
    rows: list[list[int | None]] = [[None, None, None]]
    parent = [0]
    # bit r of held[c]: relator r, of the form (x y)^k, holds at coset c
    held = [0]
    periodic = [w == w[:2] * (len(w) // 2) for w in presentation.relators]

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, g: int) -> int:
        if len(rows) >= coset_limit:
            raise LimitExceeded("coset_limit", coset_limit)
        d = len(rows)
        rows.append([None, None, None])
        parent.append(d)
        held.append(0)
        rows[c][g] = d
        rows[d][g] = c
        return d

    def merge(a: int, b: int, queue: deque[int]) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: deque[int] = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            for g in range(3):
                d = rows[dead][g]
                if d is None:
                    continue
                rows[dead][g] = None
                if rows[d][g] == dead:
                    rows[d][g] = None
                mu, nu = find(dead), find(d)
                if rows[mu][g] is not None:
                    merge(nu, rows[mu][g], queue)
                elif rows[nu][g] is not None:
                    merge(mu, rows[nu][g], queue)
                else:
                    rows[mu][g] = nu
                    rows[nu][g] = mu

    def scan_and_fill(c: int, word: tuple[int, ...]) -> None:
        f, b = c, c
        i, j = 0, len(word) - 1
        while True:
            while i <= j and rows[f][word[i]] is not None:
                f = rows[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and rows[b][word[j]] is not None:
                b = rows[b][word[j]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                rows[f][word[i]] = b
                rows[b][word[i]] = f
                return
            define(f, word[i])

    def mark(c: int, x: int, y: int, bit: int) -> None:
        d = c
        while True:
            held[d] |= bit
            d = rows[d][x]
            held[d] |= bit
            d = rows[d][y]
            if d == c:
                return

    c = 0
    while c < len(rows):
        if find(c) != c:
            c += 1
            continue
        for r, word in enumerate(presentation.relators):
            if held[c] >> r & 1:
                continue
            scan_and_fill(c, word)
            if find(c) != c:
                break
            if periodic[r]:
                mark(c, word[0], word[1], 1 << r)
        if find(c) == c:
            for g in range(3):
                if rows[c][g] is None:
                    define(c, g)
        c += 1

    live = [c for c in range(len(rows)) if find(c) == c]
    relabel = {c: i for i, c in enumerate(live)}
    table = np.empty((len(live), 3), dtype=DTYPE)
    for i, c in enumerate(live):
        for g in range(3):
            entry = rows[c][g]
            if entry is None:
                raise AssertionError("open entry in closed table")
            table[i, g] = relabel[find(entry)]
    return CosetTable(table)


def regular_from_type(l: int, m: int, n: int) -> Hypermap:
    """The regular hypermap with relators (h1 h2)^l, (h2 h0)^m, (h0 h1)^n.

    This is the full triangle-group-style quotient of type (l; m; n). Raises
    Degenerate when a generator image in the quotient is the identity or has
    a fixed point (no hypermap on that group). Note the resulting type can
    be smaller than (l; m; n) when the presentation collapses; callers
    wanting exactness should check type_of.
    """
    if min(l, m, n) < 1:
        raise ValueError("type components must be positive")
    return _from_presentation(Presentation(((1, 2) * l, (2, 0) * m, (0, 1) * n)))


def _from_presentation(presentation: Presentation) -> Hypermap:
    """The regular hypermap on presentation's group; Degenerate if a generator has a fixed point."""
    table = todd_coxeter(presentation)
    rows = table.table.T
    fixed = (rows == np.arange(table.n_cosets)).any(axis=1)
    if fixed.any():
        i = fixed.argmax()
        raise Degenerate(f"generator {'abc'[i]} (h{i}) has a fixed point on {table.n_cosets} cosets")
    return Hypermap(table.n_cosets, *rows)


def build_Dn(n: int) -> Hypermap:
    """The n-edge dipole: 2 hypervertices, n hyperedges, 1 hyperface."""
    if n < 1:
        raise ValueError("n must be positive")
    return regular_from_type(n, n, 1)


def build_Pn(n: int) -> Hypermap:
    """The n-gonal prism boundary: type (2; 2; n), 4n flags."""
    if n < 1:
        raise ValueError("n must be positive")
    return regular_from_type(2, 2, n)


_PLATONIC_TYPES = {
    "T": (3, 2, 3),
    "C": (3, 2, 4),
    "O": (4, 2, 3),
    "D": (3, 2, 5),
    "I": (5, 2, 3),
}


def build_platonic(name: str) -> Hypermap:
    """T, C, O, D, I: tetra-, cube, octa-, dodeca-, icosahedron."""
    try:
        l, m, n = _PLATONIC_TYPES[name]
    except KeyError:
        raise ValueError(f"unknown solid {name!r}; expected one of T, C, O, D, I") from None
    return regular_from_type(l, m, n)


def build_Mk(k: int) -> Hypermap:
    """The 4k-flag map M_k: dihedral monodromy of order 4k.

    Generators a, b with (ab)^(2k) = 1 and c equal to the word a(ba)^k.
    For k = 1 this makes c = b; the family is regular, orientable, with one
    hyperface of valency 2k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _from_presentation(Presentation(((0, 1) * (2 * k), (2, 0) + (1, 0) * k)))


def _double(h: Hypermap, odd_t2: int) -> Hypermap:
    """The double of h on flags (w, c) encoded as 2w + c: t0 swaps the copies,
    t1 acts as h1 on copy 0 and h0 on copy 1, t2 as h2 on copy 0 and as
    h_odd_t2 on copy 1 (odd_t2 is 0 or 2).

    It is valid by construction, so nothing is checked. t0 = x ^ 1 and the
    copies' rows are fixed-point-free involutions. It is transitive, since
    (w,0) t0 t1 t0 = (w h0, 0), so copy 0 sees every h_i, and t0 reaches
    copy 1.
    """
    rows, n = h.generator_matrix(), h.n_flags
    t = np.empty((3, 2 * n), dtype=DTYPE)
    t[0] = np.arange(2 * n, dtype=DTYPE) ^ 1
    t[1:, 0::2] = 2 * rows[1:]
    t[1:, 1::2] = 2 * rows[[0, odd_t2]] + 1
    return object.__new__(Hypermap)._fill(t)


def walsh(h: Hypermap) -> Hypermap:
    """The Walsh double: t2 acts as h2 on both copies.

    The result is bipartite with the copies as color classes; hyperedges
    all have valency 2.
    """
    return _double(h, 2)


def pin(h: Hypermap) -> Hypermap:
    """The Pin double: same flags and t0, t1 as walsh, but t2 mixes copies.

    t2 acts as h2 on copy 0 and h0 on copy 1, so copy-1 hypervertices all
    get valency 1. The result is bipartite with hyperedges of valency 4.
    """
    return _double(h, 0)


def unwalsh(k: Hypermap) -> Hypermap:
    """Invert walsh: restrict t0 t1 t0, t1, t2 to flag 0's vertex color class.

    Requires (t0 t2)^2 = 1 (NotAMap otherwise) and a vertex 2-coloring
    (NotBipartite otherwise). The other class gives the hypervertex/hyperedge
    dual; it is flag 0's class in unwalsh(relabel(k, sigma)) for a sigma
    moving one of its flags to 0.
    """
    t0, _, t2 = k.generator_matrix()
    u = t2[t0]
    if not np.array_equal(u[u], np.arange(k.n_flags)):
        raise NotAMap("(t0 t2)^2 != 1")
    g1, g2, g0, _ = _vertex_class_restriction(k)
    return Hypermap(g0.shape[0], g0, g1, g2)


def unpin(k: Hypermap) -> Hypermap:
    """Invert pin: drop the valency-1 vertex class, restrict to the other.

    Needs a vertex 2-coloring (NotBipartite) and a color class whose
    hypervertices all have valency 1 (NoValencyOneClass). When both classes
    qualify the class not containing flag 0 is kept. On the kept class the
    two conjugates t0 t1 t0 and t0 t2 t0 must agree (KernelMismatch); they
    become h0, with t1, t2 restricting to h1, h2.
    """

    def kept_class(colors: np.ndarray) -> int:
        first, vals = _face_valencies(k, 0)
        ones = [bool(np.all(vals[colors[first] == c] == 1)) for c in (0, 1)]
        if not any(ones):
            raise NoValencyOneClass("neither color class has all hypervertices of valency 1")
        return int(ones[0])  # drop color 0, flag 0's class, whenever it qualifies

    g1, g2, g0, g0b = _vertex_class_restriction(k, kept_class)
    if not np.array_equal(g0, g0b):
        raise KernelMismatch("t0 t1 t0 and t0 t2 t0 differ on the kept class")
    return Hypermap(g0.shape[0], g0, g1, g2)


def six_duals(h: Hypermap) -> tuple[Hypermap, ...]:
    """All relabelings of the generator roles, identity first."""
    return tuple(dual(h, s) for s in _SIGMA_IMAGES.values())
