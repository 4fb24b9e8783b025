"""Builders: coset enumeration, named families, Walsh and Pin.

The enumeration targets groups generated by three involutions a, b, c
(indices 0, 1, 2). Relators are words over those indices; the squares
a^2 = b^2 = c^2 = 1 are built into the table itself (entries are filled
symmetrically), so presentations list only the additional relators.

Enumeration over the trivial subgroup turns a finite presentation into the
regular hypermap whose flags are the group elements; Walsh and Pin double a
hypermap's flag set, and unwalsh/unpin recover the original from the image
(up to the documented choices).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ._kernels import DTYPE
from .errors import (
    Degenerate,
    InvalidRestriction,
    KernelMismatch,
    LimitExceeded,
    NoValencyOneClass,
    NotAMap,
    NotBipartite,
)
from .hypermap import _SIGMA_IMAGES, Hypermap, _face_valencies, _parity_coloring, dual
from .perm import Permutation, _freeze

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

    def permutations(self) -> tuple[Permutation, Permutation, Permutation]:
        return tuple(
            Permutation._wrap(_freeze(np.ascontiguousarray(self.table[:, g])))
            for g in range(3)
        )


def todd_coxeter(presentation: Presentation, coset_limit: int = 1_000_000) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; HLT with lookahead-free fill.

    Table entries are set in symmetric pairs (generators are involutions, and
    fixed rows delta(c, g) = c are legal). Coincidences merge through an
    ancestor chain with the smaller coset surviving, so the result is
    deterministic. Raises LimitExceeded if more than coset_limit cosets get
    defined before the table closes.
    """
    rows: list[list[int | None]] = [[None, None, None]]
    parent = [0]

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

    c = 0
    while c < len(rows):
        if find(c) != c:
            c += 1
            continue
        for word in presentation.relators:
            scan_and_fill(c, word)
            if find(c) != c:
                break
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
    table = todd_coxeter(Presentation(((1, 2) * l, (2, 0) * m, (0, 1) * n)))
    perms = table.permutations()
    for i, p in enumerate(perms):
        if p.fixed_points().size:
            raise Degenerate(f"generator {i} has a fixed point on {table.n_cosets} cosets")
    return Hypermap(table.n_cosets, *perms)


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
    relators = ((0, 1) * (2 * k), (2, 0) + (1, 0) * k)
    table = todd_coxeter(Presentation(relators))
    return Hypermap(table.n_cosets, *table.permutations())


def _interleave(on_even: np.ndarray, on_odd: np.ndarray) -> np.ndarray:
    """Image array on 2n flags from per-copy images (copy = parity bit)."""
    out = np.empty(2 * on_even.shape[0], dtype=DTYPE)
    out[0::2] = on_even
    out[1::2] = on_odd
    return out


def walsh(h: Hypermap) -> Hypermap:
    """The Walsh double: flag (w, c) encoded as 2w + c.

    t0 swaps the copies, t1 acts as h1 on copy 0 and h0 on copy 1, t2 acts
    as h2 on both. The result is bipartite with the copies as color classes;
    hyperedges all have valency 2.
    """
    h0, h1, h2 = (p.images for p in h.h)
    t0 = np.arange(2 * h.n_flags, dtype=DTYPE) ^ 1
    t1 = _interleave(2 * h1, 2 * h0 + 1)
    t2 = _interleave(2 * h2, 2 * h2 + 1)
    return Hypermap(2 * h.n_flags, t0, t1, t2)


def pin(h: Hypermap) -> Hypermap:
    """The Pin double: same flags and t0, t1 as walsh, but t2 mixes copies.

    t2 acts as h2 on copy 0 and h0 on copy 1, so copy-1 hypervertices all
    get valency 1. The result is bipartite with hyperedges of valency 4.
    """
    h0, h1, h2 = (p.images for p in h.h)
    t0 = np.arange(2 * h.n_flags, dtype=DTYPE) ^ 1
    t1 = _interleave(2 * h1, 2 * h0 + 1)
    t2 = _interleave(2 * h2, 2 * h0 + 1)
    return Hypermap(2 * h.n_flags, t0, t1, t2)


def _restrict(full: np.ndarray, flags: np.ndarray, pos: np.ndarray) -> np.ndarray:
    images = full[flags]
    if np.any(pos[images] < 0):
        raise AssertionError("restriction leaves the color class")
    return pos[images]


def _class_arrays(colors: np.ndarray, wanted: int) -> tuple[np.ndarray, np.ndarray]:
    flags = np.flatnonzero(colors == wanted).astype(DTYPE)
    pos = np.full(colors.shape[0], -1, dtype=DTYPE)
    pos[flags] = np.arange(flags.shape[0], dtype=DTYPE)
    return flags, pos


def unwalsh(k: Hypermap, class_of: int | None = None) -> Hypermap:
    """Invert walsh: restrict t0 t1 t0, t1, t2 to one vertex color class.

    Requires (t0 t2)^2 = 1 (NotAMap otherwise) and a vertex 2-coloring
    (NotBipartite otherwise). The class restricted to is the one containing
    class_of (default: flag 0); the two choices give the hypermap and its
    hypervertex/hyperedge dual. InvalidRestriction wraps any validation
    failure of the restricted triple.
    """
    t0, t1, t2 = (p.images for p in k.h)
    u = t2[t0]
    if not np.array_equal(u[u], np.arange(k.n_flags)):
        raise NotAMap("(t0 t2)^2 != 1")
    colors = _parity_coloring(k, (1, 0, 0))
    if colors is None:
        raise NotBipartite("no vertex 2-coloring")
    base = 0 if class_of is None else class_of
    if not 0 <= base < k.n_flags:
        raise ValueError(f"class_of out of range: {base}")
    flags, pos = _class_arrays(colors, colors[base])
    g0 = _restrict(t0[t1[t0]], flags, pos)
    g1 = _restrict(t1, flags, pos)
    g2 = _restrict(t2, flags, pos)
    try:
        return Hypermap(flags.shape[0], g0, g1, g2)
    except Exception as exc:
        raise InvalidRestriction(str(exc)) from exc


def _all_valency_one(k: Hypermap, colors: np.ndarray, wanted: int) -> bool:
    first, vals = _face_valencies(k, 0)
    return bool(np.all(vals[colors[first] == wanted] == 1))


def unpin(k: Hypermap) -> Hypermap:
    """Invert pin: drop the valency-1 vertex class, restrict to the other.

    Needs a vertex 2-coloring (NotBipartite) and a color class whose
    hypervertices all have valency 1 (NoValencyOneClass). When both classes
    qualify the class not containing flag 0 is kept. On the kept class the
    two conjugates t0 t1 t0 and t0 t2 t0 must agree (KernelMismatch); they
    become h0, with t1, t2 restricting to h1, h2.
    """
    t0, t1, t2 = (p.images for p in k.h)
    colors = _parity_coloring(k, (1, 0, 0))
    if colors is None:
        raise NotBipartite("no vertex 2-coloring")
    val1 = [_all_valency_one(k, colors, c) for c in (0, 1)]
    if not any(val1):
        raise NoValencyOneClass("neither color class has all hypervertices of valency 1")
    if all(val1):
        keep = 1 - colors[0]
    else:
        keep = 0 if val1[1] else 1
    flags, pos = _class_arrays(colors, keep)
    g0a = _restrict(t0[t1[t0]], flags, pos)
    g0b = _restrict(t0[t2[t0]], flags, pos)
    if not np.array_equal(g0a, g0b):
        raise KernelMismatch("t0 t1 t0 and t0 t2 t0 differ on the kept class")
    g1 = _restrict(t1, flags, pos)
    g2 = _restrict(t2, flags, pos)
    return Hypermap(flags.shape[0], g0a, g1, g2)


def six_duals(h: Hypermap) -> tuple[Hypermap, ...]:
    """All relabelings of the generator roles, identity first."""
    return tuple(dual(h, s) for s in _SIGMA_IMAGES.values())
