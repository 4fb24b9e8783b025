"""The Hypermap value and its intrinsic geometry.

A hypermap is a triple of fixed-point-free involutions h0, h1, h2 acting
transitively on the flag set {0..n_flags-1}. k-faces (hypervertices for
k=0, hyperedges for k=1, hyperfaces for k=2) are the orbits of the two
generators other than h_k; a face's valency is half its orbit size. The
base flag is index 0 everywhere a distinguished flag is needed.

Values are immutable and hashable. A hypermap is its read-only (3, n_flags)
generator matrix; h.h and h0-h2 are Permutation views of its rows, made on
access. Builders hand their rows to the one checked constructor: it checks
each for n_flags integer images in range (Permutations are trusted), stacks
them once, checks involutions and fixed points while labelling the k-faces,
and transitivity while building one breadth-first tree from flag 0, which
gives the walk parities and spans every equivariant extension from flag 0
(duals and relabellings skip the checks and build theirs on first use).
From first use it keeps its face valencies and parity colorings. The
monodromy group is memoized for the four most recently used
hypermaps only, since one group can hold hundreds of megabytes.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import DTYPE, _pair_orbit_labels
from .errors import HasFixedPoint, NotBipartite, NotInvolution, NotTransitive, ParseError
from .perm import FiniteGroup, Permutation, _freeze, _orbit_tuples, generate_group, orbits

__all__ = [
    "Hypermap",
    "HypermapType",
    "SurfaceClass",
    "validate",
    "k_faces",
    "valencies",
    "euler_characteristic",
    "surface_class",
    "type_of",
    "is_uniform",
    "dual",
    "relabel",
    "canonical_code",
    "canonical_form",
    "are_isomorphic",
    "find_covering",
    "monodromy_group",
    "to_text",
    "from_text",
]


@dataclass(frozen=True)
class HypermapType:
    """Least common multiples (l; m; n) of the three valency families."""

    l: int
    m: int
    n: int

    def __post_init__(self):
        if min(self.l, self.m, self.n) < 1:
            raise ValueError("type components must be positive")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l, self.m, self.n)

    def __str__(self) -> str:
        return f"({self.l};{self.m};{self.n})"


@dataclass(frozen=True)
class SurfaceClass:
    """Euler characteristic, orientability, and the derived genus."""

    euler_characteristic: int
    orientable: bool
    genus: int

    @classmethod
    def from_characteristic(cls, chi: int, orientable: bool) -> "SurfaceClass":
        if orientable:
            if chi % 2 != 0:
                raise ValueError("orientable surfaces have even characteristic")
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
        if genus < 0:
            raise ValueError(f"characteristic {chi} exceeds the sphere's")
        return cls(chi, orientable, genus)

    def __str__(self) -> str:
        kind = "orientable" if self.orientable else "non-orientable"
        return f"{kind} genus {self.genus} (chi={self.euler_characteristic})"


class Hypermap:
    """Flag count plus three fixed-point-free involutions acting transitively.

    The constructor checks every invariant, so any Hypermap in hand is valid;
    use validate() to turn raw data into typed violation errors.
    """

    __slots__ = ("n_flags", "_rows", "_hash", "_faces", "_tree", "_valencies", "_colorings")

    def __init__(self, n_flags: int, h0, h1, h2):
        rows = []
        for i, gen in enumerate((h0, h1, h2)):
            row = gen.images if isinstance(gen, Permutation) else np.asarray(gen)
            if n_flags < 1 or row.shape != (n_flags,):
                raise ValueError(f"h{i} has shape {row.shape}, expected ({n_flags},) with n_flags >= 1")
            if row.dtype.kind not in "iu":
                raise ValueError(f"h{i} has images of dtype {row.dtype}, not integers")
            if not isinstance(gen, Permutation) and (row.min() < 0 or row.max() >= n_flags):  # trusted
                raise ValueError(f"h{i} image out of range")
            rows.append(row)
        matrix = np.array(rows, dtype=DTYPE)
        self._fill(matrix, _face_labels(matrix), _bfs_tree(matrix))

    def _fill(self, rows: np.ndarray, faces: np.ndarray, tree: "_Tree | None" = None) -> "Hypermap":
        """Set the slots from checked (3, n_flags) generator images, k-face
        labels and tree (None: built on first use); freezes both arrays."""
        rows.setflags(write=False)
        faces.setflags(write=False)
        for name, value in zip(self.__slots__, (rows.shape[1], rows, None, faces, tree, {}, {})):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Hypermap is immutable")

    h = property(lambda self: tuple(map(Permutation._wrap, self._rows)))
    h0 = property(lambda self: Permutation._wrap(self._rows[0]))
    h1 = property(lambda self: Permutation._wrap(self._rows[1]))
    h2 = property(lambda self: Permutation._wrap(self._rows[2]))

    def generator_matrix(self) -> np.ndarray:
        """The read-only (3, n_flags) array of the generator images."""
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypermap):
            return NotImplemented
        return self.n_flags == other.n_flags and bool(np.array_equal(self._rows, other._rows))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._rows.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"<Hypermap n_flags={self.n_flags}>"


# Verify raw data as a hypermap; raises the specific violation.
validate = Hypermap


def _face_labels(rows: np.ndarray) -> np.ndarray:
    """The k-face labels (3, n) of rows (3, n) of images in range, checked
    row by row as fixed-point-free involutions (so bijections)."""
    points = np.arange(rows.shape[1], dtype=DTYPE)
    twice, fixed = rows[[[0], [1], [2]], rows] == points, rows == points
    for i in np.flatnonzero((fixed | ~twice).any(axis=1))[:1].tolist():  # the first bad row
        if not twice[i].all():
            raise NotInvolution(i)
        raise HasFixedPoint(i, int(fixed[i].argmax()))
    return _pair_orbit_labels(rows[[1, 0, 0]], rows[[2, 2, 1]])


def _face_valencies(h: Hypermap, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, valency): each k-face's least flag, increasing, and half its
    size; kept on h, read-only, from the first call."""
    kept = h._valencies.get(k)
    if kept is None:
        labels = h._faces[k]
        first = np.flatnonzero(labels == np.arange(h.n_flags))
        kept = h._valencies[k] = (_freeze(first), _freeze(np.bincount(labels)[first] // 2))
    return kept


def k_faces(h: Hypermap, k: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of the two generators other than h_k, listed by smallest member."""
    return _orbit_tuples(h._faces[k])


def valencies(h: Hypermap, k: int) -> tuple[int, ...]:
    """Valency (half the orbit size) of each k-face, in k_faces order."""
    return tuple(_face_valencies(h, k)[1].tolist())


def euler_characteristic(h: Hypermap) -> int:
    """V + E + F - n_flags/2."""
    return sum(_face_valencies(h, k)[0].size for k in range(3)) - h.n_flags // 2


# Parity of the number of set bits of each v < 8.
_BIT_PARITY = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=DTYPE)


class _Tree(NamedTuple):
    """Breadth-first spanning tree from point 0 of a transitive action rows
    (3, n), with the walk parities it gives."""

    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (points, parents, gens[:, None])
    xs: np.ndarray  # the pairs (x, i) off the tree: x h_i = ys
    gens: np.ndarray  # (pairs, 1)
    ys: np.ndarray
    walk: np.ndarray  # bit i of walk[x]: parity of the h_i steps on the tree path 0 -> x
    odd: np.ndarray  # (8,) bool: some closed walk at 0 has odd weight w


def _bfs_tree(rows: np.ndarray) -> _Tree:
    """The tree of rows, else NotTransitive. Closed walks at 0 are products of the
    cycles that close the pairs off the tree, whose parity vectors are walk[xs] ^
    walk[ys] ^ 2**i, so a weight is odd on some closed walk iff on one of those."""
    steps = [(row, 1 << i, i) for i, row in enumerate(rows.tolist())]
    walk = [0] + [-1] * (rows.shape[1] - 1)  # walk[y] is -1 until reached
    tree: list[int] = []  # point, parent, generator of each edge, level by level
    cuts, frontier = [], [0]
    while frontier:
        cuts.append(len(tree) // 3)
        for x in frontier:
            parity = walk[x]
            for row, bit, i in steps:
                y = row[x]
                if walk[y] < 0:
                    walk[y] = parity ^ bit
                    tree += (y, x, i)
        frontier = tree[3 * cuts[-1]::3]
    if len(tree) < 3 * (len(walk) - 1):
        raise NotTransitive(len(orbits(rows, len(walk))))
    edges = np.array(tree, dtype=DTYPE).reshape(-1, 3).T
    levels = [(edges[0, s:e], edges[1, s:e], edges[2, s:e, None]) for s, e in zip(cuts, cuts[1:])]
    off_tree = np.ones(rows.shape, dtype=bool)
    off_tree[edges[2], edges[0]] = off_tree[edges[2], edges[1]] = False
    gens, xs = np.nonzero(off_tree)
    ys, walk = rows[gens, xs], np.array(walk, dtype=DTYPE)
    odd = _BIT_PARITY[(walk[xs] ^ walk[ys] ^ 1 << gens)[:, None] & np.arange(8)].any(axis=0)
    return _Tree(levels, xs, gens[:, None], ys, _freeze(walk), _freeze(odd))


def _flag_tree(h: Hypermap) -> _Tree:
    """h's tree from flag 0: the constructor's, else built on first use."""
    if h._tree is None:
        object.__setattr__(h, "_tree", _bfs_tree(h._rows))
    return h._tree


def _parity_coloring(h: Hypermap, eps: tuple[int, int, int]) -> np.ndarray | None:
    """2-coloring from flag 0 where h_i flips the color iff eps[i] is 1: the
    eps-weighted walk parity, defined iff all closed walks at 0 weigh even.
    Kept on h, read-only, from the first call."""
    if eps not in h._colorings:
        tree = _flag_tree(h)
        weight = eps[0] | eps[1] << 1 | eps[2] << 2
        h._colorings[eps] = None if tree.odd[weight] else _freeze(_BIT_PARITY[tree.walk & weight])
    return h._colorings[eps]


def _vertex_class_restriction(h: Hypermap, pick=lambda colors: 0) -> np.ndarray:
    """t1, t2, t0 t1 t0 and t0 t2 t0 on one vertex color class of h, the one
    pick(colors) names (default: flag 0's), as a (4, m) matrix on the class's
    flags renumbered in flag order; NotBipartite without a vertex 2-coloring.
    t0 swaps the classes and t1, t2 keep them, so every row maps the class
    onto itself."""
    colors = _parity_coloring(h, (1, 0, 0))
    if colors is None:
        raise NotBipartite("no vertex 2-coloring")
    in_class = colors == pick(colors)
    pos = np.cumsum(in_class, dtype=DTYPE) - 1  # each class flag's number, read at class flags only
    flags, (t0, t1, t2) = np.flatnonzero(in_class), h._rows
    across = t0[flags]
    return pos[np.stack([t1[flags], t2[flags], t0[t1[across]], t0[t2[across]]])]


def surface_class(h: Hypermap) -> SurfaceClass:
    """Characteristic plus orientability (all-flip 2-colorability) and genus."""
    chi = euler_characteristic(h)
    orientable = _parity_coloring(h, (1, 1, 1)) is not None
    return SurfaceClass.from_characteristic(chi, orientable)


def type_of(h: Hypermap) -> HypermapType:
    return HypermapType(*(math.lcm(*_face_valencies(h, k)[1].tolist()) for k in range(3)))


def is_uniform(h: Hypermap) -> bool:
    """True when, for each k, every k-face has the same valency."""
    return all(np.ptp(_face_valencies(h, k)[1]) == 0 for k in range(3))


# The six dualities by name, as sigma's images; the identity first.
_SIGMA_IMAGES = {
    "id": (0, 1, 2),
    "01": (1, 0, 2),
    "02": (2, 1, 0),
    "12": (0, 2, 1),
    "012": (1, 2, 0),
    "021": (2, 0, 1),
}


def dual(h: Hypermap, sigma: tuple[int, int, int]) -> Hypermap:
    """The sigma-dual: generator k of the result is h_{sigma^-1(k)}.

    sigma is given by its images (sigma(0), sigma(1), sigma(2)); k-faces of
    h become sigma(k)-faces of the dual. Characteristic, orientability,
    flag count, and regularity are unchanged.
    """
    if tuple(sorted(sigma)) != (0, 1, 2):
        raise ValueError(f"sigma {sigma!r} is not a permutation of (0, 1, 2)")
    inv = np.argsort(sigma)
    # a dual of a valid hypermap is valid; its k-faces are h's inv[k]-faces
    return object.__new__(Hypermap)._fill(h._rows[inv], h._faces[inv])


def relabel(h: Hypermap, sigma: Permutation) -> Hypermap:
    """Rename flags by sigma (old flag x becomes sigma(x)).

    A relabelling of a valid hypermap is valid, so nothing is checked again,
    and h's k-faces carry across: each is labelled by its least new flag.
    """
    n = h.n_flags
    if sigma.degree != n:
        raise ValueError("relabeling degree mismatch")
    s = sigma.images
    inv = np.argsort(s)
    # position k * n + label of each old flag's k-face, and its least new flag
    at = h._faces + np.arange(0, 3 * n, n, dtype=DTYPE)[:, None]
    least = np.full(3 * n, n, dtype=DTYPE)
    np.minimum.at(least, at.reshape(-1), np.tile(s, 3))
    faces = np.empty((3, n), dtype=DTYPE)
    faces[:, s] = least[at]
    return object.__new__(Hypermap)._fill(s[h._rows[:, inv]], faces)


@functools.lru_cache(maxsize=64)
def _canonical(h: Hypermap) -> tuple[bytes, Permutation]:
    code, sigma = _kernels.canonical_code(h.generator_matrix())
    return code.astype(DTYPE).tobytes(), Permutation(sigma)


def canonical_form(h: Hypermap) -> Permutation:
    """The relabeling sigma for which relabel(h, sigma) is the breadth-first
    minimal representative over all start flags. The representative (not
    sigma itself) is identical for any flag relabeling of the same hypermap."""
    return _canonical(h)[1]


def canonical_code(h: Hypermap) -> bytes:
    """Isomorphism certificate (equal exactly when isomorphic), to deduplicate many maps."""
    return _canonical(h)[0]


# Entries (flags x targets) of one psi block yielded by _extensions.
_EXTENSION_BLOCK = 1 << 20


def _extensions(
    tree: _Tree, b_rows: np.ndarray, targets: np.ndarray, grow: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The equivariant maps a -> b sending flag 0 to each target, given
    tree, the _bfs_tree of a's generator images, and b_rows, b's (3, n_b).

    Yields (psi, ok) for consecutive blocks of targets, in order, with at
    most _EXTENSION_BLOCK entries in each psi (n_a, T); with grow, for
    callers that stop at the first hit, blocks hold 1, 4, 16, ... targets
    up to that cap. Column t is filled level by level along the tree from
    psi[0, t], the block's t-th target. It is an equivariant map, psi(x h_i)
    = psi(x) g_i on every edge, exactly when ok[t]; only then does such a
    map exist for the target, and it is unique. The tree edges hold by
    construction, both ways since g_i is an involution, so ok tests only
    the n_a + 2 other pairs (x, i).
    """
    n_a = tree.walk.shape[0]
    cap = max(1, _EXTENSION_BLOCK // n_a)
    start, step = 0, 1 if grow else cap
    while start < targets.shape[0]:
        block = targets[start:start + step]
        start, step = start + step, min(cap, 4 * step)
        psi = np.empty((n_a, block.shape[0]), dtype=DTYPE)
        psi[0] = block
        for flags, parents, gens in tree.levels:
            psi[flags] = b_rows[gens, psi[parents]]
        yield psi, (psi[tree.ys] == b_rows[tree.gens, psi[tree.xs]]).all(axis=0)


def find_covering(a: Hypermap, b: Hypermap) -> tuple[int, ...] | None:
    """Generator-equivariant map psi with psi(x * h_i) = psi(x) * g_i.

    Candidate images for flag 0 are scanned in increasing order, in blocks
    growing from one target; the first consistent extension is returned
    (surjective by transitivity), else None. A hit at target t costs O(n_a * t).
    """
    for psi, ok in _extensions(_flag_tree(a), b._rows, np.arange(b.n_flags, dtype=DTYPE), grow=True):
        hits = np.flatnonzero(ok)
        if hits.size:
            return tuple(int(v) for v in psi[:, hits[0]])
    return None


def are_isomorphic(a: Hypermap, b: Hypermap) -> bool:
    """Color-and-generator-preserving bijection of flags exists. A covering
    a -> b is onto, b being transitive; with equal flag counts it is a bijection.
    Costs O(n * t) when the first isomorphism sends flag 0 to target t."""
    return a.n_flags == b.n_flags and find_covering(a, b) is not None


@functools.lru_cache(maxsize=4)
def monodromy_group(h: Hypermap) -> FiniteGroup:
    """The group generated by h0, h1, h2, memoized for the last few hypermaps."""
    return generate_group(h.h, h.n_flags)


# ---------------------------------------------------------------------------
# serialization (text document format shared with the CLI)
#
#   hypermap <n_flags>
#   h0: i0 i1 ...
#   h1: ...
#   h2: ...
#
# Images are 0-indexed. The format is line-oriented so golden files diff
# cleanly.


def to_text(h: Hypermap) -> str:
    rows = (f"h{i}: " + " ".join(map(str, row)) for i, row in enumerate(h._rows.tolist()))
    return "\n".join([f"hypermap {h.n_flags}", *rows]) + "\n"


# Whitespace and control characters other than the separators: line feed,
# one carriage return before it, space and tab. The class holds C0, DEL, C1
# and the rest of str.isspace(); the guard passes a carriage return before a line feed.
_FOREIGN_SEPARATOR = re.compile(
    "[\x00-\x08\x0b-\x1f\x7f-\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000](?!(?<=\r)\n)"
)


def from_text(text: str) -> Hypermap:
    """Parse a document. Lines end at a line feed, which one carriage return
    may precede, and fields are separated by spaces and tabs; any other
    whitespace or control character is a ParseError naming its line."""
    foreign = _FOREIGN_SEPARATOR.search(text)
    if foreign:
        line = text.count("\n", 0, foreign.start()) + 1
        raise ParseError(f"character U+{ord(foreign.group()):04X} is not a separator", line=line)
    # with no other whitespace left, strip() and split() see only the separators;
    # lines keep their number in the document, blank ones included
    lines = [(no, ln) for no, ln in enumerate((raw.strip() for raw in text.split("\n")), 1) if ln]
    if not lines:
        raise ParseError("empty document")
    head_no, head_line = lines[0]
    head = head_line.split()
    # int() alone also takes signs, underscores and other scripts' digits
    if len(head) != 2 or head[0] != "hypermap" or not (head[1].isascii() and head[1].isdigit()):
        raise ParseError(f"expected 'hypermap <n_flags>', got {head_line!r}", line=head_no)
    try:
        n_flags = int(head[1])
    except ValueError:  # more digits than int() converts
        raise ParseError(f"flag count of {len(head[1])} digits is too long", line=head_no) from None
    if n_flags < 1:
        raise ParseError("flag count must be positive", line=head_no)
    if len(lines) != 4:
        raise ParseError(f"expected 4 lines (header plus h0/h1/h2), got {len(lines)}")
    rows = []
    for i, (line_no, line) in enumerate(lines[1:]):
        prefix = f"h{i}:"
        if not line.startswith(prefix):
            raise ParseError(f"expected line to start with {prefix!r}", line=line_no)
        fields = line[len(prefix):].split()
        if len(fields) != n_flags:
            raise ParseError(f"h{i} has {len(fields)} images, expected {n_flags}", line=line_no)
        digits = "".join(fields)
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"h{i} has an image that is not ASCII decimal digits", line=line_no)
        try:
            images = list(map(int, fields))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"h{i} image out of range", line=line_no) from None
        if max(images) >= n_flags:
            raise ParseError(f"h{i} image out of range", line=line_no)
        # n_flags images in range: a bijection exactly when all differ
        if len(set(images)) != n_flags:
            raise ParseError(f"h{i}: images is not a bijection", line=line_no)
        rows.append(images)
    # the rows are checked bijections; Hypermap checks the rest on the matrix
    return Hypermap(n_flags, *map(Permutation._wrap, _freeze(np.array(rows, dtype=DTYPE))))
