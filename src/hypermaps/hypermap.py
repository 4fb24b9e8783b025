"""The Hypermap value and its intrinsic geometry.

A hypermap is a triple of fixed-point-free involutions h0, h1, h2 acting
transitively on the flag set {0..n_flags-1}. k-faces (hypervertices for
k=0, hyperedges for k=1, hyperfaces for k=2) are the orbits of the two
generators other than h_k; a face's valency is half its orbit size. The
base flag is index 0 everywhere a distinguished flag is needed.

Values are immutable and hashable. They label their k-faces once, when
checked for transitivity, and keep their face valencies, walk parities and
parity colorings, read-only, from first use. The monodromy group is
memoized for the four most recently used hypermaps only, since one group
can hold hundreds of megabytes.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import DTYPE, _orbit_labels
from .errors import HasFixedPoint, NotInvolution, NotTransitive, ParseError
from .perm import FiniteGroup, Permutation, _freeze, _orbit_tuples, generate_group

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

    __slots__ = ("n_flags", "h", "_hash", "_faces", "_walks", "_valencies", "_colorings")

    def __init__(self, n_flags: int, h0, h1, h2):
        perms = tuple(p if isinstance(p, Permutation) else Permutation(p) for p in (h0, h1, h2))
        for i, p in enumerate(perms):
            if p.degree != n_flags:
                raise ValueError(f"h{i} has degree {p.degree}, expected {n_flags}")
            if not p.is_involution():
                raise NotInvolution(i)
            fixed = p.fixed_points()
            if fixed.size:
                raise HasFixedPoint(i, int(fixed[0]))
        points = np.arange(n_flags, dtype=DTYPE)
        stacks = np.stack([p.images for p in perms])[_LABEL_STACKS]
        labels = _orbit_labels(stacks, np.broadcast_to(points, (4, n_flags)))
        if labels[3].any():
            raise NotTransitive(int(np.count_nonzero(labels[3] == points)))
        labels.setflags(write=False)
        self._fill(n_flags, perms, labels[:3])

    def _fill(self, n_flags: int, perms: tuple[Permutation, ...], faces: np.ndarray) -> None:
        """Set the slots from checked data; faces holds the k-face labels."""
        object.__setattr__(self, "n_flags", n_flags)
        object.__setattr__(self, "h", perms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_faces", dict(enumerate(faces)))
        object.__setattr__(self, "_walks", None)
        object.__setattr__(self, "_valencies", {})
        object.__setattr__(self, "_colorings", {})

    def __setattr__(self, name, value):
        raise AttributeError("Hypermap is immutable")

    @property
    def h0(self) -> Permutation:
        return self.h[0]

    @property
    def h1(self) -> Permutation:
        return self.h[1]

    @property
    def h2(self) -> Permutation:
        return self.h[2]

    def generator_matrix(self) -> np.ndarray:
        """(3, n_flags) array of the generator images."""
        return np.stack([p.images for p in self.h])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypermap):
            return NotImplemented
        return self.n_flags == other.n_flags and self.h == other.h

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n_flags, self.h)))
        return self._hash

    def __repr__(self) -> str:
        return f"<Hypermap n_flags={self.n_flags}>"


def validate(n_flags: int, h0, h1, h2) -> Hypermap:
    """Verify raw data as a hypermap; raises the specific violation."""
    return Hypermap(n_flags, h0, h1, h2)


# The generator stacks labelled by the constructor: the k-faces (the other
# two generators, one twice to fill the stack), then the whole flag set.
_LABEL_STACKS = np.array([[1, 2, 2], [0, 2, 2], [0, 1, 1], [0, 1, 2]])


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


def _walk_parities(h: Hypermap) -> tuple[np.ndarray, np.ndarray]:
    """(closed, walk): the parity vectors v of the closed walks at flag 0,
    and one v of a walk from flag 0 to each flag; bit i of v is the parity
    of the walk's number of h_i steps. Labelled once, as the orbit of (0, 0)
    on the cover points v * n + x, where h_i sends (x, v) to (x h_i, v ^ 2**i).
    """
    if h._walks is None:
        n = h.n_flags
        v = np.arange(8, dtype=DTYPE)[:, None]
        gens = np.stack([((v ^ (1 << i)) * n + p.images).reshape(-1) for i, p in enumerate(h.h)])
        reach = (_orbit_labels(gens, np.arange(8 * n, dtype=DTYPE)) == 0).reshape(8, n)
        object.__setattr__(h, "_walks", (np.flatnonzero(reach[:, 0]), reach.argmax(axis=0)))
    return h._walks


def _parity_coloring(h: Hypermap, eps: tuple[int, int, int]) -> np.ndarray | None:
    """2-coloring from flag 0 where h_i flips the color iff eps[i] is 1: the
    eps-weighted walk parity, defined iff all closed walks at 0 weigh even.
    Kept on h, read-only, from the first call."""
    if eps not in h._colorings:
        closed, walk = _walk_parities(h)
        weight = eps[0] | eps[1] << 1 | eps[2] << 2
        odd = _BIT_PARITY[closed & weight].any()
        h._colorings[eps] = None if odd else _freeze(_BIT_PARITY[walk & weight])
    return h._colorings[eps]


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
    inv = [0, 0, 0]
    for i, s in enumerate(sigma):
        inv[s] = i
    return Hypermap(h.n_flags, h.h[inv[0]], h.h[inv[1]], h.h[inv[2]])


def relabel(h: Hypermap, sigma: Permutation) -> Hypermap:
    """Rename flags by sigma (old flag x becomes sigma(x)).

    A relabelling of a valid hypermap is valid, so nothing is checked again,
    and h's k-faces carry across: each is labelled by its least new flag.
    """
    n = h.n_flags
    if sigma.degree != n:
        raise ValueError("relabeling degree mismatch")
    s = sigma.images
    inv = np.empty_like(s)
    inv[s] = np.arange(n, dtype=DTYPE)
    perms = tuple(Permutation._wrap(_freeze(s[p.images[inv]])) for p in h.h)
    # position k * n + label of each old flag's k-face, and its least new flag
    at = np.stack([h._faces[k] for k in range(3)]) + np.arange(0, 3 * n, n, dtype=DTYPE)[:, None]
    least = np.full(3 * n, n, dtype=DTYPE)
    np.minimum.at(least, at.reshape(-1), np.tile(s, 3))
    faces = np.empty((3, n), dtype=DTYPE)
    faces[:, s] = least[at]
    faces.setflags(write=False)
    out = object.__new__(Hypermap)
    out._fill(n, perms, faces)
    return out


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
    a_rows: np.ndarray, b_rows: np.ndarray, targets: np.ndarray, grow: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The equivariant maps a -> b sending flag 0 to each target.

    a_rows and b_rows are the (3, n_a) and (3, n_b) generator images. One
    breadth-first tree of a is built per call and filled level by level.
    Yields (psi, ok) for consecutive blocks of targets, in order, with at
    most _EXTENSION_BLOCK entries in each psi (n_a, T); with grow, for
    callers that stop at the first hit, blocks hold 1, 4, 16, ... targets
    up to that cap. Column t is propagated along the tree from psi[0, t],
    the block's t-th target. It is an equivariant map, psi(x h_i) = psi(x) g_i
    on every edge, exactly when ok[t]. Such a map exists for a target if and
    only if that column is consistent, and then it is unique. The tree edges
    hold by construction, both ways since g_i is an involution, so ok tests
    only the n_a + 2 other pairs (x, i).
    """
    n_a = a_rows.shape[1]
    rows = a_rows.tolist()
    seen = [True] + [False] * (n_a - 1)
    tree: list[int] = []  # flag, parent, generator of each edge, level by level
    cuts, frontier = [], [0]
    while frontier:
        cuts.append(len(tree) // 3)
        for x in frontier:
            for i, row in enumerate(rows):
                y = row[x]
                if not seen[y]:
                    seen[y] = True
                    tree += (y, x, i)
        frontier = tree[3 * cuts[-1]::3]
    edges = np.array(tree, dtype=DTYPE).reshape(-1, 3).T
    levels = [(edges[0, s:e], edges[1, s:e], edges[2, s:e, None]) for s, e in zip(cuts, cuts[1:])]
    off_tree = np.ones((3, n_a), dtype=bool)
    off_tree[edges[2], edges[0]] = off_tree[edges[2], edges[1]] = False
    off_gens, xs = np.nonzero(off_tree)
    ys, off_gens = a_rows[off_gens, xs], off_gens[:, None]
    cap = max(1, _EXTENSION_BLOCK // n_a)
    start, step = 0, 1 if grow else cap
    while start < targets.shape[0]:
        block = targets[start:start + step]
        start, step = start + step, min(cap, 4 * step)
        psi = np.empty((n_a, block.shape[0]), dtype=DTYPE)
        psi[0] = block
        for flags, parents, gens in levels:
            psi[flags] = b_rows[gens, psi[parents]]
        yield psi, (psi[ys] == b_rows[off_gens, psi[xs]]).all(axis=0)


def find_covering(a: Hypermap, b: Hypermap) -> tuple[int, ...] | None:
    """Generator-equivariant map psi with psi(x * h_i) = psi(x) * g_i.

    Candidate images for flag 0 are scanned in increasing order, in blocks
    growing from one target; the first consistent extension is returned
    (surjective by transitivity), else None. A hit at target t costs O(n_a * t).
    """
    a_rows, b_rows = a.generator_matrix(), b.generator_matrix()
    for psi, ok in _extensions(a_rows, b_rows, np.arange(b.n_flags, dtype=DTYPE), grow=True):
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
    lines = [f"hypermap {h.n_flags}"]
    for i, p in enumerate(h.h):
        lines.append(f"h{i}: " + " ".join(str(int(x)) for x in p.images))
    return "\n".join(lines) + "\n"


# Whitespace and control characters other than the separators: line feed,
# one carriage return before it, space and tab.
_FOREIGN_SEPARATOR = re.compile(r"\r(?!\n)|(?![ \t\n\r])[\s\x00-\x1f\x7f-\x9f]")


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
    perms = []
    for i, (line_no, line) in enumerate(lines[1:]):
        prefix = f"h{i}:"
        if not line.startswith(prefix):
            raise ParseError(f"expected line to start with {prefix!r}", line=line_no)
        fields = line[len(prefix):].split()
        if len(fields) != n_flags:
            raise ParseError(
                f"h{i} has {len(fields)} images, expected {n_flags}", line=line_no
            )
        digits = "".join(fields)
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"h{i} has an image that is not ASCII decimal digits", line=line_no)
        try:
            images = [int(f) for f in fields]
        except ValueError:  # more digits than int() converts
            raise ParseError(f"h{i} image out of range", line=line_no) from None
        if max(images) >= n_flags:
            raise ParseError(f"h{i} image out of range", line=line_no)
        try:
            perms.append(Permutation(images))
        except ValueError as exc:
            raise ParseError(f"h{i}: {exc}", line=line_no) from None
    return validate(n_flags, *perms)
