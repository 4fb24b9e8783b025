"""Exact permutation and finite-group machinery.

Permutations act on the right: the product ``a * b`` means "apply a, then b",
so ``(a * b)(x) == b(a(x))``. schreier_sims gives |G| and the generators of
Stab(0) from a base and strong generating set, without listing G; its work
is bounded by CHAIN_LIMIT. A FiniteGroup holds every element as a row of
one read-only matrix: one breadth-first closure of the identity builds them
all, generate_group under right multiplication by the generators, in the
given order, and normal_closure under right multiplication by the seeds and
conjugation by the ambient generators. A closure that passes ORDER_LIMIT
elements, or whose next round would hold more than BYTE_LIMIT bytes of
elements, raises LimitExceeded. recognize_group names a group from the
histogram of its element orders alone (_group_name, which also names
Upsilon from orders read off without a group).
All values are immutable after construction, except that a FiniteGroup
builds its element index, Permutation list and element orders on first use.
Concurrent builds produce equal values and every operation is a pure
function, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ._kernels import DTYPE, _orbit_labels
from .errors import EmptyGenerators, LimitExceeded, NotAMember, NotNormal

__all__ = [
    "Permutation",
    "FiniteGroup",
    "GroupName",
    "generate_group",
    "schreier_sims",
    "orbits",
    "normal_closure",
    "quotient_action",
    "recognize_group",
]

# Element budget of every closure: above every group the catalog needs.
ORDER_LIMIT = 1_000_000
# Byte budget of one closure round: the elements kept plus the candidates it
# gathers. The catalog's largest round (Mon of wal(pin(T))) needs 177 MB.
BYTE_LIMIT = 1 << 28
# Work budget of one Schreier–Sims chain, in point images: a product of two
# permutations of degree n costs n. Every permutation the chain keeps is such
# a product, so this bounds its memory as well as its time. A random 48-flag
# document's chain (a symmetric or alternating group) needs 5-10 million.
CHAIN_LIMIT = 20_000_000


def _freeze(row: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(row, dtype=DTYPE)
    out.setflags(write=False)
    return out


def _orders(rows: np.ndarray) -> np.ndarray:
    """Order of each permutation row: the lcm of its cycle lengths."""
    points = np.arange(rows.shape[1], dtype=DTYPE)
    cycle = np.zeros(rows.shape, dtype=np.int64)  # cycle length of each point, once known
    power, k = rows, 1
    while True:
        cycle[(cycle == 0) & (power == points)] = k
        if cycle.all():
            return np.lcm.reduce(cycle, axis=1)
        power, k = np.take_along_axis(rows, power, axis=1), k + 1


class Permutation:
    """A bijection on {0..degree-1}, stored as its image sequence."""

    __slots__ = ("_img", "_hash")

    def __init__(self, images):
        img = np.asarray(images)
        if img.ndim != 1 or img.size == 0:
            raise ValueError("images must be a nonempty one-dimensional sequence")
        if img.dtype.kind not in "iu":
            raise ValueError(f"images of dtype {img.dtype} are not integers")
        n = img.shape[0]
        if img.min() < 0 or img.max() >= n:
            raise ValueError("image values out of range")
        seen = np.zeros(n, dtype=bool)
        seen[img] = True
        if not seen.all():
            raise ValueError("images is not a bijection")
        self._img = _freeze(img.astype(DTYPE))
        self._hash = None

    @classmethod
    def _wrap(cls, row: np.ndarray) -> "Permutation":
        # trusted path: row is already a frozen bijection
        p = object.__new__(cls)
        p._img = row
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._wrap(_freeze(np.arange(degree, dtype=DTYPE)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Permutation from disjoint cycles, e.g. from_cycles(4, [(0,1),(2,3)])."""
        img = np.arange(degree, dtype=DTYPE)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                img[a] = b
        return cls(img)

    @property
    def images(self) -> np.ndarray:
        """Read-only image array; images[x] is where x goes."""
        return self._img

    @property
    def degree(self) -> int:
        return int(self._img.shape[0])

    def __call__(self, x: int) -> int:
        return int(self._img[x])

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self, then other
        return Permutation._wrap(_freeze(other._img[self._img]))

    def __invert__(self) -> "Permutation":
        inv = np.empty_like(self._img)
        inv[self._img] = np.arange(self.degree, dtype=DTYPE)
        return Permutation._wrap(_freeze(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return (~self) ** (-k)
        out = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g^{-1} * self * g."""
        return ~g * self * g

    def order(self) -> int:
        return int(_orders(self._img[None, :])[0])

    def is_identity(self) -> bool:
        return bool(np.array_equal(self._img, np.arange(self.degree, dtype=DTYPE)))

    def is_involution(self) -> bool:
        return bool(np.array_equal(self._img[self._img], np.arange(self.degree, dtype=DTYPE)))

    def fixed_points(self) -> np.ndarray:
        return np.nonzero(self._img == np.arange(self.degree, dtype=DTYPE))[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.degree == other.degree and bool(np.array_equal(self._img, other._img))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.degree, self._img.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({self._img.tolist()!r})"


def _as_rows(perms, degree: int | None) -> tuple[np.ndarray, int]:
    rows = []
    for p in perms:
        rows.append(np.ascontiguousarray(p.images if isinstance(p, Permutation) else p, dtype=DTYPE))
    if degree is None:
        if not rows:
            raise ValueError("degree required when no permutations are given")
        degree = rows[0].shape[0]
    for img in rows:
        if img.shape[0] != degree:
            raise ValueError("permutations have mixed degrees")
    if rows:
        return np.stack(rows), degree
    return np.empty((0, degree), dtype=DTYPE), degree


def _closure(right: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """Breadth-first closure of the identity under the maps x -> post[x[pre]].

    Each row s of right gives the right multiplication x -> x s (post = s,
    pre = identity), each row g of conj the conjugation x -> g^-1 x g
    (post = g, pre = g^-1). Every round applies the right multiplications,
    then the conjugations, to the frontier, each block ordered by frontier
    row, then map; new elements are numbered in that order. Raises
    LimitExceeded after the first round that passes ORDER_LIMIT elements,
    and before a round whose kept and gathered elements pass BYTE_LIMIT.
    """
    degree = right.shape[1]
    ident = np.arange(degree, dtype=DTYPE)
    blocks = [ident[None, :]]
    index: dict[bytes, int] = {ident.tobytes(): 0}
    as_bytes = np.dtype((np.void, degree * ident.itemsize))
    frontier = blocks[0]
    conj_inv = np.argsort(conj, axis=1)  # a permutation's argsort is its inverse
    right_k = np.arange(right.shape[0])[:, None]
    conj_k = np.arange(conj.shape[0])[:, None]
    row_bytes = degree * ident.itemsize
    while frontier.shape[0]:
        if (len(index) + frontier.shape[0] * (right.shape[0] + conj.shape[0])) * row_bytes > BYTE_LIMIT:
            raise LimitExceeded("BYTE_LIMIT", BYTE_LIMIT)
        found = []
        for cand in (right[right_k, frontier[:, None, :]], conj[conj_k, frontier[:, conj_inv]]):
            # the conjugation gather can come back in a non-C layout, which .view rejects
            cand = np.ascontiguousarray(cand.reshape(-1, degree))
            new = []
            for i, key in enumerate(cand.view(as_bytes).ravel().tolist()):
                if key not in index:
                    index[key] = len(index)
                    new.append(i)
            found.append(cand[new])
        frontier = np.concatenate(found)
        blocks.append(frontier)
        if len(index) > ORDER_LIMIT:
            raise LimitExceeded("ORDER_LIMIT", ORDER_LIMIT)
    return np.concatenate(blocks)


class FiniteGroup:
    """An explicitly enumerated permutation group with distinguished generators.

    Element 0 is the identity; the element order is the breadth-first
    discovery order from the identity. Construct through generate_group (or
    the other operations below), which guarantee the closure invariants.
    The matrix is stored C-contiguous and read-only; the element index that
    membership reads is built on the first lookup.
    """

    __slots__ = ("degree", "generators", "_matrix", "_index", "_elements", "_orders")

    def __init__(self, degree: int, generators: tuple[Permutation, ...], matrix: np.ndarray):
        self.degree = degree
        self.generators = generators
        self._matrix = _freeze(matrix)
        self._index: dict[bytes, int] | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._orders: np.ndarray | None = None

    @property
    def order(self) -> int:
        return int(self._matrix.shape[0])

    def __len__(self) -> int:
        return self.order

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (order, degree) array; row i is element i's image sequence."""
        return self._matrix

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:
            self._elements = tuple(Permutation._wrap(row) for row in self._matrix)
        return self._elements

    def element(self, i: int) -> Permutation:
        return Permutation._wrap(self._matrix[i])

    def _lookup(self) -> dict[bytes, int]:
        """Element number of each row's bytes, built on the first call."""
        if self._index is None:
            as_bytes = np.dtype((np.void, self.degree * self._matrix.itemsize))
            self._index = {key: i for i, key in enumerate(self._matrix.view(as_bytes).ravel().tolist())}
        return self._index

    def __contains__(self, p) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        return p.images.tobytes() in self._lookup()

    def element_orders(self) -> np.ndarray:
        """Order of every element, aligned with element indexing."""
        if self._orders is None:
            self._orders = _orders(self.matrix)
            self._orders.setflags(write=False)
        return self._orders

    def __repr__(self) -> str:
        return f"<FiniteGroup order={self.order} degree={self.degree} generators={len(self.generators)}>"


def generate_group(generators, degree: int | None = None) -> FiniteGroup:
    """Closure of the generators under composition.

    Element order is deterministic: breadth-first from the identity,
    generators applied in the given order. Raises LimitExceeded once the
    group has more than ORDER_LIMIT elements.
    """
    gen_list = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
    if not gen_list:
        raise EmptyGenerators("generate_group requires at least one generator")
    rows, degree = _as_rows(gen_list, degree)
    return FiniteGroup(degree, tuple(gen_list), _closure(rows, rows[:0]))


def orbits(perms, degree: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of the action, listed by smallest member."""
    rows, degree = _as_rows(perms, degree)
    return _orbit_tuples(_orbit_labels(rows, np.arange(degree, dtype=DTYPE)))


def _orbit_tuples(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Orbits of a least-point labelling, each sorted, by smallest member."""
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), labels.size]
    points = order.tolist()
    return tuple(tuple(points[a:b]) for a, b in zip(cuts, cuts[1:]))


def schreier_sims(generators, degree: int | None = None) -> tuple[int, np.ndarray]:
    """|G| and the strong generators of Stab(0), by deterministic Schreier–Sims.

    The base starts at point 0; each later base point is the least point
    moved by the generator that needs it. Level i holds strong generators
    fixing the first i base points and the coset representatives u (with
    their inverses) of base point i's orbit under them. A level is
    completed when each of its Schreier generators sifts to the identity
    through the complete levels below; one that does not joins every level
    down to where it stopped, and completion resumes there (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, SCHREIERSIMS in
    4.4.2; Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4).
    Levels only grow and known points keep their u, so a Schreier generator
    that sifted once stays in the group below: none is sifted twice. |G| is
    the product of the orbit lengths, and the strong generators of the
    second level generate Stab(0); they are returned as a read-only
    (k, degree) array. Raises LimitExceeded once the products computed pass
    CHAIN_LIMIT point images.
    """
    rows, degree = _as_rows(generators, degree)
    ident = tuple(range(degree))
    work = 0

    def mul(a: tuple, b: tuple) -> tuple:
        # apply a, then b
        nonlocal work
        work += degree
        if work > CHAIN_LIMIT:
            raise LimitExceeded("CHAIN_LIMIT", CHAIN_LIMIT)
        return itemgetter(*a)(b)

    def with_inverse(g: tuple) -> tuple[tuple, tuple]:
        return g, tuple(sorted(range(degree), key=g.__getitem__))

    base = [0]
    strong = [[with_inverse(g) for g in map(tuple, rows.tolist()) if g != ident]]
    reps: list[dict[int, tuple[tuple, tuple]]] = [{0: (ident, ident)}]  # point -> (u, u^-1)
    checked: list[set[tuple[int, int]]] = [set()]  # (point, generator index) pairs sifted

    def extend(level: int) -> None:
        # the Schreier generator of an edge of the orbit's tree is the identity
        table, points = reps[level], list(reps[level])
        for p in points:
            u, v = table[p]
            for k, (s, s_inv) in enumerate(strong[level]):
                if s[p] not in table:
                    table[s[p]] = mul(u, s), mul(s_inv, v)
                    checked[level].add((p, k))
                    points.append(s[p])

    def sift(h: tuple, start: int) -> tuple[tuple, int]:
        for level in range(start, len(base)):
            b = h[base[level]]
            if b != base[level]:
                if b not in reps[level]:
                    return h, level
                h = mul(h, reps[level][b][1])
        return h, len(base)

    def first_residue(level: int) -> tuple[tuple, int] | None:
        table, done = reps[level], checked[level]
        for p, (u, _) in table.items():
            for k, (s, _) in enumerate(strong[level]):
                if (p, k) not in done:
                    done.add((p, k))
                    h, stop = sift(mul(mul(u, s), table[s[p]][1]), level + 1)
                    if h != ident:
                        return h, stop
        return None

    extend(0)
    i = 0
    while i >= 0:
        residue = first_residue(i)
        if residue is None:
            i -= 1
            continue
        h, j = residue
        if j == len(base):
            base.append(next(x for x in range(degree) if h[x] != x))
            strong.append([])
            reps.append({base[-1]: (ident, ident)})
            checked.append(set())
        pair = with_inverse(h)
        for level in range(i + 1, j + 1):
            strong[level].append(pair)
            extend(level)
        i = j
    stab = np.array([s for s, _ in strong[1]] if len(base) > 1 else [], dtype=DTYPE).reshape(-1, degree)
    stab.setflags(write=False)
    return math.prod(map(len, reps)), stab


def normal_closure(group: FiniteGroup, seeds) -> FiniteGroup:
    """Smallest normal subgroup N of the group containing the seeds.

    One breadth-first closure of the identity under right multiplication by
    each seed and conjugation by each generator g of the group. The set X
    it reaches lies in N, which contains the seeds and is normal. X is
    closed under conjugation by each g; as that map is injective on the
    finite X, X is closed under conjugation by g^-1 too. So
    x s^g = (x^(g^-1) s)^g lies in X for every conjugate s^g of a seed.
    Those conjugates generate N, and a finite set containing 1 and closed
    under right multiplication by a generating set of N is N. The result's
    generators are the seeds, or the identity when there are none.
    """
    seed_perms = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
    for s in seed_perms:
        if s not in group:
            raise NotAMember("normal closure seed is not in the group")
    gens = tuple(seed_perms) or (Permutation.identity(group.degree),)
    rows, _ = _as_rows(gens, group.degree)
    return FiniteGroup(group.degree, gens, _closure(rows, _as_rows(group.generators, group.degree)[0]))


def quotient_action(group: FiniteGroup, normal: FiniteGroup) -> tuple[int, tuple[Permutation, ...]]:
    """Cosets of a verified-normal subgroup, with generator images acting by
    right multiplication. The identity's coset is 0; cosets are numbered by
    first-discovered representative in the group's element order."""
    n_mat, index, n_index = normal.matrix, group._lookup(), normal._lookup()
    for row in n_mat:
        if row.tobytes() not in index:
            raise NotNormal("subgroup elements are not all in the group")
    gen_rows = [np.ascontiguousarray(g.images, dtype=DTYPE) for g in group.generators]
    for g in gen_rows:
        # (r^g)(x) = g(r(g^-1(x))) for every row r of the subgroup
        for row in g[n_mat[:, np.argsort(g)]]:
            if row.tobytes() not in n_index:
                raise NotNormal("subgroup is not closed under conjugation")

    coset_of = np.full(group.order, -1, dtype=DTYPE)
    reps: list[int] = []
    for idx in range(group.order):
        if coset_of[idx] >= 0:
            continue
        rep_row = group.matrix[idx]
        coset_rows = rep_row[n_mat]  # n * rep for every n in the subgroup
        cid = len(reps)
        for row in coset_rows:
            coset_of[index[row.tobytes()]] = cid
        reps.append(idx)

    count = len(reps)
    images = []
    for g in gen_rows:
        img = np.empty(count, dtype=DTYPE)
        for cid, rep in enumerate(reps):
            prod = g[group.matrix[rep]]  # rep * g
            img[cid] = coset_of[index[prod.tobytes()]]
        images.append(Permutation._wrap(_freeze(img)))
    return count, tuple(images)


@dataclass(frozen=True)
class GroupName:
    """Recognized isomorphism type of a small group.

    tag is one of Trivial, Cyclic, Dihedral, KleinFour, Alt4, Sym4, Alt5,
    Unrecognized; param carries n for Cyclic(n)/Dihedral(n) and the order
    for Unrecognized.
    """

    tag: str
    param: int | None = None

    _ORDERS = {"Trivial": 1, "KleinFour": 4, "Alt4": 12, "Sym4": 24, "Alt5": 60}

    def __post_init__(self):
        if self.tag in self._ORDERS:
            if self.param is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        elif self.tag == "Cyclic":
            if self.param is None or self.param < 2:
                raise ValueError("Cyclic(n) requires n >= 2")
        elif self.tag == "Dihedral":
            if self.param is None or self.param < 3:
                raise ValueError("Dihedral(n) requires n >= 3")
        elif self.tag == "Unrecognized":
            if self.param is None or self.param < 1:
                raise ValueError("Unrecognized(order) requires the order")
        else:
            raise ValueError(f"unknown tag {self.tag!r}")

    @property
    def group_order(self) -> int:
        if self.tag in self._ORDERS:
            return self._ORDERS[self.tag]
        if self.tag == "Cyclic":
            return self.param  # type: ignore[return-value]
        if self.tag == "Dihedral":
            return 2 * self.param  # type: ignore[operator]
        return self.param  # type: ignore[return-value]

    def __str__(self) -> str:
        if self.param is None:
            return self.tag
        return f"{self.tag}({self.param})"


def recognize_group(group: FiniteGroup) -> GroupName:
    """The group's isomorphism type, named from its element orders (_group_name)."""
    return _group_name(Counter(group.element_orders().tolist()))


def _group_name(hist: Counter) -> GroupName:
    """Decision list over hist, the histogram of a group's element orders
    (order -> number of elements), alone.

    Order of tests: Trivial; Cyclic (element of full order); KleinFour
    (order 4, exponent 2); Dihedral(k); Alt4 (order 12, element orders
    {1,2,3}); Sym4; Alt5 (order 60 with 24 elements of order 5, that is six
    Sylow 5-subgroups; a group of order 60 with more than one is simple,
    hence A5). Anything else is Unrecognized(order), never guessed.
    Dihedral groups of orders 2 and 4 therefore come out as Cyclic(2) and
    KleinFour.

    Dihedral(k): order n = 2k >= 6, an element r of order k, and exactly
    k + [k even] involutions. <r> has index 2 and holds [k even] of them,
    so all k elements outside <r> are involutions. For such a t, tr is
    outside <r> as well, so (tr)^2 = 1 and t inverts r.

    Sym4: order 24 with element orders within {1,2,3,4}. A normal Sylow
    3-subgroup P would be centralized by a subgroup of order >= 12, which
    holds an involution and so an element of order 6; hence there are four
    Sylow 3-subgroups. A kernel of order 2 of the action on them would be
    central, again giving order 6, and a larger kernel would contain a
    Sylow 3-subgroup normal in the group. So the action is faithful and the
    group, of order 24, is S4.
    """
    n = sum(hist.values())
    if n == 1:
        return GroupName("Trivial")
    if hist[n]:
        return GroupName("Cyclic", n)
    if n == 4 and max(hist) == 2:
        return GroupName("KleinFour")
    k = n // 2
    if n >= 6 and n % 2 == 0 and hist[k] and hist[2] == k + (k % 2 == 0):
        return GroupName("Dihedral", k)
    if n == 12 and set(hist) == {1, 2, 3}:
        return GroupName("Alt4")
    if n == 24 and set(hist) <= {1, 2, 3, 4}:
        return GroupName("Sym4")
    if n == 60 and hist[5] == 24:
        return GroupName("Alt5")
    return GroupName("Unrecognized", n)
