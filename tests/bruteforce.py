"""Deliberately naive reference implementations used as test oracles.

Everything here works on plain python tuples and sets, shares no code with
the package, and favors obviousness over speed. Permutations are tuples of
images; composition follows the same convention as the package:
compose(a, b) applies a first, then b.
"""

from collections import Counter
from itertools import permutations as _all_permutations


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(b.__getitem__, a))


def inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_order(a: tuple[int, ...]) -> int:
    p = a
    k = 1
    ident = identity(len(a))
    while p != ident:
        p = compose(p, a)
        k += 1
    return k


def conjugate(a: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    # g^{-1} a g under left-to-right application
    return compose(compose(inverse(g), a), g)


def closure(gens, limit: int | None = None) -> frozenset[tuple[int, ...]] | None:
    """Subgroup generated by gens, by worklist multiplication.

    None once more than limit elements are found, when a limit is given.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    seen = {identity(n)}
    work = [identity(n)]
    while work:
        p = work.pop()
        for g in gens:
            q = compose(p, g)
            if q not in seen:
                seen.add(q)
                work.append(q)
                if limit is not None and len(seen) > limit:
                    return None
    return frozenset(seen)


def element_orders(elems) -> tuple[int, ...]:
    return tuple(sorted(perm_order(e) for e in elems))


def is_abelian(elems) -> bool:
    elems = list(elems)
    return all(compose(a, b) == compose(b, a) for a in elems for b in elems)


def is_dihedral(elems) -> bool:
    """Order 2k >= 6 with r of order k and an involution t outside <r>
    such that t r t = r^{-1}, found by searching all pairs."""
    elems = list(elems)
    n = len(elems)
    k = n // 2
    if n < 6 or n % 2:
        return False
    for r in elems:
        if perm_order(r) != k:
            continue
        powers = {identity(len(r))}
        p = r
        while p not in powers:
            powers.add(p)
            p = compose(p, r)
        r_inv = inverse(r)
        for t in elems:
            if t not in powers and perm_order(t) == 2 and compose(compose(t, r), t) == r_inv:
                return True
    return False


def center_is_trivial(elems) -> bool:
    elems = list(elems)
    central = [a for a in elems if all(compose(a, b) == compose(b, a) for b in elems)]
    return len(central) == 1


def commutator_closure(elems) -> frozenset[tuple[int, ...]]:
    """Subgroup generated by all commutators a^{-1} b^{-1} a b."""
    elems = list(elems)
    comms = set()
    for a in elems:
        for b in elems:
            comms.add(compose(compose(inverse(a), inverse(b)), compose(a, b)))
    return closure(comms)


def normal_closure_brute(ambient_gens, seeds) -> frozenset[tuple[int, ...]]:
    """Smallest subgroup containing seeds, closed under conjugation by the
    ambient generators. Conjugating by generators suffices: conjugation by
    any product is a composition of generator conjugations.

    A seed or conjugate is kept as a generator only when it lies outside the
    subgroup generated so far. Conjugation is an automorphism, so the
    subgroup is closed under it once the conjugates of the kept generators
    lie in it; the subgroup at least doubles with each kept generator."""
    ambient_gens = [tuple(g) for g in ambient_gens]
    ambient_invs = [inverse(g) for g in ambient_gens]
    work = [tuple(s) for s in seeds]
    kept: list[tuple[int, ...]] = []
    sub = frozenset({identity(len(work[0]))})
    while work:
        s = work.pop()
        if s in sub:
            continue
        kept.append(s)
        sub = closure(kept)
        work += [compose(compose(g_inv, s), g) for g, g_inv in zip(ambient_gens, ambient_invs)]
    return sub


def is_normal(ambient_gens, sub: frozenset[tuple[int, ...]]) -> bool:
    return all(conjugate(s, g) in sub for g in ambient_gens for s in sub)


def minimal_normal_subgroups(elems, gens) -> list[frozenset[tuple[int, ...]]]:
    """All minimal nontrivial normal subgroups, by scanning the normal
    closures of single elements."""
    n = len(next(iter(elems)))
    ident = identity(n)
    closures = set()
    for e in elems:
        if e == ident:
            continue
        closures.add(normal_closure_brute(gens, [e]))
    minimal = []
    for c in closures:
        if not any(other < c for other in closures):
            minimal.append(c)
    return minimal


def coset_count(elems, sub: frozenset[tuple[int, ...]]) -> int:
    remaining = set(elems)
    count = 0
    while remaining:
        rep = remaining.pop()
        remaining -= {compose(s, rep) for s in sub}
        count += 1
    return count


def even_permutations(n: int) -> list[tuple[int, ...]]:
    out = []
    for p in _all_permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        if inversions % 2 == 0:
            out.append(p)
    return out


def dihedral_gens(n: int) -> list[tuple[int, ...]]:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return [rot, ref]


# A triple is a list/tuple of three image tuples on the same flag set.


def triple_orbits(triple, picks) -> list[tuple[int, ...]]:
    n = len(triple[0])
    rows = [triple[k] for k in picks]
    seen = [False] * n
    result = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        head = 0
        while head < len(orbit):
            x = orbit[head]
            head += 1
            for row in rows:
                y = row[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        result.append(tuple(sorted(orbit)))
    return result


def start_code(triple, start: int) -> tuple[list[int], list[int]]:
    """Breadth-first relabeling code from one start flag.

    Number the flags in the order a breadth-first search reaches them,
    trying the generators in order; the code is the concatenation of the
    relabeled generator images. Returns (code, lab); lab maps old flags to
    labels.
    """
    lab = [-1] * len(triple[0])
    lab[start] = 0
    order = [start]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for row in triple:
            y = row[x]
            if lab[y] < 0:
                lab[y] = len(order)
                order.append(y)
    return [lab[row[x]] for row in triple for x in order], lab


def canonical_code(triple) -> tuple[list[int], list[int]]:
    """Least breadth-first relabeling code over all start flags: (code,
    sigma) of the first start whose start_code is least."""
    return min((start_code(triple, start) for start in range(len(triple[0]))), key=lambda pair: pair[0])


def triple_euler(triple) -> int:
    n = len(triple[0])
    v = len(triple_orbits(triple, (1, 2)))
    e = len(triple_orbits(triple, (0, 2)))
    f = len(triple_orbits(triple, (0, 1)))
    return v + e + f - n // 2


def triple_type(triple) -> tuple[int, int, int]:
    from math import lcm

    out = []
    for k, picks in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
        vals = [len(o) // 2 for o in triple_orbits(triple, picks)]
        out.append(lcm(*vals))
    return tuple(out)


def triple_vertex_coloring(triple) -> list[int] | None:
    """2-coloring where h0 alone flips color; None when inconsistent."""
    n = len(triple[0])
    colors = [-1] * n
    colors[0] = 0
    work = [0]
    while work:
        x = work.pop()
        for k in range(3):
            y = triple[k][x]
            want = colors[x] ^ (1 if k == 0 else 0)
            if colors[y] < 0:
                colors[y] = want
                work.append(y)
            elif colors[y] != want:
                return None
    return colors


def vertex_class_profile(triple) -> tuple[tuple[int, int], ...] | None:
    """Sorted (valency, count) of the hypervertices of each vertex color
    class; None without a vertex 2-coloring or when a class mixes valencies."""
    colors = triple_vertex_coloring(triple)
    if colors is None:
        return None
    per_class = []
    for c in (0, 1):
        counts = Counter(len(o) // 2 for o in triple_orbits(triple, (1, 2)) if colors[o[0]] == c)
        if len(counts) != 1:
            return None
        per_class += counts.items()
    return tuple(sorted(per_class))


def single_profile(triple, k: int) -> tuple[int, int] | None:
    """(valency, count) of the k-faces; None when they mix valencies."""
    counts = Counter(len(o) // 2 for o in triple_orbits(triple, ((1, 2), (0, 2), (0, 1))[k]))
    return next(iter(counts.items())) if len(counts) == 1 else None


def triple_parity_coloring(triple, eps) -> list[int] | None:
    """2-coloring from flag 0 where generator k flips color iff eps[k] is 1;
    None when inconsistent."""
    n = len(triple[0])
    colors = [-1] * n
    colors[0] = 0
    work = [0]
    while work:
        x = work.pop()
        for k in range(3):
            y = triple[k][x]
            want = colors[x] ^ eps[k]
            if colors[y] < 0:
                colors[y] = want
                work.append(y)
            elif colors[y] != want:
                return None
    return colors


def _double(n: int, on_copy0, on_copy1) -> tuple[tuple[int, ...], ...]:
    # flag (w, c) is 2w + c; t0 swaps the copies, on_copy_c gives t1, t2 on copy c
    flags = [(w, c) for w in range(n) for c in (0, 1)]
    t0 = tuple(2 * w + (1 - c) for w, c in flags)
    t1 = tuple(2 * (on_copy0, on_copy1)[c][0][w] + c for w, c in flags)
    t2 = tuple(2 * (on_copy0, on_copy1)[c][1][w] + c for w, c in flags)
    return (t0, t1, t2)


def walsh_triple(triple) -> tuple[tuple[int, ...], ...]:
    """Walsh double: t1 is h1 on copy 0 and h0 on copy 1, t2 is h2 on both."""
    h0, h1, h2 = triple
    return _double(len(h0), (h1, h2), (h0, h2))


def pin_triple(triple) -> tuple[tuple[int, ...], ...]:
    """Pin double: t1 is h1 on copy 0 and h0 on copy 1, t2 is h2 on copy 0
    and h0 on copy 1."""
    h0, h1, h2 = triple
    return _double(len(h0), (h1, h2), (h0, h0))


def vertex_class_restriction(triple, color: int) -> tuple[tuple[int, ...], ...]:
    """t1, t2, t0 t1 t0 and t0 t2 t0 on the flags of one color of
    triple_vertex_coloring, renumbered in increasing order."""
    colors = triple_vertex_coloring(triple)
    flags = [x for x, c in enumerate(colors) if c == color]
    number = {x: i for i, x in enumerate(flags)}
    t0, t1, t2 = triple
    words = (t1, t2, compose(compose(t0, t1), t0), compose(compose(t0, t2), t0))
    return tuple(tuple(number[w[x]] for x in flags) for w in words)


def extend_morphism(src, dst, image_of_zero: int) -> tuple[int, ...] | None:
    """The unique generator-equivariant map with 0 -> image_of_zero, if any.

    src and dst are triples; a total well-defined result is a covering
    (an isomorphism when the flag counts agree and the map is bijective).
    """
    n_src = len(src[0])
    phi = [-1] * n_src
    phi[0] = image_of_zero
    work = [0]
    while work:
        x = work.pop()
        for k in range(3):
            y = src[k][x]
            target = dst[k][phi[x]]
            if phi[y] < 0:
                phi[y] = target
                work.append(y)
            elif phi[y] != target:
                return None
    return tuple(phi)


def automorphism_count(triple) -> int:
    n = len(triple[0])
    count = 0
    for target in range(n):
        phi = extend_morphism(triple, triple, target)
        if phi is not None and len(set(phi)) == n:
            count += 1
    return count


def isomorphism_exists(a, b) -> bool:
    if len(a[0]) != len(b[0]):
        return False
    n = len(a[0])
    for target in range(n):
        phi = extend_morphism(a, b, target)
        if phi is not None and len(set(phi)) == n:
            return True
    return False


def covering_exists(a, b) -> bool:
    """Any generator-equivariant surjection from a's flags onto b's."""
    for target in range(len(b[0])):
        phi = extend_morphism(a, b, target)
        if phi is not None and len(set(phi)) == len(b[0]):
            return True
    return False


def merge_fixpoint(rows, pairs) -> tuple[int, ...]:
    """Least point of each class of the finest partition that joins every
    pair and is closed under rows: x ~ y implies x g ~ y g for each row g.

    Joins classes until nothing changes, rescanning every joined couple
    after each pass.
    """
    label = list(range(len(rows[0])))

    def join(a, b):
        old, new = max(label[a], label[b]), min(label[a], label[b])
        for x, lab in enumerate(label):
            if lab == old:
                label[x] = new
        return old != new

    for a, b in pairs:
        join(a, b)
    changed = True
    while changed:
        changed = False
        for x in range(len(label)):
            for y in range(x + 1, len(label)):
                if label[x] == label[y]:
                    for row in rows:
                        changed |= join(row[x], row[y])
    return tuple(label)


def as_triple(h) -> tuple[tuple[int, ...], ...]:
    """Convert a package Hypermap to the plain-tuple form used here."""
    return tuple(tuple(int(v) for v in p.images) for p in h.h)


def todd_coxeter(relators, coset_limit: int) -> tuple[tuple[int, int, int], ...] | None:
    """Plain HLT coset enumeration over the trivial subgroup of the group
    generated by three involutions 0, 1, 2 with the given relator words:
    every relator is scanned at every live coset, in coset order, before the
    coset's open entries are defined. Entries are set in symmetric pairs;
    coincidences merge with the smaller coset surviving. Returns the closed
    table's rows (image of each coset under 0, 1, 2), cosets renumbered in
    order, or None once more than coset_limit cosets would be defined."""
    rows = [[None, None, None]]
    parent = [0]

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    def define(c, g):
        if len(rows) >= coset_limit:
            return None
        rows.append([None, None, None])
        parent.append(len(rows) - 1)
        rows[c][g] = len(rows) - 1
        rows[-1][g] = c
        return len(rows) - 1

    def coincidence(a, b):
        queue = []

        def merge(a, b):
            a, b = find(a), find(b)
            if a != b:
                a, b = min(a, b), max(a, b)
                parent[b] = a
                queue.append(b)

        merge(a, b)
        while queue:
            dead = queue.pop(0)
            for g in range(3):
                d = rows[dead][g]
                if d is None:
                    continue
                rows[dead][g] = None
                if rows[d][g] == dead:
                    rows[d][g] = None
                mu, nu = find(dead), find(d)
                if rows[mu][g] is not None:
                    merge(nu, rows[mu][g])
                elif rows[nu][g] is not None:
                    merge(mu, rows[nu][g])
                else:
                    rows[mu][g], rows[nu][g] = nu, mu

    def scan_and_fill(c, word):
        """False once the coset limit is reached."""
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and rows[f][word[i]] is not None:
                f, i = rows[f][word[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and rows[b][word[j]] is not None:
                b, j = rows[b][word[j]], j - 1
            if j < i:
                coincidence(f, b)
                return True
            if i == j:
                rows[f][word[i]], rows[b][word[i]] = b, f
                return True
            if define(f, word[i]) is None:
                return False

    c = 0
    while c < len(rows):
        if find(c) == c:
            for word in relators:
                if not scan_and_fill(c, word):
                    return None
                if find(c) != c:
                    break
            if find(c) == c:
                for g in range(3):
                    if rows[c][g] is None and define(c, g) is None:
                        return None
        c += 1
    live = [c for c in range(len(rows)) if find(c) == c]
    number = {c: i for i, c in enumerate(live)}
    return tuple(tuple(number[find(rows[c][g])] for g in range(3)) for c in live)
