"""Exhaustive small-size search over involution triples.

Covers every ordered triple of fixed-point-free involutions on n points
(n = 2, 4, ..., max_flags): the array scan keeps the transitive spherical
triples of the slice whose h0 is the standard pairing and relabels them onto
every other h0. Relabelling moves any h0 to the standard one, so that slice
meets every class. Two triples of one slice are isomorphic exactly when a
relabelling commuting with h0 conjugates one onto the other, so the slice is
split into orbits of the centralizer of h0 and one triple per orbit is
deduped by canonical form. Each isomorphism class is checked against three
claims:

* spherical + uniform implies regular,
* spherical + bipartite-uniform implies bipartite-regular,
* spherical + bipartite-uniform implies a wal or pin output of a
  spherical class with half as many flags. Those sources are the search's
  own classes, every spherical hypermap of that size, so they are already
  closed under the six dualities.

The per-class classification here is deliberately written out locally (plain
breadth-first searches on small arrays) instead of calling the library's own
predicates, so a defect in those would surface as a disagreement rather than
be confirmed by itself. Two checks catch a wrong reduction. Each class meets
the slice in one orbit of 2^(n/2) (n/2)!/|Aut| triples, with |Aut| counted
by the local extension test, so these orbit sizes must sum to the slice's
size (the mass formula), without any canonical code. And a second pass fixes h0 to the standard
involution, keeps the triples with Euler sum 2 by counting cycles of the
generator products and the transitive ones by reachability from flag 0,
without the orbit labels of the array scan or the centralizer, canonicalizes
every one of them and re-counts the classes; the counts must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import _kernels
from .._kernels import DTYPE
from ..build import pin, walsh
from ..hypermap import Hypermap, canonical_code

__all__ = ["OracleReport", "brute_oracle", "fixed_point_free_involutions"]

_TRIPLE_BLOCK = 1 << 14  # (h1, h2) pairs per array call of the recount filter


def fixed_point_free_involutions(n: int) -> np.ndarray:
    """All perfect pairings of 0..n-1 as image rows, in a fixed order whose
    row 0 is the standard pairing (0 1)(2 3)..."""
    if n % 2:
        raise ValueError("no fixed-point-free involution on an odd set")
    rows: list[list[int]] = []

    def pair_up(remaining: tuple[int, ...], img: list[int]):
        if not remaining:
            rows.append(list(img))
            return
        a = remaining[0]
        rest = remaining[1:]
        for idx, b in enumerate(rest):
            img[a], img[b] = b, a
            pair_up(rest[:idx] + rest[idx + 1 :], img)

    pair_up(tuple(range(n)), [0] * n)
    return np.array(rows, dtype=DTYPE)


# ------------------------------------------------------- local re-checks
#
# Everything below works on a (3, n) int array of involution image rows and
# repeats the definitions from scratch.


def _local_orbits(rows: list[np.ndarray], n: int) -> list[list[int]]:
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        queue = [start]
        while queue:
            x = queue.pop()
            for r in rows:
                y = int(r[x])
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    queue.append(y)
        out.append(sorted(orbit))
    return out


def _local_face_orbits(hs: np.ndarray) -> list[list[list[int]]]:
    """The k-faces for k = 0, 1, 2: orbits of the two rows other than k."""
    n = hs.shape[1]
    return [_local_orbits([hs[i], hs[j]], n) for i, j in ((1, 2), (0, 2), (0, 1))]


def _local_coloring(hs: np.ndarray) -> list[int] | None:
    """Vertex 2-coloring (h0 flips, h1 and h2 preserve), or None."""
    n = hs.shape[1]
    colors = [-1] * n
    colors[0] = 0
    queue = [0]
    while queue:
        x = queue.pop()
        for i in range(3):
            y = int(hs[i][x])
            want = colors[x] ^ (1 if i == 0 else 0)
            if colors[y] < 0:
                colors[y] = want
                queue.append(y)
            elif colors[y] != want:
                return None
    return colors


def _local_has_automorphism(hs: np.ndarray, target: int) -> bool:
    """Try to extend flag 0 -> target equivariantly."""
    n = hs.shape[1]
    sigma = [-1] * n
    sigma[0] = target
    queue = [0]
    while queue:
        x = queue.pop()
        for i in range(3):
            y = int(hs[i][x])
            img = int(hs[i][sigma[x]])
            if sigma[y] < 0:
                sigma[y] = img
                queue.append(y)
            elif sigma[y] != img:
                return False
    return True


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Number of cycles of each permutation row of perms (B, n).

    A cycle is counted at its least point. Every cycle has at most n points,
    so a running minimum over n - 1 steps along the rows finds, at each
    point, the least point of its cycle.
    """
    size, n = perms.size, perms.shape[1]
    points = np.arange(size)
    step = (perms + np.arange(0, size, n)[:, None]).reshape(-1)
    least = walk = points
    for _ in range(n - 1):
        walk = step[walk]
        least = np.minimum(least, walk)
    return (least == points).reshape(perms.shape).sum(axis=1)


def _reaches_all(hs: np.ndarray) -> np.ndarray:
    """Whether flag 0 reaches every flag under the involutions hs (K, 3, n)."""
    rows = np.arange(hs.shape[0])[:, None]
    seen = np.zeros((hs.shape[0], hs.shape[2]), dtype=bool)
    seen[:, 0] = True
    while True:
        grown = seen | seen[rows, hs[:, 0]] | seen[rows, hs[:, 1]] | seen[rows, hs[:, 2]]
        if np.array_equal(grown, seen):
            return seen.all(axis=1)
        seen = grown


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the exhaustive search; ok means no claim failed anywhere."""

    max_flags: int
    sizes: tuple[int, ...]
    triples_scanned: dict[int, int]
    spherical_triples: dict[int, int]
    class_counts: dict[int, int]
    recount_class_counts: dict[int, int]
    uniform_classes: int
    bipartite_classes: int
    bipartite_uniform_classes: int
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations and self.class_counts == self.recount_class_counts

    def to_json_dict(self) -> dict:
        return {
            "max_flags": self.max_flags,
            "sizes": list(self.sizes),
            "triples_scanned": {str(k): v for k, v in self.triples_scanned.items()},
            "spherical_triples": {str(k): v for k, v in self.spherical_triples.items()},
            "class_counts": {str(k): v for k, v in self.class_counts.items()},
            "recount_class_counts": {str(k): v for k, v in self.recount_class_counts.items()},
            "uniform_classes": self.uniform_classes,
            "bipartite_classes": self.bipartite_classes,
            "bipartite_uniform_classes": self.bipartite_uniform_classes,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _centralizer_generators(h0: np.ndarray) -> np.ndarray:
    """Involutions generating the centralizer Z2 wr S_{n/2} of the
    fixed-point-free involution h0, as (n/2, n) image rows.

    With pairs (a_t, b_t), a_t < b_t = h0[a_t], in order of a_t: the swap
    (a_0 b_0), and for each t the swap (a_t a_{t+1})(b_t b_{t+1}) of
    neighbouring pairs.
    """
    n = h0.size
    points = np.arange(n, dtype=DTYPE)
    a = np.flatnonzero(points < h0)
    b = h0[a]
    gens = np.tile(points, (n // 2, 1))
    gens[0, a[0]], gens[0, b[0]] = b[0], a[0]
    rows = np.arange(1, n // 2)
    for left, right in ((a[:-1], a[1:]), (b[:-1], b[1:])):
        gens[rows, left], gens[rows, right] = right, left
    return gens


def _classes_from_triples(invs: np.ndarray, triples: np.ndarray) -> dict[bytes, np.ndarray]:
    """Dedupe candidate triples by canonical code; values are (3, n) arrays.

    Keys are in order of first occurrence in triples, each mapped to
    invs[its first triple]. Two triples with the same h0 are isomorphic
    exactly when a relabelling that commutes with h0 conjugates one onto the
    other. So the triples are first joined into orbits under the centralizer
    of their h0, by the generators' conjugates of each triple that lie in the
    input, and only the first triple of each orbit is canonicalized. An orbit
    lies inside one class; when the input is not closed under the action its
    orbits are finer than the classes, and the dedupe by code merges them.
    """
    if not triples.shape[0]:
        return {}
    m = invs.shape[0]
    keys = (triples[:, 0].astype(np.int64) * m + triples[:, 1]) * m + triples[:, 2]
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    points = np.arange(triples.shape[0])
    moves = np.tile(points, (invs.shape[1] // 2, 1))  # a triple missing its image stays put
    for h0 in np.flatnonzero(np.bincount(triples[:, 0])):
        gens = _centralizer_generators(invs[h0])
        # conj[g, j] is the row of g invs[j] g, read as g[invs[j][g]]
        moved = invs[:, gens].transpose(1, 0, 2)
        conj = _kernels._row_index(invs, np.take_along_axis(gens[:, None], moved, axis=2))
        at = np.flatnonzero(triples[:, 0] == h0)
        image = (h0 * m + conj[:, triples[at, 1]]) * m + conj[:, triples[at, 2]]
        found = np.minimum(np.searchsorted(ordered, image), ordered.size - 1)
        hit = ordered[found] == image
        moves[:, at] = np.where(hit, order[found], at)
    firsts = np.flatnonzero(_kernels._orbit_labels(moves, points) == points)
    codes, _ = _kernels.canonical_codes(invs[triples[firsts]])
    out: dict[bytes, np.ndarray] = {}
    for code, triple in zip(codes, triples[firsts]):
        out.setdefault(code.tobytes(), invs[triple])
    return out


def _fixed_h0_spherical(invs: np.ndarray, n: int) -> np.ndarray:
    """The transitive triples (h0, h1, h2) with Euler sum 2 and h0 the
    standard pairing invs[0], over all rows h1, h2 of invs (as from
    fixed_point_free_involutions), as a (K, 3, n) stack in the order of the
    (h1, h2) pairs."""
    m = invs.shape[0]
    standard = invs[0]
    # orbits of <h0, h> for every row h: the edges E of h2, the faces F of h1
    with_h0 = _cycle_counts(invs[:, standard]) // 2
    kept = []
    for start in range(0, m * m, _TRIPLE_BLOCK):
        one, two = np.divmod(np.arange(start, min(start + _TRIPLE_BLOCK, m * m)), m)
        vertices = _cycle_counts(np.take_along_axis(invs[two], invs[one], axis=1)) // 2
        sphere = vertices + with_h0[one] + with_h0[two] - n // 2 == 2
        one, two = one[sphere], two[sphere]
        hs = np.stack([np.broadcast_to(standard, (one.size, n)), invs[one], invs[two]], axis=1)
        kept.append(hs[_reaches_all(hs)])
    return np.concatenate(kept)


def _recount_fixed_h0(invs: np.ndarray, n: int) -> int:
    """Independent pass: the classes met with h0 pinned to the standard pairing.

    Relabelling moves any fixed-point-free h0 to the standard one, so this
    slice meets every class. For fixed-point-free involutions x and y, each
    orbit of <x, y> has 2k points on which xy has exactly two cycles, each
    of length k; so V, E and F are half the cycle counts of h1h2, h0h2 and
    h0h1. Transitivity is reachability from flag 0. Neither uses the orbit
    labels behind the array scan, so a defect there shows as a disagreement.
    """
    codes, _ = _kernels.canonical_codes(_fixed_h0_spherical(invs, n))
    return len({code.tobytes() for code in codes})


def brute_oracle(max_flags: int = 8) -> OracleReport:
    """Search all flag counts up to max_flags; see the module docstring.

    triples_scanned counts all m**3 ordered triples, which the scan covers
    through one filtered slice and its relabellings.
    """
    if max_flags not in (4, 8):
        raise ValueError("max_flags must be 4 or 8")
    sizes = tuple(range(2, max_flags + 1, 2))
    classes_at: dict[int, dict[bytes, np.ndarray]] = {}
    triples_scanned: dict[int, int] = {}
    spherical: dict[int, int] = {}
    class_counts: dict[int, int] = {}
    recounts: dict[int, int] = {}
    uniform_classes = 0
    bipartite_classes = 0
    bipartite_uniform_classes = 0
    violations: list[str] = []

    for n in sizes:
        invs = fixed_point_free_involutions(n)
        triples_scanned[n] = invs.shape[0] ** 3
        triples = _kernels.spherical_triples(invs)
        spherical[n] = triples.shape[0]
        # row 0 is the standard pairing, whose slice meets every class
        standard = triples[triples[:, 0] == 0]
        classes = classes_at[n] = _classes_from_triples(invs, standard)
        class_counts[n] = len(classes)
        sources = [Hypermap(n // 2, *hs) for hs in classes_at.get(n // 2, {}).values()]
        double_codes = {canonical_code(double(h)) for h in sources for double in (walsh, pin)}
        recounts[n] = _recount_fixed_h0(invs, n)
        mass = 0

        for key, hs in classes.items():
            label = f"n={n} h={[list(map(int, r)) for r in hs]}"
            faces = _local_face_orbits(hs)
            vsets = [{len(orbit) // 2 for orbit in orbits} for orbits in faces]
            uniform = all(len(s) == 1 for s in vsets)
            extends = [_local_has_automorphism(hs, t) for t in range(n)]
            regular = all(extends)
            # the class meets the slice in one centralizer orbit, of
            # 2^(n/2) (n/2)!/|Aut| = n!/(m |Aut|) triples; |Aut| <= n divides n!
            mass += math.factorial(n) // sum(extends)
            if uniform:
                uniform_classes += 1
                if not regular:
                    violations.append(f"uniform but not regular: {label}")
            colors = _local_coloring(hs)
            if colors is None:
                continue
            bipartite_classes += 1
            class0 = [x for x in range(n) if colors[x] == 0]
            per_class: list[set[int]] = [set(), set()]
            for orbit in faces[0]:
                per_class[colors[orbit[0]]].add(len(orbit) // 2)
            b_uniform = (
                all(len(s) == 1 for s in per_class)
                and len(vsets[1]) == 1
                and len(vsets[2]) == 1
            )
            if b_uniform:
                bipartite_uniform_classes += 1
                if not all(extends[t] for t in class0):
                    violations.append(f"bipartite-uniform but not bipartite-regular: {label}")
                if key not in double_codes:
                    violations.append(f"bipartite-uniform but not a wal/pin output: {label}")
        if mass != invs.shape[0] * standard.shape[0]:
            violations.append(
                f"n={n}: mass formula: n!/|Aut| over the classes sums to {mass}, "
                f"not to m = {invs.shape[0]} times the standard slice's {standard.shape[0]} triples"
            )

    return OracleReport(
        max_flags=max_flags,
        sizes=sizes,
        triples_scanned=triples_scanned,
        spherical_triples=spherical,
        class_counts=class_counts,
        recount_class_counts=recounts,
        uniform_classes=uniform_classes,
        bipartite_classes=bipartite_classes,
        bipartite_uniform_classes=bipartite_uniform_classes,
        violations=tuple(violations),
    )
