"""Regular quotients, covers, and irregularity measures.

For a hypermap with monodromy group G acting on the flags:

* the covering core is the regular hypermap on G itself (right
  multiplication by the generators), the smallest regular cover;
  covering_core() builds it, while core_summary() derives its flags
  (|G|), type (that of h) and genus (chi = |G|/2l + |G|/2m + |G|/2n -
  |G|/2, orientability from h or from the index of the even words)
  without building it;
* the closure cover is the quotient of G by the normal closure of a flag
  stabilizer, the largest regular hypermap the original covers. Its flag
  classes come from closing flag pairs under the generators, with no
  group: the coset-coincidence union-find of coset enumeration (Holt, Eick
  & O'Brien, Handbook of Computational Group Theory, 2005, ch. 5). When a
  generator acts trivially on them the quotient is no hypermap and
  closure_cover() raises Degenerate. analyze() derives its flags, type
  and genus from the generators' action on the classes, without building
  it;
* the irregularity index is |G| / |flags| (1 exactly for regular maps),
  and for bipartite-regular hypermaps the flag stabilizer itself is a
  group Upsilon whose isomorphism type refines the index.

_stab_and_closure is the one record of these per hypermap: the closure
classes and |G|, closed from the generators of the flag-0 stabilizer,
which come by one of two group-free paths. When the automorphisms have at
most two flag orbits, one extension from flag 0 along h's tree gives its
Schreier generators on the edges off the tree, and |G| is read off the
classes; otherwise |G| and the generators come from one Schreier–Sims
chain (perm.schreier_sims). Upsilon is the deck group, the automorphisms
sending flag 0 into its class: each one's order is the length of flag 0's
cycle in its column of the extension from flag 0 to that class, and the
group is named from those orders, so no analysis enumerates a group or
builds a group object.

analyze() bundles the classification data for one hypermap into a report
without listing the automorphism group, so it stays usable on inputs whose
monodromy groups are much larger than the flag set.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._kernels import DTYPE, _pair_orbit_labels, _row_index
from .errors import Degenerate, NotBipartiteRegular
from .hypermap import (
    Hypermap,
    HypermapType,
    SurfaceClass,
    _extensions,
    _flag_tree,
    _parity_coloring,
    euler_characteristic,
    is_uniform,
    monodromy_group,
    surface_class,
    type_of,
)
from .perm import GroupName, _group_name, schreier_sims
from .theta import (
    BIPARTITE,
    PARITY_VECTORS,
    BipartiteType,
    _stab_matched_flags,
    bipartite_type,
    is_bipartite_chiral,
    is_regular,
    is_theta_regular,
)

__all__ = [
    "IrregularityReport",
    "QuotientSummary",
    "AnalysisReport",
    "covering_core",
    "closure_cover",
    "core_summary",
    "irregularity",
    "analyze",
]


def covering_core(h: Hypermap) -> Hypermap:
    """The regular hypermap on the monodromy group itself.

    Flags are the group elements in closure order; generators act by right
    multiplication, so the identity (flag 0) projects to h's flag 0 under
    evaluation and the result covers h.
    """
    group = monodromy_group(h)
    return Hypermap(group.order, *_row_index(group.matrix, h.generator_matrix()[:, group.matrix]))


def _merge(q: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Root of each class after joining the pairs and closing under q.

    Union-find with coincidence processing: joining two roots forces their
    images under each generator together, as in coset enumeration. The
    larger root always goes under the smaller, and path halving only moves
    a point to an ancestor, so parents only decrease: one pass in flag order
    then puts every point on its root, the least point of its class.
    """
    parent = list(range(q.shape[1]))
    r0, r1, r2 = q.tolist()
    stack = list(zip(pairs[0].tolist(), pairs[1].tolist()))
    while stack:
        a, b = stack.pop()
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            stack += ((r0[a], r0[b]), (r1[a], r1[b]), (r2[a], r2[b]))
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    return np.array(parent, dtype=DTYPE)


@functools.lru_cache(maxsize=64)
def _stab_and_closure(h: Hypermap) -> tuple[np.ndarray, int]:
    """The closure-cover partition of the flags, as a read-only label array,
    and |Mon|.

    The classes are the orbits of the normal closure N of the flag-0
    stabilizer S in the monodromy group; flag 0 is in class 0 and classes
    are numbered by first appearance. Computed without enumerating the
    group, by closing flag pairs under h0, h1, h2. A partition so closed is
    a block system of Mon. If it joins every flag x with x s for s in S, S
    maps every block to itself, so S, and hence N, lies in the kernel of
    Mon's action on the blocks, and each N-orbit lies in one block. The
    N-orbits are such a block system themselves (N is normal and contains
    S), so when every pair lies in one N-orbit they are the closure.

    When Aut has at most two flag orbits (2 |Aut| >= n), the pairs come
    from one extension along h's tree from flag 0, to the first flag t that
    no automorphism reaches; a regular h has none, and is its own closure
    cover. Aut acts semiregularly, so its orbits are O, holding 0, and at
    most one other, O'; each is a block of Mon, every flag of O has
    stabilizer S and every flag of O' one stabilizer S', so N = <S, S'>.
    The extension sends 0 w to t w for each tree word w; an edge x h_i = y
    off the tree pairs t w_y with t w_x h_i = t s w_y, in one N-orbit,
    where s = w_x h_i w_y^-1 runs over the Schreier generators of S (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, 4.1).
    Closed under the generators these give t ~ t s, so p ~ p S on O' and
    p ~ p S' on O; S fixes O pointwise, so every flag p is joined with
    p S. Here |Mon| = n |C0|, for flag 0's class C0: S is the kernel of
    Mon's action on O, which is regular, so N = S S^g (g swapping the
    blocks) and C0 = 0 S^g, giving |C0| = |S|. The deck group
    (automorphisms sending 0 into C0) is the centralizer of S^g acting
    regularly on C0, so it is isomorphic to S.

    Otherwise |Mon| and the generators s of S come from one Schreier–Sims
    chain, and the pairs are (x, x s) for every flag x.
    """
    rows = h.generator_matrix()
    matched = _stab_matched_flags(h)
    order = None
    if 2 * int(matched.sum()) >= h.n_flags:
        tree = _flag_tree(h)
        pairs = np.empty((2, 0), dtype=DTYPE)
        for psi, _ in _extensions(tree, rows, np.flatnonzero(~matched)[:1].astype(DTYPE)):
            lhs, rhs = psi[tree.ys], rows[tree.gens, psi[tree.xs]]
            bad = lhs != rhs
            pairs = np.stack([lhs[bad], rhs[bad]])
    else:
        order, stab = schreier_sims(rows, h.n_flags)
        points = np.broadcast_to(np.arange(h.n_flags, dtype=DTYPE), stab.shape)
        pairs = np.stack([points.ravel(), stab.ravel()])
    # roots are the least flag of each class, so numbering them in flag order
    # numbers the classes by first appearance
    roots = _merge(rows, pairs)
    labels = (np.cumsum(roots == np.arange(h.n_flags), dtype=DTYPE) - 1)[roots]
    labels.setflags(write=False)
    if order is None:
        order = h.n_flags * int(np.count_nonzero(labels == 0))
    return labels, order


def _closure_action(h: Hypermap, labels: np.ndarray) -> np.ndarray:
    """(3, k) action of h0, h1, h2 on the k closure-cover classes labels."""
    q = np.empty((3, int(labels.max()) + 1), dtype=DTYPE)
    q[:, labels] = labels[h.generator_matrix()]
    return q


def closure_cover(h: Hypermap) -> Hypermap:
    """The largest regular hypermap covered by h.

    Generators act on the closure-cover classes of the flags. Raises
    Degenerate when a generator acts trivially on the classes, so that the
    quotient is no hypermap (for example when Mon is the full symmetric
    group and there is one class).
    """
    images = _closure_action(h, _stab_and_closure(h)[0])
    count = images.shape[1]
    trivial = [f"h{i}" for i, img in enumerate(images) if np.array_equal(img, np.arange(count))]
    if trivial:
        raise Degenerate(
            f"trivial generators {', '.join(trivial)} in the closure cover (class count {count})"
        )
    return Hypermap(count, *images)


@dataclass(frozen=True)
class IrregularityReport:
    """Irregularity data of a bipartite-regular hypermap.

    index is |monodromy| / |flags|; group names the flag stabilizer Upsilon
    (order lower_group_order); upper_group_order is |normal closure of
    Upsilon| / index. All three orders are equal (see _stab_and_closure).
    """

    index: int
    group: GroupName
    lower_group_order: int
    upper_group_order: int


def irregularity(h: Hypermap) -> IrregularityReport:
    """Index and Upsilon, read off the deck group over the closure cover:
    column t of the extension from flag 0 to its class is the deck
    automorphism sending 0 to the class's t-th flag, and its order is the
    length of flag 0's cycle in that column (Aut acts semiregularly)."""
    if not is_theta_regular(h, BIPARTITE):
        raise NotBipartiteRegular("irregularity is defined for bipartite-regular hypermaps")
    targets = np.flatnonzero(_stab_and_closure(h)[0] == 0).astype(DTYPE)
    blocks = _extensions(_flag_tree(h), h.generator_matrix(), targets)
    psi = np.concatenate([psi for psi, _ in blocks], axis=1)
    orders = np.empty(targets.size, dtype=np.int64)
    cols, point, k = np.arange(targets.size), targets, 1
    while cols.size:
        back = point == 0
        orders[cols[back]] = k
        cols, point, k = cols[~back], psi[point[~back], cols[~back]], k + 1
    order = targets.size
    return IrregularityReport(order, _group_name(Counter(orders.tolist())), order, order)


@dataclass(frozen=True)
class QuotientSummary:
    """Flag count, type and genus of a regular quotient or cover."""

    flags: int
    type: HypermapType
    genus: int


def core_summary(h: Hypermap) -> QuotientSummary:
    """Flags, type and genus of covering_core(h), without building it.

    The core has |Mon| flags; its type is h's, since each valency lcm is the
    order of a product of two generators in Mon, and its k-faces number
    |Mon| over twice those orders. It covers h, so it is orientable when h
    is, and is h when |Mon| = n; otherwise it is orientable exactly when
    the even words <h0 h1, h1 h2> have index 2 in Mon: always when n = 2
    mod 4, each h_i being then n/2 transpositions, odd, and the even words
    in A_n; else as a second Schreier–Sims chain finds.
    """
    order = _stab_and_closure(h)[1]
    t = type_of(h)
    chi = order // (2 * t.l) + order // (2 * t.m) + order // (2 * t.n) - order // 2
    orientable = _parity_coloring(h, (1, 1, 1)) is not None
    if not orientable and order > h.n_flags:
        h0, h1, h2 = h.generator_matrix()
        orientable = h.n_flags % 4 == 2 or 2 * schreier_sims((h1[h0], h2[h1]), h.n_flags)[0] == order
    return QuotientSummary(
        flags=order, type=t, genus=SurfaceClass.from_characteristic(chi, orientable).genus
    )


def _closure_summary(h: Hypermap) -> QuotientSummary | None:
    """Flags, type and genus of closure_cover(h), without building it; None
    where closure_cover raises Degenerate.

    The cover is regular, so a generator that fixes a class is the identity
    on the classes, and all its k-faces have the same valency: the class
    count over twice their number. It is orientable exactly when h is: its
    orientation coloring lifts to h; and when h has one, the flag-0
    stabilizer is made of even words, so its normal closure is too, and the
    coloring is constant on every class and descends to the cover.
    """
    q = _closure_action(h, _stab_and_closure(h)[0])
    count = q.shape[1]
    points = np.arange(count, dtype=DTYPE)
    if (q == points).all(axis=1).any():
        return None
    faces = _pair_orbit_labels(q[[1, 0, 0]], q[[2, 2, 1]])
    face_counts = np.count_nonzero(faces == points, axis=1).tolist()
    chi = sum(face_counts) - count // 2
    orientable = _parity_coloring(h, (1, 1, 1)) is not None
    return QuotientSummary(
        flags=count,
        type=HypermapType(*(count // (2 * f) for f in face_counts)),
        genus=SurfaceClass.from_characteristic(chi, orientable).genus,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Classification snapshot of one hypermap."""

    flags: int
    type: HypermapType
    uniform: bool
    surface: SurfaceClass
    euler_characteristic: int
    theta_colorable: dict[str, bool]
    theta_regular: dict[str, bool]
    bipartite_type: BipartiteType | None
    regular: bool
    bipartite_regular: bool
    bipartite_chiral: bool | None
    monodromy_order: int
    irregularity: IrregularityReport | None
    closure_cover: QuotientSummary | None
    covering_core: QuotientSummary


def analyze(h: Hypermap) -> AnalysisReport:
    """Full classification; avoids building any automorphism group.

    bipartite_chiral is None for non-bipartite inputs, the irregularity
    field is present exactly when h is bipartite-regular, and closure_cover
    is None exactly when the closure cover is degenerate.
    """
    colorable = {v.bits: _parity_coloring(h, v.eps) is not None for v in PARITY_VECTORS}
    regular_by_theta = {v.bits: is_theta_regular(h, v) for v in PARITY_VECTORS}
    bipartite = colorable[BIPARTITE.bits]
    bip_regular = regular_by_theta[BIPARTITE.bits]
    core = core_summary(h)
    return AnalysisReport(
        flags=h.n_flags,
        type=type_of(h),
        uniform=is_uniform(h),
        surface=surface_class(h),
        euler_characteristic=euler_characteristic(h),
        theta_colorable=colorable,
        theta_regular=regular_by_theta,
        bipartite_type=bipartite_type(h),
        regular=is_regular(h),
        bipartite_regular=bip_regular,
        bipartite_chiral=is_bipartite_chiral(h) if bipartite else None,
        monodromy_order=core.flags,
        irregularity=irregularity(h) if bip_regular else None,
        closure_cover=_closure_summary(h),
        covering_core=core,
    )
