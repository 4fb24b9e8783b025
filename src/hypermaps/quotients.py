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
  classes come from congruence closure on the flags, with no group: the
  coset-coincidence union-find of coset enumeration (Holt, Eick &
  O'Brien, Handbook of Computational Group Theory, 2005, ch. 5). When a
  generator acts trivially on them the quotient is no hypermap and
  closure_cover() raises Degenerate. analyze() derives its flags, type
  and genus from the generators' action on the classes, without building
  it;
* the irregularity index is |G| / |flags| (1 exactly for regular maps),
  and for bipartite-regular hypermaps the flag stabilizer itself is a
  group Upsilon whose isomorphism type refines the index. |G| and
  Upsilon are read off the closure cover and the automorphisms when these
  have at most two flag orbits. Otherwise |G| and the generators of the
  flag-0 stabilizer come from one Schreier–Sims chain (perm.schreier_sims),
  computed once per hypermap, and the closure classes from those
  generators; so no analysis enumerates a group.

analyze() bundles the classification data for one hypermap into a report
without listing the automorphism group, so it stays usable on inputs whose
monodromy groups are much larger than the flag set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import DTYPE, _orbit_labels, _row_index
from .build import _class_arrays
from .errors import Degenerate, NotBipartite, NotBipartiteRegular
from .hypermap import (
    Hypermap,
    HypermapType,
    SurfaceClass,
    _LABEL_STACKS,
    _extensions,
    _parity_coloring,
    euler_characteristic,
    is_uniform,
    monodromy_group,
    surface_class,
    type_of,
)
from .perm import (
    FiniteGroup,
    GroupName,
    Permutation,
    generate_group,
    recognize_group,
    schreier_sims,
)
from .theta import (
    BIPARTITE,
    PARITY_VECTORS,
    BipartiteType,
    _automorphism_group,
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
    "monodromy",
    "covering_core",
    "closure_cover",
    "core_summary",
    "irregularity",
    "delta0_monodromy",
    "analyze",
]


def monodromy(h: Hypermap) -> FiniteGroup:
    """The group generated by h0, h1, h2 acting on the flags."""
    return monodromy_group(h)


def covering_core(h: Hypermap) -> Hypermap:
    """The regular hypermap on the monodromy group itself.

    Flags are the group elements in closure order; generators act by right
    multiplication, so the identity (flag 0) projects to h's flag 0 under
    evaluation and the result covers h.
    """
    group = monodromy_group(h)
    return Hypermap(group.order, *_row_index(group.matrix, h.generator_matrix()[:, group.matrix]))


def _extension_conflicts(q: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Class pairs that every regular quotient of q must identify.

    q is the (3, k) action of the generators on k classes. For each target
    class x, the equivariant map sending class 0 to x is propagated over
    the classes; an edge whose two ends disagree yields a pair. Returns the
    pairs of the first block of targets yielded by _extensions that has
    any, as a (2, p) array; (2, 0) when every extension is consistent.
    """
    k = q.shape[1]
    for psi, ok in _extensions(q, q, targets):
        if not ok.all():
            psi = psi[:, ~ok]
            lhs = psi[q]  # psi(c h_i)
            rhs = q[:, psi]  # psi(c) h_i
            bad = lhs != rhs
            # return_index: a plain np.unique imports numpy.ma on first use
            pairs = np.unique(lhs[bad].astype(np.int64) * k + rhs[bad], return_index=True)[0]
            return np.stack(np.divmod(pairs, k)).astype(DTYPE)
    return np.empty((2, 0), dtype=DTYPE)


def _merge(q: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Root of each class after joining the pairs and closing under q.

    Union-find with coincidence processing: joining two roots forces their
    images under each generator together, as in coset enumeration.
    """
    parent = list(range(q.shape[1]))
    rows = q.tolist()

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = list(zip(pairs[0].tolist(), pairs[1].tolist()))
    while stack:
        a, b = stack.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        parent[max(a, b)] = min(a, b)
        stack.extend((row[a], row[b]) for row in rows)
    return np.fromiter((find(x) for x in range(len(parent))), dtype=DTYPE, count=len(parent))


@functools.lru_cache(maxsize=64)
def _chain(h: Hypermap) -> tuple[int, np.ndarray]:
    """|Mon| and the strong generators of the flag-0 stabilizer, from one
    Schreier–Sims chain with flag 0 as its first base point."""
    return schreier_sims(h.h, h.n_flags)


def _few_orbits(h: Hypermap) -> bool:
    """Aut has at most two flag orbits: 2 |Aut| >= n."""
    return 2 * int(_stab_matched_flags(h).sum()) >= h.n_flags


@functools.lru_cache(maxsize=64)
def _stab_and_closure(h: Hypermap) -> np.ndarray:
    """The closure-cover partition of the flags, as a read-only label array.

    Its classes are the orbits of the normal closure N of the flag-0
    stabilizer S in the monodromy group; flag 0 is in class 0 and classes
    are numbered by first appearance. Computed without enumerating the
    group, by congruence closure, in one of two ways.

    When Aut has at most two flag orbits: from the discrete partition,
    every extension conflict of class 0 -> x is merged, then the partition
    is closed under h0, h1, h2, until every extension is consistent. Each
    merge is forced, because a regular quotient has an automorphism sending
    class 0 to any class; so the fixpoint is the largest regular quotient.
    On the discrete partition only the flags _stab_matched_flags leaves
    unmatched can conflict, so a regular h is its own closure cover.

    Otherwise: the closure of the pairs (x, x s) over the generators s of S
    from _chain. A partition closed under h0, h1, h2 is a block system of
    Mon. If each S-orbit lies in one block, S maps every block to itself
    (it moves each point within its S-orbit), so S, and hence N, lies in
    the kernel of Mon's action on the blocks, and each N-orbit lies in one
    block. The N-orbits are such a block system themselves (N is normal and
    contains S), so they are the finest one.
    """
    rows = h.generator_matrix()
    if _few_orbits(h):
        labels = np.arange(h.n_flags, dtype=DTYPE)
        targets = np.flatnonzero(~_stab_matched_flags(h)).astype(DTYPE)
        while targets.size:
            _, reps = np.unique(labels, return_index=True)
            q = labels[rows[:, reps]]
            pairs = _extension_conflicts(q, targets)
            if not pairs.size:
                break
            # roots are the least merged class, so their order is first appearance
            labels = np.unique(_merge(q, pairs)[labels], return_inverse=True)[1].astype(DTYPE)
            targets = np.arange(int(labels.max()) + 1, dtype=DTYPE)
    else:
        stab = _chain(h)[1]
        points = np.broadcast_to(np.arange(h.n_flags, dtype=DTYPE), stab.shape)
        # roots are the least flag of each class, so their order is first appearance
        roots = _merge(rows, np.stack([points.ravel(), stab.ravel()]))
        labels = np.unique(roots, return_inverse=True)[1].astype(DTYPE)
    labels.setflags(write=False)
    return labels


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
    images = _closure_action(h, _stab_and_closure(h))
    count = images.shape[1]
    trivial = [f"h{i}" for i, img in enumerate(images) if np.array_equal(img, np.arange(count))]
    if trivial:
        raise Degenerate(
            f"trivial generators {', '.join(trivial)} in the closure cover (class count {count})"
        )
    return Hypermap(count, *images)


def _monodromy_order(h: Hypermap) -> int:
    """|Mon|: n |C0|, for flag 0's closure class C0, when 2|Aut| >= n.

    Aut then has at most two orbits, each a block of Mon. S = Stab(0) is
    the kernel of Mon's action on the orbit O of flag 0, and that action is
    regular. So the normal closure of S is S S^t (t swapping the blocks),
    and C0 = 0 S^t, which gives |C0| = |S|. The deck group (automorphisms
    sending 0 into C0) is the centralizer of S^t acting regularly on C0,
    so it is isomorphic to S. Otherwise |Mon| is the order of the
    Schreier–Sims chain (_chain); no group is enumerated either way.
    """
    if _few_orbits(h):
        return h.n_flags * int(np.count_nonzero(_stab_and_closure(h) == 0))
    return _chain(h)[0]


@dataclass(frozen=True)
class IrregularityReport:
    """Irregularity data of a bipartite-regular hypermap.

    index is |monodromy| / |flags|; group names the flag stabilizer Upsilon
    (order lower_group_order); upper_group_order is |normal closure of
    Upsilon| / index. All three orders are equal (see _monodromy_order).
    """

    index: int
    group: GroupName
    lower_group_order: int
    upper_group_order: int


def irregularity(h: Hypermap) -> IrregularityReport:
    """Index and Upsilon, read off the deck group over the closure cover."""
    if not is_theta_regular(h, BIPARTITE):
        raise NotBipartiteRegular("irregularity is defined for bipartite-regular hypermaps")
    deck = _automorphism_group(h, np.flatnonzero(_stab_and_closure(h) == 0))
    return IrregularityReport(deck.order, recognize_group(deck), deck.order, deck.order)


def delta0_monodromy(h: Hypermap) -> FiniteGroup:
    """Monodromy of the color-0 restriction t1, t2, t0 t1 t0, t0 t2 t0.

    Defined for bipartite h: the four restricted maps generate a group on
    the color-0 flags isomorphic to the full monodromy group.
    """
    colors = _parity_coloring(h, (1, 0, 0))
    if colors is None:
        raise NotBipartite("no vertex 2-coloring")
    flags, pos = _class_arrays(colors, 0)
    t0, t1, t2 = (p.images for p in h.h)
    words = (t1, t2, t0[t1[t0]], t0[t2[t0]])
    gens = tuple(Permutation(pos[w[flags]]) for w in words)
    return generate_group(gens, flags.shape[0])


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
    the even words <h0 h1, h1 h2> have index 2 in Mon, their order coming
    from a second Schreier–Sims chain.
    """
    order = _monodromy_order(h)
    t = type_of(h)
    chi = order // (2 * t.l) + order // (2 * t.m) + order // (2 * t.n) - order // 2
    orientable = _parity_coloring(h, (1, 1, 1)) is not None
    if not orientable and order > h.n_flags:
        h0, h1, h2 = h.h
        orientable = 2 * schreier_sims((h0 * h1, h1 * h2), h.n_flags)[0] == order
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
    q = _closure_action(h, _stab_and_closure(h))
    count = q.shape[1]
    points = np.arange(count, dtype=DTYPE)
    if (q == points).all(axis=1).any():
        return None
    faces = _orbit_labels(q[_LABEL_STACKS[:3]], np.broadcast_to(points, (3, count)))
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
