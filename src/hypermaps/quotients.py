"""Regular quotients, covers, and irregularity measures.

For a hypermap with monodromy group G acting on the flags:

* the covering core is the regular hypermap on G itself (right
  multiplication by the generators), the smallest regular cover;
* the closure cover is the quotient of G by the normal closure of a flag
  stabilizer, the largest regular hypermap the original covers;
* the irregularity index is |G| / |flags| (1 exactly for regular maps),
  and for bipartite-regular hypermaps the flag stabilizer itself is a
  group Upsilon whose isomorphism type refines the index.

analyze() bundles the classification data for one hypermap into a report
without ever materializing the automorphism group element-by-element, so
it stays usable on inputs whose monodromy groups are much larger than the
flag set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import DTYPE
from .build import _class_arrays
from .errors import NotBipartite, NotBipartiteRegular
from .hypermap import (
    Hypermap,
    HypermapType,
    SurfaceClass,
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
    _freeze,
    generate_group,
    normal_closure,
    point_stabilizer,
    quotient_action,
    recognize_group,
)
from .theta import (
    BIPARTITE,
    PARITY_VECTORS,
    BipartiteType,
    bipartite_type,
    is_bipartite_chiral,
    is_regular,
    is_theta_regular,
    theta_coloring,
)

__all__ = [
    "IrregularityReport",
    "QuotientSummary",
    "AnalysisReport",
    "monodromy",
    "covering_core",
    "closure_cover",
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
    matrix = group.matrix
    index = {row.tobytes(): i for i, row in enumerate(matrix)}
    cols = []
    for p in h.h:
        imgs = p.images[matrix]
        col = np.fromiter(
            (index[row.tobytes()] for row in imgs), dtype=DTYPE, count=group.order
        )
        cols.append(Permutation._wrap(_freeze(col)))
    return Hypermap(group.order, *cols)


@functools.lru_cache(maxsize=64)
def _stab_and_closure(h: Hypermap) -> tuple[FiniteGroup, FiniteGroup]:
    group = monodromy_group(h)
    stab = point_stabilizer(group, 0)
    return stab, normal_closure(group, stab.generators)


def closure_cover(h: Hypermap) -> Hypermap:
    """The largest regular hypermap covered by h.

    Quotient of the monodromy group by the normal closure of the flag-0
    stabilizer; generators act on the cosets.
    """
    group = monodromy_group(h)
    _, closure = _stab_and_closure(h)
    count, perms = quotient_action(group, closure)
    return Hypermap(count, *perms)


@dataclass(frozen=True)
class IrregularityReport:
    """Irregularity data of a bipartite-regular hypermap.

    index is |monodromy| / |flags|; group names the flag stabilizer Upsilon
    (order lower_group_order, equal to index); upper_group_order is
    |normal closure of Upsilon| / index, which equals index again exactly
    when the closure has order index squared.
    """

    index: int
    group: GroupName
    lower_group_order: int
    upper_group_order: int


def irregularity(h: Hypermap) -> IrregularityReport:
    """Index and stabilizer type; NotBipartiteRegular when not applicable."""
    if not is_theta_regular(h, BIPARTITE):
        raise NotBipartiteRegular("irregularity is defined for bipartite-regular hypermaps")
    group = monodromy_group(h)
    index, rem = divmod(group.order, h.n_flags)
    if rem:
        raise AssertionError("monodromy order not divisible by flag count")
    stab, closure = _stab_and_closure(h)
    return IrregularityReport(
        index=index,
        group=recognize_group(stab),
        lower_group_order=stab.order,
        upper_group_order=closure.order // index,
    )


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
    flags: int
    type: HypermapType
    genus: int


def _summarize(h: Hypermap) -> QuotientSummary:
    return QuotientSummary(flags=h.n_flags, type=type_of(h), genus=surface_class(h).genus)


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
    closure_cover: QuotientSummary
    covering_core: QuotientSummary


def analyze(h: Hypermap) -> AnalysisReport:
    """Full classification; avoids building any automorphism group.

    bipartite_chiral is None for non-bipartite inputs, and the
    irregularity field is present exactly when h is bipartite-regular.
    """
    colorable = {v.bits: theta_coloring(h, v) is not None for v in PARITY_VECTORS}
    regular_by_theta = {v.bits: is_theta_regular(h, v) for v in PARITY_VECTORS}
    bipartite = colorable[BIPARTITE.bits]
    bip_regular = regular_by_theta[BIPARTITE.bits]
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
        monodromy_order=monodromy_group(h).order,
        irregularity=irregularity(h) if bip_regular else None,
        closure_cover=_summarize(closure_cover(h)),
        covering_core=_summarize(covering_core(h)),
    )
