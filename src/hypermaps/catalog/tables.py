"""Verifiers for the classification tables of the regular and doubled families.

Each compares computed invariants of constructed hypermaps against expected
values recorded here:

* verify_table1: the regular spherical hypermaps, two families and three
  sporadic ones: type, face and flag counts, regularity.
* verify_table2 and verify_table3 read one family list, _FAMILIES, of the 23
  bipartite-uniform families produced by applying wal/pin to those maps.
  Each entry states its expression once and holds its Table 2 columns next
  to its Table 3 columns. verify_table2 checks the vertex/edge/face
  valency-count profiles, flag counts, bipartite-regularity, and the one
  overlap between the wal and pin lists; verify_table3 the closure cover
  (largest regular quotient, matched up to isomorphism against a named
  hypermap), the covering core (smallest regular cover: type, flags,
  genus), the irregularity index, and the flag stabilizer group Upsilon.
* verify_theorem_mk: the M_k family, whose doublings realize every
  positive irregularity index pattern in terms of the genus.

The three table verifiers share one row loop, _verify, which runs the
parameter range, builds each hypermap and numbers its row; each verifier
states only its expected and computed values. Expected values are data,
never computed by the code under test; every comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..hypermap import (
    Hypermap,
    are_isomorphic,
    euler_characteristic,
    is_uniform,
    surface_class,
    type_of,
    valencies,
)
from ..perm import schreier_sims
from ..quotients import closure_cover, core_summary, irregularity
from ..theta import BIPARTITE, bipartite_type, is_regular, is_theta_regular
from .registry import build_named

__all__ = [
    "VerificationRow",
    "verify_table1",
    "verify_table2",
    "verify_table3",
    "verify_theorem_mk",
]


@dataclass(frozen=True)
class VerificationRow:
    """One verified fact: a labeled expected/computed dictionary pair."""

    table: str
    row_id: str
    label: str
    expected: dict
    computed: dict

    @property
    def matches(self) -> bool:
        return self.expected == self.computed

    def mismatches(self) -> tuple[str, ...]:
        keys = sorted(set(self.expected) | set(self.computed))
        out = []
        for key in keys:
            exp = self.expected.get(key, "<missing>")
            got = self.computed.get(key, "<missing>")
            if exp != got:
                out.append(f"{key}: expected {exp!r}, got {got!r}")
        return tuple(out)


def _cyclic(n: int) -> str:
    """Cyclic-of-order-n, under the naming normalization."""
    return "Trivial" if n == 1 else f"Cyclic({n})"


def _dihedral(n: int) -> str:
    """Dihedral-of-order-2n, under the naming normalization."""
    if n == 1:
        return "Cyclic(2)"
    if n == 2:
        return "KleinFour"
    return f"Dihedral({n})"


def _profiles(h: Hypermap) -> tuple:
    """The sorted per-color-class (valency, count) vertex pairs and the
    (valency, count) edge and face pairs of a bipartite-uniform h, else
    (None, None, None). Each color class holds n/2 flags and a face of
    valency v holds 2v flags, so each count follows from bipartite_type."""
    t = bipartite_type(h)
    if t is None:
        return None, None, None
    n = h.n_flags
    vertex = ((t.l1, n // (4 * t.l1)), (t.l2, n // (4 * t.l2)))
    return vertex, (t.m, n // (2 * t.m)), (t.n, n // (2 * t.n))


# ---------------------------------------------------------------- row loop


def _verify(table: str, letter: str, bound: int, families, check) -> tuple[VerificationRow, ...]:
    """The rows of one table. families are (rid, expr, columns) triples; a
    family whose expr holds {letter} runs for each parameter value 1..bound,
    the others once. columns is a tuple, or a function of the parameter
    giving one; check(h, *columns) gives the expected and computed dicts of
    the hypermap h that expr names."""
    rows = []
    for rid, expr, columns in families:
        parameterized = "{" in expr
        for p in range(1, bound + 1) if parameterized else (0,):
            label = expr.format_map({letter: p})
            h = build_named(label)
            expected, computed = check(h, *(columns(p) if callable(columns) else columns))
            row_id = f"{rid}[{letter}={p}]" if parameterized else str(rid)
            rows.append(VerificationRow(table, row_id, label, expected, computed))
    return tuple(rows)


# ---------------------------------------------------------------- table 1

# rid, expression ({k} for the parameter), and type, V, E, F, flags
_T1_ROWS = (
    (1, "dual02(D{k})", lambda k: ((1, k, k), k, 1, 1, 2 * k)),
    (2, "P{k}", lambda k: ((2, 2, k), k, k, 2, 4 * k)),
    (3, "dual01(T)", ((2, 3, 3), 6, 4, 4, 24)),
    (4, "dual01(C)", ((2, 3, 4), 12, 8, 6, 48)),
    (5, "dual01(D)", ((2, 3, 5), 30, 20, 12, 120)),
)


def verify_table1(k_max: int = 6) -> tuple[VerificationRow, ...]:
    """The regular spherical hypermaps: families for k <= k_max plus sporadics.

    Each is checked to be uniform, regular, and spherical, with the stated
    type, face counts, and flag count, and a monodromy group acting
    regularly.
    """

    def check(h, htype, v, e, f, flags):
        expected = {
            "type": htype,
            "V": v,
            "E": e,
            "F": f,
            "flags": flags,
            "uniform": True,
            "regular": True,
            "chi": 2,
            "mon_order": flags,
        }
        computed = {
            "type": type_of(h).as_tuple(),
            "V": len(valencies(h, 0)),
            "E": len(valencies(h, 1)),
            "F": len(valencies(h, 2)),
            "flags": h.n_flags,
            "uniform": is_uniform(h),
            "regular": is_regular(h),
            "chi": euler_characteristic(h),
            "mon_order": schreier_sims(h.generator_matrix(), h.n_flags)[0],
        }
        return expected, computed

    return _verify("table1", "k", k_max, _T1_ROWS, check)


# ---------------------------------------------------------- tables 2 and 3


@dataclass(frozen=True)
class _Family:
    """A doubled family of Tables 2 and 3. expr names its hypermap, with {n}
    for the parameter; table2 and table3 hold its columns in each table, as
    a tuple or as a function of n giving one."""

    rid: int
    expr: str
    # vertex, edge and face profiles; flags
    table2: tuple | Callable[[int], tuple]
    # closure cover (an expression naming it, type, flags); covering core
    # (type, flags, genus); iota; Upsilon
    table3: tuple | Callable[[int], tuple]


def _pair(a: tuple[int, int], b: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    return tuple(sorted((a, b)))


def _even_odd(even, odd):
    return lambda n: even(n) if n % 2 == 0 else odd(n)


_CC_D2 = ("dual02(D2)", (1, 2, 2), 4)
_CC_D4 = ("dual02(D4)", (1, 4, 4), 8)

_FAMILIES: tuple[_Family, ...] = (
    _Family(1, "pin(dual02(D{n}))", lambda n: (_pair((1, n), (1, n)), (2 * n, 1), (2 * n, 1), 4 * n),
            lambda n: (f"dual02(D{2 * n})", (1, 2 * n, 2 * n), 4 * n, (1, 2 * n, 2 * n), 4 * n, 0, 1, "Trivial")),
    _Family(2, "pin(P{n})", lambda n: (_pair((1, 2 * n), (2, n)), (4, n), (2 * n, 2), 8 * n),
            _even_odd(lambda n: (*_CC_D4, (2, 4, 2 * n), 8 * n * n, ((n - 1) ** 2 + 1) // 2, n, _dihedral(n // 2)),
                      lambda n: (*_CC_D2, (2, 4, 2 * n), 16 * n * n, (n - 1) ** 2, 2 * n, _dihedral(n)))),
    _Family(3, "pin(dual01(T))", (((1, 12), (2, 6)), (6, 4), (6, 4), 48),
            ("dual02(D6)", (1, 6, 6), 12, (2, 6, 6), 192, 9, 4, "KleinFour")),
    _Family(4, "pin(dual01(C))", (((1, 24), (2, 12)), (6, 8), (8, 6), 96),
            (*_CC_D2, (2, 6, 8), 2304, 121, 24, "Sym4")),
    _Family(5, "pin(dual01(D))", (((1, 60), (2, 30)), (6, 20), (10, 12), 240),
            (*_CC_D2, (2, 6, 10), 14400, 841, 60, "Alt5")),
    _Family(6, "pin(T)", (((1, 12), (3, 4)), (4, 6), (6, 4), 48),
            (*_CC_D2, (3, 4, 6), 576, 37, 12, "Alt4")),
    _Family(7, "pin(C)", (((1, 24), (3, 8)), (4, 12), (8, 6), 96),
            (*_CC_D4, (3, 4, 8), 1152, 85, 12, "Alt4")),
    _Family(8, "pin(D)", (((1, 60), (3, 20)), (4, 30), (10, 12), 240),
            (*_CC_D2, (3, 4, 10), 14400, 1141, 60, "Alt5")),
    _Family(9, "pin(dual02(C))", (((1, 24), (4, 6)), (4, 12), (6, 8), 96),
            (*_CC_D2, (4, 4, 6), 2304, 193, 24, "Sym4")),
    _Family(10, "pin(dual02(D))", (((1, 60), (5, 12)), (4, 30), (6, 20), 240),
            (*_CC_D2, (5, 4, 6), 14400, 1381, 60, "Alt5")),
    _Family(11, "pin(dual12(D{n}))", lambda n: (_pair((1, n), (n, 1)), (2, n), (2 * n, 1), 4 * n),
            lambda n: (*_CC_D2, (n, 2, 2 * n), 4 * n * n, (n - 1) * (n - 2) // 2, n, _cyclic(n))),
    _Family(12, "pin(dual02(P{n}))", lambda n: (_pair((1, 2 * n), (n, 2)), (4, n), (4, n), 8 * n),
            lambda n: (*_CC_D4, (n, 4, 4), 8 * n * n, (n - 1) ** 2, n, _cyclic(n))),
    _Family(13, "wal(P{n})", lambda n: (_pair((2, n), (2, n)), (2, 2 * n), (2 * n, 2), 8 * n),
            lambda n: (f"P{2 * n}", (2, 2, 2 * n), 8 * n, (2, 2, 2 * n), 8 * n, 0, 1, "Trivial")),
    _Family(14, "wal(T)", (((2, 6), (3, 4)), (2, 12), (6, 4), 48),
            (*_CC_D2, (6, 2, 6), 576, 25, 12, "Alt4")),
    _Family(15, "wal(C)", (((2, 12), (3, 8)), (2, 24), (8, 6), 96),
            (*_CC_D2, (6, 2, 8), 2304, 121, 24, "Sym4")),
    _Family(16, "wal(D)", (((2, 30), (3, 20)), (2, 60), (10, 12), 240),
            (*_CC_D2, (6, 2, 10), 14400, 841, 60, "Alt5")),
    _Family(17, "wal(dual02(C))", (((2, 12), (4, 6)), (2, 24), (6, 8), 96),
            ("P6", (2, 2, 6), 24, (4, 2, 6), 384, 9, 4, "KleinFour")),
    _Family(18, "wal(dual02(D))", (((2, 30), (5, 12)), (2, 60), (6, 20), 240),
            (*_CC_D2, (10, 2, 6), 14400, 841, 60, "Alt5")),
    _Family(19, "wal(dual02(P{n}))", lambda n: (_pair((2, n), (n, 2)), (2, 2 * n), (4, n), 8 * n),
            _even_odd(lambda n: ("P4", (2, 2, 4), 16, (n, 2, 4), 4 * n * n, (n - 2) ** 2 // 4, n // 2, _cyclic(n // 2)),
                      lambda n: (*_CC_D2, (2 * n, 2, 4), 16 * n * n, (n - 1) ** 2, 2 * n, _dihedral(n)))),
    _Family(20, "wal(dual12(T))", (((3, 4), (3, 4)), (2, 12), (4, 6), 48),
            ("C", (3, 2, 4), 48, (3, 2, 4), 48, 0, 1, "Trivial")),
    _Family(21, "wal(dual12(C))", (((3, 8), (4, 6)), (2, 24), (4, 12), 96),
            (*_CC_D2, (12, 2, 4), 2304, 97, 24, "Sym4")),
    _Family(22, "wal(dual12(D))", (((3, 20), (5, 12)), (2, 60), (4, 30), 240),
            (*_CC_D2, (15, 2, 4), 14400, 661, 60, "Alt5")),
    _Family(23, "wal(D{n})", lambda n: (_pair((n, 1), (n, 1)), (2, n), (2, n), 4 * n),
            lambda n: (f"dual02(P{n})", (n, 2, 2), 4 * n, (n, 2, 2), 4 * n, 0, 1, "Trivial")),
)


def verify_table2(n_max: int = 6) -> tuple[VerificationRow, ...]:
    """Bipartite-uniform doublings: profiles, flags, regularity, sphericity.

    Parameterized rows run for 1 <= n <= n_max. Appends one extra row per n
    for the single overlap between the two construction lists:
    wal(dual02(Dn)) is isomorphic to pin(dual12(Dn)).
    """

    def check(h, vertex_profile, edge_profile, face_profile, flags):
        expected = {
            "vertex_profile": vertex_profile,
            "edge_profile": edge_profile,
            "face_profile": face_profile,
            "flags": flags,
            "bipartite_regular": True,
            "chi": 2,
        }
        vertex, edge, face = _profiles(h)
        computed = {
            "vertex_profile": vertex,
            "edge_profile": edge,
            "face_profile": face,
            "flags": h.n_flags,
            "bipartite_regular": is_theta_regular(h, BIPARTITE),
            "chi": euler_characteristic(h),
        }
        return expected, computed

    rows = _verify("table2", "n", n_max, ((f.rid, f.expr, f.table2) for f in _FAMILIES), check)
    return rows + tuple(
        VerificationRow(
            "table2",
            f"overlap[n={n}]",
            f"wal(dual02(D{n})) ~ pin(dual12(D{n}))",
            {"isomorphic": True},
            {"isomorphic": are_isomorphic(build_named(f"wal(dual02(D{n}))"), build_named(f"pin(dual12(D{n}))"))},
        )
        for n in range(1, n_max + 1)
    )


def verify_table3(n_max: int = 5) -> tuple[VerificationRow, ...]:
    """Quotient data of the doubled families for 1 <= n <= n_max.

    Per row: the closure cover's type, flag count, regularity, and
    isomorphism with the named hypermap recorded for it; the covering
    core's type, flag count, and genus; the irregularity index; and the
    recognized stabilizer group.
    """

    def check(h, cc_expr, cc_type, cc_flags, core_type, core_flags, core_genus, iota, upsilon):
        cc = closure_cover(h)
        core = core_summary(h)
        rep = irregularity(h)
        expected = {
            "cc_type": cc_type,
            "cc_flags": cc_flags,
            "cc_regular": True,
            "cc_named": True,
            "core_type": core_type,
            "core_flags": core_flags,
            "core_genus": core_genus,
            "iota": iota,
            "upsilon": upsilon,
        }
        computed = {
            "cc_type": type_of(cc).as_tuple(),
            "cc_flags": cc.n_flags,
            "cc_regular": is_regular(cc),
            "cc_named": are_isomorphic(cc, build_named(cc_expr)),
            "core_type": core.type.as_tuple(),
            "core_flags": core.flags,
            "core_genus": core.genus,
            "iota": rep.index,
            "upsilon": str(rep.group),
        }
        return expected, computed

    return _verify("table3", "n", n_max, ((f.rid, f.expr, f.table3) for f in _FAMILIES), check)


# ---------------------------------------------------------------- M_k


def verify_theorem_mk(k_max: int = 8) -> tuple[VerificationRow, ...]:
    """The M_k family realizes every irregularity pattern, 1 <= k <= k_max.

    For each k: M_k has genus (k-1)/2 (k odd) or k/2 (k even); its pin
    and wal doublings are bipartite-regular with irregularity indices
    2g+1 / 4g+2 (k odd) and 4g / 4g (k even); Upsilon of the wal doubling
    is cyclic of order 2k, and of the pin doubling cyclic of order k
    (k odd) or 2k (k even).
    """
    rows = []
    for k in range(1, k_max + 1):
        mk = build_named(f"M{k}")
        w = build_named(f"wal(M{k})")
        p = build_named(f"pin(M{k})")
        surf = surface_class(mk)
        wrep = irregularity(w)
        prep = irregularity(p)
        odd, g = k % 2, k // 2
        # M_k has two hypervertices of valency k (k odd) or one of 2k
        vertex = (k, 2) if odd else (2 * k, 1)
        expected = {
            "type": (vertex[0], 2, 2 * k),
            "genus": g,
            "orientable": True,
            "regular": True,
            "pin_profile": _pair((1, 2 * k), vertex),
            "wal_profile": _pair((2, k), vertex),
            "iota_pin": 2 * g + 1 if odd else 4 * g,
            "iota_wal": 4 * g + 2 if odd else 4 * g,
            "ups_wal": _cyclic(2 * k),
            "ups_pin_order": k if odd else 2 * k,
            "ups_pin_cyclic": True,
        }
        computed = {
            "type": type_of(mk).as_tuple(),
            "genus": surf.genus,
            "orientable": surf.orientable,
            "regular": is_regular(mk),
            "pin_profile": _profiles(p)[0],
            "wal_profile": _profiles(w)[0],
            "iota_pin": prep.index,
            "iota_wal": wrep.index,
            "ups_wal": str(wrep.group),
            "ups_pin_order": prep.lower_group_order,
            "ups_pin_cyclic": prep.group.tag in ("Trivial", "Cyclic"),
        }
        rows.append(VerificationRow("mk", f"k={k}", f"M{k}", expected, computed))
    return tuple(rows)
