"""Verifiers for the classification tables of the doubled families.

Three checks, each comparing computed invariants of a constructed hypermap
against expected values recorded here:

* verify_table2: the 23 bipartite-uniform families produced by applying
  wal/pin to the regular spherical hypermaps, with vertex/edge/face
  valency-count profiles, flag counts, bipartite-regularity, and the one
  overlap between the wal and pin lists.
* verify_table3: for the same 23 families, the closure cover (largest
  regular quotient, matched up to isomorphism against a named hypermap),
  the covering core (smallest regular cover: type, flags, genus), the
  irregularity index, and the flag stabilizer group Upsilon.
* verify_theorem_mk: the M_k family, whose doublings realize every
  positive irregularity index pattern in terms of the genus.

Expected values are data, never computed by the code under test; every
comparison is exact.
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


# ---------------------------------------------------------------- table 1

_T1_ROWS: tuple[tuple[str, Callable[[int], str], Callable[[int], dict]], ...] = (
    (
        "(1,k,k)",
        lambda k: f"dual02(D{k})",
        lambda k: {"type": (1, k, k), "V": k, "E": 1, "F": 1, "flags": 2 * k},
    ),
    (
        "(2,2,k)",
        lambda k: f"P{k}",
        lambda k: {"type": (2, 2, k), "V": k, "E": k, "F": 2, "flags": 4 * k},
    ),
    (
        "(2,3,3)",
        lambda k: "dual01(T)",
        lambda k: {"type": (2, 3, 3), "V": 6, "E": 4, "F": 4, "flags": 24},
    ),
    (
        "(2,3,4)",
        lambda k: "dual01(C)",
        lambda k: {"type": (2, 3, 4), "V": 12, "E": 8, "F": 6, "flags": 48},
    ),
    (
        "(2,3,5)",
        lambda k: "dual01(D)",
        lambda k: {"type": (2, 3, 5), "V": 30, "E": 20, "F": 12, "flags": 120},
    ),
)


def verify_table1(k_max: int = 6) -> tuple[VerificationRow, ...]:
    """The regular spherical hypermaps: families for k <= k_max plus sporadics.

    Each is checked to be uniform, regular, and spherical, with the stated
    type, face counts, and flag count, and a monodromy group acting
    regularly.
    """
    rows = []
    for rid, (family, expr_of, data_of) in enumerate(_T1_ROWS, start=1):
        parameterized = family in ("(1,k,k)", "(2,2,k)")
        ks = range(1, k_max + 1) if parameterized else (0,)
        for k in ks:
            expr = expr_of(k)
            expected = dict(data_of(k))
            expected.update({"uniform": True, "regular": True, "chi": 2, "mon_order": expected["flags"]})
            h = build_named(expr)
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
            row_id = f"{rid}[k={k}]" if parameterized else str(rid)
            rows.append(VerificationRow("table1", row_id, expr, expected, computed))
    return tuple(rows)


# ---------------------------------------------------------------- table 2

_VP = Callable[[int], tuple[tuple[int, int], tuple[int, int]]]
_EP = Callable[[int], tuple[int, int]]


@dataclass(frozen=True)
class _T2Row:
    rid: int
    expr: str  # hypermap expression, {n} for the parameter
    vp: _VP
    ep: _EP
    fp: _EP
    flags: Callable[[int], int]

    @property
    def parameterized(self) -> bool:
        return "{n}" in self.expr


def _pair(a: tuple[int, int], b: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    return tuple(sorted((a, b)))


_T2_ROWS: tuple[_T2Row, ...] = (
    _T2Row(1, "pin(dual02(D{n}))", lambda n: _pair((1, n), (1, n)), lambda n: (2 * n, 1), lambda n: (2 * n, 1), lambda n: 4 * n),
    _T2Row(2, "pin(P{n})", lambda n: _pair((1, 2 * n), (2, n)), lambda n: (4, n), lambda n: (2 * n, 2), lambda n: 8 * n),
    _T2Row(3, "pin(dual01(T))", lambda n: ((1, 12), (2, 6)), lambda n: (6, 4), lambda n: (6, 4), lambda n: 48),
    _T2Row(4, "pin(dual01(C))", lambda n: ((1, 24), (2, 12)), lambda n: (6, 8), lambda n: (8, 6), lambda n: 96),
    _T2Row(5, "pin(dual01(D))", lambda n: ((1, 60), (2, 30)), lambda n: (6, 20), lambda n: (10, 12), lambda n: 240),
    _T2Row(6, "pin(T)", lambda n: ((1, 12), (3, 4)), lambda n: (4, 6), lambda n: (6, 4), lambda n: 48),
    _T2Row(7, "pin(C)", lambda n: ((1, 24), (3, 8)), lambda n: (4, 12), lambda n: (8, 6), lambda n: 96),
    _T2Row(8, "pin(D)", lambda n: ((1, 60), (3, 20)), lambda n: (4, 30), lambda n: (10, 12), lambda n: 240),
    _T2Row(9, "pin(dual02(C))", lambda n: ((1, 24), (4, 6)), lambda n: (4, 12), lambda n: (6, 8), lambda n: 96),
    _T2Row(10, "pin(dual02(D))", lambda n: ((1, 60), (5, 12)), lambda n: (4, 30), lambda n: (6, 20), lambda n: 240),
    _T2Row(11, "pin(dual12(D{n}))", lambda n: _pair((1, n), (n, 1)), lambda n: (2, n), lambda n: (2 * n, 1), lambda n: 4 * n),
    _T2Row(12, "pin(dual02(P{n}))", lambda n: _pair((1, 2 * n), (n, 2)), lambda n: (4, n), lambda n: (4, n), lambda n: 8 * n),
    _T2Row(13, "wal(P{n})", lambda n: _pair((2, n), (2, n)), lambda n: (2, 2 * n), lambda n: (2 * n, 2), lambda n: 8 * n),
    _T2Row(14, "wal(T)", lambda n: ((2, 6), (3, 4)), lambda n: (2, 12), lambda n: (6, 4), lambda n: 48),
    _T2Row(15, "wal(C)", lambda n: ((2, 12), (3, 8)), lambda n: (2, 24), lambda n: (8, 6), lambda n: 96),
    _T2Row(16, "wal(D)", lambda n: ((2, 30), (3, 20)), lambda n: (2, 60), lambda n: (10, 12), lambda n: 240),
    _T2Row(17, "wal(dual02(C))", lambda n: ((2, 12), (4, 6)), lambda n: (2, 24), lambda n: (6, 8), lambda n: 96),
    _T2Row(18, "wal(dual02(D))", lambda n: ((2, 30), (5, 12)), lambda n: (2, 60), lambda n: (6, 20), lambda n: 240),
    _T2Row(19, "wal(dual02(P{n}))", lambda n: _pair((2, n), (n, 2)), lambda n: (2, 2 * n), lambda n: (4, n), lambda n: 8 * n),
    _T2Row(20, "wal(dual12(T))", lambda n: ((3, 4), (3, 4)), lambda n: (2, 12), lambda n: (4, 6), lambda n: 48),
    _T2Row(21, "wal(dual12(C))", lambda n: ((3, 8), (4, 6)), lambda n: (2, 24), lambda n: (4, 12), lambda n: 96),
    _T2Row(22, "wal(dual12(D))", lambda n: ((3, 20), (5, 12)), lambda n: (2, 60), lambda n: (4, 30), lambda n: 240),
    _T2Row(23, "wal(D{n})", lambda n: _pair((n, 1), (n, 1)), lambda n: (2, n), lambda n: (2, n), lambda n: 4 * n),
)


def verify_table2(n_max: int = 6) -> tuple[VerificationRow, ...]:
    """Bipartite-uniform doublings: profiles, flags, regularity, sphericity.

    Parameterized rows run for 1 <= n <= n_max. Appends one extra row per n
    for the single overlap between the two construction lists:
    wal(dual02(Dn)) is isomorphic to pin(dual12(Dn)).
    """
    rows = []
    for spec in _T2_ROWS:
        ns = range(1, n_max + 1) if spec.parameterized else (0,)
        for n in ns:
            expr = spec.expr.format(n=n)
            h = build_named(expr)
            expected = {
                "vertex_profile": spec.vp(n),
                "edge_profile": spec.ep(n),
                "face_profile": spec.fp(n),
                "flags": spec.flags(n),
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
            row_id = f"{spec.rid}[n={n}]" if spec.parameterized else str(spec.rid)
            rows.append(VerificationRow("table2", row_id, expr, expected, computed))
    for n in range(1, n_max + 1):
        a = build_named(f"wal(dual02(D{n}))")
        b = build_named(f"pin(dual12(D{n}))")
        rows.append(
            VerificationRow(
                "table2",
                f"overlap[n={n}]",
                f"wal(dual02(D{n})) ~ pin(dual12(D{n}))",
                {"isomorphic": True},
                {"isomorphic": are_isomorphic(a, b)},
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------- table 3


@dataclass(frozen=True)
class _T3Row:
    rid: int
    expr: str
    cc_expr: Callable[[int], str]
    cc_type: Callable[[int], tuple[int, int, int]]
    cc_flags: Callable[[int], int]
    core_type: Callable[[int], tuple[int, int, int]]
    core_flags: Callable[[int], int]
    core_genus: Callable[[int], int]
    iota: Callable[[int], int]
    upsilon: Callable[[int], str]

    @property
    def parameterized(self) -> bool:
        return "{n}" in self.expr


def _even_odd(even, odd):
    return lambda n: even(n) if n % 2 == 0 else odd(n)


def _const(value):
    return lambda n: value


_CC_D2 = (_const("dual02(D2)"), _const((1, 2, 2)), _const(4))
_CC_D4 = (_const("dual02(D4)"), _const((1, 4, 4)), _const(8))

_T3_ROWS: tuple[_T3Row, ...] = (
    _T3Row(1, "pin(dual02(D{n}))",
           lambda n: f"dual02(D{2 * n})", lambda n: (1, 2 * n, 2 * n), lambda n: 4 * n,
           lambda n: (1, 2 * n, 2 * n), lambda n: 4 * n, _const(0),
           _const(1), _const("Trivial")),
    _T3Row(2, "pin(P{n})",
           _even_odd(_const("dual02(D4)"), _const("dual02(D2)")),
           _even_odd(_const((1, 4, 4)), _const((1, 2, 2))),
           _even_odd(_const(8), _const(4)),
           lambda n: (2, 4, 2 * n),
           _even_odd(lambda n: 8 * n * n, lambda n: 16 * n * n),
           _even_odd(lambda n: ((n - 1) ** 2 + 1) // 2, lambda n: (n - 1) ** 2),
           _even_odd(lambda n: n, lambda n: 2 * n),
           _even_odd(lambda n: _dihedral(n // 2), lambda n: _dihedral(n))),
    _T3Row(3, "pin(dual01(T))",
           _const("dual02(D6)"), _const((1, 6, 6)), _const(12),
           _const((2, 6, 6)), _const(192), _const(9),
           _const(4), _const("KleinFour")),
    _T3Row(4, "pin(dual01(C))", *_CC_D2,
           _const((2, 6, 8)), _const(2304), _const(121),
           _const(24), _const("Sym4")),
    _T3Row(5, "pin(dual01(D))", *_CC_D2,
           _const((2, 6, 10)), _const(14400), _const(841),
           _const(60), _const("Alt5")),
    _T3Row(6, "pin(T)", *_CC_D2,
           _const((3, 4, 6)), _const(576), _const(37),
           _const(12), _const("Alt4")),
    _T3Row(7, "pin(C)", *_CC_D4,
           _const((3, 4, 8)), _const(1152), _const(85),
           _const(12), _const("Alt4")),
    _T3Row(8, "pin(D)", *_CC_D2,
           _const((3, 4, 10)), _const(14400), _const(1141),
           _const(60), _const("Alt5")),
    _T3Row(9, "pin(dual02(C))", *_CC_D2,
           _const((4, 4, 6)), _const(2304), _const(193),
           _const(24), _const("Sym4")),
    _T3Row(10, "pin(dual02(D))", *_CC_D2,
           _const((5, 4, 6)), _const(14400), _const(1381),
           _const(60), _const("Alt5")),
    _T3Row(11, "pin(dual12(D{n}))", *_CC_D2,
           lambda n: (n, 2, 2 * n), lambda n: 4 * n * n,
           lambda n: (n - 1) * (n - 2) // 2,
           lambda n: n, lambda n: _cyclic(n)),
    _T3Row(12, "pin(dual02(P{n}))", *_CC_D4,
           lambda n: (n, 4, 4), lambda n: 8 * n * n, lambda n: (n - 1) ** 2,
           lambda n: n, lambda n: _cyclic(n)),
    _T3Row(13, "wal(P{n})",
           lambda n: f"P{2 * n}", lambda n: (2, 2, 2 * n), lambda n: 8 * n,
           lambda n: (2, 2, 2 * n), lambda n: 8 * n, _const(0),
           _const(1), _const("Trivial")),
    _T3Row(14, "wal(T)", *_CC_D2,
           _const((6, 2, 6)), _const(576), _const(25),
           _const(12), _const("Alt4")),
    _T3Row(15, "wal(C)", *_CC_D2,
           _const((6, 2, 8)), _const(2304), _const(121),
           _const(24), _const("Sym4")),
    _T3Row(16, "wal(D)", *_CC_D2,
           _const((6, 2, 10)), _const(14400), _const(841),
           _const(60), _const("Alt5")),
    _T3Row(17, "wal(dual02(C))",
           _const("P6"), _const((2, 2, 6)), _const(24),
           _const((4, 2, 6)), _const(384), _const(9),
           _const(4), _const("KleinFour")),
    _T3Row(18, "wal(dual02(D))", *_CC_D2,
           _const((10, 2, 6)), _const(14400), _const(841),
           _const(60), _const("Alt5")),
    _T3Row(19, "wal(dual02(P{n}))",
           _even_odd(_const("P4"), _const("dual02(D2)")),
           _even_odd(_const((2, 2, 4)), _const((1, 2, 2))),
           _even_odd(_const(16), _const(4)),
           _even_odd(lambda n: (n, 2, 4), lambda n: (2 * n, 2, 4)),
           _even_odd(lambda n: 4 * n * n, lambda n: 16 * n * n),
           _even_odd(lambda n: (n - 2) ** 2 // 4, lambda n: (n - 1) ** 2),
           _even_odd(lambda n: n // 2, lambda n: 2 * n),
           _even_odd(lambda n: _cyclic(n // 2), lambda n: _dihedral(n))),
    _T3Row(20, "wal(dual12(T))",
           _const("C"), _const((3, 2, 4)), _const(48),
           _const((3, 2, 4)), _const(48), _const(0),
           _const(1), _const("Trivial")),
    _T3Row(21, "wal(dual12(C))", *_CC_D2,
           _const((12, 2, 4)), _const(2304), _const(97),
           _const(24), _const("Sym4")),
    _T3Row(22, "wal(dual12(D))", *_CC_D2,
           _const((15, 2, 4)), _const(14400), _const(661),
           _const(60), _const("Alt5")),
    _T3Row(23, "wal(D{n})",
           lambda n: f"dual02(P{n})", lambda n: (n, 2, 2), lambda n: 4 * n,
           lambda n: (n, 2, 2), lambda n: 4 * n, _const(0),
           _const(1), _const("Trivial")),
)


def verify_table3(n_max: int = 5) -> tuple[VerificationRow, ...]:
    """Quotient data of the doubled families for 1 <= n <= n_max.

    Per row: the closure cover's type, flag count, regularity, and
    isomorphism with the named hypermap recorded for it; the covering
    core's type, flag count, and genus; the irregularity index; and the
    recognized stabilizer group.
    """
    rows = []
    for spec in _T3_ROWS:
        ns = range(1, n_max + 1) if spec.parameterized else (0,)
        for n in ns:
            expr = spec.expr.format(n=n)
            h = build_named(expr)
            cc = closure_cover(h)
            core = core_summary(h)
            rep = irregularity(h)
            expected = {
                "cc_type": spec.cc_type(n),
                "cc_flags": spec.cc_flags(n),
                "cc_regular": True,
                "cc_named": True,
                "core_type": spec.core_type(n),
                "core_flags": spec.core_flags(n),
                "core_genus": spec.core_genus(n),
                "iota": spec.iota(n),
                "upsilon": spec.upsilon(n),
            }
            computed = {
                "cc_type": type_of(cc).as_tuple(),
                "cc_flags": cc.n_flags,
                "cc_regular": is_regular(cc),
                "cc_named": are_isomorphic(cc, build_named(spec.cc_expr(n))),
                "core_type": core.type.as_tuple(),
                "core_flags": core.flags,
                "core_genus": core.genus,
                "iota": rep.index,
                "upsilon": str(rep.group),
            }
            row_id = f"{spec.rid}[n={n}]" if spec.parameterized else str(spec.rid)
            rows.append(VerificationRow("table3", row_id, expr, expected, computed))
    return tuple(rows)


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
        if k % 2:
            g = (k - 1) // 2
            expected = {
                "type": (k, 2, 2 * k),
                "genus": g,
                "orientable": True,
                "regular": True,
                "pin_profile": _pair((1, 2 * k), (k, 2)),
                "wal_profile": _pair((2, k), (k, 2)),
                "iota_pin": 2 * g + 1,
                "iota_wal": 4 * g + 2,
            }
        else:
            g = k // 2
            expected = {
                "type": (2 * k, 2, 2 * k),
                "genus": g,
                "orientable": True,
                "regular": True,
                "pin_profile": _pair((1, 2 * k), (2 * k, 1)),
                "wal_profile": _pair((2, k), (2 * k, 1)),
                "iota_pin": 4 * g,
                "iota_wal": 4 * g,
            }
        expected.update(
            {
                "ups_wal": _cyclic(2 * k),
                "ups_pin_order": k if k % 2 else 2 * k,
                "ups_pin_cyclic": True,
            }
        )
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
