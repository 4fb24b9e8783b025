"""Named hypermap registry and the expression grammar for building them.

An expression is an atom or a wrapper applied to an expression:

    atom     = D<n> | P<n> | M<k> | T | C | O | D | I
    wrapper  = dual01 | dual02 | dual12 | wal | pin

e.g. "P4", "dual02(D3)", "pin(dual01(D))". D<n> is the n-edge dipole,
P<n> the n-gonal prism boundary, M<k> the 4k-flag dihedral map family,
and the single letters are the Platonic solids. The fixed catalog below
samples every family and wrapper and is what the property checks and the
small-size search compare against.
"""

from __future__ import annotations

import functools
import re

from ..build import build_Dn, build_Mk, build_platonic, build_Pn, pin, walsh
from ..errors import ParseError
from ..hypermap import _SIGMA_IMAGES, Hypermap, dual

__all__ = ["CATALOG_NAMES", "build_named", "full_catalog"]

_WRAPPERS = {
    "dual01": lambda h: dual(h, _SIGMA_IMAGES["01"]),
    "dual02": lambda h: dual(h, _SIGMA_IMAGES["02"]),
    "dual12": lambda h: dual(h, _SIGMA_IMAGES["12"]),
    "wal": walsh,
    "pin": pin,
}

_ATOM_RE = re.compile(r"^([DPM])([1-9]\d*)$")
_WRAP_RE = re.compile(r"^(dual01|dual02|dual12|wal|pin)\((.+)\)$")


@functools.lru_cache(maxsize=512)
def build_named(name: str) -> Hypermap:
    """Build the hypermap denoted by an expression; ParseError if malformed."""
    name = name.strip()
    wrap = _WRAP_RE.match(name)
    if wrap:
        return _WRAPPERS[wrap.group(1)](build_named(wrap.group(2)))
    atom = _ATOM_RE.match(name)
    if atom:
        family, param = atom.group(1), int(atom.group(2))
        if family == "D":
            return build_Dn(param)
        if family == "P":
            return build_Pn(param)
        return build_Mk(param)
    if name in ("T", "C", "O", "D", "I"):
        return build_platonic(name)
    raise ParseError(f"unknown hypermap expression {name!r}")


def _catalog_names() -> tuple[str, ...]:
    names: list[str] = []
    names += [f"D{n}" for n in range(1, 7)]
    names += [f"P{n}" for n in range(1, 7)]
    names += ["T", "C", "O", "D", "I"]
    names += [f"M{k}" for k in range(1, 9)]
    for solid in ("T", "C", "D"):
        names += [f"dual01({solid})", f"dual02({solid})", f"dual12({solid})"]
    for n in range(1, 7):
        names += [f"dual02(D{n})", f"dual12(D{n})", f"dual02(P{n})"]
    names += [
        "wal(T)",
        "pin(T)",
        "wal(P2)",
        "pin(P2)",
        "wal(D2)",
        "pin(D3)",
        "wal(M2)",
        "pin(M3)",
        "wal(dual02(P3))",
        "pin(dual12(D3))",
        "wal(pin(T))",
    ]
    return tuple(names)


CATALOG_NAMES: tuple[str, ...] = _catalog_names()


@functools.lru_cache(maxsize=1)
def full_catalog() -> tuple[tuple[str, Hypermap], ...]:
    """All catalog entries as (name, hypermap) pairs, built once."""
    return tuple((name, build_named(name)) for name in CATALOG_NAMES)
