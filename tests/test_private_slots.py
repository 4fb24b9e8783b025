"""A Hypermap's derived data stays behind its accessors.

A Hypermap keeps its generator matrix, and what hypermap.py derives from it
on first use (k-face labels, the flag-0 tree, face valencies, parity
colorings), in private slots. Another module that read a slot would see
None where nothing has been derived yet, or would carry derived data over
by its own code beside the function that computes it. So every other
module reads them through generator_matrix(), k_faces(), valencies(),
_face_valencies(), _flag_tree() and _parity_coloring().
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypermaps"
SLOTS = {"_rows", "_faces", "_tree", "_valencies", "_colorings"}


def slot_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(PACKAGE)}:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SLOTS
    ]


def test_only_the_hypermap_module_reads_the_private_slots():
    owner = PACKAGE / "hypermap.py"
    assert {read.rsplit(".", 1)[1] for read in slot_reads(owner)} == SLOTS
    others = [read for path in sorted(PACKAGE.rglob("*.py")) if path != owner for read in slot_reads(path)]
    assert others == []
