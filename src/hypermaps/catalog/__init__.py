"""Named hypermap catalog, table verifiers, small-size search, and the CLI."""

from __future__ import annotations

from .oracle import OracleReport, brute_oracle, fixed_point_free_involutions
from .registry import CATALOG_NAMES, build_named, full_catalog
from .tables import (
    VerificationRow,
    verify_table1,
    verify_table2,
    verify_table3,
    verify_theorem_mk,
)

__all__ = [
    "CATALOG_NAMES",
    "OracleReport",
    "VerificationRow",
    "brute_oracle",
    "build_named",
    "fixed_point_free_involutions",
    "full_catalog",
    "verify_table1",
    "verify_table2",
    "verify_table3",
    "verify_theorem_mk",
]
