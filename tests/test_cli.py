"""Command-line surface: document round trips, exit codes, output formats."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypermaps import HypermapsError, are_isomorphic, build_platonic, build_Pn, dual, from_text, perm, quotients
from hypermaps.catalog.cli import _build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, stdin_text=None):
    """Invoke main() in process, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def run_module(args, stdin: bytes = b"", code: str | None = None):
    """Run the CLI module (or the given code) in a fresh interpreter on src/,
    with stdin decoded as strict UTF-8."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["-c", code] if code else ["-m", "hypermaps.catalog.cli", *args]
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, env=env)


def assert_parse_error_exit(proc):
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert len(err.splitlines()) == 1 and err.startswith("ParseError"), err
    assert "Traceback" not in err


def build_text(*args):
    code, out, err = run_cli(["build", *args])
    assert code == 0, err
    return out


@pytest.fixture(scope="module")
def console_scripts_env(tmp_path_factory):
    """Environment in which the ``[project.scripts]`` of pyproject.toml run.

    Each declared script gets the launcher an installer writes for an entry
    point, so the tests exercise the declared target without an install
    step, and against the ``src/`` tree rather than any installed copy.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    bin_dir = tmp_path_factory.mktemp("bin")
    for name, target in scripts.items():
        module, _, func = target.partition(":")
        launcher = bin_dir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


class TestBuild:
    def test_pn_three_has_twelve_flags(self):
        doc = build_text("Pn", "3")
        h = from_text(doc)
        assert h.n_flags == 12

    def test_key_value_param_matches_bare_int(self):
        assert build_text("Pn", "n=3") == build_text("Pn", "3")

    def test_from_type_235_has_120_flags(self):
        h = from_text(build_text("from-type", "2,3,5"))
        assert h.n_flags == 120

    def test_mk_one_has_four_flags(self):
        h = from_text(build_text("Mk", "k=1"))
        assert h.n_flags == 4

    def test_platonic_families(self):
        assert from_text(build_text("T")).n_flags == 24
        assert from_text(build_text("D")).n_flags == 120

    def test_dipole_flag_count(self):
        assert from_text(build_text("Dn", "4")).n_flags == 8

    def test_presentation_gives_type_234_action(self):
        h = from_text(build_text("from-presentation", "bcbc,cacaca,abababab"))
        assert h.n_flags == 48
        l, m, n = (h.h[1] * h.h[2], h.h[2] * h.h[0], h.h[0] * h.h[1])
        assert (l.order(), m.order(), n.order()) == (2, 3, 4)

    def test_collapsing_presentation_is_degenerate(self):
        # c = 1 fixes every coset; the error names that, not a flag of the output
        code, out, err = run_cli(["build", "from-presentation", "abab,c"])
        assert code == 3 and out == ""
        assert err.startswith("Degenerate: generator c (h2) "), err

    def test_output_parses_and_reserializes_identically(self):
        doc = build_text("from-type", "2,3,4")
        code, out, _ = run_cli(["transform", "dual", "id"], stdin_text=doc)
        assert code == 0
        assert out == doc

    def test_json_document_shape(self):
        code, out, _ = run_cli(["build", "Pn", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["n_flags", "h0", "h1", "h2"]
        assert payload["n_flags"] == 12
        h = build_Pn(3)
        for key, p in zip(("h0", "h1", "h2"), h.h):
            assert payload[key] == [int(x) for x in p.images]
        # two-space indent, one image per line, trailing newline
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "doc.txt"
        code, out, _ = run_cli(["build", "Pn", "3", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert from_text(target.read_text()).n_flags == 12

    @pytest.mark.parametrize(
        "args",
        [
            ("Pn",),
            ("Pn", "0"),
            ("Pn", "n=x"),
            ("Q3",),
            ("from-type", "2,3"),
            ("from-type", "0,2,2"),
            ("from-type", "a,b,c"),
            ("from-presentation",),
            ("from-presentation", "bcbc,,ab"),
            ("from-presentation", "abd"),
        ],
    )
    def test_usage_errors_exit_one(self, args):
        code, _, err = run_cli(["build", *args])
        assert code == 1
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "args",
        [
            ("build", "T", "3"),
            ("build", "Dn", "foo=3"),
            ("build", "Dn", "k=3"),
            ("build", "Mk", "n=3"),
            ("transform", "wal", "01"),
            ("transform", "unpin", "id"),
        ],
    )
    def test_unused_arguments_exit_one_naming_them(self, args):
        code, out, err = run_cli(args, stdin_text=build_text("T"))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and repr(args[-1]) in err

    def test_parser_is_reused_across_calls(self):
        # the parser is built once per process; a usage error in one call
        # leaves the next call's parse unaffected
        assert _build_parser() is _build_parser()
        assert run_cli(["build", "Q3"])[0] == 1
        assert run_cli(["build", "Pn", "3"]) == run_cli(["build", "Pn", "3"])
        assert run_cli(["nope"])[2].startswith("usage error:")
        assert from_text(build_text("Pn", "2")).n_flags == 8


class TestTransform:
    def test_wal_of_tetrahedron_has_48_flags(self):
        doc = build_text("T")
        code, out, _ = run_cli(["transform", "wal"], stdin_text=doc)
        assert code == 0
        assert from_text(out).n_flags == 48

    def test_dual_02_twice_is_byte_identical(self):
        doc = build_text("T")
        code, once, _ = run_cli(["transform", "dual", "02"], stdin_text=doc)
        assert code == 0
        assert once != doc
        code, twice, _ = run_cli(["transform", "dual", "02"], stdin_text=once)
        assert code == 0
        assert twice == doc

    def test_dual_accepts_parenthesized_sigma(self):
        doc = build_text("T")
        _, bare, _ = run_cli(["transform", "dual", "01"], stdin_text=doc)
        _, wrapped, _ = run_cli(["transform", "dual", "(01)"], stdin_text=doc)
        assert bare == wrapped

    def test_unwal_recovers_source_up_to_01_duality(self):
        doc = build_text("T")
        _, wal_doc, _ = run_cli(["transform", "wal"], stdin_text=doc)
        code, out, _ = run_cli(["transform", "unwal"], stdin_text=wal_doc)
        assert code == 0
        recovered = from_text(out)
        t = build_platonic("T")
        assert are_isomorphic(recovered, t) or are_isomorphic(recovered, dual(t, (1, 0, 2)))

    def test_unpin_without_valency_one_class_exits_three(self):
        doc = build_text("Dn", "3")
        _, wal_doc, _ = run_cli(["transform", "wal"], stdin_text=doc)
        code, _, err = run_cli(["transform", "unpin"], stdin_text=wal_doc)
        assert code == 3
        assert "NoValencyOneClass" in err

    def test_input_flag_reads_file(self, tmp_path):
        source = tmp_path / "in.txt"
        source.write_text(build_text("C"))
        code, out, _ = run_cli(["transform", "pin", "--input", str(source)])
        assert code == 0
        assert from_text(out).n_flags == 96

    def test_dual_requires_sigma(self):
        code, _, err = run_cli(["transform", "dual"], stdin_text=build_text("T"))
        assert code == 1
        assert "role permutation" in err

    def test_unknown_sigma_exits_one(self):
        code, _, err = run_cli(["transform", "dual", "03"], stdin_text=build_text("T"))
        assert code == 1
        assert "03" in err

    def test_garbage_document_exits_three(self):
        code, _, err = run_cli(["transform", "wal"], stdin_text="not a document\n")
        assert code == 3
        assert "ParseError" in err

    def test_missing_input_file_exits_three(self):
        code, _, err = run_cli(["transform", "wal", "--input", "/no/such/file.txt"])
        assert code == 3
        assert "io error" in err


class TestAnalyze:
    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(build_text("T").encode() + b"\xff\n")
        assert_parse_error_exit(run_module(["analyze", "--input", str(path)]))

    def test_non_utf8_stdin_is_a_parse_error(self):
        assert_parse_error_exit(run_module(["analyze"], stdin=b"hypermap \xff\n"))

    @pytest.mark.parametrize(
        "old, new, line",
        [(" ", "\u3000", 1), ("\n", "\u2028", 1), ("\n", "\x1c", 1)],
    )
    def test_foreign_separator_is_a_parse_error(self, old, new, line):
        doc = build_text("T").replace(old, new)
        proc = run_module(["analyze"], stdin=doc.encode())
        assert_parse_error_exit(proc)
        assert proc.stderr.decode().startswith(f"ParseError: line {line}: character U+{ord(new):04X}")

    @pytest.mark.parametrize(
        "h0, h1, h2, error",
        [
            ("1 0 3 2", "1 1 3 2", "2 3 0 1", "ParseError: line 4: h1: images is not a bijection"),
            ("1 0 3 2", "1 2 3 0", "2 3 0 1", "NotInvolution: h1 is not an involution"),
            ("1 0 3 2", "1 0 3 2", "1 0 2 3", "HasFixedPoint: h2 fixes flag 2"),
            ("0 2 3 1", "1 0 3 2", "2 3 0 1", "NotInvolution: h0 is not an involution"),
            ("0 1 3 2", "1 2 3 0", "2 3 0 1", "HasFixedPoint: h0 fixes flag 0"),
            ("1 2 3 0", "1 0 3 2", "1 0 2 3", "NotInvolution: h0 is not an involution"),
            ("1 0 3 2", "1 1 3 2", "2 2 0 1", "ParseError: line 4: h1: images is not a bijection"),
            ("1 0 3 2", "1 1 3 2", "2 3 0 4", "ParseError: line 4: h1: images is not a bijection"),
            ("1 0 3 2", "1 0 3 4", "2 2 0 1", "ParseError: line 4: h1 image out of range"),
            # every row parses before any is checked as an involution
            ("1 2 3 0", "1 0 3 2", "2 2 0 1", "ParseError: line 5: h2: images is not a bijection"),
            # every row is checked as an involution before the action as transitive
            ("1 0 3 2", "1 0 3 2", "1 2 3 0", "NotInvolution: h2 is not an involution"),
            ("1 0 3 2", "1 0 3 2", "0 1 3 2", "HasFixedPoint: h2 fixes flag 0"),
            ("1 0 3 2", "1 0 3 2", "1 0 3 2", "NotTransitive: action has 2 orbits, expected 1"),
            ("1 0 3 2 5 4", "1 0 4 5 2 3", "1 0 3 2 5 4", "NotTransitive: action has 2 orbits, expected 1"),
            ("1 0 3 2 5 4", "1 0 3 2 5 4", "1 0 3 2 5 4", "NotTransitive: action has 3 orbits, expected 1"),
            ("1 0 3 2 5 4", "2 3 0 1 5 4", "1 0 3 2 5 4", "NotTransitive: action has 2 orbits, expected 1"),
        ],
    )
    def test_intake_errors_in_row_order(self, h0, h1, h2, error):
        # the earliest failing row names the error, parse errors first
        doc = f"hypermap {len(h0.split())}\n\nh0: {h0}\nh1: {h1}\nh2: {h2}\n"
        with pytest.raises(HypermapsError) as exc:
            from_text(doc)
        assert f"{type(exc.value).__name__}: {exc.value}" == error
        assert run_cli(["analyze"], stdin_text=doc) == (3, "", error + "\n")

    def test_crlf_document_is_analyzed(self):
        doc = build_text("T")
        assert run_cli(["analyze", "--json"], stdin_text=doc.replace("\n", "\r\n")) == run_cli(
            ["analyze", "--json"], stdin_text=doc
        )

    def test_analyze_and_table3_never_import_numpy_ma(self):
        # a plain np.unique imports numpy.ma (15-18 ms) on first use
        code = (
            "import io, sys\n"
            "from hypermaps.catalog.cli import main\n"
            "from hypermaps.catalog.tables import verify_table3\n"
            f"sys.stdin = io.StringIO({build_text('C')!r})\n"
            "sys.stdout = io.StringIO()\n"
            "assert main(['analyze', '--json']) == 0\n"
            "verify_table3(2)\n"
            "sys.stdout = sys.__stdout__\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = run_module([], code=code)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == "False"

    def test_pin_of_cube_report(self):
        doc = build_text("C")
        _, pin_doc, _ = run_cli(["transform", "pin"], stdin_text=doc)
        code, out, _ = run_cli(["analyze", "--json"], stdin_text=pin_doc)
        assert code == 0
        report = json.loads(out)
        assert report["flags"] == 96
        assert report["bipartite_type"] == [1, 3, 4, 8]
        assert report["bipartite_regular"] is True
        assert report["regular"] is False
        assert report["irregularity"]["index"] == 12
        assert report["irregularity"]["group"] == "Alt4"

    def test_dipole_five_report(self):
        code, out, _ = run_cli(["analyze", "--json"], stdin_text=build_text("Dn", "5"))
        assert code == 0
        report = json.loads(out)
        assert report["regular"] is True
        assert report["type"] == [5, 5, 1]
        assert report["uniform"] is True
        assert report["genus"] == 0
        assert report["monodromy_order"] == 10

    def test_wal_of_dodecahedron_report(self):
        doc = build_text("D")
        _, wal_doc, _ = run_cli(["transform", "wal"], stdin_text=doc)
        code, out, _ = run_cli(["analyze", "--json"], stdin_text=wal_doc)
        assert code == 0
        report = json.loads(out)
        assert report["irregularity"]["index"] == 60
        assert report["irregularity"]["group"] == "Alt5"
        assert report["covering_core"]["flags"] == 14400
        assert report["covering_core"]["genus"] == 841

    def test_degenerate_closure_cover_is_reported(self):
        # valid input whose closure cover has one class: no HasFixedPoint
        doc = "hypermap 6\nh0: 1 0 3 2 5 4\nh1: 1 0 4 5 2 3\nh2: 2 5 0 4 3 1\n"
        code, out, err = run_cli(["analyze", "--json"], stdin_text=doc)
        assert code == 0, err
        report = json.loads(out)
        assert report["closure_cover"] is None
        assert report["covering_core"] == {"flags": 24, "type": [3, 3, 2], "genus": 0}
        code, out, err = run_cli(["analyze"], stdin_text=doc)
        assert code == 0, err
        assert "closure cover       degenerate\n" in out

    def test_group_order_budget_exits_four(self, monkeypatch):
        # A random transitive 12-flag document, |Mon| = 240: its automorphisms
        # have more than two flag orbits, so analyze builds a Schreier–Sims
        # chain for Mon (1,452 point images), and past the lowered budget it
        # refuses.
        doc = (
            "hypermap 12\n"
            "h0: 8 4 9 10 1 6 5 11 0 2 3 7\n"
            "h1: 6 5 7 9 8 1 0 2 4 3 11 10\n"
            "h2: 10 3 9 1 7 6 5 4 11 2 0 8\n"
        )
        monkeypatch.setattr(perm, "CHAIN_LIMIT", 1000)
        code, out, err = run_cli(["analyze", "--json"], stdin_text=doc)
        assert code == 4
        assert out == ""
        assert "LimitExceeded: CHAIN_LIMIT=1000 exceeded" in err

    def test_group_order_within_default_budget(self):
        # the document above, at the default budget
        doc = (
            "hypermap 12\n"
            "h0: 8 4 9 10 1 6 5 11 0 2 3 7\n"
            "h1: 6 5 7 9 8 1 0 2 4 3 11 10\n"
            "h2: 10 3 9 1 7 6 5 4 11 2 0 8\n"
        )
        code, out, err = run_cli(["analyze", "--json"], stdin_text=doc)
        # a cached quotient record would hide the lowered budget from a later run
        quotients._stab_and_closure.cache_clear()
        assert code == 0, err
        assert json.loads(out)["monodromy_order"] == 240

    def test_text_report_mentions_key_lines(self):
        code, out, _ = run_cli(["analyze"], stdin_text=build_text("Dn", "5"))
        assert code == 0
        assert "flags               10" in out
        assert "regular             True" in out
        assert "covering core" in out


class TestVerifiers:
    def test_verify_mk_small_bound(self):
        code, out, _ = run_cli(["verify-mk", "--k-max", "3"])
        assert code == 0
        assert out.rstrip().endswith("3 rows, 0 mismatches")

    def test_verify_table2_row_count_at_n_two(self):
        code, out, _ = run_cli(["verify-table2", "--n-max", "2"])
        assert code == 0
        assert out.rstrip().endswith("32 rows, 0 mismatches")

    def test_verify_table3_at_n_one(self):
        code, out, _ = run_cli(["verify-table3", "--n-max", "1"])
        assert code == 0
        assert out.rstrip().endswith("23 rows, 0 mismatches")

    def test_verify_json_statuses(self):
        code, out, _ = run_cli(["verify-mk", "--k-max", "2", "--json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert all(row["status"] == "match" for row in rows)
        assert {"table", "row_id", "label", "expected", "computed", "mismatches"} <= set(rows[0])

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["verify-table2", "--n-max", "6"], "be049dd1931c89e0d9fc6575947f7677b8b2cce288e32b16918ce088b1263901"),
            (["verify-table3", "--n-max", "5"], "548872500d1c16237ee989db122d4a5d3856ba54b8f11830b6650c1cf92c838e"),
            (["verify-mk", "--k-max", "8"], "91687de8afa2e5d7d34137e031d10f3e900d8d910d2f7e68d97727cd9b074f15"),
        ],
    )
    def test_table_reports_are_byte_identical(self, args, digest):
        # the --json stdout of the benchmark's tables workload, pinned byte
        # for byte: the expected and computed values, their key order and
        # the row ids and labels
        code, out, _ = run_cli([*args, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_nonpositive_bound_exits_one(self):
        code, _, err = run_cli(["verify-mk", "--k-max", "0"])
        assert code == 1
        assert "at least 1" in err

    def test_verify_output_file(self, tmp_path):
        target = tmp_path / "rows.txt"
        code, out, _ = run_cli(["verify-mk", "--k-max", "1", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().rstrip().endswith("1 rows, 0 mismatches")


class TestOracle:
    def test_oracle_four_flags_ok(self):
        code, out, _ = run_cli(["oracle", "--max-flags", "4"])
        assert code == 0
        assert out.rstrip().endswith("ok")
        assert "violations          0" in out

    def test_oracle_json_payload(self):
        code, out, _ = run_cli(["oracle", "--max-flags", "4", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["class_counts"] == {"2": 1, "4": 3}

    def test_oracle_rejects_other_sizes(self):
        code, _, err = run_cli(["oracle", "--max-flags", "6"])
        assert code == 1
        assert err != ""


class TestEntryPoint:
    def test_missing_verb_exits_one(self):
        code, _, err = run_cli([])
        assert code == 1
        assert err != ""

    def test_unwritable_output_exits_three(self):
        code, _, err = run_cli(["build", "T", "--output", "/no/such/dir/out.txt"])
        assert code == 3
        assert "io error" in err

    def test_console_script_builds_document(self, console_scripts_env):
        proc = subprocess.run(
            ["hypermaps", "build", "Pn", "3"],
            capture_output=True,
            text=True,
            env=console_scripts_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert from_text(proc.stdout).n_flags == 12

    def test_console_script_pipes_between_verbs(self, console_scripts_env):
        built = subprocess.run(
            ["hypermaps", "build", "T"],
            capture_output=True,
            text=True,
            env=console_scripts_env,
        )
        assert built.returncode == 0, built.stderr
        transformed = subprocess.run(
            ["hypermaps", "transform", "wal"],
            input=built.stdout,
            capture_output=True,
            text=True,
            env=console_scripts_env,
        )
        assert transformed.returncode == 0, transformed.stderr
        assert from_text(transformed.stdout).n_flags == 48
