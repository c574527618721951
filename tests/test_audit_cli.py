"""Audit engine rows and the command-line front end."""

import gc
import json
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import acdlab.audit as audit_mod
import acdlab.cli as cli
from acdlab.audit import (
    COUNTEREXAMPLE,
    AuditRow,
    audit_many,
    audit_theorem,
    has_counterexample,
    resolve_statements,
    rows_to_jsonl,
    STATEMENT_NAMES,
    _rows_for_spec,
)
from acdlab.chartab import character_table, table_to_json
from acdlab.constructions import FieldSemidirect, build, default_catalog, to_text
from acdlab.errors import EngineInvariantError, InputError
from acdlab.group import FiniteGroup
from acdlab.specparse import parse_group_spec
from oracles import table_to_json_dict


class TestStatementRegistry:
    def test_names_stable(self):
        assert STATEMENT_NAMES == (
            "first", "second", "third", "fourth",
            "main-1", "main-2", "main-3", "main-4", "main-5",
            "acd-cent-k", "abelian-3", "nonabelian-3",
        )

    def test_aliases(self):
        assert resolve_statements("all") == STATEMENT_NAMES
        assert resolve_statements("main") == ("main-1", "main-2", "main-3", "main-4", "main-5")
        assert resolve_statements("first") == ("first",)

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            resolve_statements("fifth")


class TestAuditRows:
    def test_first_sharp_on_d14(self):
        rows = audit_theorem("first", [parse_group_spec("D(14)")])
        assert len(rows) == 1
        r = rows[0]
        assert (r.spec, r.p, r.field) == ("D(14)", 7, "C")
        assert r.acd == r.bound == Fraction(8, 5)
        assert not r.below_bound
        assert not r.p_nilpotent
        assert r.verdict == "sharp-boundary"

    def test_first_consistent_on_c6(self):
        rows = audit_theorem("first", [parse_group_spec("C(6)")])
        assert len(rows) == 1
        r = rows[0]
        assert r.p == 3 and r.acd == 1 and r.below_bound and r.p_nilpotent
        assert r.verdict == "consistent"

    def test_nonsolvable_noted(self):
        rows = audit_theorem("first", [parse_group_spec("A(5)")])
        assert {r.p for r in rows} == {3, 5}
        for r in rows:
            assert r.note == "hypothesis failed: group is not solvable"
            assert r.verdict == "consistent"
            assert not r.p_nilpotent

    def test_second_sharp_on_s4(self):
        rows = audit_theorem("second", [parse_group_spec("S(4)")])
        assert len(rows) == 4
        assert {r.statement for r in rows} == {"second-1", "second-2", "second-3", "second-4"}
        for r in rows:
            assert r.p == 2
            assert r.acd == 2 and r.bound == 2
            assert r.verdict == "sharp-boundary"
            assert r.field in ("Q", "R")

    def test_fourth_on_f21(self):
        rows = audit_theorem("fourth", [parse_group_spec("F(7,3)")])
        by_stmt = {r.statement: r for r in rows}
        assert by_stmt["fourth-1"].acd == Fraction(9, 5)
        assert by_stmt["fourth-1"].bound == Fraction(9, 5)
        assert by_stmt["fourth-1"].verdict == "sharp-boundary"
        for name in ("fourth-3", "fourth-4"):
            r = by_stmt[name]
            assert r.field == "Q(zeta_7)"
            assert r.acd == Fraction(7, 3)
            assert r.verdict == "consistent"
            assert r.sharpness == "unknown"

    def test_fourth_skips_even_order(self):
        assert audit_theorem("fourth", [parse_group_spec("S(4)")]) == []

    def test_main_covers_seven_special_case(self):
        rows = audit_theorem("main-3", [parse_group_spec("F(7,3)")])
        assert {r.field for r in rows} == {"Q(zeta_21)", "C"}
        for r in rows:
            assert r.bound == Fraction(9, 5)
            assert r.verdict == "sharp-boundary"

    def test_cent_k_equality_fixture(self):
        rows = audit_theorem("acd-cent-k", [parse_group_spec("C(2)*S(3)")])
        assert rows
        for r in rows:
            assert r.subgroup == "C2#0"
            # The degree-average ignoring p-divisible degrees survives the
            # central quotient exactly here.
            want = Fraction(1) if r.p == 2 else Fraction(4, 3)
            assert r.acd == want
            assert r.acd_quotient == want
            assert r.verdict == "consistent"
        assert {(r.p, r.field) for r in rows} == {
            (2, "Q"), (2, "R"), (2, "C"),
            (3, "Q"), (3, "R"), (3, "C"), (3, "Q(zeta_3)"),
        }

    def test_cent_k_skips_without_qualifying_subgroup(self):
        assert audit_theorem("acd-cent-k", [parse_group_spec("F(7,3)")]) == []
        assert audit_theorem("acd-cent-k", [parse_group_spec("S(4)")]) == []

    def test_abelian3_rows_on_f21(self):
        rows = audit_theorem("abelian-3", [parse_group_spec("F(7,3)")])
        got = {(r.field, r.acd, r.bound) for r in rows}
        assert got == {
            ("Q(zeta_7)", Fraction(7, 3), Fraction(7, 3)),
            ("Q(zeta_21)", Fraction(9, 5), Fraction(9, 5)),
            ("C", Fraction(9, 5), Fraction(9, 5)),
        }
        assert all(r.verdict == "consistent" for r in rows)

    def test_abelian3_skips_trivial_complement(self):
        assert audit_theorem("abelian-3", [parse_group_spec("SD(5,1,1)")]) == []

    def test_nonabelian3_sharp_exactly_s4(self):
        rows = audit_theorem(
            "nonabelian-3",
            [parse_group_spec("S(4)"), parse_group_spec("MAT(5;[[0,4],[1,4]],[[0,1],[1,0]])")],
        )
        s4 = [r for r in rows if r.spec == "S(4)"]
        mat = [r for r in rows if r.spec != "S(4)"]
        assert {r.field for r in s4} == {"Q", "R", "C"}
        for r in s4:
            assert r.p == 2 and r.acd == 2 and r.verdict == "sharp-boundary"
        assert {r.field for r in mat} == {"Q(zeta_5)", "C"}
        for r in mat:
            assert r.p == 5 and r.acd == Fraction(40, 13) and r.verdict == "consistent"

    def test_rows_sorted_and_deterministic(self):
        specs = [parse_group_spec(t) for t in ("S(4)", "D(14)", "C(6)", "A(4)")]
        a = audit_many(["first", "second"], [str(t) for t in ("S(4)", "D(14)", "C(6)", "A(4)")])
        b = audit_many(["first", "second"], ["S(4)", "D(14)", "C(6)", "A(4)"], jobs=2)
        assert a == b
        assert [r.sort_key() for r in a] == sorted(r.sort_key() for r in a)
        assert rows_to_jsonl(a) == rows_to_jsonl(b)

    def test_duplicate_statements_collapse(self):
        a = audit_many(["first", "first"], ["D(14)"])
        b = audit_many(["first"], ["D(14)"])
        assert a == b

    def test_audited_group_freed_without_cycle_collector(self, monkeypatch):
        built = []
        real_build = audit_mod.build

        def spy(spec):
            G = real_build(spec)
            built.append(weakref.ref(G))
            return G

        monkeypatch.setattr(audit_mod, "build", spy)
        gc.disable()
        try:
            rows = _rows_for_spec("F(13,3)", STATEMENT_NAMES)
            assert rows and len(built) == 1
            assert built[0]() is None, "the audited group must be freed by reference counting"
        finally:
            gc.enable()

    def test_engine_reads_only_image_rows(self):
        # The audit and the table writer run without a tuple view of the
        # elements or a one-element-at-a-time API, which groups do not have.
        # These groups cover point stabilizers, subgroups rebuilt as groups,
        # translation subgroups, direct products and the JSON class words.
        for name in ("elements", "generators", "mul", "inv", "conjugate", "power", "__contains__"):
            assert not hasattr(FiniteGroup, name), name
        for text in ("S(4)", "F(13,3)", "MAT(2;[[0,1],[1,1]])", "C(2)*S(3)"):
            assert _rows_for_spec(text, STATEMENT_NAMES)
            table_to_json(character_table(build(parse_group_spec(text))))

    def test_unknown_prime_selection_is_typed(self):
        assert audit_mod._select_primes("odd", 6) == [3]
        with pytest.raises(EngineInvariantError, match="bogus"):
            audit_mod._select_primes("bogus", 6)


class TestRowSerialization:
    def test_json_key_order_and_fractions(self):
        rows = audit_theorem("first", [parse_group_spec("D(14)")])
        line = rows_to_jsonl(rows).splitlines()[0]
        data = json.loads(line)
        assert list(data) == [
            "statement", "spec", "order", "p", "field",
            "acd", "bound", "below_bound", "p_nilpotent", "verdict",
        ]
        assert data["acd"] == "8/5"
        assert data["bound"] == "8/5"

    def test_whole_fractions_keep_denominator(self):
        rows = audit_theorem("second", [parse_group_spec("S(4)")])
        data = json.loads(rows_to_jsonl(rows).splitlines()[0])
        assert data["acd"] == "2/1"

    def test_optional_fields_present_when_set(self):
        rows = audit_theorem("acd-cent-k", [parse_group_spec("C(2)*S(3)")])
        data = json.loads(rows_to_jsonl(rows).splitlines()[0])
        assert "acd_quotient" in data and "subgroup" in data

    def test_has_counterexample(self):
        rows = audit_theorem("first", [parse_group_spec("D(14)")])
        assert not has_counterexample(rows)
        fake = AuditRow(
            statement="first", spec="D(14)", order=14, p=7, field="C",
            acd=Fraction(1), bound=Fraction(8, 5), below_bound=True,
            p_nilpotent=False, verdict=COUNTEREXAMPLE,
        )
        assert has_counterexample(list(rows) + [fake])
        assert json.loads(rows_to_jsonl([fake]).strip())["verdict"] == "COUNTEREXAMPLE"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCliTable:
    def test_degrees(self, capsys):
        rc, out, err = run_cli(capsys, "table", "S(3)", "--format", "degrees")
        assert rc == 0
        assert json.loads(out) == [1, 1, 2]

    def test_json(self, capsys):
        rc, out, err = run_cli(capsys, "table", "F(7,3)", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["format"] == "acdlab.character-table.v1"
        assert data["order"] == 21
        assert data["degrees"] == [1, 1, 1, 3, 3]

    def test_json_written_one_row_at_a_time(self, monkeypatch):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["table", "C(2)*S(4)"]) == 0
        T = character_table(build(parse_group_spec("C(2)*S(4)")))
        assert "".join(stdout.writes) == table_to_json(T) + "\n"
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        header = table_to_json_dict(T)
        rows = header.pop("values")
        # The header piece also opens the "values" list; a row piece carries its comma.
        longest = max(len(encode(header)) + len(',"values":['), *(len(encode(row)) + 1 for row in rows))
        assert max(map(len, stdout.writes)) <= longest

    def test_bad_spec(self, capsys):
        rc, out, err = run_cli(capsys, "table", "X(3)")
        assert rc == 1
        assert err.startswith("error:")

    def test_engine_invariant_exit_code(self, capsys, monkeypatch):
        def broken(G):
            raise EngineInvariantError("degree squares must sum to the order")

        monkeypatch.setattr(cli, "character_table", broken)
        rc, out, err = run_cli(capsys, "table", "S(3)")
        assert rc == 3
        assert out == ""
        assert err == "internal error: degree squares must sum to the order\n"


class TestCliStats:
    def test_golden_output(self, capsys):
        rc, out, err = run_cli(capsys, "stats", "F(7,3)", "--field", "Qp(7)", "--p", "7")
        assert rc == 0
        assert out == (
            "spec: F(7,3)\n"
            "order: 21\n"
            "classes: 5\n"
            "degrees: [1, 1, 1, 3, 3]\n"
            "field: Q(zeta_7)\n"
            "p: 7\n"
            "characters: 3\n"
            "acd: 7/3\n"
            "p_nilpotent: false\n"
            "solvable: true\n"
        )

    def test_quotient_output(self, capsys):
        rc, out, err = run_cli(capsys, "stats", "C(2)*S(3)", "--quotient", "minimal:0")
        assert rc == 0
        assert "quotient_order: 2\n" in out
        assert "acd: 4/3\n" in out
        assert "p_nilpotent" not in out

    def test_subgroup_selectors(self, capsys):
        rc, out, _ = run_cli(capsys, "stats", "S(4)", "--quotient", "derived")
        assert rc == 0
        assert "characters: 2\n" in out
        rc, out, _ = run_cli(capsys, "stats", "Q8", "--quotient", "center")
        assert rc == 0
        assert "acd: 1/1\n" in out

    def test_bad_quotient_index(self, capsys):
        rc, _, err = run_cli(capsys, "stats", "S(4)", "--quotient", "minimal:5")
        assert rc == 1
        assert "error:" in err

    def test_non_integer_quotient_index(self, capsys):
        rc, out, err = run_cli(capsys, "stats", "S(4)", "--quotient", "minimal:x")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "minimal:x" in err


class TestCliAudit:
    def test_catalog_file(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("D(14)\n# a comment\n\n  C(6)\n")
        rc, out, err = run_cli(capsys, "audit", "first", "--catalog", str(cat))
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        specs = [json.loads(l)["spec"] for l in lines]
        assert specs == ["C(6)", "D(14)"]

    def test_first_on_catalog_file_to_out_file(self, capsys, tmp_path):
        cat = tmp_path / "catalog.txt"
        cat.write_text("D(14)\nC(6)\nS(4)\n")
        out_path = tmp_path / "report.jsonl"
        rc, _, _ = run_cli(capsys, "audit", "first", "--catalog", str(cat), "--out", str(out_path))
        assert rc == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["spec"] for r in rows] == ["C(6)", "D(14)", "S(4)"]
        assert {r["statement"] for r in rows} == {"first"}

    @staticmethod
    def small_module_catalog(tmp_path):
        """The catalog's SD(p,a,d) with d > 1 and p^a <= 9, one per line."""
        specs = [to_text(s) for s in default_catalog()
                 if isinstance(s, FieldSemidirect) and s.d > 1 and s.p**s.a <= 9]
        assert len(specs) > 5
        cat = tmp_path / "cat.txt"
        cat.write_text("\n".join(specs) + "\n")
        return specs, cat

    def test_abelian3_matches_closed_form(self, capsys, tmp_path):
        specs, cat = self.small_module_catalog(tmp_path)
        rc, out, _ = run_cli(capsys, "audit", "abelian-3", "--catalog", str(cat))
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {r["spec"] for r in rows} == set(specs)
        assert all(r["verdict"] == "consistent" for r in rows)

    def test_abelian3_mismatch_is_a_counterexample(self, capsys, monkeypatch, tmp_path):
        _, cat = self.small_module_catalog(tmp_path)
        real = audit_mod.abelian3_formula
        monkeypatch.setattr(audit_mod, "abelian3_formula", lambda *a: real(*a) + 1)
        rc, out, _ = run_cli(capsys, "audit", "abelian-3", "--catalog", str(cat))
        assert rc == 2
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all(r["verdict"] == COUNTEREXAMPLE for r in rows)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("D(14)\n")
        out_path = tmp_path / "report.jsonl"
        rc, out, _ = run_cli(capsys, "audit", "first", "--catalog", str(cat), "--out", str(out_path))
        assert rc == 0
        rc2, stdout2, _ = run_cli(capsys, "audit", "first", "--catalog", str(cat))
        assert out_path.read_text() == stdout2

    def test_statement_alias_main(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("F(7,3)\n")
        rc, out, _ = run_cli(capsys, "audit", "main", "--catalog", str(cat))
        assert rc == 0
        stmts = {json.loads(l)["statement"] for l in out.strip().splitlines()}
        # p = 7 feeds main-1/3/4; the odd prime 3 also feeds main-1 and main-5.
        assert stmts == {"main-1", "main-3", "main-4", "main-5"}

    def test_unknown_statement(self, capsys):
        rc, _, err = run_cli(capsys, "audit", "nope")
        assert rc == 1
        assert "error:" in err

    def test_missing_catalog_file(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent"
        rc, out, err = run_cli(capsys, "audit", "first", "--catalog", str(missing))
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and str(missing) in err

    def test_bad_catalog_entry(self, capsys, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("D(9)\n")
        rc, _, err = run_cli(capsys, "audit", "first", "--catalog", str(cat))
        assert rc == 1
        assert "error:" in err

    def test_counterexample_exit_code(self, capsys, monkeypatch, tmp_path):
        fake = AuditRow(
            statement="first", spec="C(6)", order=6, p=3, field="C",
            acd=Fraction(1), bound=Fraction(4, 3), below_bound=True,
            p_nilpotent=False, verdict=COUNTEREXAMPLE,
        )
        monkeypatch.setattr(cli, "audit_many", lambda *a, **k: [fake])
        cat = tmp_path / "cat.txt"
        cat.write_text("C(6)\n")
        rc, out, _ = run_cli(capsys, "audit", "first", "--catalog", str(cat))
        assert rc == 2
        assert json.loads(out.strip())["verdict"] == "COUNTEREXAMPLE"


    def test_out_path_checked_before_the_audit(self, capsys, monkeypatch, tmp_path):
        def forbidden(*a, **k):
            raise AssertionError("the audit ran before --out was opened")

        monkeypatch.setattr(cli, "audit_many", forbidden)
        out = tmp_path / "no" / "such" / "x.jsonl"
        rc, stdout, err = run_cli(capsys, "audit", "all", "--out", str(out))
        assert rc == 1
        assert stdout == ""
        assert err == f"error: cannot write report {str(out)!r}: No such file or directory\n"


class TestCliParsing:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["table", "S(3)", "--nope"]) == 1
        capsys.readouterr()


class TestModuleEntryPoint:
    """``python -m acdlab`` as a separate process, as the acceptance criteria launch it."""

    @staticmethod
    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "acdlab", *argv],
            capture_output=True, text=True, timeout=60,
        )

    def test_degrees(self):
        proc = self.run_module("table", "S(3)", "--format", "degrees")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [1, 1, 2]

    def test_unknown_statement(self):
        proc = self.run_module("audit", "nope")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_catalog_not_utf8(self, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_bytes(b"D(14)\n\xff\xfe\n")
        proc = self.run_module("audit", "first", "--catalog", str(cat))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and str(cat) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_file_in_missing_directory(self, tmp_path):
        cat = tmp_path / "cat.txt"
        cat.write_text("D(14)\n")
        out = tmp_path / "no" / "such" / "x.jsonl"
        proc = self.run_module("audit", "first", "--catalog", str(cat), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and str(out) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_import_leaves_out_multiprocessing(self):
        # One-job runs never start a pool, so they should not import one.
        code = "import sys, acdlab.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
