"""Acceptance gate: the seven headline checks, one pass/fail line each.

All value comparisons are exact rational equality (Fraction, tolerance zero).
Wall-clock budgets are stated for 8 cores and scaled up on smaller machines.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from acdlab.audit import _abelian3_fields, _abelian3_index, audit_theorem
from acdlab.chartab import character_table, verify_orthogonality
from acdlab.constructions import FieldSemidirect, default_catalog, to_text
from acdlab.fieldvals import FieldSpec, a_k_subgroup, format_field
from acdlab.group import is_p_nilpotent, point_stabilizer, subgroup_as_group
from acdlab.number_theory import prime_divisors
from acdlab.specparse import parse_group_spec
from acdlab.stats import AcdQuery, abelian3_formula, acd, bound_f

from oracles import galois_cross_check, p_nilpotent_brute

SCALE = max(1, 8 // max(1, os.cpu_count() or 1))

Q = FieldSpec.rationals()
R = FieldSpec.reals()
C = FieldSpec.complexes()


@contextmanager
def criterion(capsys, n, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {n}: {desc} ({time.perf_counter() - start:.1f}s)")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {n}: {desc} ({time.perf_counter() - start:.1f}s)")


def cli_command():
    """Launch the CLI under this interpreter, so the child runs the code under test."""
    return [sys.executable, "-m", "acdlab"]


def test_criterion_1_sharp_fixtures(cache, capsys):
    with criterion(capsys, 1, "sharp fixture averages match the exact boundary values"):
        start = time.perf_counter()
        for p in (3, 5, 7, 11, 13):
            G, T = cache.pair(f"D({2 * p})")
            assert acd(G, T, AcdQuery(p_filter=p)) == bound_f(p, 1) == Fraction(2 * (p + 1), p + 3)
        G, T = cache.pair("S(4)")
        assert acd(G, T) == 2
        assert acd(G, T, AcdQuery(field=Q)) == 2
        assert acd(G, T, AcdQuery(field=R)) == 2
        assert acd(G, T, AcdQuery(field=Q, p_filter=2)) == 2
        G, T = cache.pair("F(7,3)")
        assert acd(G, T, AcdQuery(p_filter=7)) == Fraction(9, 5)
        G, T = cache.pair("A(5)")
        assert acd(G, T) == Fraction(16, 5)
        assert time.perf_counter() - start < 60 * SCALE


def test_criterion_2_abelian_complement_closed_form(cache, capsys):
    desc = "every field-semidirect entry matches the closed-form average in every audited field"
    with criterion(capsys, 2, desc):
        start = time.perf_counter()
        entries = [s for s in default_catalog() if isinstance(s, FieldSemidirect)]
        assert entries and all(s.p**s.a <= 125 for s in entries)
        seen_small3 = []
        seen_full = []
        for s in entries:
            q = s.p**s.a
            text = to_text(s)
            G, T = cache.pair(text)
            H, _ = subgroup_as_group(G, point_stabilizer(G, 0))
            TH = character_table(H)
            for k in _abelian3_fields(s.p, s.d):
                index = H.order // a_k_subgroup(H, TH, k).order
                assert _abelian3_index(s.d, k) == index, (text, format_field(k))
                want = abelian3_formula(s.p, s.a, s.d, index)
                got = acd(G, T, AcdQuery(field=k))
                assert got == want, (text, format_field(k), got, want)
                if s.d == 3 and index == 3 and q in (4, 7):
                    seen_small3.append((text, format_field(k)))
                    assert got == Fraction(3 * (q + 2), q + 8)
                if s.d == q - 1 and s.d >= 2 and index == s.d:
                    seen_full.append((text, format_field(k)))
                    assert got == Fraction(2 * (q - 1), q)
        # The named exception cases really were exercised.
        assert {t for t, _ in seen_small3} == {"SD(2,2,3)", "F(7,3)"}
        assert len([x for x in seen_full if x[0] == "F(11,10)"]) >= 1
        assert time.perf_counter() - start < 120 * SCALE


def test_criterion_3_nonabelian_complement_bound(capsys):
    desc = "nonabelian-complement fixtures sit at or above 2, equality only for the order-24 case"
    with criterion(capsys, 3, desc):
        fixtures = [
            "S(4)",
            "MAT(5;[[0,4],[1,4]],[[0,1],[1,0]])",
            "MAT(7;[[0,6],[1,6]],[[0,1],[1,0]])",
        ]
        rows = audit_theorem("nonabelian-3", [parse_group_spec(t) for t in fixtures])
        assert {r.spec for r in rows} == set(fixtures)
        equality = set()
        for r in rows:
            assert r.acd >= 2
            assert r.verdict != "COUNTEREXAMPLE"
            if r.acd == 2:
                equality.add((r.spec, r.p))
        assert equality == {("S(4)", 2)}


def test_criterion_4_central_quotient_inequality(capsys):
    desc = "central-quotient average never exceeds the group average; equality fixture hits 4/3"
    with criterion(capsys, 4, desc):
        rows = audit_theorem("acd-cent-k", default_catalog())
        assert rows
        for r in rows:
            assert r.acd <= 2  # row-emission hypothesis
            assert r.acd_quotient is not None
            assert r.acd_quotient <= r.acd, (r.spec, r.p, r.field)
            assert r.verdict != "COUNTEREXAMPLE"
        fixture = [
            r for r in rows
            if r.spec == "C(2)*S(3)" and r.p == 3 and r.field == "C"
        ]
        assert len(fixture) == 1
        assert fixture[0].acd == fixture[0].acd_quotient == Fraction(4, 3)


def test_criterion_5_full_audit_clean(capsys, tmp_path):
    desc = "full default-catalog audit: no counterexamples, expected sharp rows, within budget"
    with criterion(capsys, 5, desc):
        out = tmp_path / "audit.jsonl"
        start = time.perf_counter()
        proc = subprocess.run(
            [*cli_command(), "audit", "all", "--out", str(out)],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 600 * SCALE
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows
        assert all(r["verdict"] != "COUNTEREXAMPLE" for r in rows)
        audited = {r["statement"] for r in rows}
        assert {
            "first", "second-1", "second-2", "second-3", "second-4",
            "third-1", "third-2", "fourth-1", "fourth-2", "fourth-3", "fourth-4",
            "main-1", "main-2", "main-3", "main-4", "main-5",
        } <= audited
        sharp = {
            (r["statement"], r["spec"], r["p"], r["field"])
            for r in rows
            if r["verdict"] == "sharp-boundary"
        }
        for p in (3, 5, 7, 11, 13):
            spec = f"D({2 * p})"
            assert ("first", spec, p, "C") in sharp
            assert ("third-1", spec, p, f"Q(zeta_{p})") in sharp
            assert ("third-2", spec, p, f"Q(zeta_{p})") in sharp
        assert ("second-1", "S(4)", 2, "Q") in sharp
        assert ("second-2", "S(4)", 2, "Q") in sharp
        assert ("second-3", "S(4)", 2, "R") in sharp
        assert ("second-4", "S(4)", 2, "R") in sharp
        assert ("fourth-1", "F(7,3)", 7, "C") in sharp


def test_criterion_6_engine_self_checks(cache, capsys):
    desc = "orthogonality, degree sums, Galois consistency, and p-nilpotence on the whole catalog"
    with criterion(capsys, 6, desc):
        for spec in default_catalog():
            text = to_text(spec)
            G, T = cache.pair(text)
            assert T.num_chars == T.classes.num_classes, text
            assert sum(d * d for d in T.degrees) == G.order, text
            report = verify_orthogonality(T)
            assert report.ok and not report.row_failures and not report.column_failures, text
            galois_cross_check(G, T)
            for p in prime_divisors(G.order):
                fast = is_p_nilpotent(G, p)[0]
                if G.order <= 200:
                    assert fast == p_nilpotent_brute(G, p), (text, p)


def test_criterion_7_parallel_determinism(capsys, tmp_path):
    desc = "audit output is byte-identical across --jobs 1 and --jobs 8"
    with criterion(capsys, 7, desc):
        outputs = []
        for jobs in ("1", "8"):
            proc = subprocess.run(
                [*cli_command(), "audit", "first", "--jobs", jobs],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == len(outputs[0].splitlines())
