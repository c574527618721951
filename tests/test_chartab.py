"""Character tables against hand-written classical tables and both
orthogonality relations, plus the value-level Galois cross-check.

Expected values below are standard tables entered from first principles:
row multisets are compared so nothing depends on the engine's row or class
ordering beyond "identity class first".
"""

import dataclasses
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest

from acdlab import chartab
from acdlab.chartab import (
    character_kernel,
    character_table,
    choose_conductor_prime,
    class_matrix,
    compute_mod_table,
    galois_conjugate,
    table_to_json,
    verify_orthogonality,
)
from acdlab.constructions import build, default_catalog, to_text
from acdlab.cyclotomic import CyclotomicValue, zeta
from acdlab.errors import InputError
from acdlab.fieldvals import FieldSpec, has_values_in
from acdlab.group import FiniteGroup, conjugacy_classes, is_normal
from acdlab.number_theory import is_prime, primitive_root, unit_group_generators
from acdlab.specparse import parse_group_spec
from oracles import table_to_json_dict


def table_for(cache, text):
    return cache.pair(text)


def class_index(G, C, *, size, order=None):
    """The unique class of the given size (and rep order, when needed)."""
    hits = [
        c
        for c in range(C.num_classes)
        if C.sizes[c] == size and (order is None or G.orders()[C.reps[c]] == order)
    ]
    assert len(hits) == 1, hits
    return hits[0]


def rows_as_multiset(T):
    return sorted(tuple(v.sort_key() for v in row) for row in T.rows)


def planted(T, changes):
    """T with the value at each (row, class) key replaced by its function of the old value."""
    rows = [list(r) for r in T.rows]
    for (r, c), f in changes.items():
        rows[r][c] = f(T.value(r, c))
    return dataclasses.replace(T, rows=tuple(tuple(r) for r in rows))


def assert_report_matches_oracle(T):
    from oracles import orthogonality_failures

    report = verify_orthogonality(T)
    rows, columns = orthogonality_failures(T)
    assert list(report.row_failures) == rows
    assert list(report.column_failures) == columns
    assert report.ok == (not rows and not columns)


w = zeta(3)
w2 = zeta(3, 2)


class TestKnownTables:
    def test_c3(self, cache):
        G, T = cache.pair("C(3)")
        assert T.degrees == (1, 1, 1)
        want = [
            (CyclotomicValue.rational(1),) * 3,
            (CyclotomicValue.rational(1), w, w2),
            (CyclotomicValue.rational(1), w2, w),
        ]
        assert rows_as_multiset(T) == sorted(tuple(v.sort_key() for v in r) for r in want)

    def test_s3(self, cache):
        G, T = cache.pair("S(3)")
        C = T.classes
        assert T.degrees == (1, 1, 2)
        ci = class_index(G, C, size=1)
        ct = class_index(G, C, size=3)
        c3 = class_index(G, C, size=2)
        triv, sign, two = T.rows
        if T.value(1, ct) != -1:
            sign, two = two, sign  # degrees equal only for the linears
        assert [T.value(0, c) for c in (ci, ct, c3)] == [1, 1, 1]
        assert [sign[c] for c in (ci, ct, c3)] == [1, -1, 1]
        assert [two[c] for c in (ci, ct, c3)] == [2, 0, -1]

    def test_s4(self, cache):
        G, T = cache.pair("S(4)")
        C = T.classes
        assert T.degrees == (1, 1, 2, 3, 3)
        cols = [
            class_index(G, C, size=1),
            class_index(G, C, size=3),
            class_index(G, C, size=6, order=2),
            class_index(G, C, size=6, order=4),
            class_index(G, C, size=8),
        ]
        want = sorted(
            [
                (1, 1, 1, 1, 1),
                (1, 1, -1, -1, 1),
                (2, 2, 0, 0, -1),
                (3, -1, 1, -1, 0),
                (3, -1, -1, 1, 0),
            ]
        )
        got = sorted(
            tuple(T.value(r, c).rational_value() for c in cols) for r in range(5)
        )
        assert [tuple(map(Fraction, row)) for row in want] == got

    def test_a4(self, cache):
        G, T = cache.pair("A(4)")
        C = T.classes
        assert T.degrees == (1, 1, 1, 3)
        cv = class_index(G, C, size=3)
        c4a = [c for c in range(4) if C.sizes[c] == 4]
        three = next(r for r in range(4) if T.degrees[r] == 3)
        assert T.value(three, cv) == -1
        assert all(T.value(three, c) == 0 for c in c4a)
        linears = [r for r in range(4) if T.degrees[r] == 1 and any(T.value(r, c) != 1 for c in range(4))]
        assert len(linears) == 2
        for r in linears:
            assert T.value(r, cv) == 1
            assert {T.value(r, c) for c in c4a} == {w, w2}
        r1, r2 = linears
        assert galois_conjugate(T, r1, 5) == r2

    def test_a5(self, cache):
        G, T = cache.pair("A(5)")
        C = T.classes
        assert T.degrees == (1, 3, 3, 4, 5)
        c1 = class_index(G, C, size=1)
        c2 = class_index(G, C, size=15)
        c3 = class_index(G, C, size=20)
        c5 = [c for c in range(5) if C.sizes[c] == 12]
        four = T.degrees.index(4)
        five = T.degrees.index(5)
        assert [T.value(four, c) for c in (c1, c2, c3)] == [4, 0, 1]
        assert all(T.value(four, c) == -1 for c in c5)
        assert [T.value(five, c) for c in (c1, c2, c3)] == [5, 1, -1]
        assert all(T.value(five, c) == 0 for c in c5)
        golden_plus = -(zeta(5, 2) + zeta(5, 3))  # (1 + sqrt 5) / 2
        golden_minus = -(zeta(5) + zeta(5, 4))  # (1 - sqrt 5) / 2
        threes = [r for r in range(5) if T.degrees[r] == 3]
        for r in threes:
            assert T.value(r, c2) == -1
            assert T.value(r, c3) == 0
            assert {T.value(r, c) for c in c5} == {golden_plus, golden_minus}
        assert T.value(threes[0], c5[0]) != T.value(threes[1], c5[0])

    def test_d10(self, cache):
        G, T = cache.pair("D(10)")
        C = T.classes
        assert T.degrees == (1, 1, 2, 2)
        cr = class_index(G, C, size=5)
        rot = [c for c in range(4) if C.sizes[c] == 2]
        g = C.reps[rot[0]]
        other = C.class_of[G.powers(g, 3)[2]]
        assert other == rot[1]
        alpha = zeta(5) + zeta(5, 4)
        beta = zeta(5, 2) + zeta(5, 3)
        sign = next(
            r for r in range(4) if T.degrees[r] == 1 and T.value(r, cr) == -1
        )
        assert all(T.value(sign, c) == 1 for c in rot)
        pairs = set()
        for r in range(4):
            if T.degrees[r] == 2:
                assert T.value(r, cr) == 0
                pairs.add((T.value(r, rot[0]), T.value(r, rot[1])))
        assert pairs == {(alpha, beta), (beta, alpha)}

    def test_q8(self, cache):
        G, T = cache.pair("Q8")
        C = T.classes
        assert T.degrees == (1, 1, 1, 1, 2)
        cz = class_index(G, C, size=1, order=2)
        two_cols = [c for c in range(5) if C.sizes[c] == 2]
        r2 = T.degrees.index(2)
        assert T.value(r2, cz) == -2
        assert all(T.value(r2, c) == 0 for c in two_cols)
        for r in range(5):
            if T.degrees[r] == 1:
                assert T.value(r, cz) == 1
                vals = [T.value(r, c) for c in two_cols]
                assert sorted(v.rational_value() for v in vals) in (
                    [1, 1, 1],
                    [-1, -1, 1],
                )

    def test_f21(self, cache):
        G, T = cache.pair("F(7,3)")
        C = T.classes
        assert T.degrees == (1, 1, 1, 3, 3)
        three_cols = [c for c in range(5) if C.sizes[c] == 3]
        seven_cols = [c for c in range(5) if C.sizes[c] == 7]
        assert len(three_cols) == 2 and len(seven_cols) == 2
        eta = zeta(7) + zeta(7, 2) + zeta(7, 4)
        eta_bar = zeta(7, 3) + zeta(7, 5) + zeta(7, 6)
        assert eta + eta_bar == -1
        assert eta * eta_bar == 2
        pairs = set()
        for r in range(5):
            if T.degrees[r] == 3:
                assert all(T.value(r, c) == 0 for c in seven_cols)
                pairs.add((T.value(r, three_cols[0]), T.value(r, three_cols[1])))
            elif any(T.value(r, c) != 1 for c in range(5)):
                assert all(T.value(r, c) == 1 for c in three_cols)
                assert {T.value(r, c) for c in seven_cols} == {w, w2}
        assert pairs == {(eta, eta_bar), (eta_bar, eta)}


class TestStructuralInvariants:
    fixtures = [
        "C(1)", "C(8)", "C(12)", "S(3)", "S(4)", "S(5)", "A(4)", "A(5)",
        "Q8", "D(16)", "D(18)", "F(7,3)", "F(11,10)", "SD(3,2,8)",
        "SD(2,3,7)", "C(2)*S(3)", "MAT(2;[[0,1],[1,1]])",
    ]

    @pytest.mark.parametrize("text", fixtures)
    def test_counting(self, cache, text):
        G, T = cache.pair(text)
        assert T.num_chars == T.classes.num_classes
        assert sum(d * d for d in T.degrees) == G.order
        assert T.degrees == tuple(sorted(T.degrees))
        assert all(G.order % d == 0 for d in T.degrees)
        assert T.rows[0] == tuple(CyclotomicValue.rational(1) for _ in range(T.num_chars))

    @pytest.mark.parametrize("text", fixtures)
    def test_orthogonality(self, cache, text):
        T = cache.table(text)
        report = verify_orthogonality(T)
        assert report.ok
        assert not report.row_failures
        assert not report.column_failures

    @pytest.mark.parametrize("text", ["S(4)", "F(7,3)", "Q8"])
    def test_orthogonality_detects_corruption(self, cache, text):
        T = cache.table(text)
        bad = planted(T, {(T.num_chars - 1, T.num_chars - 1): lambda v: v + 1})
        report = verify_orthogonality(bad)
        assert not report.ok
        assert report.row_failures or report.column_failures
        assert_report_matches_oracle(bad)

    def test_orthogonality_detects_swapped_value(self, cache):
        T = cache.table("A(5)")
        # Swap the two golden-ratio entries of one degree-3 row.
        r = T.degrees.index(3)
        c5 = [c for c in range(5) if T.classes.sizes[c] == 12]
        bad = planted(T, {(r, c5[0]): lambda v: T.value(r, c5[1]),
                          (r, c5[1]): lambda v: T.value(r, c5[0])})
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    @pytest.mark.parametrize("text", fixtures)
    def test_first_column_is_degree(self, cache, text):
        G, T = cache.pair(text)
        for r in range(T.num_chars):
            assert T.value(r, 0) == T.degrees[r]


class TestOrthogonalityFaults:
    """Planted faults, one per path of the check, reported pair for pair as
    the definition-level oracle sums them."""

    def test_rational_table_on_the_modular_path(self, cache):
        bad = planted(cache.table("S(4)"), {(1, 1): lambda v: v + 1})
        assert chartab._modular_marks(bad) is not None
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    def test_closed_fault_found_by_orbit_marking(self, cache, monkeypatch):
        # In C(5), row r != 0 takes zeta_5^i_r at class 1; adding
        # sigma_i_r(delta) there keeps the rows Galois-closed.  delta lies in
        # the primes above q for zeta -> omega and zeta -> omega^-1, so the
        # wrong sums sigma_-+1(delta) of the pairs {0, r} with i_r = +-1
        # vanish mod q in both orders; only the orbits of the pairs with
        # i_r = +-2, which fail mod q, mark them.  The check is held to
        # that one prime, so no second prime can catch them instead.
        T = cache.table("C(5)")
        q = chartab._split_primes(5, 5, 1)[0]
        omega = pow(primitive_root(q), (q - 1) // 5, q)
        delta = (zeta(5) - omega) * (zeta(5) - pow(omega, 4, q))
        exps = {r: next(i for i in range(1, 5) if T.value(r, 1) == zeta(5, i)) for r in range(1, 5)}
        bad = planted(T, {(r, 1): (lambda v, i=i: v + delta.galois(i)) for r, i in exps.items()})
        monkeypatch.setattr(chartab, "_split_primes", lambda e, k, bound: [q])
        assert chartab._galois_permutations(bad) is not None
        failing = {(a, b) for a, b, _ in verify_orthogonality(bad).row_failures}
        assert {(0, r) for r in exps} <= failing
        assert_report_matches_oracle(bad)

    def test_fault_that_breaks_galois_closure(self, cache):
        T = cache.table("F(7,3)")
        r, c = next((r, c) for r in range(5) for c in range(5) if not T.value(r, c).is_rational())
        bad = planted(T, {(r, c): lambda v: v + 1})
        assert chartab._galois_permutations(bad) is None
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    def test_equal_rows(self, cache):
        T = cache.table("F(7,3)")
        bad = dataclasses.replace(T, rows=T.rows[:2] + T.rows[1:2] + T.rows[3:])
        assert chartab._galois_permutations(bad) is None
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    def test_fractional_coefficient(self, cache):
        bad = planted(cache.table("A(4)"), {(1, 1): lambda v: v + Fraction(1, 2)})
        assert chartab._modular_marks(bad) is None
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    def test_conductor_outside_the_exponent(self, cache):
        bad = planted(cache.table("S(4)"), {(1, 1): lambda v: zeta(7)})
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    def test_conductor_outside_the_exponent_under_python_O(self):
        # The planted zeta_7 must give a failing report, not an exception,
        # with asserts stripped too.
        code = (
            "import dataclasses\n"
            "from acdlab.chartab import character_table, verify_orthogonality\n"
            "from acdlab.constructions import build\n"
            "from acdlab.cyclotomic import zeta\n"
            "from acdlab.specparse import parse_group_spec\n"
            "T = character_table(build(parse_group_spec('S(4)')))\n"
            "rows = [list(r) for r in T.rows]\n"
            "rows[1][1] = zeta(7)\n"
            "bad = dataclasses.replace(T, rows=tuple(map(tuple, rows)))\n"
            "print(verify_orthogonality(bad).ok)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cyclic_400_in_bounded_memory(self):
        # The check keeps O(k^2) arrays per prime: C(400), k = 400, stays
        # far below the 300 MB a pairs x conductor array would pass.
        code = (
            "import resource\n"
            "from acdlab.chartab import character_table, verify_orthogonality\n"
            "from acdlab.constructions import build\n"
            "from acdlab.specparse import parse_group_spec\n"
            "report = verify_orthogonality(character_table(build(parse_group_spec('C(400)'))))\n"
            "print(report.ok, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ok, peak_kb = proc.stdout.split()
        assert ok == "True"
        assert int(peak_kb) < 300 * 1024

    def test_split_primes(self):
        for e, k, bound in ((12, 5, 10**6), (620, 125, 10**20), (1, 1, 7), (20000, 400, 10**9)):
            primes = chartab._split_primes(e, k, bound)
            assert prod(primes) > bound
            assert all(is_prime(q) and (q - 1) % e == 0 and k * (q - 1) ** 2 < 2**53 for q in primes)


class TestGaloisAction:
    @pytest.mark.parametrize("text", ["S(4)", "A(4)", "A(5)", "D(10)", "F(7,3)", "C(8)", "SD(3,2,8)"])
    def test_cross_check(self, cache, text):
        from oracles import galois_cross_check

        G, T = cache.pair(text)
        galois_cross_check(G, T, all_units=True)

    def test_permutation_of_rows(self, cache):
        G, T = cache.pair("F(7,3)")
        perm = [galois_conjugate(T, r, 2) for r in range(T.num_chars)]
        assert sorted(perm) == list(range(T.num_chars))

    def test_rejects_non_unit(self, cache):
        from acdlab.errors import InputError

        T = cache.table("S(3)")
        with pytest.raises(InputError):
            galois_conjugate(T, 0, 2)


class TestRowIndices:
    @pytest.mark.parametrize("row", [-1, -3, -4, 3, 5, 9])
    @pytest.mark.parametrize("read", [
        lambda T, r: galois_conjugate(T, r, 1),
        character_kernel,
        lambda T, r: has_values_in(T, r, FieldSpec.reals()),
    ], ids=["galois_conjugate", "character_kernel", "has_values_in"])
    def test_rejects_row_outside_table(self, cache, read, row):
        from acdlab.errors import InputError

        T = cache.table("S(3)")
        with pytest.raises(InputError, match="outside"):
            read(T, row)


class TestDegreesDivideComplementOrder:
    # An abelian normal subgroup bounds every degree by its index.
    @pytest.mark.parametrize(
        "text,d",
        [("F(7,3)", 3), ("F(11,10)", 10), ("SD(3,2,8)", 8), ("SD(2,3,7)", 7), ("SD(5,2,24)", 24)],
    )
    def test_ito_divisibility(self, cache, text, d):
        T = cache.table(text)
        assert all(d % deg == 0 for deg in T.degrees)


class TestKernels:
    def test_kernel_classes_match_per_cell_definition(self, cache):
        for text in map(to_text, default_catalog()):
            G = cache.group(text)
            if G.order > 200:
                continue
            T = cache.table(text)
            want = tuple(tuple(c for c, v in enumerate(row) if v == d)
                         for row, d in zip(T.rows, T.degrees))
            assert T.kernel_classes == want, text
            for r, cls in enumerate(want):
                members = sorted(x for c in cls for x in T.classes.members[c])
                assert character_kernel(T, r).indices == tuple(members)

    def test_examples(self, cache):
        G, T = cache.pair("S(4)")
        assert character_kernel(T, 0).order == 24
        sign = next(
            r for r in range(5) if T.degrees[r] == 1 and any(T.value(r, c) != 1 for c in range(5))
        )
        assert character_kernel(T, sign).order == 12
        faithful = T.degrees.index(3)
        assert character_kernel(T, faithful).order == 1
        for r in range(5):
            assert is_normal(G, character_kernel(T, r))


class TestJsonOutput:
    def test_schema_and_round_trip(self, cache):
        G, T = cache.pair("F(7,3)")
        blob = table_to_json(T)
        data = json.loads(blob)
        assert data["order"] == 21
        assert data["exponent"] == 21
        assert data["num_classes"] == 5
        assert data["degrees"] == [1, 1, 1, 3, 3]
        assert len(data["values"]) == 5
        assert data["class_sizes"] == [T.classes.sizes[c] for c in range(5)]
        assert data["class_orders"] == [
            G.orders()[T.classes.reps[c]] for c in range(5)
        ]
        for row, want in zip(data["values"], T.rows):
            assert [CyclotomicValue.from_json_dict(v) for v in row] == list(want)

    def test_byte_stable_across_rebuilds(self):
        a = table_to_json(character_table(build(parse_group_spec("SD(3,2,8)"))))
        b = table_to_json(character_table(build(parse_group_spec("SD(3,2,8)"))))
        assert a == b

    def test_dict_matches_json(self, cache):
        T = cache.table("S(3)")
        assert json.loads(table_to_json(T)) == table_to_json_dict(T)

    @staticmethod
    def dumps_dict(T):
        return json.dumps(table_to_json_dict(T), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("text", ["S(4)", "SD(3,2,8)", "Q8*C(26)", "C(113)"])
    def test_writer_bytes_match_dict_dumps(self, cache, text):
        T = cache.table(text)
        assert table_to_json(T) == self.dumps_dict(T)

    def test_writer_bytes_on_unusual_values(self, cache):
        T = cache.table("S(3)")
        w = CyclotomicValue(3, {1: 1})
        w_again = CyclotomicValue(3, {1: 1})
        assert w == w_again and w is not w_again
        mixed = CyclotomicValue(3, {1: -2, 2: Fraction(-3, 4)})
        rows = (
            (CyclotomicValue.rational(Fraction(1, 2)), w, w_again),
            (mixed, w_again, CyclotomicValue.rational(-7)),
            (w, CyclotomicValue.rational(Fraction(-5, 3)), w),
        )
        odd = dataclasses.replace(T, rows=rows)
        blob = table_to_json(odd)
        assert blob == self.dumps_dict(odd)
        values = json.loads(blob)["values"]
        assert values[0][1] == values[0][2] == values[1][1] == {"c": [[0, 1], [1, 1]], "m": 3}
        assert values[0][0] == {"c": [[1, 2]], "m": 1}

    def test_table_digest_over_catalog(self, cache):
        h = hashlib.sha256()
        for spec in default_catalog():
            text = to_text(spec)
            h.update((text + "\n" + table_to_json(cache.table(text)) + "\n").encode())
        assert h.hexdigest() == "a7ff53db15afb963bd49f9bc6c9b8f781f5a779276a94d96574002f1ca6432f4"


class TestDistinctValueWork:
    """The lift, the field data and the Galois twist work once per distinct
    value; each is checked here against the same work done per cell."""

    @staticmethod
    def lifted_per_cell(G):
        """Rows of G's table with every cell lifted on its own, through the
        multiplicity transform at its class order, and no memo; also the
        (order, multiplicities) keys of the nonlinear cells."""
        C = conjugacy_classes(G)
        mt = compute_mod_table(G)
        q, e, k = mt.q, mt.exponent, C.num_classes
        # The linear rows omega_root^J, then the split's rows.
        chi_q = np.vstack([[[pow(mt.omega_root, j, q) for j in row] for row in mt.linear.tolist()],
                           mt.chi]).astype(np.int64)
        rows = [[None] * k for _ in range(k)]
        keys = set()
        for c in range(k):
            g = C.reps[c]
            m = G.orders()[g]
            chi = chi_q[:, [C.class_of[x] for x in G.powers(g, m)]]
            om = pow(mt.omega_root, e // m, q)
            W = np.array([[pow(om, -j * t % m, q) for j in range(m)] for t in range(m)],
                         dtype=np.int64)
            M = (chi @ W % q) * pow(m, -1, q) % q
            for r in range(k):
                mults = tuple(int(x) for x in M[r])
                if mt.degrees[r] > 1:
                    keys.add((m, tuple((j, x) for j, x in enumerate(mults) if x)))
                rows[r][c] = CyclotomicValue(m, dict(enumerate(mults)))
        return sorted(tuple(v.sort_key() for v in row) for row in rows), keys

    @pytest.mark.parametrize("text", ["F(13,3)", "SD(5,3,124)", "D(200)", "C(2)*D(30)"])
    def test_lift_canonicalises_each_value_once(self, cache, monkeypatch, text):
        import acdlab.cyclotomic as cyclotomic

        G = cache.group(text)
        real = cyclotomic._canonical
        calls, depth = [], [0]

        def counted(m, raw):
            # Only outer calls: a subfield descent recurses.
            if not depth[0]:
                calls.append((m, tuple(sorted(raw.items()))))
            depth[0] += 1
            try:
                return real(m, raw)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cyclotomic, "_canonical", counted)
        T = character_table(G)
        monkeypatch.undo()
        expected, keys = self.lifted_per_cell(G)
        assert rows_as_multiset(T) == expected
        k = T.num_chars
        assert len(calls) == len(set(calls)), "a value was canonicalised twice"
        # Linear values are single roots of unity; the rest are the
        # nonlinear cells' multiplicity vectors.
        nonlinear = [c for c in calls if sum(x for _, x in c[1]) > 1]
        assert set(nonlinear) <= keys
        assert 4 * len(calls) < k * k

    @pytest.mark.parametrize("text", ["F(7,3)", "SD(3,2,8)", "Q8*C(26)", "C(113)"])
    def test_galois_twist_matches_per_cell_twist(self, cache, text):
        T = cache.table(text)
        e = T.exponent
        units = [t for t in range(1, e + 1) if gcd(t, e) == 1]
        # A direct twist is v.galois(t mod v's conductor); it is kept per
        # value and that residue, so C(113) takes seconds, not a minute.
        direct = {}

        def twist(v, t):
            key = (v, t % v.conductor)
            if key not in direct:
                direct[key] = v.galois(key[1])
            return direct[key]

        index = {row: r for r, row in enumerate(T.rows)}
        for t in units:
            for r, row in enumerate(T.rows):
                want = index[tuple(twist(v, t) for v in row)]
                assert galois_conjugate(T, r, t) == want, (r, t)
                if t in units[:2] + units[-2:]:
                    assert galois_conjugate(T, r, t + e) == want, (r, t + e)
                    assert galois_conjugate(T, r, t - e) == want, (r, t - e)

    def test_row_data_match_per_cell_definitions(self, cache):
        for text in map(to_text, default_catalog()):
            if cache.group(text).order > 200:
                continue
            T = cache.table(text)
            assert T.row_conductors == tuple(
                lcm(*(v.conductor for v in row)) for row in T.rows)
            assert T.real_rows == tuple(
                all(v.conductor == 1 or v == v.conjugate() for v in row) for row in T.rows)

    def test_row_conductor_is_an_lcm(self, cache):
        # In the catalog up to order 200 every row's lcm is its largest
        # conductor, so a row with conductors 3 and 4 is planted.
        T = cache.table("S(3)")
        real = (CyclotomicValue.rational(1), zeta(5) + zeta(5, 4), CyclotomicValue.rational(-1))
        mixed = (CyclotomicValue.rational(2), zeta(3), zeta(4) - zeta(4, 3))
        T = dataclasses.replace(T, rows=T.rows[:1] + (real, mixed))
        assert T.row_conductors == (1, 5, 12)
        assert T.real_rows == (True, True, False)


class TestBulkValueView:
    """The lift's values and value ids and the per-conductor coefficient
    matrices against the same data interned from the table's grid alone."""

    SAMPLE = ["S(4)", "A(5)", "F(7,3)", "Q8*C(26)", "C(113)", "SD(5,3,124)", "C(2)*D(30)", "F(13,3)"]

    @pytest.mark.parametrize("text", SAMPLE)
    def test_seeded_ids_equal_derived(self, cache, text):
        T = cache.table(text)
        derived = dataclasses.replace(T, rows=T.rows)
        (seeded, S), (again, D) = (T.values, T.ids), (derived.values, derived.ids)
        assert seeded == again
        assert list(map(type, seeded)) == list(map(type, again))
        assert [list(map(type, v.coeffs)) for v in seeded] == [list(map(type, v.coeffs)) for v in again]
        assert S.dtype == D.dtype == np.int32 and np.array_equal(S, D)

    def test_seeded_ids_over_the_catalog(self, cache):
        for text in map(to_text, default_catalog()):
            if cache.group(text).order > 200:
                continue
            T = cache.table(text)
            derived = dataclasses.replace(T, rows=T.rows)
            assert T.values == derived.values, text
            assert T.ids.dtype == derived.ids.dtype == np.int32, text
            assert np.array_equal(T.ids, derived.ids), text

    @pytest.mark.parametrize("text", SAMPLE)
    def test_blocks_hold_every_value(self, cache, text):
        T = cache.table(text)
        distinct = T.values
        seen = []
        for m, (ids, C) in T.conductor_blocks.items():
            assert C.dtype == np.int64
            assert [distinct[i].conductor for i in ids] == [m] * len(ids)
            assert C.tolist() == [list(distinct[i].coeffs) for i in ids]
            seen += ids.tolist()
        assert sorted(seen) == list(range(len(distinct)))

    @pytest.mark.parametrize("text", SAMPLE)
    def test_real_rows_match_is_real(self, cache, text):
        T = cache.table(text)
        # A planted real value, and a planted non-real value with a fraction.
        for bad in (T, planted(T, {(0, 1): lambda v: zeta(5) + zeta(5, 4)}),
                    planted(T, {(1, 1): lambda v: v + Fraction(1, 3) * zeta(8)})):
            assert bad.real_rows == tuple(all(v.is_real() for v in row) for row in bad.rows)

    def test_fraction_takes_the_exact_route(self, cache, monkeypatch):
        bad = planted(cache.table("A(4)"), {(1, 1): lambda v: v + Fraction(1, 2)})
        assert any(C.dtype == object for _, C in bad.conductor_blocks.values())
        monkeypatch.setattr(chartab, "_split_primes", lambda *a: pytest.fail("modular route taken"))
        assert not verify_orthogonality(bad).ok
        assert_report_matches_oracle(bad)

    def test_no_per_value_twist_or_type_scan(self):
        # Table readers twist whole coefficient matrices; a per-value
        # .galois/.conjugate/.is_real call or a type(c) scan over the
        # coefficients would bring the per-value layer back.
        import ast
        from pathlib import Path

        tree = ast.parse(Path(chartab.__file__).read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        per_value = [f"{node.lineno}: .{node.func.attr}" for node in calls
                     if isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("galois", "conjugate", "is_real")]
        type_scans = [f"{node.lineno}: type()" for node in calls
                      if isinstance(node.func, ast.Name) and node.func.id == "type"]
        assert per_value + type_scans == []


class TestOrbitLift:
    """The lift transforms one class per Galois orbit of classes and fills
    the others by permuting the representative's multiplicity rows."""

    @pytest.mark.parametrize("text", ["F(13,3)", "SD(5,3,124)", "D(200)"])
    def test_one_transform_per_orbit(self, cache, monkeypatch, text):
        from oracles import galois_class_orbits

        G, T = cache.pair(text)
        mt = compute_mod_table(G)
        real = FiniteGroup.powers
        calls = []

        def counted(self, i, m):
            calls.append(i)
            return real(self, i, m)

        monkeypatch.setattr(chartab, "compute_mod_table", lambda H: mt)
        monkeypatch.setattr(FiniteGroup, "powers", counted)
        again = character_table(G)
        monkeypatch.undo()
        C = T.classes
        orbits = galois_class_orbits(G, C, T.exponent)
        assert len(orbits) < C.num_classes
        assert [C.class_of[i] for i in calls] == [min(o) for o in orbits]
        assert again.rows == T.rows

    @staticmethod
    def planted_cell(G):
        """A row of the split and a class that is not the first of its orbit."""
        from oracles import galois_class_orbits

        C = conjugacy_classes(G)
        mt = compute_mod_table(G)
        orbit = next(o for o in galois_class_orbits(G, C, mt.exponent) if len(o) > 1)
        return mt, 0, max(orbit)

    def test_planted_fault_in_a_filled_column(self, monkeypatch):
        from acdlab.errors import EngineInvariantError

        G = build(parse_group_spec("F(13,3)"))
        mt, r, c = self.planted_cell(G)
        chi = mt.chi.copy()
        chi[r, c] = (chi[r, c] + 1) % mt.q
        monkeypatch.setattr(chartab, "compute_mod_table", lambda H: dataclasses.replace(mt, chi=chi))
        with pytest.raises(EngineInvariantError, match="multiplicities must sum to the degree"):
            character_table(G)

    def test_inexact_product_fails_the_table_guard(self, monkeypatch):
        # Moving m units between two columns of one row of a transform
        # product moves one unit between two multiplicities: they stay
        # integers with the same sum, so only the check of the finished table
        # can catch it.  With the modular table fixed, the lift's first
        # product with a square m x m right operand, m > 2, is a transform.
        from acdlab.errors import EngineInvariantError

        G = build(parse_group_spec("F(13,3)"))
        mt = compute_mod_table(G)
        real = chartab.matmul_mod
        moved = []

        def inexact(A, B, q):
            out = real(A, B, q)
            m = B.shape[0]
            if not moved and B.shape == (m, m) and m > 2:
                src = int(np.argmax(out[0] * pow(m, -1, q) % q))  # a multiplicity of at least 1
                dst = (src + 1) % m
                out[0, src] = (out[0, src] - m) % q
                out[0, dst] = (out[0, dst] + m) % q
                moved.append(m)
            return out

        monkeypatch.setattr(chartab, "compute_mod_table", lambda H: mt)
        monkeypatch.setattr(chartab, "matmul_mod", inexact)
        with pytest.raises(EngineInvariantError, match="the lifted table must reduce to the modular table"):
            character_table(G)
        assert moved

    # One nonlinear value (its multiplicities sum past 1) comes out +1.
    WRONG_VALUE = (
        "real = chartab.CyclotomicValue\n"
        "planted = []\n"
        "def off_by_one(m, terms):\n"
        "    v = real(m, terms)\n"
        "    if not planted and sum(terms.values()) > 1:\n"
        "        planted.append(v)\n"
        "        return v + 1\n"
        "    return v\n"
        "chartab.CyclotomicValue = off_by_one\n"
    )

    def test_wrong_lifted_value_fails_the_table_guard(self, monkeypatch):
        from acdlab.errors import EngineInvariantError

        scope = {"chartab": chartab}
        exec(self.WRONG_VALUE, scope)
        monkeypatch.setattr(chartab, "CyclotomicValue", scope["off_by_one"])
        with pytest.raises(EngineInvariantError, match="the lifted table must reduce to the modular table"):
            character_table(build(parse_group_spec("F(13,3)")))
        assert scope["planted"]

    def test_wrong_lifted_value_under_python_O(self):
        code = (
            "assert False\n"
            "import acdlab.chartab as chartab\n"
            "from acdlab.constructions import build\n"
            "from acdlab.specparse import parse_group_spec\n"
            + self.WRONG_VALUE
            + "chartab.character_table(build(parse_group_spec('F(13,3)')))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: the lifted table must reduce to the modular table"), proc.stderr

    def test_planted_fault_under_python_O(self):
        _, r, c = self.planted_cell(build(parse_group_spec("F(13,3)")))
        code = (
            "assert False\n"
            "import dataclasses\n"
            "import acdlab.chartab as chartab\n"
            "from acdlab.constructions import build\n"
            "from acdlab.specparse import parse_group_spec\n"
            "G = build(parse_group_spec('F(13,3)'))\n"
            "mt = chartab.compute_mod_table(G)\n"
            "chi = mt.chi.copy()\n"
            f"chi[{r}, {c}] = (chi[{r}, {c}] + 1) % mt.q\n"
            "chartab.compute_mod_table = lambda H: dataclasses.replace(mt, chi=chi)\n"
            "chartab.character_table(G)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: multiplicities must sum to the degree"), proc.stderr

    def test_dihedral_1000(self):
        # D(1000)'s 100 classes of rotations of order 500 form one Galois
        # orbit, so they take one 500 x 500 transform.
        code = (
            "from acdlab.chartab import character_table, verify_orthogonality\n"
            "from acdlab.constructions import build\n"
            "from acdlab.specparse import parse_group_spec\n"
            "T = character_table(build(parse_group_spec('D(1000)')))\n"
            "print(T.num_chars, verify_orthogonality(T).ok)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["253", "True"]


class TestReplacedTable:
    """A table replaced with ``dataclasses.replace`` keeps no value data of
    the table it was made from: every reader sees the new rows."""

    @staticmethod
    def warm(T):
        """Fill every cache a reader of T keeps."""
        verify_orthogonality(T)
        table_to_json(T)
        for r in range(T.num_chars):
            character_kernel(T, r)
            galois_conjugate(T, r, -1)
        return T.row_conductors, T.kernel_classes, T.real_rows

    def test_planted_value_is_seen(self, cache):
        T = cache.table("S(4)")
        self.warm(T)
        bad = planted(T, {(1, 1): lambda v: v + 1})
        assert bad.value(1, 1) != T.value(1, 1)
        assert not verify_orthogonality(bad).ok
        assert bad.row_conductors == tuple(lcm(*(v.conductor for v in row)) for row in bad.rows)
        assert bad.kernel_classes == tuple(tuple(c for c, v in enumerate(row) if v == d)
                                           for row, d in zip(bad.rows, bad.degrees))
        assert table_to_json(bad) == TestJsonOutput.dumps_dict(bad) != table_to_json(T)

    def test_planted_value_moves_under_galois(self, cache):
        # S(4) is rational, so its twists fix every row; F(7,3) is not.
        from acdlab.errors import EngineInvariantError

        T = cache.table("F(7,3)")
        self.warm(T)
        r, c = next((r, c) for r in range(5) for c in range(5) if not T.value(r, c).is_rational())
        bad = planted(T, {(r, c): lambda v: v + 1})
        assert galois_conjugate(T, r, -1) != r
        with pytest.raises(EngineInvariantError):
            galois_conjugate(bad, r, -1)
        # zeta -> zeta^4 fixes zeta_3 and every value of F(7,3).
        assert galois_conjugate(bad, r, 4) == r


class TestStoredValues:
    """A table stores its distinct values and a read-only int32 id matrix;
    the value grid ``rows`` is derived only when a caller asks for it."""

    @pytest.mark.parametrize("text", ["S(4)", "F(7,3)", "Q8*C(26)"])
    def test_engine_paths_build_no_grid(self, text):
        T = character_table(build(parse_group_spec(text)))
        assert verify_orthogonality(T).ok
        e = T.exponent
        ts = sorted(set(unit_group_generators(e)) | {e - 1}) if e > 2 else [1]
        for r in range(T.num_chars):
            for t in ts:
                galois_conjugate(T, r, t)
        assert len(T.real_rows) == len(T.row_conductors) == len(T.kernel_classes) == T.num_chars
        assert "".join(chartab.table_json_pieces(T)) == TestJsonOutput.dumps_dict(T)
        assert "rows" not in T.__dict__
        assert len(T.rows) == T.num_chars and "rows" in T.__dict__

    def test_ids_are_read_only(self, cache):
        T = cache.table("S(4)")
        assert T.ids.dtype == np.int32
        with pytest.raises(ValueError):
            T.ids[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            T.ids = T.ids.copy()

    @staticmethod
    def bad_changes(T):
        """A ragged grid, id matrices of the wrong shape or dtype, and ids
        outside [0, len(values)), each as ``dataclasses.replace`` changes."""
        k, n = T.num_chars, len(T.values)
        return [dict(rows=T.rows[:2] + (T.rows[2][:2],)), dict(ids=T.ids[:2]),
                dict(ids=np.zeros((k + 1, k + 1), dtype=np.int32)), dict(ids=T.ids.astype(float)),
                dict(ids=np.where(T.ids == 0, n, T.ids)), dict(ids=np.where(T.ids == 0, -1, T.ids))]

    def test_bad_grid_or_ids_raise(self, cache):
        T = cache.table("S(3)")
        for changes in self.bad_changes(T):
            with pytest.raises(InputError):
                dataclasses.replace(T, **changes)

    def test_bad_ids_raise_under_python_O(self):
        # The same six tables, with asserts stripped.
        code = (
            "import dataclasses\n"
            "import numpy as np\n"
            "from acdlab.chartab import character_table\n"
            "from acdlab.constructions import build\n"
            "from acdlab.specparse import parse_group_spec\n"
            "T = character_table(build(parse_group_spec('S(3)')))\n"
            "k, n = T.num_chars, len(T.values)\n"
            "for changes in [dict(rows=T.rows[:2] + (T.rows[2][:2],)), dict(ids=T.ids[:2]),\n"
            "                dict(ids=np.zeros((k + 1, k + 1), dtype=np.int32)), dict(ids=T.ids.astype(float)),\n"
            "                dict(ids=np.where(T.ids == 0, n, T.ids)), dict(ids=np.where(T.ids == 0, -1, T.ids))]:\n"
            "    try:\n"
            "        dataclasses.replace(T, **changes)\n"
            "        print('accepted')\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["InputError"] * 6


class TestLinearCharacters:
    """Linear characters read off G/G' against a brute-force oracle, tables
    that need no class matrix, and the checks on the construction."""

    def test_degree_one_rows_match_oracle(self, cache):
        from oracles import linear_characters_brute

        checked = 0
        for text in map(to_text, default_catalog()):
            G = cache.group(text)
            T = cache.table(text)
            e = T.exponent
            if e ** len(G.generator_indices) > 20000:
                continue
            roots = {}

            def root(j):
                if j not in roots:
                    roots[j] = zeta(e, j)
                return roots[j]

            brute = linear_characters_brute(G)[:, list(T.classes.reps)]
            want = {tuple(map(root, row)) for row in brute.tolist()}
            got = {row for row, d in zip(T.rows, T.degrees) if d == 1}
            assert len(want) == len(brute) and got == want, text
            checked += 1
        assert checked == 174

    # Abelian groups, and F(113,112) whose complement is one row.
    @pytest.mark.parametrize("text,digest", [
        ("C(150)", "05ee2509ca599cafd64b721966ef260f60292d59d561ed52195613b2e03051b5"),
        ("C(2)*C(90)", "52f1720e53921c32884789109c4eab0616d901c3a662a178dad74d5721b411f5"),
        ("SD(5,3,1)", "f0e04472087d5b5305f18741611cc745c266ccf5c3dbd20bdcb0372795d43146"),
        ("F(113,112)", "18637abeec6f40be0fb8171285cce0e8d423bf12f86ed4e145b0965d5d1714ca"),
    ])
    def test_tables_without_class_matrices(self, monkeypatch, text, digest):
        import acdlab.chartab as chartab

        def refuse(G, C, i):
            raise AssertionError("class matrix built")

        monkeypatch.setattr(chartab, "class_matrix", refuse)
        T = character_table(build(parse_group_spec(text)))
        assert verify_orthogonality(T).ok
        assert hashlib.sha256(table_to_json(T).encode()).hexdigest() == digest

    @pytest.mark.parametrize("which,match", [
        ("trivial", "every coset of the derived subgroup"),
        ("whole", "degree-1 rows must be exactly the linear characters"),
    ])
    def test_wrong_derived_subgroup_raises(self, monkeypatch, which, match):
        import acdlab.chartab as chartab
        from acdlab.errors import EngineInvariantError
        from acdlab.group import full_subgroup, trivial_subgroup

        wrong = trivial_subgroup if which == "trivial" else full_subgroup
        monkeypatch.setattr(chartab, "derived_subgroup", wrong)
        with pytest.raises(EngineInvariantError, match=match):
            character_table(build(parse_group_spec("S(4)")))

    def test_homomorphism_check_survives_python_O(self):
        import subprocess
        import sys

        # With G' taken to be trivial, S(3)'s six elements are labelled as
        # if they formed C(3) x C(2), and the products fail the check.
        code = (
            "assert False\n"
            "import acdlab.chartab as chartab\n"
            "from acdlab.constructions import build\n"
            "from acdlab.group import trivial_subgroup\n"
            "from acdlab.specparse import parse_group_spec\n"
            "chartab.derived_subgroup = trivial_subgroup\n"
            "chartab.character_table(build(parse_group_spec('S(3)')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: a linear character must be a homomorphism on G/G'"
        ), proc.stderr

    def test_disjoint_coset_check_survives_python_O(self):
        # Taken for G', the stabilizer of point 1 in SD(5,3,62) is a
        # complement, not normal.  The second generator's new cosets meet
        # the labelled ones in their eighth chunk of representatives.
        code = (
            "assert False\n"
            "import acdlab.chartab as chartab\n"
            "from acdlab.constructions import build\n"
            "from acdlab.group import point_stabilizer\n"
            "from acdlab.specparse import parse_group_spec\n"
            "chartab.derived_subgroup = lambda G: point_stabilizer(G, 1)\n"
            "chartab.character_table(build(parse_group_spec('SD(5,3,62)')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: new cosets of the derived subgroup must be disjoint from the old"
        ), proc.stderr

    def test_complement_start_matches_null_space_oracle(self, cache):
        from oracles import complement_start_by_null_space

        from acdlab.group import exponent

        checked = 0
        for text in map(to_text, default_catalog()):
            G = cache.group(text)
            C = conjugacy_classes(G)
            e = exponent(G)
            J = chartab.linear_characters(G, C, e)
            if len(J) == C.num_classes:
                continue
            q = choose_conductor_prime(e, G.order)
            omega = pow(primitive_root(q), (q - 1) // e, q)
            want = complement_start_by_null_space(J, e, omega, q)
            got = chartab._complement_start(J, q)
            assert got.dtype == want.dtype and np.array_equal(got, want), text
            checked += 1
        assert checked == 251

    @pytest.mark.parametrize("text", ["S(4)", "Q8*C(26)", "F(13,3)", "A(5)"])
    def test_no_null_space_for_the_complement(self, monkeypatch, text):
        shapes = []
        real = chartab.nullspace_mod

        def counted(A, q):
            shapes.append(A.shape)
            return real(A, q)

        monkeypatch.setattr(chartab, "nullspace_mod", counted)
        G = build(parse_group_spec(text))
        mt = compute_mod_table(G)
        n_lin, k = mt.linear.shape
        assert (n_lin, k) not in shapes
        # Any null spaces are per-root fallbacks inside the split, on its s by s restrictions.
        assert all(sh[0] == sh[1] < k for sh in shapes), shapes
        assert mt.degrees[:n_lin] == (1,) * n_lin and min(mt.degrees[n_lin:]) > 1

    def test_cosets_merged_by_the_linear_characters_raise(self, monkeypatch):
        import acdlab.chartab as chartab
        from acdlab.errors import EngineInvariantError

        real = chartab.linear_characters

        def merged(G, C, e):
            # S(3)'s transpositions are its odd coset; give them G''s column.
            J = real(G, C, e)
            J[:, J.any(axis=0)] = 0
            return J

        monkeypatch.setattr(chartab, "linear_characters", merged)
        with pytest.raises(EngineInvariantError, match="must separate"):
            compute_mod_table(build(parse_group_spec("S(3)")))

    def test_coset_check_survives_python_O(self):
        code = (
            "assert False\n"
            "import acdlab.chartab as chartab\n"
            "from acdlab.constructions import build\n"
            "from acdlab.specparse import parse_group_spec\n"
            "real = chartab.linear_characters\n"
            "def merged(G, C, e):\n"
            "    J = real(G, C, e)\n"
            "    J[:, J.any(axis=0)] = 0\n"
            "    return J\n"
            "chartab.linear_characters = merged\n"
            "chartab.compute_mod_table(build(parse_group_spec('S(3)')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: "
            "the linear characters must separate |G:G'| = 2 cosets, not 1"
        ), proc.stderr


class TestClassOrder:
    """The split takes class matrices by class size, smallest first."""

    def _built_sizes(self, monkeypatch, text):
        sizes = []
        real = chartab.class_matrix

        def counted(G, C, i):
            sizes.append(C.sizes[i])
            return real(G, C, i)

        monkeypatch.setattr(chartab, "class_matrix", counted)
        compute_mod_table(build(parse_group_spec(text)))
        return sizes

    def test_sizes_do_not_decrease(self, monkeypatch):
        sizes = self._built_sizes(monkeypatch, "D(200)")
        assert sizes and sizes == sorted(sizes), sizes

    # Their non-central classes of size 2 split almost nothing: taking the
    # central classes last would build dozens of class matrices here.
    @pytest.mark.parametrize("text", ["Q8*C(26)", "Q8*C(30)"])
    def test_one_class_matrix(self, monkeypatch, text):
        assert len(self._built_sizes(monkeypatch, text)) == 1


class TestInternals:
    def test_choose_conductor_prime(self):
        for e, n in ((12, 24), (6, 21), (4, 8)):
            q = choose_conductor_prime(e, n)
            assert q % e == 1
            assert q * q > 4 * n  # unique square roots for degree recovery
            assert n % q != 0

    def test_class_matrix_row_sums(self, cache):
        G, T = cache.pair("S(4)")
        C = T.classes
        sizes = C.sizes
        for i in range(C.num_classes):
            M = class_matrix(G, C, i)
            for j in range(C.num_classes):
                total = sum(int(M[j][k]) * sizes[k] for k in range(C.num_classes))
                assert total == sizes[i] * sizes[j]

    def test_class_coefficients_table(self, cache):
        G, T = cache.pair("S(3)")
        C = T.classes
        n = C.num_classes
        a = np.stack([class_matrix(G, C, i) for i in range(n)])
        assert a.shape == (n, n, n)
        # Identity class slice is the identity: e*y lands in y's own class.
        assert (a[0] == np.eye(n, dtype=a.dtype)).all()
        # Transpositions times transpositions: all 3 pairs (x, x) hit the identity.
        t = class_index(G, C, size=3)
        assert a[t][t][0] == 3
        assert all((a[i] == class_matrix(G, C, i)).all() for i in range(n))

    def test_simple_left_eigenvectors(self, monkeypatch):
        from acdlab import linalg_mod
        from acdlab.linalg_mod import (
            charpoly_mod,
            left_eigenspaces_mod,
            nullspace_mod,
            poly_roots_mod,
            rref_mod,
            simple_left_eigenvectors_mod,
        )

        assert simple_left_eigenvectors_mod is left_eigenspaces_mod
        q = 101
        rng = np.random.default_rng(7)

        def basis(n):
            # Unit lower times unit upper triangular: always invertible.
            lower = np.tril(rng.integers(0, q, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
            upper = np.triu(rng.integers(0, q, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
            P = (lower @ upper) % q
            aug, piv = rref_mod(np.hstack([P, np.eye(n, dtype=np.int64)]), q)
            assert piv[:n] == list(range(n))
            return P, aug[:, n:]

        def split(J, P, Pinv):
            # B = P^-1 J P; for diagonal J the rows of P are left eigenvectors.
            B = (Pinv @ J @ P) % q
            f = charpoly_mod(B, q)
            roots = poly_roots_mod(f, q)
            return B, roots, left_eigenspaces_mod(B, f, roots, q)

        def null_basis(B, lam):
            n = B.shape[0]
            return rref_mod(nullspace_mod((B.T - lam * np.eye(n, dtype=np.int64)) % q, q), q)[0]

        P, Pinv = basis(6)
        for diag in ([3, 5, 7, 11, 13, 17], [3, 3, 7, 11, 13, 17], [3, 3, 3, 7, 7, 17]):
            B, roots, spaces = split(np.diag(diag), P, Pinv)
            assert roots == sorted(set(diag))
            for lam, U in zip(roots, spaces):
                assert U is not None and U.shape[0] == diag.count(lam)
                assert np.array_equal(U, null_basis(B, lam))

        # A Jordan block at 3: multiplicity 2 but a 1-dim eigenspace.
        J = np.diag([3, 3, 7, 11, 13, 17])
        J[0, 1] = 1
        B, roots, spaces = split(J, P, Pinv)
        assert roots[0] == 3 and null_basis(B, 3).shape[0] == 1
        assert spaces[0] is None
        # The simple roots' g_i(B) keep a component along the Jordan block,
        # so whatever is returned for them must still be their eigenspace.
        for lam, U in zip(roots[1:], spaces[1:]):
            assert U is None or np.array_equal(U, null_basis(B, lam))

        # Multiplicity 8 among 9 roots of a 16 by 16 matrix is beyond the
        # block's 4 * 16 / 9 = 7 rows: that root alone is left to the caller.
        diag = [2] * 8 + [3, 5, 7, 11, 13, 17, 19, 23]
        B, roots, spaces = split(np.diag(diag), *basis(16))
        assert [U is None for U in spaces] == [lam == 2 for lam in roots]
        for lam, U in zip(roots[1:], spaces[1:]):
            assert np.array_equal(U, null_basis(B, lam))

        # A block with no component along the eigenvector of 7 (the third
        # row of P) falls back for that root only.
        def block_missing_7(B, b, q):
            C = rng.integers(1, q, size=(b, 6))
            C[:, 2] = 0
            return (C @ P) % q

        monkeypatch.setattr(linalg_mod, "_block_for", block_missing_7)
        B, roots, spaces = split(np.diag([3, 5, 7, 11, 13, 17]), P, Pinv)
        assert [U is None for U in spaces] == [lam == 7 for lam in roots]
        for lam, U in zip(roots, spaces):
            if U is not None:
                assert np.array_equal(U, null_basis(B, lam))

    def test_non_diagonalizable_restriction_raises(self, monkeypatch):
        import types

        import acdlab.chartab as chartab
        from acdlab.errors import EngineInvariantError

        # The split transposes class matrices, so this one acts as a Jordan
        # block at 2 next to a simple root 5.
        J = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 5]], dtype=np.int64)
        monkeypatch.setattr(chartab, "class_matrix", lambda G, C, i: J.T)
        with pytest.raises(EngineInvariantError, match="diagonalizable"):
            chartab._split_eigenspaces(None, types.SimpleNamespace(num_classes=3, sizes=(1, 1, 1)),
                                       13, np.eye(3, dtype=np.int64))

    def test_linalg_errors_are_typed(self):
        from acdlab.errors import DomainError, InputError
        from acdlab.linalg_mod import rref_mod, sqrt_mod

        for not_a_matrix in (np.arange(3), [[1, 2], [3]]):
            with pytest.raises(InputError, match="matrix"):
                rref_mod(not_a_matrix, 5)
        with pytest.raises(DomainError, match="quadratic residue"):
            sqrt_mod(3, 7)
        assert sqrt_mod(2, 7) in (3, 4)

    def test_non_residue_degree_square_raises(self, monkeypatch):
        import acdlab.chartab as chartab
        from acdlab.errors import DomainError, EngineInvariantError

        def no_root(a, q):
            raise DomainError(f"{a} is not a quadratic residue mod {q}")

        monkeypatch.setattr(chartab, "sqrt_mod", no_root)
        with pytest.raises(EngineInvariantError, match="not a square"):
            compute_mod_table(build(parse_group_spec("S(3)")))

    @pytest.mark.parametrize("text", ["C(150)", "C(2)*C(90)"])
    def test_split_takes_few_null_spaces(self, cache, monkeypatch, text):
        import acdlab.chartab as chartab
        from acdlab.group import exponent

        # The table reads these abelian groups' characters off G/G' and
        # splits nothing, so the split is driven here from the whole space.
        # q = k + 1 makes sum(1..k) = 0 mod q and C(2)*C(90) has roots of
        # multiplicity 2; before the block Krylov pass the split took a
        # null space per root here.
        G = cache.group(text)
        C = conjugacy_classes(G)
        k = C.num_classes
        q = chartab.choose_conductor_prime(exponent(G), G.order)
        shapes = []
        real = chartab.nullspace_mod

        def counted(A, q):
            shapes.append(A.shape)
            return real(A, q)

        monkeypatch.setattr(chartab, "nullspace_mod", counted)
        rows = chartab._split_eigenspaces(G, C, q, np.eye(k, dtype=np.int64))
        assert len(shapes) <= 2, shapes
        mt = compute_mod_table(G)
        assert mt.q == q
        # Central characters omega(K_c) = |K_c| chi(g_c) / chi(1), rebuilt
        # from the linear rows omega_root^J and the split's rows of chi.
        chi = [[pow(mt.omega_root, j, q) for j in row] for row in mt.linear.tolist()] + mt.chi.tolist()
        omega = [[int(x) * size * pow(d, -1, q) % q for x, size in zip(row, C.sizes)]
                 for row, d in zip(chi, mt.degrees)]
        assert sorted(map(tuple, np.array(rows).tolist())) == sorted(map(tuple, omega))

    @pytest.mark.parametrize("text", ["C(60)", "C(2)*C(90)"])
    def test_abelian_mod_table_is_its_linear_characters(self, cache, monkeypatch, text):
        # Every character is linear, so the modular table is the exponent
        # rows alone: no split, no root powers, no degree square roots.
        def refuse(*args):
            raise AssertionError("modular arithmetic beyond the linear characters")

        for name in ("_complement_start", "_split_eigenspaces", "_root_powers", "sqrt_mod", "matmul_mod"):
            monkeypatch.setattr(chartab, name, refuse)
        G = cache.group(text)
        k = conjugacy_classes(G).num_classes
        mt = compute_mod_table(G)
        assert mt.chi.shape == (0, k) and mt.linear.shape == (k, k)
        assert mt.degrees == (1,) * k

    def test_mod_table_holds_the_split_rows(self, cache):
        G = cache.group("S(4)")
        k = conjugacy_classes(G).num_classes
        mt = compute_mod_table(G)
        n_lin = len(mt.linear)
        assert n_lin == 2 and mt.chi.shape == (k - n_lin, k)
        assert mt.degrees[:n_lin] == (1, 1) and sorted(mt.degrees[n_lin:]) == [2, 3, 3]
        assert mt.chi[:, 0].tolist() == list(mt.degrees[n_lin:])
