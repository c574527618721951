"""Field membership for character values and the A^k subgroup.

The fast membership test is conductor divisibility; the reference route below
re-derives it from Galois fixedness, so the two must agree row by row.
"""

import math

import pytest

from acdlab.chartab import character_kernel, galois_conjugate
from acdlab.constructions import default_catalog, to_text
from acdlab.errors import InputError
from acdlab.fieldvals import (
    FieldSpec,
    a_k_subgroup,
    format_field,
    has_values_in,
    irr_subset,
    parse_field,
)
from acdlab.group import derived_subgroup, point_stabilizer, subgroup_as_group
from acdlab.number_theory import prime_divisors

Q = FieldSpec.rationals()
R = FieldSpec.reals()
C = FieldSpec.complexes()


def zm(m):
    return FieldSpec.cyclotomic(m)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,spec,canonical",
        [
            ("Q", zm(1), "Q"),
            ("R", R, "R"),
            ("C", C, "C"),
            ("Qp(7)", zm(7), "Q(zeta_7)"),
            ("Qp(2)", zm(1), "Q"),
            ("Q(zeta_1)", zm(1), "Q"),
            ("Q(zeta_2)", zm(1), "Q"),
            ("Q(zeta_6)", zm(3), "Q(zeta_3)"),
            ("Q(zeta_12)", zm(12), "Q(zeta_12)"),
            (" Q(zeta_21) ", zm(21), "Q(zeta_21)"),
        ],
    )
    def test_round_trip(self, text, spec, canonical):
        k = parse_field(text)
        assert k == spec
        assert format_field(k) == canonical
        assert parse_field(format_field(k)) == k

    @pytest.mark.parametrize("text", ["", "Z", "Qp(6)", "Qp(-3)", "Q(zeta_0)", "Q(zeta_x)", "QQ"])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            parse_field(text)


class TestContainsRootOfUnity:
    def test_cyclotomic(self):
        assert zm(3).contains_root_of_unity(3)
        assert zm(6).contains_root_of_unity(3)
        assert not zm(5).contains_root_of_unity(3)
        assert zm(1).contains_root_of_unity(2)

    def test_reals_and_complexes(self):
        assert R.contains_root_of_unity(2)
        assert not R.contains_root_of_unity(3)
        assert C.contains_root_of_unity(9)


def units_fixing(m, e):
    g = math.gcd(m, e)
    return [t for t in range(1, e + 1) if math.gcd(t, e) == 1 and t % g == 1 % g]


def has_values_in_brute(T, r, k):
    """Reference implementation straight from Galois fixedness."""
    e = T.exponent
    if k.variant == "complexes":
        return True
    if k.variant == "reals":
        return galois_conjugate(T, r, e - 1 if e > 1 else 1) == r
    return all(galois_conjugate(T, r, t) == r for t in units_fixing(k.m, e))


FIXTURES = ["S(4)", "A(4)", "A(5)", "Q8", "D(10)", "D(18)", "F(7,3)", "F(11,10)", "SD(3,2,8)", "C(2)*S(3)"]
FIELDS = [Q, zm(3), zm(4), zm(5), zm(7), zm(9), zm(12), zm(21), zm(55), R, C]
CATALOG_SLICE = [to_text(s) for s in default_catalog()[::12]]


def audited_fields(G):
    """(p, k) for every prime p dividing |G| and each of Q, R, C and Q(zeta_p)."""
    for p in prime_divisors(G.order) or [2]:
        for k in (Q, R, C, zm(p)):
            yield p, k


class TestHasValuesIn:
    @pytest.mark.parametrize("text", FIXTURES)
    def test_agrees_with_galois_route(self, cache, text):
        T = cache.table(text)
        for r in range(T.num_chars):
            for k in FIELDS:
                assert has_values_in(T, r, k) == has_values_in_brute(T, r, k), (text, r, k)

    @pytest.mark.parametrize("text", FIXTURES)
    def test_containment_chain(self, cache, text):
        T = cache.table(text)
        for r in range(T.num_chars):
            if has_values_in(T, r, Q):
                assert has_values_in(T, r, R)
                assert has_values_in(T, r, zm(5))
            if has_values_in(T, r, R):
                assert has_values_in(T, r, C)
            if has_values_in(T, r, zm(3)):
                assert has_values_in(T, r, zm(12))

    def test_known_memberships(self, cache):
        T = cache.table("F(7,3)")
        rational = [r for r in range(5) if has_values_in(T, r, Q)]
        assert rational == [0]
        in_z3 = [r for r in range(5) if has_values_in(T, r, zm(3))]
        assert {T.degrees[r] for r in in_z3} == {1}
        assert len(in_z3) == 3
        in_z7 = [r for r in range(5) if has_values_in(T, r, zm(7))]
        assert sorted(T.degrees[r] for r in in_z7) == [1, 3, 3]
        assert all(has_values_in(T, r, zm(21)) for r in range(5))
        # Real-valued rows of A5: the whole table.
        T5 = cache.table("A(5)")
        assert all(has_values_in(T5, r, R) for r in range(5))
        assert [r for r in range(5) if has_values_in(T5, r, Q)] == [
            r for r in range(5) if T5.degrees[r] in (1, 4, 5)
        ]


class TestValueConductor:
    @pytest.mark.parametrize("text", FIXTURES)
    def test_minimality(self, cache, text):
        T = cache.table(text)
        for r in range(T.num_chars):
            m = T.row_conductors[r]
            assert has_values_in(T, r, zm(m))
            for p in prime_divisors(m):
                assert not has_values_in(T, r, zm(m // p))

    def test_examples(self, cache):
        T = cache.table("S(4)")
        assert list(T.row_conductors) == [1] * 5
        T = cache.table("F(7,3)")
        assert sorted(T.row_conductors) == [1, 3, 3, 7, 7]


class TestIrrSubset:
    def test_field_and_degree_filter(self, cache):
        T = cache.table("F(7,3)")
        assert irr_subset(T, Q) == [0]
        assert irr_subset(T, C) == [0, 1, 2, 3, 4]
        assert irr_subset(T, C, p=3) == [r for r in range(5) if T.degrees[r] % 3 != 0]
        assert irr_subset(T, zm(7), p=7) == irr_subset(T, zm(7))

    @pytest.mark.parametrize("text", CATALOG_SLICE)
    def test_matches_per_row_filter(self, cache, text):
        G, T = cache.pair(text)
        for p, k in audited_fields(G):
            for q in (None, p):
                want = [
                    r
                    for r in range(T.num_chars)
                    if has_values_in(T, r, k) and (q is None or T.degrees[r] % q != 0)
                ]
                assert irr_subset(T, k, q) == want, (text, k, q)

    def test_rejects_bad_p(self, cache):
        T = cache.table("S(3)")
        with pytest.raises(InputError):
            irr_subset(T, Q, p=4)


class TestAkSubgroup:
    def test_complexes_gives_derived(self, cache):
        for text in FIXTURES:
            G, T = cache.pair(text)
            assert a_k_subgroup(G, T, C) == derived_subgroup(G)

    def test_a4_examples(self, cache):
        G, T = cache.pair("A(4)")
        assert a_k_subgroup(G, T, Q).order == 12
        assert a_k_subgroup(G, T, zm(3)).order == 4
        assert a_k_subgroup(G, T, C).order == 4

    def test_f21_examples(self, cache):
        G, T = cache.pair("F(7,3)")
        assert a_k_subgroup(G, T, Q).order == 21
        assert a_k_subgroup(G, T, zm(3)).order == 7
        assert a_k_subgroup(G, T, zm(7)).order == 21

    def test_index_counts_linear_chars_in_field(self, cache):
        for text in FIXTURES:
            G, T = cache.pair(text)
            for k in (Q, zm(3), R, C):
                A = a_k_subgroup(G, T, k)
                linear = [
                    r
                    for r in range(T.num_chars)
                    if T.degrees[r] == 1 and has_values_in(T, r, k)
                ]
                assert G.order // A.order == len(linear)

    @pytest.mark.parametrize("text", CATALOG_SLICE)
    def test_matches_kernel_intersection(self, cache, text):
        G, T = cache.pair(text)
        for _, k in audited_fields(G):
            members = set(range(G.order))
            for r in range(T.num_chars):
                if T.degrees[r] == 1 and has_values_in(T, r, k):
                    members &= character_kernel(T, r).member_set()
            assert a_k_subgroup(G, T, k).member_set() == members, (text, k)

    def test_monotone_in_field(self, cache):
        for text in FIXTURES:
            G, T = cache.pair(text)
            big = a_k_subgroup(G, T, Q).member_set()
            for k in (zm(3), zm(12), C):
                small = a_k_subgroup(G, T, k).member_set()
                assert small <= big

    def test_contains_derived(self, cache):
        for text in FIXTURES:
            G, T = cache.pair(text)
            D = derived_subgroup(G).member_set()
            for k in (Q, zm(5), R):
                assert D <= a_k_subgroup(G, T, k).member_set()

    def test_subgroup_compatibility(self, cache):
        # A^k of a point stabilizer lands inside the stabilizer's share of A^k(G).
        from acdlab.chartab import character_table

        for text in ("F(7,3)", "SD(3,2,8)", "F(11,10)"):
            G, T = cache.pair(text)
            H = point_stabilizer(G, 0)
            S, to_parent = subgroup_as_group(G, H)
            TS = character_table(S)
            for k in (Q, zm(3), C):
                AS = {to_parent[i] for i in a_k_subgroup(S, TS, k).member_set()}
                AG = a_k_subgroup(G, T, k).member_set()
                assert AS <= (H.member_set() & AG)
