"""Exact cyclotomic arithmetic, checked against floating-point evaluation.

Every value is stored over the power basis of its minimal conductor, so
equality is plain structural equality.  The numeric oracle evaluates the same
expression in complex floats and must agree to high precision.
"""

import cmath
import inspect
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


from acdlab import cyclotomic
from acdlab.cyclotomic import (
    CyclotomicValue,
    _coefficient_matrix,
    _polydiv_exact,
    _twist_rows,
    cyclotomic_poly,
    zeta,
)
from acdlab.errors import DomainError, EngineInvariantError, InputError
from acdlab.number_theory import euler_phi


def numeric(x: CyclotomicValue) -> complex:
    m = x.conductor
    return sum(
        complex(c) * cmath.exp(2j * cmath.pi * j / m) for j, c in x.terms().items()
    )


def close(a: complex, b: complex) -> bool:
    return abs(a - b) < 1e-9


# Sparse exponent combinations over a fixed small conductor.
small_values = st.builds(
    lambda m, pairs: CyclotomicValue(m, dict(pairs)),
    st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15]),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=14), st.integers(min_value=-3, max_value=3)),
        max_size=4,
    ),
)


class TestCanonicalForm:
    def test_conductor_never_twice_odd(self):
        # zeta_6 = -zeta_3^2, so the canonical conductor is 3.
        x = zeta(6)
        assert x.conductor == 3
        assert x == -(zeta(3, 2))

    def test_rationals_have_conductor_one(self):
        assert zeta(5).conductor == 5
        assert (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)).conductor == 1
        assert CyclotomicValue.rational(Fraction(3, 2)).conductor == 1

    def test_conductor_descends_to_subfield(self):
        # zeta_12 + zeta_12^5 lies in Q(zeta_3): it equals zeta_3... check numerically.
        x = CyclotomicValue(12, {0: 1, 4: 1})
        assert x.conductor == 3
        assert close(numeric(x), numeric(zeta(12) ** 0 + zeta(3)))

    def test_golden_combination(self):
        # zeta_5 + zeta_5^4 = (-1 + sqrt 5)/2, a real algebraic number of degree 2.
        x = zeta(5) + zeta(5, 4)
        assert x.conductor == 5
        assert x.coeffs == (-1, 0, -1, -1)
        assert x.is_real()
        assert not x.is_rational()
        assert close(numeric(x), (5**0.5 - 1) / 2)

    def test_mixed_conductor_sum(self):
        x = zeta(3) + zeta(4)
        assert x.conductor == 12
        assert close(numeric(x), numeric(zeta(3)) + numeric(zeta(4)))

    def test_coeffs_length_is_phi(self):
        from acdlab.number_theory import euler_phi

        for m in (1, 3, 4, 5, 8, 9, 12, 15):
            x = zeta(m)
            assert len(x.coeffs) == euler_phi(x.conductor)

    def test_power_basis_reduction(self):
        # zeta_9^6 has exponent beyond phi(9) = 6 basis cutoff 6... the basis
        # holds exponents 0..5, and zeta_9^6 = zeta_3^2 rewrites via the
        # minimal polynomial x^6 + x^3 + 1.
        x = zeta(9, 6)
        assert close(numeric(x), cmath.exp(2j * cmath.pi * 6 / 9))

    @pytest.mark.parametrize("descends", [False, True], ids=["stays", "descends"])
    def test_fraction_terms_match_scaled_integer_terms(self, descends):
        # The reduction and the descent tests run on the terms times their
        # common denominator, in integers, and divide by it after.
        rng = random.Random(1001)
        terms = {rng.randrange(1001): rng.choice((Fraction(2, 7), Fraction(-1, 2), 3))
                 for _ in range(40)}
        if descends:
            # Exponents 7j lie in Q(zeta_143).  Adding c (1 + zeta_7 + ... +
            # zeta_7^6) = 0 brings in exponents prime to 7, so only the
            # p || m test at p = 7 finds the subfield.
            terms = {7 * j % 1001: c for j, c in terms.items()}
            for b in range(7):
                terms[143 * b] = terms.get(143 * b, 0) + Fraction(-1, 2)
        x = CyclotomicValue(1001, terms)
        scaled = CyclotomicValue(1001, {j: 14 * c for j, c in terms.items()})
        assert all(type(c) is int for c in scaled.coeffs)
        y = scaled * Fraction(1, 14)
        assert x.conductor == y.conductor == (143 if descends else 1001)
        assert x.coeffs == y.coeffs
        assert list(map(type, x.coeffs)) == list(map(type, y.coeffs))
        assert any(type(c) is Fraction for c in x.coeffs)

    def test_cyclotomic_poly_known(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def numeric_terms(m, terms, t=1):
    return sum(complex(c) * cmath.exp(2j * cmath.pi * j * t / m) for j, c in terms.items())


def oracle_conductor(m, terms):
    """Least d | m, d not 2 mod 4, whose field Q(zeta_d) holds the sum: the
    fixed field of the units t = 1 (mod d) of Z/m (Galois theory)."""
    x = numeric_terms(m, terms)
    units = [t for t in range(1, m + 1) if math.gcd(t, m) == 1]
    return min(d for d in range(1, m + 1) if m % d == 0 and d % 4 != 2
               and all(close(numeric_terms(m, terms, t), x) for t in units if t % d == 1 % d))


@st.composite
def subfield_terms(draw):
    """A sum at conductor m traced down to Q(zeta_d) for a random d | m, plus
    multiples of zeta_m^j (1 + zeta_p + ... + zeta_p^(p-1)) = 0 for primes
    p | m, so the exponents share no factor with m even when the value lies
    lower."""
    m = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    coeff = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.fractions(min_value=-2, max_value=2, max_denominator=4))
    exponent = st.integers(min_value=0, max_value=m - 1)
    y = draw(st.dictionaries(exponent, coeff, max_size=4))
    terms = {}
    for t in range(1, m + 1):
        if math.gcd(t, m) == 1 and t % d == 1 % d:
            for j, c in y.items():
                terms[j * t % m] = terms.get(j * t % m, 0) + c
    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
    if primes:
        for p, j, c in draw(st.lists(st.tuples(st.sampled_from(primes), exponent, coeff),
                                     max_size=2)):
            for k in range(p):
                e = (j + k * m // p) % m
                terms[e] = terms.get(e, 0) + c
    return m, terms


class TestConductorOracle:
    @given(subfield_terms())
    @settings(max_examples=150, deadline=None)
    def test_minimal_conductor_matches_definition(self, mt):
        m, terms = mt
        x = CyclotomicValue(m, terms)
        assert x.conductor == oracle_conductor(m, terms)
        assert close(numeric(x), numeric_terms(m, terms))


class TestEqualityAndHash:
    def test_equal_to_plain_rationals(self):
        assert CyclotomicValue.rational(2) == 2
        assert CyclotomicValue.rational(Fraction(1, 2)) == Fraction(1, 2)
        assert zeta(3) != 1
        assert hash(CyclotomicValue.rational(7)) == hash(7)
        assert hash(CyclotomicValue.rational(Fraction(1, 3))) == hash(Fraction(1, 3))

    def test_root_of_unity_sum_is_rational_int(self):
        s = sum((zeta(7, j) for j in range(7)), CyclotomicValue.zero())
        assert s == 0
        assert s.is_zero()

    def test_dict_usable(self):
        d = {zeta(3): "a", zeta(3, 2): "b"}
        assert d[zeta(6, 2)] == "a"


class TestArithmetic:
    @given(small_values, small_values)
    @settings(max_examples=60)
    def test_add_matches_numeric(self, x, y):
        assert close(numeric(x + y), numeric(x) + numeric(y))

    @given(small_values, small_values)
    @settings(max_examples=60)
    def test_mul_matches_numeric(self, x, y):
        assert close(numeric(x * y), numeric(x) * numeric(y))

    @given(small_values, small_values, small_values)
    @settings(max_examples=40)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(small_values)
    def test_neg_sub(self, x):
        assert x - x == 0
        assert -(-x) == x

    def test_scalar_mixing(self):
        x = zeta(5)
        assert 2 * x + x == 3 * x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
        assert (x + 1) - 1 == x

    def test_int_power(self):
        assert zeta(7) ** 7 == 1
        assert zeta(7) ** 3 == zeta(7, 3)


class TestGalois:
    @given(small_values, st.integers(min_value=1, max_value=30))
    @settings(max_examples=60)
    def test_galois_matches_exponent_action(self, x, t):
        import math

        m = x.conductor
        if math.gcd(t, m) != 1:
            with pytest.raises(InputError):
                x.galois(t)
            return
        y = x.galois(t)
        want = sum(
            complex(c) * cmath.exp(2j * cmath.pi * (j * t) / m)
            for j, c in x.terms().items()
        )
        assert close(numeric(y), want)

    @given(small_values, st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    @settings(max_examples=40)
    def test_galois_composition(self, x, s, t):
        import math

        m = x.conductor
        s, t = 2 * s + 1, 2 * t + 1
        if math.gcd(s, m) != 1 or math.gcd(t, m) != 1:
            return
        assert x.galois(s).galois(t) == x.galois((s * t) % m if m > 1 else 1)

    @given(small_values)
    def test_conjugate_is_galois_minus_one(self, x):
        assert x.conjugate() == x.galois(x.conductor - 1 if x.conductor > 1 else 1)
        assert close(numeric(x.conjugate()), numeric(x).conjugate())

    @given(small_values)
    def test_norm_is_real(self, x):
        assert (x * x.conjugate()).is_real()

    def test_is_real_examples(self):
        assert (zeta(5) + zeta(5, 4)).is_real()
        assert not zeta(5).is_real()
        assert CyclotomicValue.rational(-3).is_real()


class TestGaloisLargeConductors:
    """galois against the mapped exponents canonicalized anew, at
    conductors past the small strategy's, on sparse and dense values."""

    SMALL, FRACTIONS, HUGE = (1, -1, 2, -3), (Fraction(2, 7), -5), (2**70, -2**70, 1)

    @pytest.mark.parametrize("m", [16, 45, 97, 120, 210, 997])
    @pytest.mark.parametrize("choices", [SMALL, FRACTIONS, HUGE])
    def test_matches_exponent_map(self, m, choices):
        rng = random.Random(m)
        units = [t for t in range(-m, 0) if math.gcd(t, m) == 1]
        # Fully dense Fraction values at m = 997 take seconds of exact object arithmetic.
        sizes = (3, 60) if m > 500 and choices is self.FRACTIONS else (3, 60, m)
        for n_terms in sizes:
            x = CyclotomicValue(m, {rng.randrange(m): rng.choice(choices) for _ in range(n_terms)})
            M = x.conductor
            for t in [-1] + rng.sample(units, 2):
                y = x.galois(t)
                want = CyclotomicValue(M, {j * t: c for j, c in x.terms().items()})
                assert y == want
                assert list(map(type, y.coeffs)) == list(map(type, want.coeffs))
                if choices is self.SMALL:
                    assert close(numeric(y), sum(complex(c) * cmath.exp(2j * cmath.pi * j * t / M)
                                                 for j, c in x.terms().items()))

    def test_caches_are_keyed_by_the_conductor_alone(self):
        # A cache keyed also by a Galois exponent would keep one entry per
        # twist a table is checked under, each as large as phi(m)^2.
        cached = {name: fn for name, fn in vars(cyclotomic).items()
                  if hasattr(fn, "cache_info") and fn.__module__ == cyclotomic.__name__}
        assert "reduction_rows" in cached
        assert {name: list(inspect.signature(fn).parameters) for name, fn in cached.items()} == {
            name: ["m"] for name in cached}


class TestReductionRows:
    """reduction_rows on int64 rows against the recurrence on Python-int lists."""

    @pytest.mark.parametrize("m", [1, 2, 105, 385, 1001, 4000])
    def test_equals_the_list_recurrence(self, m):
        from oracles import reduction_rows_by_lists

        got = cyclotomic.reduction_rows(m)
        want = reduction_rows_by_lists(m, cyclotomic.cyclotomic_poly(m)[:euler_phi(m)])
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable

    def test_large_entries_switch_to_python_ints(self, monkeypatch):
        # A made-up Phi_30 with a coefficient 2^40 at x^7: the carries grow
        # past int64 within a few rows, so the rows finish as Python ints.
        from oracles import reduction_rows_by_lists

        top = (1, 0, -1, 0, 3, 0, -1, 2**40)
        monkeypatch.setattr(cyclotomic, "cyclotomic_poly", lambda m: top + (1,))
        got = cyclotomic.reduction_rows.__wrapped__(30)
        want = reduction_rows_by_lists(30, top)
        assert got.dtype == want.dtype == object
        assert got.tolist() == want.tolist()
        assert max(abs(c) for row in got.tolist() for c in row) > 2**63


class TestTwistRows:
    """_twist_rows on whole coefficient matrices against each row's
    exponent map canonicalized anew, with the coefficient types kept."""

    CHOICES = {
        "small": (1, -1, 2, -3),
        "fraction": (Fraction(2, 7), Fraction(-1, 2), 3),
        "huge": (2**70, -2**70, 1),
        "mixed": (Fraction(5, 3), 2**70, -4),
    }

    @pytest.mark.parametrize("m", [7, 997, 27, 128, 45, 105, 120, 1001])
    @pytest.mark.parametrize("kind", sorted(CHOICES))
    def test_rows_match_exponent_map(self, m, kind):
        rng = random.Random(m)
        choices = self.CHOICES[kind]
        rows = []
        while len(rows) < 5:
            x = CyclotomicValue(m, {rng.randrange(m): rng.choice(choices) for _ in range(rng.choice((2, 5, 40)))})
            if x.conductor == m:
                rows.append(x)
        C = _coefficient_matrix([x.coeffs for x in rows])
        assert (C.dtype == np.int64) == (kind == "small")
        units = [t for t in range(-m, m) if math.gcd(t, m) == 1]
        for t in [-1, 1] + rng.sample(units, 3):
            got = _twist_rows(m, C, t)
            assert got.shape == C.shape
            for x, row in zip(rows, got.tolist()):
                want = CyclotomicValue(m, {j * t: c for j, c in x.terms().items()})
                assert tuple(row) == want.coeffs, (m, t, x)
                assert list(map(type, row)) == list(map(type, want.coeffs))

    @pytest.mark.parametrize("t", [-1, 52, 104])
    def test_float_products_stay_below_2_to_53(self, t):
        # reduction_rows(105) holds a 2.  Twisting big*(z - z^2) sends n of
        # the 48 columns through the reduction rows, so the float64 product
        # is exact while 2 n big < 2^53; from there on the twist takes
        # Python numbers, also where the int64 matrix itself fits.
        n = sum(j * t % 105 >= 48 for j in range(48))
        limit = -(-2**53 // (2 * n))
        for big, exact_route in ((limit - 1, False), (limit, True), ((2**63 - 1) // 48, True)):
            x = CyclotomicValue(105, {1: big, 2: -big})
            C = _coefficient_matrix([x.coeffs])
            assert C.dtype == np.int64
            got = _twist_rows(105, C, t)
            assert (got.dtype == object) == exact_route
            assert tuple(got[0].tolist()) == CyclotomicValue(105, {t: big, 2 * t: -big}).coeffs

    def test_coefficient_matrix_detects_non_integers(self):
        # np.array([[1, Fraction(1, 2)]], dtype=np.int64) is [[1, 0]], and
        # 2^63 alone reads as a float.
        assert _coefficient_matrix([(1, Fraction(1, 2))]).tolist() == [[1, Fraction(1, 2)]]
        assert _coefficient_matrix([(1, 2**63)]).tolist() == [[1, 2**63]]
        assert _coefficient_matrix([(1, -2**63)]).dtype == object
        assert _coefficient_matrix([(1, 2), (3, -4)]).dtype == np.int64

    def test_galois_keeps_its_contract(self):
        x = CyclotomicValue(12, {1: Fraction(1, 2), 5: 3})
        with pytest.raises(InputError):
            x.galois(3)
        with pytest.raises(InputError):
            _twist_rows(12, _coefficient_matrix([x.coeffs]), 2)
        r = CyclotomicValue.rational(Fraction(3, 4))
        assert r.galois(6) is r
        assert x.galois(5) == CyclotomicValue(12, {5: Fraction(1, 2), 25: 3})

    def test_prime_conductor_moves_all_but_one_column(self, monkeypatch):
        # At a prime p the exponents j*t, j < p - 1, miss p - 1 exactly once,
        # so one row of reduction_rows(p) is read.
        seen = []
        real = cyclotomic.reduction_rows
        cyclotomic._reduction_bound(1999)  # cached before reduction_rows is wrapped

        class Rows:
            def __getitem__(self, index):
                seen.append(len(index))
                return real(1999)[index]

        monkeypatch.setattr(cyclotomic, "reduction_rows", lambda m: Rows())
        C = np.arange(3 * 1998, dtype=np.int64).reshape(3, 1998)
        _twist_rows(1999, C, 2)
        assert seen == [1]


class TestRationalExtraction:
    def test_rational_value(self):
        assert CyclotomicValue.rational(Fraction(7, 3)).rational_value() == Fraction(7, 3)
        with pytest.raises(DomainError):
            zeta(3).rational_value()

    def test_is_integer(self):
        assert CyclotomicValue.rational(4).is_integer()
        assert not CyclotomicValue.rational(Fraction(1, 2)).is_integer()


class TestJson:
    @given(small_values)
    @settings(max_examples=60)
    def test_round_trip(self, x):
        blob = json.dumps(x.to_json_dict())
        assert CyclotomicValue.from_json_dict(json.loads(blob)) == x

    def test_shape(self):
        d = (zeta(5) + zeta(5, 4)).to_json_dict()
        assert d == {"m": 5, "c": [[-1, 1], [0, 1], [-1, 1], [-1, 1]]}


class TestInputValidation:
    def test_bad_conductor(self):
        with pytest.raises(InputError):
            zeta(0)
        with pytest.raises(InputError):
            CyclotomicValue(-3, {0: 1})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            zeta(3) / 0
        with pytest.raises(DomainError):
            zeta(3) / Fraction(0)
        assert zeta(3) / 2 * 2 == zeta(3)

    def test_sort_key_orders_deterministically(self):
        vals = [zeta(3), zeta(3, 2), CyclotomicValue.rational(1), zeta(5)]
        keys = [v.sort_key() for v in vals]
        assert sorted(keys) == sorted(keys, key=lambda k: k)
        assert len(set(keys)) == len(keys)


class TestLargeCoefficients:
    """Coefficients past int64 take exact Python arithmetic, not a wrapped or failed int64 one."""

    def test_sums_past_int64(self):
        big = 2**62
        # zeta_5^4 = -1 - z - z^2 - z^3, so the constant coordinate is 2^63.
        x = CyclotomicValue(5, {4: -big, 0: big})
        assert x.coeffs == (2 * big, big, big, big)
        assert numeric(x / big) == pytest.approx(numeric(CyclotomicValue(5, {4: -1, 0: 1})))

    def test_coefficients_past_int64(self):
        huge = 2**70
        x = CyclotomicValue(5, {0: huge, 1: 1})
        assert x.coeffs == (huge, 1, 0, 0)
        assert x.galois(2) == CyclotomicValue(5, {0: huge, 2: 1})
        assert (x * x.conjugate()) - huge * huge == huge * (zeta(5) + zeta(5, 4)) + 1


    def test_descent_past_int64(self):
        huge = 2**70
        # Each shape twice: once where a common exponent factor already
        # lowers the conductor, once with exponents prime to m, where only
        # the descent rule can.
        # p || m: zeta_15^5 + zeta_15^10 = zeta_3 + zeta_3^2 = -1, and
        # zeta_15^8 + zeta_15^13 = zeta_5 (zeta_3 + zeta_3^2) = -zeta_5.
        assert CyclotomicValue(15, {5: huge, 10: huge}) == -huge
        x = CyclotomicValue(15, {8: huge, 13: huge})
        assert (x.conductor, x.coeffs) == (5, (0, -huge, 0, 0))
        # p^2 | m: zeta_9 + zeta_9^4 + zeta_9^7 = 0, so the second sum is zeta_9^3 = zeta_3.
        assert CyclotomicValue(9, {3: huge}) == huge * zeta(3)
        x = CyclotomicValue(9, {3: huge, 1: huge, 4: huge, 7: huge})
        assert (x.conductor, x.coeffs) == (3, (0, huge))


class TestEngineInvariants:
    def test_non_exact_division_raises(self):
        assert _polydiv_exact([-1, 0, 1], [-1, 1]) == [1, 1]
        with pytest.raises(EngineInvariantError, match="non-exact polynomial division"):
            _polydiv_exact([1, 0, 1], [-1, 1])

    def test_checks_survive_python_O(self):
        # Under -O the bare assert is stripped; the invariant check must still raise.
        code = (
            "assert False\n"
            "from acdlab.cyclotomic import _polydiv_exact\n"
            "_polydiv_exact([1, 0, 1], [-1, 1])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: non-exact polynomial division"), proc.stderr
