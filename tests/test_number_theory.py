"""Arithmetic helpers checked against brute-force counterparts."""

import math

import pytest
from hypothesis import given, strategies as st

from acdlab.errors import InputError
from acdlab.number_theory import (
    crt_lift,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    p_prime_part,
    prime_divisors,
    primitive_root,
    unit_group_generators,
)


def brute_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def brute_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestPrimality:
    def test_small_values(self):
        for n in range(0, 500):
            assert is_prime(n) == brute_is_prime(n), n

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(104729)
        assert not is_prime(104729 * 104723)


class TestFactorize:
    def test_known(self):
        assert factorize(1) == {}
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(15500) == {2: 2, 5: 3, 31: 1}

    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstructs(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            factorize(0)


class TestDivisorsAndParts:
    def test_divisors_sorted_complete(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        for n in (30, 36, 97):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_prime_divisors(self):
        assert prime_divisors(1) == []
        assert prime_divisors(60) == [2, 3, 5]

    def test_p_prime_part(self):
        assert p_prime_part(24, 2) == 3
        assert p_prime_part(24, 3) == 8
        assert p_prime_part(24, 5) == 24
        assert p_prime_part(1, 7) == 1


class TestEulerPhi:
    def test_brute(self):
        for n in range(1, 200):
            assert euler_phi(n) == brute_phi(n), n


class TestMultiplicativeOrder:
    def test_known(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6
        assert multiplicative_order(5, 124) == 3

    @given(st.integers(min_value=2, max_value=300))
    def test_definition(self, n):
        # First unit > 1 coprime to n, brute-forced.
        a = next(a for a in range(2, n + 2) if math.gcd(a, n) == 1)
        k = multiplicative_order(a, n)
        assert pow(a, k, n) == 1
        assert all(pow(a, j, n) != 1 for j in range(1, k))

    def test_rejects_non_unit(self):
        with pytest.raises(InputError):
            multiplicative_order(2, 8)


class TestCrtLift:
    def test_known(self):
        assert crt_lift([2, 3], [3, 5]) == 8
        assert crt_lift([1], [7]) == 1

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    def test_reconstruction(self, r1, r2):
        m1, m2 = 9, 25
        x = crt_lift([r1 % m1, r2 % m2], [m1, m2])
        assert 0 <= x < m1 * m2
        assert x % m1 == r1 % m1
        assert x % m2 == r2 % m2

    def test_rejects_common_factor(self):
        with pytest.raises(InputError):
            crt_lift([0, 1], [4, 6])


class TestPrimitiveRoot:
    def test_generates_units(self):
        for p in (3, 5, 7, 11, 13, 31, 127):
            g = primitive_root(p)
            assert multiplicative_order(g, p) == p - 1

    def test_prime_powers(self):
        for m in (9, 25, 27, 49):
            g = primitive_root(m)
            assert multiplicative_order(g, m) == euler_phi(m)


def units(n):
    # Canonical residues mod n, so n = 1 gives {0}.
    return {t % n for t in range(1, n + 1) if math.gcd(t, n) == 1}


def span(n, gens):
    # Subgroup of (Z/n)* generated by gens.
    seen = {1 % n}
    frontier = [1 % n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % n
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class TestUnitGroupGenerators:
    @given(st.integers(min_value=1, max_value=200))
    def test_generate_full_unit_group(self, n):
        assert span(n, unit_group_generators(n)) == units(n)

    @pytest.mark.parametrize("n, gens", [
        (1, []), (2, []), (8, [5, 7]), (15, [7, 11]), (16, [5, 15]), (105, [22, 31, 71]),
    ])
    def test_pinned_generators(self, n, gens):
        # One lift per generator of each (Z/q)*, q a prime power exactly dividing n.
        assert unit_group_generators(n) == gens
