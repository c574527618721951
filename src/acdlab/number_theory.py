"""Elementary number theory used by the exact character engine.

Everything here is deterministic; sizes are small (moduli below ~10**7),
so trial division and deterministic Miller-Rabin are plenty.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List

from .errors import InputError

# Deterministic witness set for 64-bit integers.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> Dict[int, int]:
    """Prime factorization as {prime: multiplicity}."""
    if n < 1:
        raise InputError(f"cannot factorize {n}: need a positive integer")
    out: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> List[int]:
    return sorted(factorize(n))


def divisors(n: int) -> List[int]:
    out = [1]
    for p, a in factorize(n).items():
        out = [d * p**k for d in out for k in range(a + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, a in factorize(n).items():
        phi *= (p - 1) * p ** (a - 1)
    return phi


def p_prime_part(n: int, p: int) -> int:
    """Largest divisor of n coprime to p."""
    while n % p == 0:
        n //= p
    return n


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    a %= n
    if math.gcd(a, n) != 1:
        raise InputError(f"order of {a} mod {n} undefined: not coprime")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


@lru_cache(maxsize=None)
def primitive_root(m: int) -> int:
    """Smallest primitive root mod m, for m in {1, 2, 4, p^k, 2p^k} with p odd."""
    if m in (1, 2):
        return 1
    if m == 4:
        return 3
    fac = factorize(m)
    odd = {p: a for p, a in fac.items() if p != 2}
    if len(odd) != 1 or fac.get(2, 0) > 1:
        raise InputError(f"(Z/{m})* is not cyclic")
    p = next(iter(odd))
    # Smallest primitive root mod p, then lift to p^k (and 2p^k).
    targets = [(p - 1) // r for r in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, t, p) != 1 for t in targets))
    if odd[p] > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    if fac.get(2, 0) == 1 and g % 2 == 0:
        g += p ** odd[p]
    return g


def crt_lift(residues: List[int], moduli: List[int]) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        if math.gcd(m, mi) != 1:
            raise InputError(f"moduli are not pairwise coprime: gcd({m}, {mi}) > 1")
        if m == 1:
            x, m = r % mi, mi
            continue
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m


def unit_group_generators(n: int) -> List[int]:
    """Generators of (Z/n)*, via the CRT decomposition over prime powers.

    Each prime power q || n contributes generators of (Z/q)*, lifted to
    residues that are 1 modulo n/q.
    """
    if n <= 2:
        return []
    gens: List[int] = []
    for p, a in factorize(n).items():
        q = p**a
        if p != 2:
            local = [primitive_root(q)]
        else:
            local = [] if a == 1 else [3] if a == 2 else [q - 1, 5]
        gens += [crt_lift([x, 1], [q, n // q]) for x in local]
    return sorted(gens)
