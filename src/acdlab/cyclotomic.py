"""Exact arithmetic in cyclotomic fields, with a canonical minimal form.

A value is stored as a coordinate vector over the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m), where m is the smallest conductor
containing the value (and m is never 2 mod 4, folding Q(zeta_2k)=Q(zeta_k)
for odd k).  Canonicalization makes equality and hashing structural, so
values coming from different computations compare reliably.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, EngineInvariantError, InputError
from .number_theory import divisors, euler_phi, prime_divisors

Rat = Union[int, Fraction]


def _polydiv_exact(num: Sequence[int], den: Sequence[int]) -> List[int]:
    """Divide integer polynomials (lowest-degree first); den monic, exact."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise EngineInvariantError("polynomial divisor must be monic")
    qn = len(num) - 1 - dn
    quot = [0] * (qn + 1)
    for k in range(qn, -1, -1):
        c = num[k + dn]
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if not all(c == 0 for c in num):
        raise EngineInvariantError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> Tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    if m < 1:
        raise InputError(f"conductor must be >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m)[:-1]:
        poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def reduction_rows(m: int) -> np.ndarray:
    """Matrix (m x phi(m)) whose row j gives zeta_m^j over the power basis,
    int64 unless an entry reaches 2^60.  Row j + 1 is row j shifted up one
    power, less its last entry times Phi_m's lower coefficients; a bound on
    the entries, grown by |carry| max|coefficient| per row, moves the rows
    to Python ints before int64 arithmetic could overflow."""
    phi = euler_phi(m)
    top = np.array(cyclotomic_poly(m)[:phi])
    step = int(np.abs(top).max())
    out = np.eye(m, phi, dtype=np.int64)
    bound = 1
    for j in range(phi, m):
        carry = int(out[j - 1, -1])
        out[j, 1:] = out[j - 1, :-1]
        if carry:
            bound += abs(carry) * step
            if bound >= 2**60 and out.dtype == np.int64:
                out, top = out.astype(object), top.astype(object)
            out[j] -= carry * top
    if out.dtype == object and int(np.abs(out).max()) < 2**60:
        out = out.astype(np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _reduction_bound(m: int) -> int:
    """The largest absolute entry of ``reduction_rows(m)``, at least 1."""
    return max(1, int(np.abs(reduction_rows(m)).max()))


def _as_rat(x: Rat) -> Rat:
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, (int, np.integer)):
        return int(x)
    raise InputError(f"coefficients must be integers or Fractions, got {type(x).__name__}")


def _operands(m: int, M: np.ndarray, coeffs: Sequence[Rat]) -> Tuple[np.ndarray, np.ndarray]:
    """coeffs and rows M of ``reduction_rows(m)`` as arrays of one dtype: int64
    when no partial sum of ``coeffs @ M`` can leave int64, Python objects otherwise."""
    if (M.dtype == np.int64 and all(type(c) is int for c in coeffs)
            and sum(map(abs, coeffs)) * _reduction_bound(m) < 2**63):
        return np.array(coeffs, dtype=np.int64), M
    return np.array(coeffs, dtype=object), M.astype(object)


def _reduce_terms(m: int, terms: Dict[int, int]) -> List[int]:
    """Coordinates of sum(c * zeta_m^j) over the conductor-m power basis: the
    rows of ``reduction_rows(m)`` at the exponents present, summed exactly."""
    c, M = _operands(m, reduction_rows(m)[list(terms)], list(terms.values()))
    return (c @ M).tolist()


def _coefficient_matrix(rows: Sequence[Sequence[Rat]]) -> np.ndarray:
    """Equal-length coefficient rows as one matrix: int64 when every
    coefficient is an int and no row's l1 norm leaves int64, Python objects
    otherwise.  numpy reads a Fraction as an object and an int past int64 as
    a float or an object, so the dtype it picks tells them apart without a
    Python pass over the coefficients."""
    A = np.array(rows)
    if A.dtype == np.int64:
        bound = (2**63 - 1) // max(1, A.shape[1])
        if -bound <= A.min(initial=0) and A.max(initial=0) <= bound:
            return A
    return np.array(rows, dtype=object)


def _twist_rows(m: int, C: np.ndarray, t: int) -> np.ndarray:
    """sigma_t: zeta_m -> zeta_m^t on every row of C, a matrix of coordinates
    over the conductor-m power basis as ``_coefficient_matrix`` makes it.

    Coordinate j goes to exponent j*t mod m.  Below phi(m) that exponent is
    a coordinate, and the column just moves; the other columns are
    multiplied by the rows of ``reduction_rows(m)`` at their exponents (one
    column at a prime m).  That product runs in float64, on BLAS, when every
    partial sum is an integer below 2^53, so it is exact; in Python numbers
    otherwise.  Rows with fractions are twisted times their common
    denominators, in integers, and divided by them after.  A value at its
    minimal conductor keeps it under sigma_t, so there is no re-descent."""
    if gcd(t, m) != 1:
        raise InputError(f"galois exponent {t} is not a unit mod {m}")
    if C.dtype == object:
        d = [lcm(*(c.denominator for c in row)) for row in C.tolist()]
        if max(d, default=1) > 1:
            X = _coefficient_matrix([[c.numerator * (n // c.denominator) for c in row]
                                     for row, n in zip(C.tolist(), d)])
            divide = np.frompyfunc(lambda y, n: _as_rat(Fraction(y, n)), 2, 1)
            return divide(_twist_rows(m, X, t).astype(object), np.array(d, dtype=object)[:, None])
    to = np.arange(C.shape[1]) * (t % m) % m
    stay = to < C.shape[1]
    out = np.zeros_like(C)
    out[:, to[stay]] = C[:, stay]
    if stay.all():
        return out
    X, R = C[:, ~stay], reduction_rows(m)[to[~stay]]
    if (C.dtype == R.dtype == np.int64
            and max(-int(X.min()), int(X.max())) * _reduction_bound(m) * X.shape[1] < 2**53):
        return out + (X.astype(np.float64) @ R.astype(np.float64)).astype(np.int64)
    out = out.astype(object) + X.astype(object) @ R.astype(object)
    return np.frompyfunc(_as_rat, 1, 1)(out)


def _canonical(m: int, raw: Mapping[int, Rat]) -> Tuple[int, Tuple[Rat, ...]]:
    """Reduce an exponent->coefficient sum at conductor m to canonical form."""
    if not isinstance(m, int) or m < 1:
        raise InputError(f"conductor must be a positive integer, got {m!r}")
    terms: Dict[int, Rat] = {}
    for j, c in raw.items():
        c = _as_rat(c)
        if c == 0:
            continue
        j = int(j) % m
        acc = terms.get(j, 0) + c
        if acc == 0:
            terms.pop(j, None)
        else:
            terms[j] = _as_rat(acc)
    if not terms:
        return 1, (0,)

    # Fold conductors 2 mod 4 (zeta_2k = -zeta_k for odd k) and common
    # exponent factors; iterate until stable.
    while True:
        if m % 4 == 2:
            half = m // 2
            folded: Dict[int, Rat] = {}
            for j, c in terms.items():
                if j % 2 == 0:
                    jj, cc = j // 2, c
                else:
                    jj, cc = ((j + half) % m) // 2, -c
                acc = folded.get(jj, 0) + cc
                if acc == 0:
                    folded.pop(jj, None)
                else:
                    folded[jj] = _as_rat(acc)
            m, terms = half, folded
            if not terms:
                return 1, (0,)
            continue
        g = m
        for j in terms:
            g = gcd(g, j)
        if g > 1:
            m = m // g
            terms = {j // g: c for j, c in terms.items()}
            continue
        break

    if m == 1:
        return 1, (terms[0],)
    # The coordinates and the descent tests below are linear in the terms, so
    # they run on the terms times their common denominator d, in integers,
    # and are divided by d after.
    d = lcm(*(c.denominator for c in terms.values()))
    scaled = _reduce_terms(m, terms if d == 1 else
                           {j: c.numerator * (d // c.denominator) for j, c in terms.items()})
    v = scaled if d == 1 else [_as_rat(Fraction(x, d)) for x in scaled]
    if all(c == 0 for c in v[1:]):
        return 1, (v[0],)
    if len(terms) == 1:
        # A single term c*zeta_m^j with gcd(j, m) = 1 generates Q(zeta_m).
        return m, tuple(v)

    # Descend to Q(zeta_{m/p}) when the value lies there.  For p^2 | m,
    # Phi_m(x) = Phi_{m/p}(x^p): the value lies there iff its coordinates off
    # the multiples of p vanish.  For p || m, zeta_m = zeta_n^u * zeta_p^w
    # (n = m/p, u = 1/p mod n, w = 1/n mod p) splits the value as
    # sum_b Y_b zeta_p^b with Y_b in Q(zeta_n); as zeta_p, ..., zeta_p^(p-1)
    # is a basis over Q(zeta_n), it lies there iff Y_1 = ... = Y_(p-1), and
    # then equals Y_0 - Y_1.
    for p in prime_divisors(m):
        n = m // p
        if n % p == 0:
            if not any(c for j, c in enumerate(v) if j % p):
                return _canonical(n, dict(enumerate(v[::p])))
        elif n > 1:  # n = 1 is the rational case above
            j = np.arange(len(v))
            c, R = _operands(n, reduction_rows(n)[j * pow(p, -1, n) % n], scaled)
            Y = np.zeros((p, R.shape[1]), dtype=c.dtype)
            np.add.at(Y, j * pow(n, -1, p) % p, c[:, None] * R)
            if (Y[2:] == Y[1]).all():
                diff = (Y[0] - Y[1]).tolist()
                if d > 1:
                    diff = [_as_rat(Fraction(y, d)) for y in diff]
                return _canonical(n, dict(enumerate(diff)))
    return m, tuple(v)


class CyclotomicValue:
    """An element of some Q(zeta_m), stored in canonical minimal form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, terms: Mapping[int, Rat]):
        m, coeffs = _canonical(conductor, terms)
        object.__setattr__(self, "conductor", m)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, conductor: int, coeffs: Tuple[Rat, ...]) -> "CyclotomicValue":
        val = object.__new__(cls)
        object.__setattr__(val, "conductor", conductor)
        object.__setattr__(val, "coeffs", coeffs)
        object.__setattr__(val, "_hash", None)
        return val

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicValue is immutable")

    @classmethod
    def rational(cls, x: Rat) -> "CyclotomicValue":
        return cls._raw(1, (_as_rat(x),))

    @classmethod
    def zero(cls) -> "CyclotomicValue":
        return cls._raw(1, (0,))

    # -- structure -----------------------------------------------------

    def terms(self) -> Dict[int, Rat]:
        """Exponent -> coefficient form over the conductor's power basis."""
        return {j: c for j, c in enumerate(self.coeffs) if c != 0}

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def is_integer(self) -> bool:
        return self.conductor == 1 and isinstance(self.coeffs[0], int)

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise DomainError(f"value has conductor {self.conductor}, not rational")
        return Fraction(self.coeffs[0])

    def is_real(self) -> bool:
        return self == self.conjugate()

    # -- Galois action ---------------------------------------------------

    def galois(self, t: int) -> "CyclotomicValue":
        """Image under zeta_m -> zeta_m^t; t must be a unit mod the conductor.

        The coordinate row is twisted by ``_twist_rows``, the routine that
        table readers run on whole coefficient matrices."""
        m = self.conductor
        if m == 1:
            return self
        v = _twist_rows(m, _coefficient_matrix([self.coeffs]), t)[0]
        return CyclotomicValue._raw(m, tuple(v.tolist()))

    def conjugate(self) -> "CyclotomicValue":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x: Number) -> "CyclotomicValue":
        if isinstance(x, CyclotomicValue):
            return x
        return CyclotomicValue.rational(_as_rat(x))

    def __add__(self, other: "Number") -> "CyclotomicValue":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            c0 = _as_rat(self.coeffs[0] + other)
            if self.conductor == 1:
                return CyclotomicValue._raw(1, (c0,))
            return CyclotomicValue._raw(self.conductor, (c0,) + self.coeffs[1:])
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        L = lcm(self.conductor, other.conductor)
        s1, s2 = L // self.conductor, L // other.conductor
        merged: Dict[int, Rat] = {j * s1 % L: c for j, c in self.terms().items()}
        for j, c in other.terms().items():
            k = j * s2 % L
            merged[k] = merged.get(k, 0) + c
        return CyclotomicValue(L, merged)

    def __radd__(self, other: "Number") -> "CyclotomicValue":
        return self.__add__(other)

    def __neg__(self) -> "CyclotomicValue":
        return CyclotomicValue._raw(self.conductor, tuple(_as_rat(-c) for c in self.coeffs))

    def __sub__(self, other: "Number") -> "CyclotomicValue":
        o = self._coerce(other)
        return self.__add__(-o)

    def __rsub__(self, other: "Number") -> "CyclotomicValue":
        return (-self).__add__(other)

    def __mul__(self, other: "Number") -> "CyclotomicValue":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return CyclotomicValue.zero()
            return CyclotomicValue._raw(
                self.conductor, tuple(_as_rat(c * other) for c in self.coeffs)
            )
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        L = lcm(self.conductor, other.conductor)
        s1, s2 = L // self.conductor, L // other.conductor
        prod: Dict[int, Rat] = {}
        t2 = other.terms()
        for j1, c1 in self.terms().items():
            for j2, c2 in t2.items():
                k = (j1 * s1 + j2 * s2) % L
                prod[k] = prod.get(k, 0) + c1 * c2
        return CyclotomicValue(L, prod)

    def __rmul__(self, other: "Number") -> "CyclotomicValue":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "CyclotomicValue":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = CyclotomicValue.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other: Rat) -> "CyclotomicValue":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise DomainError("division of a cyclotomic value by zero")
        return self.__mul__(Fraction(1, 1) / other)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- comparison and encoding -----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicValue):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # Rational values hash like their plain number, matching __eq__.
            h = hash(self.coeffs[0]) if self.conductor == 1 else hash((self.conductor, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> Tuple:
        # int and Fraction coefficients compare exactly with each other.
        return (self.conductor, self.coeffs)

    def to_json_dict(self) -> Dict:
        return {
            "m": self.conductor,
            "c": [[c, 1] if isinstance(c, int) else [c.numerator, c.denominator]
                  for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CyclotomicValue":
        coeffs = {j: Fraction(n, d) for j, (n, d) in enumerate(data["c"])}
        return cls(int(data["m"]), coeffs)

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts: List[str] = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = c if c > 0 else -c
            base = f"z{self.conductor}^{j}" if j > 1 else ("1" if j == 0 else f"z{self.conductor}")
            if base == "1":
                body = str(mag)
            elif mag == 1:
                body = base
            else:
                body = f"{mag}*{base}"
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self) -> str:
        if self.conductor == 1:
            return f"CyclotomicValue.rational({self.coeffs[0]!r})"
        return f"CyclotomicValue({self.conductor}, {self.terms()!r})"


Number = Union[int, Fraction, CyclotomicValue]


def zeta(m: int, j: int = 1) -> CyclotomicValue:
    """The root of unity zeta_m^j."""
    return CyclotomicValue(m, {j: 1})
