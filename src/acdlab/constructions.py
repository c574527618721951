"""Builders for cyclic, dihedral, symmetric/alternating groups, semidirect
products V rtimes H over finite fields or matrix actions, direct products,
and the default audit catalog.

All builders emit permutation groups with deterministic element orderings:
the same spec always produces the same group object contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConstructionError, EngineInvariantError, InputError
from .group import FiniteGroup, SubgroupHandle, check_size, generate_group
from .linalg_mod import rref_mod
from .number_theory import divisors, is_prime, multiplicative_order, prime_divisors


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Dihedral:
    m: int  # half the order; the group is D_2m


@dataclass(frozen=True)
class Symmetric:
    n: int


@dataclass(frozen=True)
class Alternating:
    n: int


@dataclass(frozen=True)
class FieldSemidirect:
    """V rtimes H: V additive group of F_{p^a}, H the order-d subgroup of
    the multiplicative group acting by field multiplication."""

    p: int
    a: int
    d: int


@dataclass(frozen=True)
class MatrixSemidirect:
    """F_p^n rtimes <matrices>, acting on the p^n vectors."""

    p: int
    matrices: Tuple[Tuple[Tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class Quaternion8:
    pass


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[
    Cyclic, Dihedral, Symmetric, Alternating, FieldSemidirect, MatrixSemidirect,
    Quaternion8, DirectProduct,
]


def to_text(spec: GroupSpec) -> str:
    if isinstance(spec, Cyclic):
        return f"C({spec.n})"
    if isinstance(spec, Dihedral):
        return f"D({2 * spec.m})"
    if isinstance(spec, Symmetric):
        return f"S({spec.n})"
    if isinstance(spec, Alternating):
        return f"A({spec.n})"
    if isinstance(spec, FieldSemidirect):
        if spec.a == 1:
            return f"F({spec.p},{spec.d})"
        return f"SD({spec.p},{spec.a},{spec.d})"
    if isinstance(spec, MatrixSemidirect):
        mats = ",".join(
            "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in mat) + "]"
            for mat in spec.matrices
        )
        return f"MAT({spec.p};{mats})"
    if isinstance(spec, Quaternion8):
        return "Q8"
    if isinstance(spec, DirectProduct):
        return f"{to_text(spec.left)}*{to_text(spec.right)}"
    raise InputError(f"unknown spec {spec!r}")


def validate_spec(spec: GroupSpec) -> None:
    """Raise ConstructionError naming the violated constraint, if any."""
    if isinstance(spec, Cyclic):
        if spec.n < 1:
            raise ConstructionError(f"cyclic order must be positive, got {spec.n}")
    elif isinstance(spec, Dihedral):
        if spec.m < 2:
            raise ConstructionError(f"dihedral parameter must be >= 2, got {spec.m}")
    elif isinstance(spec, Symmetric):
        if not 1 <= spec.n <= 6:
            raise ConstructionError(f"symmetric degree must be in 1..6, got {spec.n}")
    elif isinstance(spec, Alternating):
        if not 3 <= spec.n <= 6:
            raise ConstructionError(f"alternating degree must be in 3..6, got {spec.n}")
    elif isinstance(spec, FieldSemidirect):
        p, a, d = spec.p, spec.a, spec.d
        if not is_prime(p):
            raise ConstructionError(f"field characteristic must be prime, got {p}")
        if a < 1 or d < 1:
            raise ConstructionError("field degree and complement order must be positive")
        if (p**a - 1) % d != 0:
            raise ConstructionError(f"complement order must divide p^a - 1: d={d}, p^a={p**a}")
        if d > 1 and multiplicative_order(p, d) != a:
            raise ConstructionError(
                f"module not irreducible: order of {p} mod {d} is "
                f"{multiplicative_order(p, d)}, need {a}"
            )
    elif isinstance(spec, MatrixSemidirect):
        p = spec.p
        if not is_prime(p):
            raise ConstructionError(f"matrix characteristic must be prime, got {p}")
        if not spec.matrices:
            raise ConstructionError("matrix list must be nonempty")
        for mat in spec.matrices:
            if not isinstance(mat, (tuple, list)) or any(
                not isinstance(row, (tuple, list)) for row in mat
            ):
                raise ConstructionError("each matrix must be a list of rows")
        n = len(spec.matrices[0])
        for mat in spec.matrices:
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ConstructionError("matrices must be square and of equal size")
            if len(rref_mod([[x % p for x in row] for row in mat], p)[1]) < n:
                raise ConstructionError(f"matrix {mat} is singular mod {p}")
    elif isinstance(spec, Quaternion8):
        pass
    elif isinstance(spec, DirectProduct):
        validate_spec(spec.left)
        validate_spec(spec.right)
    else:
        raise InputError(f"unknown spec {spec!r}")


# -- finite field helpers ----------------------------------------------------
# F_{p^a} = F_p[x]/(f) is worked in through the a x a companion matrix X of f:
# column j of X holds x * x^j mod f, so u(X) is the matrix of multiplication
# by u on the basis 1, x, ..., x^(a-1), and u(X) = 0 exactly when f | u.


def _mat_pow(M: np.ndarray, n: int, p: int) -> np.ndarray:
    """M^n mod p by squaring.  The int64 products are exact for the field
    builders' matrices: p^a <= MAX_DEGREE keeps a (p - 1)^2 below 2^33."""
    out = np.eye(len(M), dtype=np.int64)
    while n:
        if n & 1:
            out = out @ M % p
        M = M @ M % p
        n >>= 1
    return out


def _companion(low: Sequence[int], p: int) -> np.ndarray:
    """Companion matrix of the monic f with low coefficients ``low``."""
    X = np.eye(len(low), k=-1, dtype=np.int64)
    X[:, -1] = np.negative(low) % p
    return X


def _rabin_irreducible(X: np.ndarray, p: int) -> bool:
    """Rabin's test on the companion matrix X of f, of degree a: f is irreducible
    iff X^(p^a) = X and X^(p^(a/r)) - X is invertible for every prime r | a."""
    a = len(X)
    return np.array_equal(_mat_pow(X, p**a, p), X) and all(
        len(rref_mod(_mat_pow(X, p ** (a // r), p) - X, p)[1]) == a for r in prime_divisors(a))


def _field_modulus(p: int, a: int) -> Tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree a over F_p, by the
    integer code of its coefficient vector."""
    for low in _vectors(p, a)[0].tolist():
        if _rabin_irreducible(_companion(low, p), p):
            return tuple(low) + (1,)
    raise EngineInvariantError(f"no monic irreducible polynomial of degree {a} over F_{p}")


def _multiplication_matrix(p: int, a: int, d: int) -> List[Tuple[int, ...]]:
    """The a x a matrix over F_p of multiplication by h = g^((p^a - 1)/d),
    for g the primitive element of least code: column j holds h * x^j mod f."""
    order = p**a - 1
    X = _companion(_field_modulus(p, a)[:a], p)
    powers = np.array([_mat_pow(X, j, p) for j in range(a)])
    for code in _vectors(p, a)[0][2:]:
        U = np.tensordot(code, powers, 1) % p
        if all(not np.array_equal(_mat_pow(U, order // r, p), powers[0]) for r in prime_divisors(order)):
            return [tuple(row) for row in _mat_pow(U, order // d, p).tolist()]
    raise EngineInvariantError("multiplicative group of a finite field is cyclic")


def _vectors(p: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The p^n vectors of F_p^n as digit rows (point v has the base-p digits
    of v, least significant first), and the place values that number them."""
    powers = p ** np.arange(n, dtype=np.int64)
    return np.arange(p**n, dtype=np.int64)[:, None] // powers % p, powers


def _semidirect_group(p: int, n: int, matrices: Sequence[Sequence[Sequence[int]]],
                      cap: Optional[int]) -> FiniteGroup:
    """F_p^n rtimes <matrices> on the p^n vectors: the n unit translations,
    then one generator per matrix acting on column vectors.  The translations
    alone have order p^n: past the cap or degree limit, nothing is built."""
    check_size(p**n, p**n, cap)
    vecs, powers = _vectors(p, n)
    gens = [(vecs + unit) % p @ powers for unit in np.eye(n, dtype=np.int64)]
    for mat in matrices:
        M = np.array([[x % p for x in row] for row in mat], dtype=np.int64)
        gens.append(vecs @ M.T % p @ powers)
    return generate_group(gens, degree=p**n, cap=cap)


_Q8_I = (2, 3, 1, 0, 7, 6, 4, 5)
_Q8_J = (4, 5, 6, 7, 1, 0, 3, 2)


def build(spec: GroupSpec, cap: Optional[int] = None) -> FiniteGroup:
    """Construct the permutation group described by the spec."""
    validate_spec(spec)
    if isinstance(spec, Cyclic):
        n = spec.n
        return generate_group([tuple((i + 1) % n for i in range(n))], degree=n, cap=cap)
    if isinstance(spec, Dihedral):
        m = spec.m
        if m == 2:
            # Degree-4 faithful model: the natural 2-point action is not faithful.
            return generate_group([(1, 0, 3, 2), (2, 3, 0, 1)], degree=4, cap=cap)
        rot = tuple((i + 1) % m for i in range(m))
        ref = tuple((m - i) % m for i in range(m))
        return generate_group([rot, ref], degree=m, cap=cap)
    if isinstance(spec, Symmetric):
        n = spec.n
        if n == 1:
            return generate_group([(0,)], degree=1, cap=cap)
        cyc = tuple((i + 1) % n for i in range(n))
        swap = tuple([1, 0] + list(range(2, n)))
        return generate_group([swap, cyc], degree=n, cap=cap)
    if isinstance(spec, Alternating):
        n = spec.n
        three = tuple([1, 2, 0] + list(range(3, n)))
        if n == 3:
            return generate_group([three], degree=n, cap=cap)
        if n % 2 == 1:
            big = tuple((i + 1) % n for i in range(n))
        else:
            big = tuple([0] + [1 + (i % (n - 1)) for i in range(1, n)])
        return generate_group([three, big], degree=n, cap=cap)
    if isinstance(spec, FieldSemidirect):
        p, a, d = spec.p, spec.a, spec.d
        check_size(p**a, d * p**a, cap)
        G = _semidirect_group(p, a, [_multiplication_matrix(p, a, d)] if d > 1 else [], cap)
        if G.order != d * p**a:
            raise EngineInvariantError(f"field semidirect product has order {G.order}, not {d * p**a}")
        return G
    if isinstance(spec, MatrixSemidirect):
        return _semidirect_group(spec.p, len(spec.matrices[0]), spec.matrices, cap)
    if isinstance(spec, Quaternion8):
        return generate_group([_Q8_I, _Q8_J], degree=8, cap=cap)
    if isinstance(spec, DirectProduct):
        L = build(spec.left, cap=cap)
        R = build(spec.right, cap=cap)
        dl, dr = L.degree, R.degree
        gens = [g + list(range(dl, dl + dr)) for g in L.rows[list(L.generator_indices)].tolist()]
        gens += [list(range(dl)) + [dl + x for x in g]
                 for g in R.rows[list(R.generator_indices)].tolist()]
        return generate_group(gens, degree=dl + dr, cap=cap)
    raise InputError(f"unknown spec {spec!r}")


def dihedral(p: int) -> FiniteGroup:
    """D_2p for an odd prime p: (p+3)/2 classes, degrees {1,1,2,...,2}."""
    if not is_prime(p) or p == 2:
        raise InputError(f"dihedral wrapper needs an odd prime, got {p}")
    return build(Dihedral(p))


def translation_subgroup(G: FiniteGroup, p: int, a: int) -> SubgroupHandle:
    """The normal module V = (C_p)^a inside a semidirect build acting on p^a points."""
    size = p ** a
    if G.degree != size:
        raise InputError(f"group degree {G.degree} is not {p}^{a}")
    digits, powers = _vectors(p, a)
    perms = ((digits[:, None, :] + digits[None, :, :]) % p) @ powers
    return SubgroupHandle(G, (int(i) for i in G.index_rows(perms)))


# The faithful 2-dimensional S3 action: a rotation of order 3 and a swap.
_S3_ROT = ((0, -1), (1, -1))
_S3_SWAP = ((0, 1), (1, 0))


def _s3_matrix_spec(p: int) -> MatrixSemidirect:
    rot = tuple(tuple(x % p for x in row) for row in _S3_ROT)
    swap = tuple(tuple(x % p for x in row) for row in _S3_SWAP)
    return MatrixSemidirect(p, (rot, swap))


def default_catalog() -> List[GroupSpec]:
    """Deterministic audit corpus; S6/A6 left out for runtime."""
    out: List[GroupSpec] = []
    out.extend(Cyclic(n) for n in range(1, 61))
    out.extend(Dihedral(m) for m in range(2, 26))
    out.extend(Symmetric(n) for n in range(2, 6))
    out.extend(Alternating(n) for n in range(3, 6))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113):
        a = 1
        while p**a <= 125:
            for d in divisors(p**a - 1):
                fs = FieldSemidirect(p, a, d)
                if d == 1 or multiplicative_order(p, d) == a:
                    out.append(fs)
            a += 1
    out.append(_s3_matrix_spec(5))
    out.append(_s3_matrix_spec(7))
    out.append(MatrixSemidirect(2, (((0, 1), (1, 1)),)))
    out.append(DirectProduct(Cyclic(2), Symmetric(3)))
    out.append(DirectProduct(Cyclic(3), Dihedral(5)))
    out.append(Quaternion8())
    return out
