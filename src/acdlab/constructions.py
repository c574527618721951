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
from .group import FiniteGroup, SubgroupHandle, generate_group
from .number_theory import divisors, is_prime, multiplicative_order


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
            if _det_mod(mat, p) == 0:
                raise ConstructionError(f"matrix {mat} is singular mod {p}")
    elif isinstance(spec, Quaternion8):
        pass
    elif isinstance(spec, DirectProduct):
        validate_spec(spec.left)
        validate_spec(spec.right)
    else:
        raise InputError(f"unknown spec {spec!r}")


def _det_mod(mat: Sequence[Sequence[int]], p: int) -> int:
    n = len(mat)
    rows = [[x % p for x in row] for row in mat]
    det = 1
    for c in range(n):
        sel = next((r for r in range(c, n) if rows[r][c]), None)
        if sel is None:
            return 0
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, n):
            f = rows[r][c] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return det % p


# -- finite field helpers ----------------------------------------------------


def _poly_mul_mod(u: Sequence[int], v: Sequence[int], f: Sequence[int], p: int) -> Tuple[int, ...]:
    a = len(f) - 1
    out = [0] * (2 * a - 1) if a > 1 else [0]
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
    for i in range(len(out) - 1, a - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(a):
                out[i - a + j] = (out[i - a + j] - c * f[j]) % p
    return tuple(out[:a])


def _trial_divides(g: Sequence[int], f: Sequence[int], p: int) -> bool:
    rem = [x % p for x in f]
    dg = len(g) - 1
    while len(rem) - 1 >= dg and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        lead = rem[-1] * pow(g[-1], -1, p) % p
        off = len(rem) - 1 - dg
        for j in range(dg + 1):
            rem[off + j] = (rem[off + j] - lead * g[j]) % p
    return not any(rem)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    a = len(f) - 1
    if a == 1:
        return True
    # Small fields only: trial-divide by every monic polynomial of degree
    # up to a//2.
    for dg in range(1, a // 2 + 1):
        for code in range(p**dg):
            g = _digits(code, p, dg) + (1,)
            if _trial_divides(g, f, p):
                return False
    return True


def _digits(v: int, p: int, a: int) -> Tuple[int, ...]:
    out = []
    for _ in range(a):
        out.append(v % p)
        v //= p
    return tuple(out)


def _field_modulus(p: int, a: int) -> Tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree a over F_p, by the
    integer code of its coefficient vector."""
    for code in range(p**a):
        f = _digits(code, p, a) + (1,)
        if _is_irreducible(f, p):
            return f
    raise EngineInvariantError(f"no monic irreducible polynomial of degree {a} over F_{p}")


def _multiplication_matrix(p: int, a: int, d: int) -> List[Tuple[int, ...]]:
    """The a x a matrix over F_p of multiplication by an element h of order d
    in F_{p^a}: column j holds the coefficients of h * x^j mod f."""
    size = p**a
    f = _field_modulus(p, a)
    elems = [_digits(v, p, a) for v in range(size)]
    mul_order = size - 1
    g_idx = None
    for cand in range(2, size):
        u = elems[cand]
        order, acc = 1, u
        while acc != elems[1]:
            acc = _poly_mul_mod(acc, u, f, p)
            order += 1
        if order == mul_order:
            g_idx = cand
            break
    if g_idx is None:
        raise EngineInvariantError("multiplicative group of a finite field is cyclic")
    h = elems[1]
    for _ in range(mul_order // d):
        h = _poly_mul_mod(h, elems[g_idx], f, p)
    return list(zip(*(_poly_mul_mod(elems[p**j], h, f, p) for j in range(a))))


def _vectors(p: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The p^n vectors of F_p^n as digit rows (point v has the base-p digits
    of v, least significant first), and the place values that number them."""
    digits = np.array([_digits(v, p, n) for v in range(p**n)], dtype=np.int64)
    return digits.reshape(p**n, n), p ** np.arange(n, dtype=np.int64)


def _semidirect_group(p: int, n: int, matrices: Sequence[Sequence[Sequence[int]]],
                      cap: Optional[int]) -> FiniteGroup:
    """F_p^n rtimes <matrices> on the p^n vectors: the n unit translations,
    then one generator per matrix acting on column vectors."""
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
