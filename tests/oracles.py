"""Slow, independent reference computations used to cross-check the engine.

Everything here is written from definitions with no shortcuts, so it doubles
as the ground truth for the fast implementations under test.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from acdlab.chartab import CharacterTable, _table_header, galois_conjugate
from acdlab.cyclotomic import CyclotomicValue
from acdlab.group import ClassData, FiniteGroup, SubgroupHandle
from acdlab.linalg_mod import nullspace_mod, rref_mod
from acdlab.number_theory import unit_group_generators


# -- permutations as image tuples: p[i] is the image of point i --------------

Perm = Tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p * q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles(p: Perm) -> List[Perm]:
    """Nontrivial cycles, each starting at its smallest point, sorted by that point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def order_of(p: Perm) -> int:
    """Least n >= 1 with p^n = identity (lcm of cycle lengths)."""
    return math.lcm(1, *map(len, cycles(p)))


def power(p: Perm, k: int) -> Perm:
    """p^k for any integer k, computed cycle-wise."""
    out = list(range(len(p)))
    for cyc in cycles(p):
        for idx, pt in enumerate(cyc):
            out[pt] = cyc[(idx + k) % len(cyc)]
    return tuple(out)


def elements(G: FiniteGroup) -> List[Perm]:
    """Every element of G as an image tuple, in G's element order."""
    return list(map(tuple, G.rows.tolist()))


# -- groups --------------------------------------------------------------------


def _cayley_table(G: FiniteGroup) -> List[List[int]]:
    """Row a, column b holds the index of a*b, composed from the permutations."""
    E = G.rows.astype(np.int64)
    index = {row.tobytes(): i for i, row in enumerate(E)}
    return [[index[row.tobytes()] for row in E[a][E]] for a in range(G.order)]


def _classes_by_definition(mul: List[List[int]]) -> List[List[int]]:
    """Conjugacy classes {g x g^-1 : g in G}, conjugating by every element."""
    n = len(mul)
    inv = [row.index(0) for row in mul]
    done = [False] * n
    classes = []
    for x in range(n):
        if done[x]:
            continue
        cls = sorted({mul[mul[g][x]][inv[g]] for g in range(n)})
        for y in cls:
            done[y] = True
        classes.append(cls)
    return classes


def all_normal_subgroups(G: FiniteGroup) -> List[FrozenSet[int]]:
    """Every normal subgroup, as the lattice join-closure of conjugacy classes.

    A normal subgroup is a union of conjugacy classes and is generated by
    them, so breadth-first joins N -> <N, K> over single classes K reach all
    of them.  For N normal and K a class, <N, K> = N<K> is the closure of N
    under right multiplication by the members of K.
    """
    mul = _cayley_table(G)
    n = len(mul)
    classes = _classes_by_definition(mul)
    trivial = bytearray(n)
    trivial[0] = 1
    seen = {bytes(trivial)}
    frontier = [[0]]
    while frontier:
        members = frontier.pop()
        for K in classes:
            inset = bytearray(n)
            for x in members:
                inset[x] = 1
            if inset[K[0]]:
                continue
            grown = list(members)
            for x in grown:
                row = mul[x]
                for k in K:
                    y = row[k]
                    if not inset[y]:
                        inset[y] = 1
                        grown.append(y)
            key = bytes(inset)
            if key not in seen:
                seen.add(key)
                frontier.append(grown)
    return sorted(
        (frozenset(i for i in range(n) if key[i]) for key in seen),
        key=lambda s: (len(s), sorted(s)),
    )


def p_nilpotent_brute(G: FiniteGroup, p: int) -> bool:
    """Normal p-complement by exhaustive search of the normal subgroup lattice."""
    target = G.order
    while target % p == 0:
        target //= p
    return any(len(N) == target for N in all_normal_subgroups(G))


def subgroup_is_normal_brute(G: FiniteGroup, H: SubgroupHandle) -> bool:
    E = elements(G)
    members = {E[h] for h in H.indices}
    return all(compose(g, compose(h, inverse(g))) in members for h in members for g in E)


def linear_characters_brute(G: FiniteGroup) -> np.ndarray:
    """Every linear character, as exponent rows on the elements.

    Row lambda, column x holds j with lambda(x) = zeta_e^j, e the lcm of
    the element orders.  Every assignment of exponents mod e to the
    generators is tried at once: values are spread along a breadth-first
    tree of the Cayley graph, and an assignment is kept when it is
    consistent along every Cayley edge x -> x a.  Their number must be the
    index of the commutator subgroup, generated from all commutators on
    the same Cayley table.
    """
    mul = np.asarray(_cayley_table(G), dtype=np.int64)
    n = len(mul)
    inv = np.argmin(mul, axis=1)  # the identity, index 0, is each row's minimum
    e = 1
    for x in range(n):
        y, m = x, 1
        while y != 0:
            y, m = mul[y, x], m + 1
        e = math.lcm(e, m)
    gens = list(G.generator_indices)
    tries = np.array(list(itertools.product(range(e), repeat=len(gens))), dtype=np.int64)
    lam = np.zeros((len(tries), n), dtype=np.int64)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i, a in enumerate(gens):
                y = int(mul[x, a])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    lam[:, y] = (lam[:, x] + tries[:, i]) % e
        frontier = nxt
    consistent = np.ones(len(tries), dtype=bool)
    for i, a in enumerate(gens):
        consistent &= ((lam[:, mul[:, a]] - lam - tries[:, [i]]) % e == 0).all(axis=1)
    chars = lam[consistent]

    comm = mul[mul[inv[:, None], inv[None, :]], mul]
    derived = np.unique(comm)
    while True:
        grown = np.unique(mul[np.ix_(derived, derived)])
        if len(grown) == len(derived):
            break
        derived = grown
    assert len(seen) == n
    assert len(chars) == n // len(derived), (len(chars), n, len(derived))
    return chars


def complement_start_by_null_space(J: np.ndarray, e: int, omega: int, q: int) -> np.ndarray:
    """RREF basis mod q of the null space of the conjugated linear characters.

    J holds the linear characters' exponent rows on the classes and omega is
    a primitive e-th root of unity mod q; row lambda of the matrix holds
    omega^(-J[lambda, c]), and the null space and its RREF are taken by
    Gaussian elimination.
    """
    conjugated = np.array([[pow(omega, -int(j) % e, q) for j in row] for row in J], dtype=np.int64)
    return rref_mod(nullspace_mod(conjugated, q), q)[0]


def reduction_rows_by_lists(m: int, top: Sequence[int]) -> np.ndarray:
    """Rows zeta_m^j, j < m, over the power basis of Q(zeta_m), for the
    lower coefficients ``top`` of Phi_m: x^phi = -sum_i top[i] x^i, applied
    to one Python-int row after another.  int64 when every entry is below
    2^60 in absolute value, Python ints otherwise."""
    phi = len(top)
    rows: List[List[int]] = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(cur)
        carry = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if carry:
            nxt = [a - carry * b for a, b in zip(nxt, top)]
        cur = nxt
    big = max(abs(c) for row in rows for c in row)
    return np.array(rows, dtype=np.int64 if big < 2**60 else object)


def power_map(G: FiniteGroup, C: ClassData, k: int) -> Tuple[int, ...]:
    """Map class(g) to class(g^k), each representative's permutation raised on its own."""
    return tuple(C.class_of[G.index_of(power(tuple(G.rows[r].tolist()), k))] for r in C.reps)


def galois_class_orbits(G: FiniteGroup, C: ClassData, e: int) -> List[FrozenSet[int]]:
    """The orbits of the classes under c -> class(g_c^u), u a unit mod the exponent e,
    each read from the power maps of every unit."""
    maps = [power_map(G, C, u) for u in range(1, e + 1) if math.gcd(u, e) == 1]
    return sorted({frozenset(pm[c] for pm in maps) for c in range(C.num_classes)}, key=min)


def galois_cross_check(G: FiniteGroup, T: CharacterTable, all_units: bool = False) -> None:
    """Value-level Galois action agrees with the power-map route.

    Checks sigma_t row by row two ways: sigma applied to each value, and the
    same character read at the class of g^t.  Unit-group generators suffice
    (the identity composes), `all_units` forces the exhaustive loop.
    """
    e = T.exponent
    C = T.classes
    if all_units:
        ts = [t for t in range(1, e + 1) if math.gcd(t, e) == 1]
    else:
        ts = sorted(set(unit_group_generators(e)) | {e - 1 if e > 1 else 1})
    for t in ts:
        pm = power_map(G, C, t)
        twisted = {}  # each distinct value's image under sigma_t, computed once
        for r in range(T.num_chars):
            r2 = galois_conjugate(T, r, t)
            for c in range(C.num_classes):
                v, w = T.value(r2, c), T.value(r, c)
                image = twisted.get(w)
                if image is None:
                    image = twisted[w] = w.galois(t)
                assert v == image
                assert v == T.value(r, pm[c])


Failures = List[Tuple[int, int, CyclotomicValue]]


def orthogonality_failures(T: CharacterTable) -> Tuple[Failures, Failures]:
    """Both orthogonality relations summed from their definition.

    A row pair a <= b must give sum_c |K_c| chi_a(c) conj(chi_b(c)) = |G| delta_ab,
    and a column pair c <= d must give sum_r chi_r(c) conj(chi_r(d)) =
    |C_G(g_c)| delta_cd.  Returns the failing (a, b, sum) triples of the
    rows and of the columns, pairs in row-major order, each sum accumulated
    term by term in CyclotomicValue arithmetic.
    """
    k, order, sizes = T.num_chars, T.group.order, T.classes.sizes

    def failures(vecs: Sequence[Sequence[CyclotomicValue]], weights: Sequence[int],
                 diag: Sequence[int]) -> Failures:
        out = []
        for a in range(k):
            for b in range(a, k):
                total = CyclotomicValue.zero()
                for w, x, y in zip(weights, vecs[a], vecs[b]):
                    total = total + w * x * y.conjugate()
                if total != (diag[a] if a == b else 0):
                    out.append((a, b, total))
        return out

    columns = [[T.value(r, c) for r in range(k)] for c in range(k)]
    return (failures(T.rows, sizes, [order] * k),
            failures(columns, [1] * k, [order // s for s in sizes]))


def table_to_json_dict(T: CharacterTable) -> Dict:
    """The table's JSON form, cell by cell: the header keys and, per row, each
    value's ``to_json_dict``.  ``chartab.table_to_json`` must encode exactly
    this, compact with sorted keys."""
    data = _table_header(T)
    k = T.num_chars
    data["values"] = [[T.value(r, c).to_json_dict() for c in range(k)] for r in range(k)]
    return data


# -- finite fields by polynomial arithmetic ------------------------------------


def det_mod(mat: Sequence[Sequence[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination on Python integers."""
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


def digits(v: int, p: int, a: int) -> Tuple[int, ...]:
    """The a base-p digits of v, least significant first."""
    return tuple(v // p**j % p for j in range(a))


def poly_mul_mod(u: Sequence[int], v: Sequence[int], f: Sequence[int], p: int) -> Tuple[int, ...]:
    """u * v mod the monic f over F_p, coefficients low first."""
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


def trial_divides(g: Sequence[int], f: Sequence[int], p: int) -> bool:
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


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to a // 2."""
    a = len(f) - 1
    return not any(trial_divides(digits(code, p, dg) + (1,), f, p)
                   for dg in range(1, a // 2 + 1) for code in range(p**dg))


def field_modulus(p: int, a: int) -> Tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree a over F_p by code."""
    return next(f for f in (digits(code, p, a) + (1,) for code in range(p**a))
                if is_irreducible(f, p))


def multiplication_matrix(p: int, a: int, d: int) -> List[Tuple[int, ...]]:
    """Multiplication by g^((p^a - 1)/d) in F_p[x]/(f), g the primitive
    element of least code found by counting each candidate's order: column j
    holds h * x^j mod f."""
    size = p**a
    f = field_modulus(p, a)
    one = digits(1, p, a)
    for cand in range(2, size):
        u = digits(cand, p, a)
        order, acc = 1, u
        while acc != one:
            acc = poly_mul_mod(acc, u, f, p)
            order += 1
        if order == size - 1:
            break
    h = one
    for _ in range((size - 1) // d):
        h = poly_mul_mod(h, u, f, p)
    return list(zip(*(poly_mul_mod(digits(p**j, p, a), h, f, p) for j in range(a))))


def nullspace_by_loops(A: np.ndarray, q: int) -> np.ndarray:
    """Right null space basis mod q, one free column at a time."""
    R, pivots = rref_mod(A, q)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(R[i, fc])) % q
    return basis
