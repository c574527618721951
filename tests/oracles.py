"""Slow, independent reference computations used to cross-check the engine.

Everything here is written from definitions with no shortcuts, so it doubles
as the ground truth for the fast implementations under test.
"""

from __future__ import annotations

import itertools
import math
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from acdlab.chartab import CharacterTable, galois_conjugate
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
