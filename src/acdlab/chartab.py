"""Exact complex character tables via modular class-algebra eigenvectors.

The pipeline works over a prime field F_q (q = 1 mod the group exponent,
q^2 > 4|G|).  The linear characters are read off G/G' as exact exponent
rows (``linear_characters``).  The other central characters span the
vectors that sum to 0 over each coset of G' (first orthogonality), a space
whose reduced basis is written down directly (``_complement_start``).  Only
that complement is split into one-dimensional common eigenspaces of the
class matrices, taken smallest class first, so an abelian group builds no
class matrix.  Degrees come from the second orthogonality relation.  The
nonlinear values are lifted to exact cyclotomic numbers through the
root-of-unity multiplicity transform at the order m of a class
representative g, once per Galois orbit of classes: the class of g^u, u a
unit mod m, takes the representative's multiplicity rows with their columns
permuted by j -> j u^-1.  The finished table is checked once: each distinct
value, reduced mod q, must give back the modular table.  All arithmetic is
integer-exact: every dense product mod q, in the split, the lift and the
orthogonality check, goes through ``linalg_mod.matmul_mod``, whose float64
sums only ever hold integers below 2^53.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import CyclotomicValue, Rat, _coefficient_matrix, _twist_rows
from .errors import DomainError, EngineInvariantError, InputError
from .group import (
    ClassData,
    FiniteGroup,
    SubgroupHandle,
    _chunk_rows,
    conjugacy_classes,
    derived_subgroup,
    exponent,
)
from .linalg_mod import (
    charpoly_mod,
    left_eigenspaces_mod,
    matmul_mod,
    nullspace_mod,
    poly_roots_mod,
    rref_mod,
    sqrt_mod,
)
from .number_theory import is_prime, multiplicative_order, primitive_root, unit_group_generators


def choose_conductor_prime(exp: int, order: int) -> int:
    """Smallest prime q = 1 (mod exp) with q^2 > 4*order.

    The size bound makes square roots of degrees unique in F_q; the congruence
    makes F_q contain all needed roots of unity.  Such q never divides the
    group order: an element of order q would force q | exp.
    """
    if exp < 1 or order < 1:
        raise InputError("exponent and order must be positive")
    q = exp + 1 if exp > 1 else 2
    while True:
        if q * q > 4 * order and is_prime(q):
            if order % q == 0:
                raise EngineInvariantError(f"conductor prime {q} divides the group order {order}")
            return q
        q += exp


def class_matrix(G: FiniteGroup, C: ClassData, i: int) -> np.ndarray:
    """Matrix N with N[j, k] = #{x in class i : x^(-1) * rep_k lies in class j}.

    These counts are the structure constants of the class algebra: the
    products K_i K_j = sum_k N[j, k] K_k written against fixed class sums.
    """
    k = C.num_classes
    inv = G.inverse_table()
    E = G.rows
    xinv_rows = E[[inv[x] for x in C.members[i]]]
    class_of = np.asarray(C.class_of, dtype=np.int64)
    N = np.zeros((k, k), dtype=np.int64)
    for kk, z in enumerate(C.reps):
        prod_rows = xinv_rows[:, E[z]]
        classes = class_of[G.index_rows(prod_rows)]
        N[:, kk] = np.bincount(classes, minlength=k)
    return N


def linear_characters(G: FiniteGroup, C: ClassData, e: int) -> np.ndarray:
    """Exponent rows J of the linear characters: lambda(g_c) = zeta_e^J[lambda, c].

    The linear characters are those of the abelian group G/G'.  Its cosets
    are labelled along the cyclic series <a_1> <= <a_1, a_2> <= ... of the
    generators' images.  If a^n is the first power of the next generator a
    in the part labelled so far, the cosets r a^s (r labelled, 0 < s < n)
    are new and get the labels s |part| + r.  Each character lambda of the
    part extends to n characters, with lambda(a) = (lambda(a^n) + t e) / n
    for t < n.  Checked: each lambda is a homomorphism on every coset x
    generator pair, and there are exactly |G:G'| distinct lambda.
    """
    E = G.rows
    D = np.asarray(derived_subgroup(G).indices, dtype=np.int64)
    index = G.order // len(D)
    coset_of = np.full(G.order, -1, dtype=np.int64)
    coset_of[D] = 0
    ED = E[D]
    per_chunk = max(1, _chunk_rows(G.degree) // len(D))  # representatives
    reps = np.zeros(1, dtype=np.int64)  # coset c is reps[c] G'
    J = np.zeros((1, 1), dtype=np.int64)  # J[lambda, c]: exponent of lambda on coset c
    orders = G.orders()
    for a in G.generator_indices:
        pw = np.asarray(G.powers(a, orders[a] + 1))
        n = 1 + int(np.argmax(coset_of[pw[1:]] >= 0))
        if n == 1:
            continue
        S = len(reps)
        new = G.index_rows(E[reps][:, E[pw[1:n]]].transpose(1, 0, 2).reshape(-1, G.degree))
        # The new cosets are labelled one chunk of representatives at a
        # time, so their members' rows stay near 64 k entries.
        labels = np.arange(S, S * n)
        for b in range(0, len(new), per_chunk):
            members = G.index_rows(E[new[b:b + per_chunk]][:, ED].reshape(-1, G.degree))
            if (coset_of[members] >= 0).any():
                raise EngineInvariantError("new cosets of the derived subgroup must be disjoint from the old")
            coset_of[members] = np.repeat(labels[b:b + per_chunk], len(D))
        reps = np.concatenate([reps, new])
        base = J[:, coset_of[pw[n]]]
        if (base % n).any():
            raise EngineInvariantError("a linear character must have an n-th root at a^n")
        roots = (base[:, None] + e * np.arange(n)) // n  # lambda(a), per lambda and t
        steps = np.arange(n)[:, None] * roots[:, :, None, None]  # s * lambda(a)
        J = ((J[:, None, None, :] + steps) % e).reshape(len(J) * n, S * n)
    if len(reps) != index or (coset_of < 0).any():
        raise EngineInvariantError("the generators' images must reach every coset of the derived subgroup")
    for a in G.generator_indices:
        image = coset_of[G.index_rows(E[reps][:, E[a]])]
        if ((J[:, image] - J - J[:, [coset_of[a]]]) % e).any():
            raise EngineInvariantError("a linear character must be a homomorphism on G/G'")
    Jc = J[:, coset_of[list(C.reps)]]
    if len(set(map(bytes, Jc))) != index:
        raise EngineInvariantError(f"there must be exactly |G:G'| = {index} distinct linear characters")
    return Jc


@dataclass(frozen=True)
class ModTable:
    """Character data over F_q: the linear characters as exponent rows, then
    the split's characters, values mod q, in eigenspace-refinement order."""

    q: int
    exponent: int
    omega_root: int  # fixed primitive exponent-th root of unity mod q
    degrees: Tuple[int, ...]
    chi: np.ndarray  # values mod q of the nonlinear characters, (k - len(linear)) x k
    linear: np.ndarray  # exponent rows: lambda_r(g_c) = omega_root^linear[r, c]


def _split_eigenspaces(G: FiniteGroup, C: ClassData, q: int, start: np.ndarray) -> List[np.ndarray]:
    """Common eigenvectors (as normalized rows) of all class matrices mod q
    inside the row space of ``start``, an RREF basis spanned by some of them.

    Dixon's method (Numer. Math. 10, 1967) as refined by Schneider (J. Symb.
    Comput. 9, 1990): the class matrices commute, so restricting one after
    another to the eigenspaces found so far splits the start space into
    one-dimensional common eigenspaces, its central characters.  The table
    starts from the complement of the linear characters; a start space of
    one row needs no class matrix.  A class matrix costs one product per
    member and class, so the classes are taken by size, smallest first
    (ties in class order), as Schneider chooses them by cost; the split's
    rows come out in that refinement order.  Each restriction B is split by
    ``left_eigenspaces_mod`` in one block Krylov pass; ``nullspace_mod``
    runs only for a root whose block fell short.  Every split is checked:
    the subspace is invariant, the eigenspaces stay independent and fill it
    (B is diagonalizable), and each final row is 1 on the identity class.
    """
    spaces: List[Tuple[np.ndarray, List[int]]] = [(start, (start != 0).argmax(axis=1).tolist())]
    by_size = iter((1 + np.argsort(C.sizes[1:], kind="stable")).tolist())
    while any(W.shape[0] > 1 for W, _ in spaces):
        i = next(by_size, None)
        if i is None:
            raise EngineInvariantError("class matrices must jointly separate the eigenvectors")
        NT = class_matrix(G, C, i).T % q
        nxt: List[Tuple[np.ndarray, List[int]]] = []
        for W, piv in spaces:
            s = W.shape[0]
            if s == 1:
                nxt.append((W, piv))
                continue
            img = matmul_mod(W, NT, q)
            B = img[:, piv]
            if not np.array_equal(matmul_mod(B, W, q), img):
                raise EngineInvariantError("subspace must be invariant")
            f = charpoly_mod(B, q)
            roots = poly_roots_mod(f, q)
            if len(roots) <= 1:
                nxt.append((W, piv))
                continue
            total = 0
            for lam, U in zip(roots, left_eigenspaces_mod(B, f, roots, q)):
                if U is None:
                    U = nullspace_mod((B.T - lam * np.eye(s, dtype=np.int64)) % q, q)
                t = U.shape[0]
                if t < 1:
                    raise EngineInvariantError("an eigenvalue root must have an eigenvector")
                Wn, pivn = rref_mod(matmul_mod(U, W, q), q)
                if Wn.shape[0] != t:
                    raise EngineInvariantError("eigenvectors must stay independent in the subspace")
                nxt.append((Wn, list(pivn)))
                total += t
            if total != s:
                raise EngineInvariantError("restriction must be diagonalizable over F_q")
        spaces = nxt
    out = []
    for W, piv in spaces:
        if not (piv[0] == 0 and W[0, 0] == 1):
            raise EngineInvariantError("central character must be 1 on the identity class")
        out.append(W[0])
    return out


def _omega(q: int, e: int) -> int:
    """The fixed primitive e-th root of unity mod q, for e | q - 1: a
    primitive root's power."""
    return pow(primitive_root(q), (q - 1) // e, q)


def _root_powers(omega: int, e: int, q: int) -> np.ndarray:
    """omega^j mod q for j < e, by doubling."""
    out = np.ones(e, dtype=np.int64)
    n = 1
    while n < e:
        out[n:2 * n] = out[:min(n, e - n)] * pow(omega, n, q) % q
        n *= 2
    return out


def _complement_start(J: np.ndarray, q: int) -> np.ndarray:
    """RREF basis mod q of the vectors over the classes that sum to 0 over
    every coset of G', for the exponent rows J of the linear characters.

    Each coset is a union of classes, and the linear characters separate the
    cosets, so two classes share a coset exactly when their columns of J are
    equal.  For a coset's classes c_0 < ... < c_r the rows e_(c_i) - e_(c_r),
    i < r, have their pivots at c_i and meet no other pivot column; ordered
    by pivot they are the space's one RREF basis.
    """
    k = J.shape[1]
    labels: Dict[bytes, int] = {}
    columns = map(bytes, np.ascontiguousarray(J.T))
    coset = np.array([labels.setdefault(col, len(labels)) for col in columns])
    if len(labels) != len(J):
        raise EngineInvariantError(
            f"the linear characters must separate |G:G'| = {len(J)} cosets, not {len(labels)}")
    last = np.zeros(len(J), dtype=np.int64)
    np.maximum.at(last, coset, np.arange(k))
    pivots = np.flatnonzero(np.arange(k) != last[coset])
    start = np.zeros((len(pivots), k), dtype=np.int64)
    rows = np.arange(len(pivots))
    start[rows, pivots] = 1
    start[rows, last[coset[pivots]]] = q - 1
    return start


def compute_mod_table(G: FiniteGroup) -> ModTable:
    C = conjugacy_classes(G)
    e = exponent(G)
    q = choose_conductor_prime(e, G.order)
    k = C.num_classes

    omega_root = _omega(q, e)
    if multiplicative_order(omega_root, q) != e:
        raise EngineInvariantError(f"omega root must have order {e} mod {q}")

    J = linear_characters(G, C, e)
    n_lin = len(J)
    degrees = [1] * n_lin
    chi = np.zeros((0, k), dtype=np.int64)
    if n_lin < k:
        # First orthogonality: sum_c omega_chi(K_c) conj(lambda(g_c)) = 0 for
        # every nonlinear chi and linear lambda.  The linear characters are
        # those of G/G', whose table is invertible, so the nonlinear central
        # characters span the vectors summing to 0 over each coset of G'.
        chi = np.stack(_split_eigenspaces(G, C, q, _complement_start(J, q)))
        if chi.shape != (k - n_lin, k):
            raise EngineInvariantError(f"split gave {chi.shape[0]} central characters, not {k - n_lin}")

        # The norms sum_c omega(K_c) omega(K_c') / |K_c|, c' the inverse
        # class, then chi = omega(K_c) chi(1) / |K_c|, in place.
        inv_sizes = np.array([pow(int(s), -1, q) for s in C.sizes], dtype=np.int64)
        summand = chi[:, list(C.inverse_class)]
        summand *= chi
        summand %= q
        summand *= inv_sizes
        summand %= q
        bound = isqrt(G.order)
        for sr in (summand.sum(axis=1) % q).tolist():
            if sr == 0:
                raise EngineInvariantError("a central character must have a nonzero norm")
            d2 = (G.order * pow(sr, -1, q)) % q
            try:
                d = sqrt_mod(d2, q)
            except DomainError as exc:
                raise EngineInvariantError(f"degree square {d2} is not a square mod {q}") from exc
            d = min(d, q - d)
            if not (1 <= d <= bound and (d * d) % q == d2):
                raise EngineInvariantError(f"no degree in [1, {bound}] squares to {d2} mod {q}")
            if d == 1:
                raise EngineInvariantError("the degree-1 rows must be exactly the linear characters")
            degrees.append(d)
        chi *= inv_sizes
        chi %= q
        chi *= np.asarray(degrees[n_lin:], dtype=np.int64)[:, None]
        chi %= q
        if chi[:, 0].tolist() != degrees[n_lin:]:
            raise EngineInvariantError("characters must take their degree on the identity class")
    if sum(d * d for d in degrees) != G.order:
        raise EngineInvariantError("degree squares must sum to the order")
    return ModTable(q=q, exponent=e, omega_root=omega_root, degrees=tuple(degrees), chi=chi, linear=J)


@dataclass(frozen=True, eq=False, init=False)
class CharacterTable:
    """Exact irreducible character table; row 0 is the trivial character.

    Rows are sorted by degree and then by value columns; columns follow the
    conjugacy class order of the group (identity class first).  ``values``
    holds the distinct values in first-seen order, and ``ids``, a read-only
    k x k int32 matrix, each cell's position there.
    """

    group: FiniteGroup
    classes: ClassData
    exponent: int
    degrees: Tuple[int, ...]
    values: Tuple[CyclotomicValue, ...]
    ids: np.ndarray

    def __init__(self, group: FiniteGroup, classes: ClassData, exponent: int, degrees: Tuple[int, ...],
                 values: Sequence[CyclotomicValue] = (), ids: Optional[np.ndarray] = None,
                 rows: Optional[Sequence[Sequence[CyclotomicValue]]] = None):
        """A k x k grid ``rows`` replaces ``values`` and ``ids``: its cells are
        grouped by object identity, and one cell per object is hashed."""
        k = len(degrees)
        if rows is not None:
            if len(rows) != k or any(len(row) != k for row in rows):
                raise InputError(f"table rows must form a {k} x {k} grid")
            cells = list(chain.from_iterable(rows))
            objects = dict(zip(map(id, cells), cells))
            interned: Dict[CyclotomicValue, int] = {}
            of_object = {i: interned.setdefault(v, len(interned)) for i, v in objects.items()}
            values = tuple(interned)
            ids = np.fromiter(map(of_object.__getitem__, map(id, cells)), np.int32, k * k).reshape(k, k)
        ids = np.asarray(ids)
        if ids.shape != (k, k) or ids.dtype.kind not in "iu":
            raise InputError(f"value ids must be a {k} x {k} integer matrix, not {ids.dtype} {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(values)):
            raise InputError(f"value ids must lie in [0, {len(values)})")
        ids = ids.astype(np.int32, copy=False).view()  # an int32 matrix is not copied
        ids.setflags(write=False)
        for name, field in (("group", group), ("classes", classes), ("exponent", exponent),
                            ("degrees", tuple(degrees)), ("values", tuple(values)), ("ids", ids)):
            object.__setattr__(self, name, field)

    @property
    def num_chars(self) -> int:
        return len(self.ids)

    def value(self, char: int, cls: int) -> CyclotomicValue:
        return self.values[self.ids[char, cls]]

    @cached_property
    def rows(self) -> Tuple[Tuple[CyclotomicValue, ...], ...]:
        """The k x k grid of values, built on first use; no engine path reads it."""
        objects = np.fromiter(self.values, dtype=object, count=len(self.values))
        return tuple(map(tuple, objects[self.ids].tolist()))

    @cached_property
    def conductor_blocks(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per conductor m of the distinct values, their ids (ascending) and
        their coordinate matrix over the conductor-m power basis, one row per
        id: int64 when every coefficient is an int that fits, Python objects
        otherwise (``cyclotomic._coefficient_matrix``).

        The Galois maps, the real rows and the modular orthogonality marks
        work on these matrices, a conductor at a time.
        """
        by_conductor: Dict[int, List[int]] = {}
        for i, v in enumerate(self.values):
            by_conductor.setdefault(v.conductor, []).append(i)
        return {m: (np.array(ids), _coefficient_matrix([self.values[i].coeffs for i in ids]))
                for m, ids in by_conductor.items()}

    @cached_property
    def row_conductors(self) -> Tuple[int, ...]:
        """Per row, the lcm of its values' conductors.

        Values sit at their minimal conductor, so a row has its values in
        Q(zeta_n) exactly when its entry here divides n.
        """
        conductors = np.array([v.conductor for v in self.values], dtype=np.int64)
        return tuple(np.lcm.reduce(conductors[self.ids], axis=1).tolist())

    @cached_property
    def real_rows(self) -> Tuple[bool, ...]:
        """Per row, whether every value equals its complex conjugate.

        Each conductor's matrix is twisted by t = -1 once, and a value is
        real when its twisted row equals its own.
        """
        real = np.empty(len(self.values), dtype=bool)
        for m, (ids, C) in self.conductor_blocks.items():
            real[ids] = (_twist_rows(m, C, -1) == C).all(axis=1)
        return tuple(real[self.ids].all(axis=1).tolist())

    @cached_property
    def kernel_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """Per row, the classes where the character takes its degree.

        A cell is compared with the degree (the row's value on the identity
        class) by its value id.
        """
        return tuple(tuple(np.flatnonzero(row == row[0]).tolist()) for row in self.ids)

    @cached_property
    def galois_maps(self) -> Dict[int, np.ndarray]:
        """Per unit t mod the exponent, the rows' images under zeta -> zeta^t
        as row indices; ``_galois_map`` fills it."""
        return {}


def character_table(G: FiniteGroup) -> CharacterTable:
    C = conjugacy_classes(G)
    mt = compute_mod_table(G)
    q, e, k = mt.q, mt.exponent, C.num_classes
    orders = G.orders()

    n_lin = len(mt.linear)
    nonlinear_degrees = np.asarray(mt.degrees[n_lin:], dtype=np.int64)
    # Cells hold value ids: ``values`` maps each distinct value to its id, in
    # id order.  Linear cells are roots of unity zeta_e^j: one value per
    # exponent j present.
    exps = np.flatnonzero(np.bincount(mt.linear.ravel(), minlength=e))
    slot = np.zeros(e, dtype=np.int32)
    slot[exps] = np.arange(len(exps))
    values = {CyclotomicValue(e, {int(j): 1}): i for i, j in enumerate(exps)}
    ids = np.empty((k, k), dtype=np.int32)
    ids[:n_lin] = slot[mt.linear]
    transform_memo: Dict[int, np.ndarray] = {}
    # The multiplicity vector at conductor m determines the value, and a
    # table has far fewer distinct values than cells: canonicalise each once.
    value_memo: Dict[Tuple[int, bytes], int] = {}
    lifted = np.zeros(k, dtype=bool)

    for c in range(k if n_lin < k else 0):  # an abelian table has nothing to lift
        if lifted[c]:
            continue
        g = C.reps[c]
        m = int(orders[g])
        # Multiplicity transform, once per Galois orbit of classes:
        # chi(g) = sum_j m_j zeta_m^j with m_j = (1/m) sum_t chi_q(g^t)
        # omega_m^(-jt); the m_j are the true eigenvalue multiplicities,
        # integers in [0, degree], so the lift is unique once
        # q > 2*sqrt(|G|) >= 2*degree.
        power_classes = [C.class_of[x] for x in G.powers(g, m)]
        tt = np.arange(m)
        Wm = transform_memo.get(m)
        if Wm is None:
            ptab = _root_powers(pow(mt.omega_root, e // m, q), m, q)
            Wm = transform_memo[m] = ptab[(-np.outer(tt, tt)) % m]
        MV = matmul_mod(mt.chi[:, power_classes], Wm, q) * pow(m, -1, q) % q
        if not np.array_equal(MV.sum(axis=1), nonlinear_degrees):
            raise EngineInvariantError("multiplicities must sum to the degree")
        # rho(g^u) has eigenvalue zeta_m^(ju) with the multiplicity that
        # rho(g) gives zeta_m^j, so for each unit u the class of g^u takes
        # the columns of MV permuted by j -> j u^-1.  The transform at that
        # class would permute the same modular values the same way, so a
        # modular fault anywhere in the orbit fails the sum check above.
        for u in range(1, m + 1):
            c2 = power_classes[u % m]
            if gcd(u, m) != 1 or lifted[c2]:
                continue
            lifted[c2] = True
            rows = MV[:, tt * pow(u, -1, m) % m]
            column = []
            for mults in rows:
                key = (m, mults.tobytes())
                i = value_memo.get(key)
                if i is None:
                    val = CyclotomicValue(m, {int(j): int(mults[j]) for j in np.flatnonzero(mults)})
                    i = value_memo[key] = values.setdefault(val, len(values))
                column.append(i)
            ids[n_lin:, c2] = column
    if n_lin < k and not lifted.all():
        raise EngineInvariantError("every class must lie in the Galois orbit of a lifted class")

    trivial = np.flatnonzero(~mt.linear.any(axis=1)).tolist()
    if len(trivial) != 1:
        raise EngineInvariantError("exactly one trivial character")
    # Sort the rows by degree, then by their values' sort keys column by
    # column: the values are distinct, so are their sort keys, and a value's
    # rank is its place in one sort of them.  np.lexsort is stable and takes
    # its last key first.
    keys = [v.sort_key() for v in values]
    rank = np.empty(len(keys), dtype=np.int32)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    others = np.array([r for r in range(k) if r != trivial[0]], dtype=np.int64)
    sort_keys = np.vstack([rank[ids[others]].T[::-1],
                           np.asarray(mt.degrees, dtype=np.int32)[others]])
    perm = np.array(trivial + others[np.lexsort(sort_keys)].tolist())
    degrees = tuple(mt.degrees[r] for r in perm)
    if not all(G.order % d == 0 for d in degrees):
        raise EngineInvariantError("degrees must divide the group order")
    # The table takes the lift's ids renumbered to first-seen order; every
    # value of ``values`` lies in some cell.
    ids = ids[perm]
    first = np.full(len(values), ids.size)
    np.minimum.at(first, ids.ravel(), np.arange(ids.size))
    order = np.argsort(first)
    renumber = np.argsort(order).astype(np.int32)
    objects = np.fromiter(values, dtype=object, count=len(values))
    T = CharacterTable(group=G, classes=C, exponent=e, degrees=degrees,
                       values=tuple(objects[order].tolist()), ids=renumber[ids])
    # One check of the whole lift, from the transform products to the row
    # sort: each distinct value, reduced once at zeta_m -> omega^(e/m), gives
    # back chi_q on the split's rows and omega^j for zeta_e^j.  A wrong chi_q
    # lifts to values that reduce back to it; the sum check catches that.
    red = _value_images(T, q, [1])[:, 0]
    split = np.flatnonzero(perm >= n_lin)
    if not (np.array_equal(red[T.ids[split]], mt.chi[perm[split] - n_lin])
            and np.array_equal(red[renumber[:len(exps)]], _root_powers(mt.omega_root, e, q)[exps])):
        raise EngineInvariantError("the lifted table must reduce to the modular table")
    return T


# -- orthogonality -----------------------------------------------------------


@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    row_failures: Tuple[Tuple[int, int, CyclotomicValue], ...]
    column_failures: Tuple[Tuple[int, int, CyclotomicValue], ...]


def _row_ids(X: np.ndarray, C: np.ndarray, ids: np.ndarray) -> List[int]:
    """Per row of X, the id of the equal row of C (ids[i] for row i), or -1."""
    if X.dtype == C.dtype == np.int64:
        own, twisted = map(np.ndarray.tobytes, C), map(np.ndarray.tobytes, X)
    else:
        own, twisted = map(tuple, C.tolist()), map(tuple, X.tolist())
    lookup = dict(zip(own, ids.tolist()))
    return [lookup.get(key, -1) for key in twisted]


def _galois_map(T: CharacterTable, t: int) -> np.ndarray:
    """Per row r, the index of the row sigma_t(row r) under zeta -> zeta^t,
    t a unit, or -1 where the twisted row is not a row.

    Memoised per table and t mod the exponent (``galois_maps``).  Each
    conductor's coefficient matrix (``conductor_blocks``) is twisted once by
    ``cyclotomic._twist_rows``, and the twisted rows are matched against
    that conductor's own rows: sigma_t keeps a value's minimal conductor.
    A value whose conductor does not divide the exponent has no twist.  Each
    twisted row is looked up by the bytes of its value-id row.
    """
    e = T.exponent
    t %= e
    out = T.galois_maps.get(t)
    if out is None:
        twisted = np.full(len(T.values), -1, dtype=np.int32)
        for m, (ids, C) in T.conductor_blocks.items():
            if e % m == 0:
                twisted[ids] = _row_ids(_twist_rows(m, C, t), C, ids)
        lookup = {row.tobytes(): r for r, row in enumerate(T.ids)}
        out = T.galois_maps[t] = np.array([lookup.get(row.tobytes(), -1) for row in twisted[T.ids]])
    return out


def _galois_permutations(T: CharacterTable) -> Optional[List[np.ndarray]]:
    """Per t among the generators of the units mod the exponent and t = -1,
    the permutation pi_t with sigma_t(row r) = row pi_t(r).

    None when two rows are equal or a twisted row is not a row.
    """
    e = T.exponent
    if len({row.tobytes() for row in T.ids}) != T.num_chars:
        return None
    ts = sorted(set(unit_group_generators(e)) | {e - 1}) if e > 2 else ()
    perms = [_galois_map(T, t) for t in ts]
    return None if any((p < 0).any() for p in perms) else perms


def _split_primes(e: int, k: int, bound: int) -> List[int]:
    """Primes q = 1 (mod e) with k (q - 1)^2 < 2^53, largest first, until
    their product exceeds bound; none if they run out before."""
    top = isqrt((2**53 - 1) // k)  # the largest q - 1 allowed
    primes: List[int] = []
    product = 1
    for j in range(top // e, 0, -1):
        if product > bound:
            break
        if is_prime(e * j + 1):
            primes.append(e * j + 1)
            product *= e * j + 1
    return primes if product > bound else []


def _value_images(T: CharacterTable, q: int, ts: Sequence[int]) -> np.ndarray:
    """Per distinct value and unit t in ts, its image in F_q under
    zeta_m -> omega^(t e/m), where omega = ``_omega(q, e)``; one product per
    conductor's int64 coefficient matrix.  t = -1 gives the image of the
    complex conjugate."""
    e = T.exponent
    pw = _root_powers(_omega(q, e), e, q)
    img = np.empty((len(T.values), len(ts)), dtype=np.int64)
    for m, (ids, C) in T.conductor_blocks.items():
        img[ids] = matmul_mod(C % q, pw[np.outer(np.arange(C.shape[1]) * (e // m), ts) % e], q)
    return img


def _modular_marks(T: CharacterTable) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """k x k masks of the row pairs and the column pairs whose relation may
    fail; None when every pair must be summed exactly: a conductor does not
    divide the exponent, or a conductor's coefficient matrix is not int64
    (it holds a fraction, or an integer too large for int64).

    The conductor and integer tests and the l1 norms are read off
    ``conductor_blocks``, one matrix per conductor."""
    e, k, order = T.exponent, T.num_chars, T.group.order
    V = T.ids
    blocks = T.conductor_blocks
    if any(e % m or C.dtype != np.int64 for m, (_, C) in blocks.items()):
        return None
    perms = _galois_permutations(T)
    sizes = np.asarray(T.classes.sizes, dtype=np.int64)
    # Every complex absolute value of a row sum is at most
    # sum_c |K_c| |v_a(c)|_1 |v_b(c)|_1 + |G|, and of a column sum at most
    # sum_r |v_r(c)|_1 |v_r(d)|_1 + |C_G(g_c)|; bound both by the largest
    # l1 norm in each column and in each row.
    l1 = np.empty(len(T.values), dtype=np.int64)
    for ids, C in blocks.values():
        l1[ids] = np.abs(C).sum(axis=1)
    norms = l1[V]
    bound = max(
        sum(int(w) * int(n) ** 2 for w, n in zip(sizes, norms.max(axis=0))) + order,
        sum(int(n) ** 2 for n in norms.max(axis=1)) + order // int(sizes.min()),
    )
    primes = _split_primes(e, k, bound)
    if not primes:
        return None
    # Galois-closed rows need the one embedding zeta_e -> omega; other rows
    # need every embedding zeta_e -> omega^t, t a unit, taken in batches whose
    # images fit in k^2 entries.
    units = np.array([1] if perms is not None else [t for t in range(1, e + 1) if gcd(t, e) == 1])
    batch = max(1, k * k // len(T.values))
    row_bad = np.zeros((k, k), dtype=bool)
    col_bad = np.zeros((k, k), dtype=bool)
    for q in primes:
        row_diag = np.diag(np.full(k, order % q))
        col_diag = np.diag(order // sizes % q)
        for lo in range(0, len(units), batch):
            ts = units[lo:lo + batch]
            img, conj = _value_images(T, q, ts), _value_images(T, q, -ts)
            for i in range(img.shape[1]):
                X, Xc = img[:, i][V], conj[:, i][V]
                row_bad |= matmul_mod(X, (Xc * (sizes % q) % q).T, q) != row_diag
                col_bad |= matmul_mod(X.T, Xc, q) != col_diag
    # A failing row pair marks its orbit: (a, b) is marked when
    # (pi_t a, pi_t b) is, for each generator t, until nothing changes.
    while perms and row_bad.any():
        grown = row_bad.copy()
        for p in perms:
            grown |= row_bad[np.ix_(p, p)]
        if np.array_equal(grown, row_bad):
            break
        row_bad = grown
    return row_bad, col_bad


def _exact_failures(
    values: Sequence[CyclotomicValue],
    V: np.ndarray,
    weights: Sequence[int],
    diag: Sequence[int],
    marked: np.ndarray,
) -> List[Tuple[int, int, CyclotomicValue]]:
    """The pairs a <= b marked in either order whose exact sum
    sum_c w_c v_a(c) conj(v_b(c)) is not diag[a] * delta_ab, in row-major
    order, each with its sum; vector a holds the values at the ids V[a].
    Terms, taken once per value, add up as exponent counts at the lcm of
    the pair's conductors."""
    pairs = [index.tolist() for index in np.nonzero(np.triu(marked | marked.T))]
    vecs = sorted(set(pairs[0]) | set(pairs[1]))
    terms = {i: (values[i].conductor, list(values[i].terms().items())) for i in set(V[vecs].ravel().tolist())}
    parts = {a: [terms[i] for i in V[a].tolist()] for a in vecs}
    failures: List[Tuple[int, int, CyclotomicValue]] = []
    for a, b in zip(*pairs):
        pa, pb = parts[a], parts[b]
        L = lcm(*(m for m, _ in pa), *(m for m, _ in pb))
        acc: Dict[int, Rat] = {}
        for w, (ma, ta), (mb, tb) in zip(weights, pa, pb):
            sa, sb = L // ma, L // mb
            for j1, c1 in ta:
                for j2, c2 in tb:
                    key = (j1 * sa - j2 * sb) % L
                    acc[key] = acc.get(key, 0) + w * c1 * c2
        got = CyclotomicValue(L, acc)
        if got != (diag[a] if a == b else 0):
            failures.append((a, b, got))
    return failures


def verify_orthogonality(T: CharacterTable) -> OrthogonalityReport:
    """Exact first (row) and second (column) orthogonality relations.

    The relations are checked in F_q for primes q = 1 (mod e), e the
    exponent, which split completely in Z[zeta_e] (Washington, GTM 83,
    ch. 2).  Each distinct value is embedded once by zeta_m -> omega^(e/m),
    omega a primitive e-th root of unity mod q; gathered by value id, the
    images of the values and of their conjugates form k x k matrices X and
    Xc, and the relations read X diag(|K_c|) Xc^T = |G| I and
    X^T Xc = diag(|C_G(g_c)|) mod q.

    A sum that vanishes mod q under every embedding zeta_e -> omega^t, t a
    unit, lies in q Z[zeta_e], so its norm is a multiple of q^phi(e);
    primes are taken until their product exceeds a bound on every complex
    absolute value of every sum, which forces such a sum to be 0.  When the
    Galois twists sigma_t permute the rows, the one embedding stands for all
    of them: sigma_t maps the row sum x_ab to x_(pi_t a, pi_t b) and fixes
    every column sum, so a row pair that fails mod some q marks its Galois
    orbit of pairs.  Otherwise every embedding is checked.  Only marked
    pairs are summed exactly, so the report lists exactly the pairs whose
    sums are wrong, with those sums.  Every pair is summed exactly when a
    value has a fractional coefficient or a conductor that does not divide e.
    """
    k, order, sizes = T.num_chars, T.group.order, T.classes.sizes
    marks = _modular_marks(T)
    if marks is None:
        marks = (np.ones((k, k), dtype=bool),) * 2
    row_fail = _exact_failures(T.values, T.ids, sizes, [order] * k, marks[0])
    col_fail = _exact_failures(T.values, T.ids.T, [1] * k, [order // s for s in sizes], marks[1])
    return OrthogonalityReport(
        ok=not row_fail and not col_fail,
        row_failures=tuple(row_fail),
        column_failures=tuple(col_fail),
    )


# -- derived data ------------------------------------------------------------


def check_row(T: CharacterTable, char: int) -> None:
    """Raise ``InputError`` unless char is a row index of the table."""
    if not 0 <= char < T.num_chars:
        raise InputError(f"character row {char} is outside [0, {T.num_chars})")


def character_kernel(T: CharacterTable, char: int) -> SubgroupHandle:
    """Elements where the character takes its degree value."""
    check_row(T, char)
    members = T.classes.members
    return SubgroupHandle(T.group, [x for c in T.kernel_classes[char] for x in members[c]])


def galois_conjugate(T: CharacterTable, char: int, t: int) -> int:
    """Row index of the Galois twist zeta -> zeta^t of a character row."""
    check_row(T, char)
    if gcd(t, T.exponent) != 1:
        raise InputError(f"galois exponent {t} is not a unit mod the exponent {T.exponent}")
    r = int(_galois_map(T, t)[char])
    if r < 0:
        raise EngineInvariantError("a Galois twist of an irreducible row must be in the table")
    return r


def _table_header(T: CharacterTable) -> Dict:
    """Every key of the table's JSON form except ``"values"``."""
    return {
        "format": "acdlab.character-table.v1",
        "order": T.group.order,
        "exponent": T.exponent,
        "num_classes": T.classes.num_classes,
        "class_sizes": list(T.classes.sizes),
        "class_orders": [int(T.group.orders()[r]) for r in T.classes.reps],
        "class_rep_words": [list(T.group.word_for(r)) for r in T.classes.reps],
        "degrees": list(T.degrees),
    }


def table_json_pieces(T: CharacterTable) -> Iterator[str]:
    """The text of ``table_to_json`` in pieces: the header, then one row at a
    time, then the closing brackets, so a writer never holds the whole text.

    A table has far fewer distinct values than cells, so each distinct value
    is encoded once and the rows join those texts by value id.  ``"values"``
    sorts after every header key, so the rows go at the end of the encoded
    header.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    fragments = np.array([encode(v.to_json_dict()) for v in T.values], dtype=object)
    yield encode(_table_header(T))[:-1] + ',"values":['
    for r, ids in enumerate(T.ids):
        yield ("," if r else "") + "[" + ",".join(fragments[ids].tolist()) + "]"
    yield "]}"


def table_to_json(T: CharacterTable) -> str:
    """Stable, exact JSON form of the table (integers and fractions only),
    compact with sorted keys; ``"values"`` holds each cell's ``to_json_dict``."""
    return "".join(table_json_pieces(T))
