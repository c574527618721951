"""Fully enumerated permutation groups and the subgroup machinery built on them.

A group is a canonically ordered array of permutation image rows:
breadth-first closure from the sorted generator list, identity at index 0.
Every element is known by its index, all operations below are pure functions
of the group object, and results are cached on the instance, so a group can
be shared freely between computations (and across forked worker processes).

``generate_group`` creates the rows and their ``bytes -> index`` dict with
its own block-wise closure.  Every later closure over element indices
(conjugacy classes, generated subgroups, conjugation inside a subgroup, the
p-complement test) is one call of :func:`_orbit`, with a step that maps a
whole frontier at once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import perm as pm
from .errors import DomainError, InputError, SizeLimitError
from .number_theory import is_prime, p_prime_part
from .perm import Perm

DEFAULT_ORDER_CAP = 20000
ORDER_CAP_ENV = "ACDLAB_ORDER_CAP"
MAX_DEGREE = 65535  # image rows are uint8 up to 256 points, uint16 up to this


def resolve_order_cap(cap: Optional[int] = None) -> int:
    """Explicit cap if given, else the ACDLAB_ORDER_CAP env var, else 20000."""
    if cap is not None:
        return cap
    env = os.environ.get(ORDER_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"{ORDER_CAP_ENV} must be an integer, got {env!r}")
    return DEFAULT_ORDER_CAP


class FiniteGroup:
    """A finite permutation group with a fixed canonical element order.

    Construct via :func:`generate_group`.  Element i is ``rows[i]``, its image
    row; row 0 is the identity, and the rows are closed under composition and
    inversion.  ``_index`` maps a row's bytes back to its index.
    """

    def __init__(self, rows: np.ndarray, index: Dict[bytes, int],
                 generator_indices: Tuple[int, ...], bfs_parents: Tuple[Tuple[int, int], ...]):
        self.rows = rows
        self.degree = rows.shape[1]
        self.generator_indices = generator_indices
        self.identity = 0
        self._bfs_parents = bfs_parents
        self._index = index
        self._inverse: Optional[Tuple[int, ...]] = None
        self._orders: Optional[Tuple[int, ...]] = None
        self._exponent: Optional[int] = None
        self._classes: Optional["ClassData"] = None
        # Subgroups are cached as index tuples, not SubgroupHandles: a handle
        # refers back to its parent, and that cycle would keep the group alive
        # until the cyclic garbage collector runs.
        self._derived: Optional[Tuple[int, ...]] = None
        self._solvable: Optional[bool] = None
        self._pnil: Dict[int, Optional[Tuple[int, ...]]] = {}  # p -> complement or None

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return self.rows.shape[0]

    @property
    def elements(self) -> Tuple[Perm, ...]:
        """Every element as an image tuple, built afresh on each access."""
        return tuple(map(tuple, self.rows.tolist()))

    @property
    def generators(self) -> Tuple[Perm, ...]:
        return tuple(tuple(self.rows[i].tolist()) for i in self.generator_indices)

    def index_of(self, p: Sequence[int]) -> int:
        row = np.asarray(p)
        if not (row.shape == (self.degree,) and row.dtype.kind in "iu"
                and row.min() >= 0 and row.max() < self.degree):
            raise InputError(f"{tuple(p)} is not a permutation of 0..{self.degree - 1}")
        return int(self.index_rows(row[None])[0])

    def __contains__(self, p: Sequence[int]) -> bool:
        try:
            self.index_of(p)
        except InputError:
            return False
        return True

    def mul(self, i: int, j: int) -> int:
        return self._index[self.rows[i][self.rows[j]].tobytes()]

    def inv(self, i: int) -> int:
        return self.inverse_table()[i]

    def conjugate(self, g: int, x: int) -> int:
        """Index of g x g^-1."""
        pg = self.rows[g]
        return self._index[pg[self.rows[x][np.argsort(pg)]].tobytes()]

    def power(self, i: int, k: int) -> int:
        return self.index_of(pm.power(tuple(self.rows[i].tolist()), k))

    def powers(self, i: int, m: int) -> List[int]:
        """Indices of g^0, g^1, ..., g^(m-1) for g = element i."""
        g = self.rows[i].astype(np.int64)
        rows = np.empty((m, self.degree), dtype=np.int64)
        cur = np.arange(self.degree, dtype=np.int64)
        for t in range(m):
            rows[t] = cur
            cur = g[cur]
        return self.index_rows(rows).tolist()

    def inverse_table(self) -> Tuple[int, ...]:
        if self._inverse is None:
            # The argsort of a permutation's image row is its inverse.  The
            # stable sort of 8- and 16-bit rows is a radix sort, linear in degree.
            inv_rows = np.argsort(self.rows, axis=1, kind="stable")
            self._inverse = tuple(self.index_rows(inv_rows).tolist())
        return self._inverse

    def orders(self) -> Tuple[int, ...]:
        if self._orders is None:
            # Conjugate elements share their order: one cycle type per class.
            C = conjugacy_classes(self)
            rep_orders = [pm.order_of(tuple(row)) for row in self.rows[list(C.reps)].tolist()]
            self._orders = tuple(rep_orders[c] for c in C.class_of)
        return self._orders

    def word_for(self, i: int) -> Tuple[int, ...]:
        """Generator-index word reaching element i along the closure BFS tree."""
        word: List[int] = []
        while i != 0:
            parent, gen = self._bfs_parents[i]
            word.append(gen)
            i = parent
        word.reverse()
        return tuple(word)

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """Map an (n, degree) array of image rows to element indices."""
        keys = _row_keys(np.ascontiguousarray(rows, dtype=self.rows.dtype))
        try:
            return np.fromiter(map(self._index.__getitem__, keys), dtype=np.int64, count=len(keys))
        except KeyError as missing:
            row = np.frombuffer(missing.args[0], dtype=self.rows.dtype)
            raise InputError(f"permutation {tuple(row.tolist())} is not an element of this group") from None

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def _row_keys(rows: np.ndarray) -> List[bytes]:
    """The bytes of each row of a C-contiguous array: the keys of a group's index."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def generate_group(gens: Iterable[Sequence[int]], *, degree: Optional[int] = None,
                   cap: Optional[int] = None) -> FiniteGroup:
    """Breadth-first closure of the sorted generator list.

    The element order is canonical: identity first, then new products in BFS
    discovery order, multiplying existing elements on the right by each
    generator in sorted order.  Raises SizeLimitError past the order cap.
    """
    cap = resolve_order_cap(cap)
    gen_perms = sorted({pm.validate(g) for g in gens})
    if gen_perms:
        degrees = {len(g) for g in gen_perms}
        if len(degrees) != 1:
            raise InputError(f"generators act on different point sets: degrees {sorted(degrees)}")
        deg = degrees.pop()
        if degree is not None and degree != deg:
            raise InputError(f"declared degree {degree} does not match generators (degree {deg})")
    else:
        deg = 1 if degree is None else degree
        if deg < 1:
            raise InputError("degree must be at least 1")
    if deg > MAX_DEGREE:
        raise InputError(f"degree {deg} exceeds the limit of {MAX_DEGREE} points")
    ident = pm.identity(deg)
    gen_perms = [g for g in gen_perms if g != ident]

    block = np.arange(deg, dtype=np.min_scalar_type(deg - 1))[None]
    index = {block.tobytes(): 0}
    blocks = [block]
    parents: List[Tuple[int, int]] = [(-1, -1)]
    gen_rows = np.array(gen_perms, dtype=np.intp).reshape(-1, deg)
    ngens = len(gen_rows)
    pos = 0
    # Each round multiplies the whole unprocessed tail by every generator and
    # scans the products in (element, generator) order, which is exactly the
    # order a one-element-at-a-time BFS would discover them in.
    while len(block) and ngens:
        prods = np.take(block, gen_rows, axis=1).reshape(-1, deg)
        new_rows: List[int] = []
        for r, key in enumerate(_row_keys(prods)):
            if key not in index:
                index[key] = len(index)
                new_rows.append(r)
                parents.append((pos + r // ngens, r % ngens))
                if len(index) > cap:
                    raise SizeLimitError(
                        f"group order exceeds cap {cap}; raise {ORDER_CAP_ENV} to allow larger groups")
        pos += len(block)
        block = prods[new_rows]
        blocks.append(block)

    rows = np.concatenate(blocks)
    gen_indices = tuple(index[np.asarray(g, dtype=rows.dtype).tobytes()] for g in gen_perms)
    return FiniteGroup(rows, index, gen_indices, tuple(parents))


# -- orbits ------------------------------------------------------------------


def _orbit(seeds: Iterable[int], step: Callable[[List[int]], Iterable[int]],
           limit: Optional[int] = None) -> Optional[List[int]]:
    """Breadth-first closure of the seed indices under step.

    ``step(frontier)`` returns the images of a whole frontier.  The result
    lists the seeds, then each new image in discovery order; it is None once
    the closure holds more than ``limit`` elements.
    """
    seen = dict.fromkeys(seeds)  # insertion-ordered set
    frontier = list(seen)
    while frontier:
        new: List[int] = []
        for y in step(frontier):
            if y not in seen:
                seen[y] = None
                new.append(y)
        if limit is not None and len(seen) > limit:
            return None
        frontier = new
    return list(seen)


def _product_step(G: FiniteGroup, factors: Sequence[Tuple[int, int]]
                  ) -> Callable[[List[int]], List[int]]:
    """Orbit step mapping each frontier element x to l x r for every (l, r) in factors."""
    E = G.rows
    left = E[[l for l, _ in factors]]
    right = E[[r for _, r in factors]]
    which = np.arange(len(factors))[:, None]

    def step(frontier: List[int]) -> List[int]:
        # rows[a, b, i] = x_a[r_b[i]]; then l_b is applied to each row.
        rows = E[frontier][:, right]
        return G.index_rows(left[which, rows].reshape(-1, G.degree)).tolist()

    return step


# -- conjugacy classes ------------------------------------------------------


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes in canonical order.

    Class 0 is the identity class; later classes are ordered by their minimal
    element index.  ``reps[c]`` is that minimal element.
    """

    num_classes: int
    reps: Tuple[int, ...]
    sizes: Tuple[int, ...]
    class_of: Tuple[int, ...]
    members: Tuple[Tuple[int, ...], ...]
    inverse_class: Tuple[int, ...]


def conjugacy_classes(G: FiniteGroup) -> ClassData:
    if G._classes is not None:
        return G._classes
    n = G.order
    E = G.rows
    # conj[x] = index of g x g^-1, for each generator g at once over all x.
    conj_maps = []
    for i in G.generator_indices:
        g = E[i]
        ginv = E[G.inv(i)]
        conj_maps.append(G.index_rows(g[E[:, ginv]]).tolist())

    def step(frontier: List[int]) -> List[int]:
        return [m[x] for x in frontier for m in conj_maps]

    class_of = [-1] * n
    reps: List[int] = []
    members: List[List[int]] = []
    for start in range(n):
        if class_of[start] != -1:
            continue
        orbit = sorted(_orbit([start], step))
        for x in orbit:
            class_of[x] = len(reps)
        reps.append(start)
        members.append(orbit)
    inv = G.inverse_table()
    inverse_class = tuple(class_of[inv[r]] for r in reps)
    data = ClassData(
        num_classes=len(reps),
        reps=tuple(reps),
        sizes=tuple(len(m) for m in members),
        class_of=tuple(class_of),
        members=tuple(tuple(m) for m in members),
        inverse_class=inverse_class,
    )
    G._classes = data
    return data


def element_order(G: FiniteGroup, i: int) -> int:
    """Least n >= 1 with g^n = identity."""
    return G.orders()[i]


def exponent(G: FiniteGroup) -> int:
    if G._exponent is None:
        e = 1
        for o in G.orders():
            e = math.lcm(e, o)
        G._exponent = e
    return G._exponent


def power_map(G: FiniteGroup, C: ClassData, k: int) -> Tuple[int, ...]:
    """Map class(g) to class(g^k); well defined since classes power coherently."""
    powers = [pm.power(tuple(row), k) for row in G.rows[list(C.reps)].tolist()]
    return tuple(C.class_of[i] for i in G.index_rows(np.array(powers)).tolist())


# -- subgroups ---------------------------------------------------------------


class SubgroupHandle:
    """A subgroup of a fixed parent group, stored as its sorted element-index set."""

    __slots__ = ("parent", "indices", "_set")

    def __init__(self, parent: FiniteGroup, indices: Iterable[int]):
        self.parent = parent
        self.indices: Tuple[int, ...] = tuple(sorted(set(indices)))
        self._set = frozenset(self.indices)
        if not self.indices or self.indices[0] != 0:
            raise InputError("a subgroup must contain the identity (index 0)")

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self._set

    def member_set(self) -> frozenset:
        return self._set

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupHandle) and other.parent is self.parent
                and other.indices == self.indices)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices))

    def __repr__(self) -> str:
        return f"SubgroupHandle(order={self.order} of {self.parent.order})"


def full_subgroup(G: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(G, (0,))


def _closure(G: FiniteGroup, candidates: Iterable[int], limit: Optional[int] = None
             ) -> Optional[Tuple[List[int], Set[int]]]:
    """Greedy generators and members of the subgroup the candidates generate.

    Each candidate not yet in the closure becomes a generator, and the closure
    is grown again.  None once the closure holds more than ``limit`` elements.
    """
    gens: List[int] = []
    members: Set[int] = {0}
    for i in candidates:
        if i not in members:
            gens.append(i)
            grown = _orbit([0], _product_step(G, [(0, g) for g in gens]), limit)
            if grown is None:
                return None
            members = set(grown)
    return gens, members


def _commutators(G: FiniteGroup, gens: Sequence[int]) -> Set[int]:
    """Indices of the nontrivial commutators a^-1 b^-1 a b over pairs of gens."""
    E = G.rows
    inv = G.inverse_table()
    a = np.repeat(np.asarray(gens, dtype=np.intp), len(gens))
    b = np.tile(np.asarray(gens, dtype=np.intp), len(gens))
    rows = E[b]
    for f in (a, [inv[i] for i in b], [inv[i] for i in a]):
        rows = np.take_along_axis(E[f], rows, axis=1)
    return set(G.index_rows(rows).tolist()) - {0}


def subgroup_generated(G: FiniteGroup, seed: Iterable[int]) -> SubgroupHandle:
    """The subgroup generated by the given element indices."""
    return SubgroupHandle(G, _closure(G, sorted(set(seed)))[1])  # type: ignore[index]


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> SubgroupHandle:
    """Smallest normal subgroup of G containing the seed elements.

    It is generated by the conjugacy classes of the seeds.
    """
    C = conjugacy_classes(G)
    return subgroup_generated(G, [x for c in {C.class_of[s] for s in seed} for x in C.members[c]])


def derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """Commutator subgroup: normal closure of generator commutators."""
    if G._derived is None:
        G._derived = normal_closure(G, _commutators(G, G.generator_indices)).indices
    return SubgroupHandle(G, G._derived)


def _derived_of_handle(G: FiniteGroup, H: SubgroupHandle) -> SubgroupHandle:
    """Commutator subgroup of H: closure of its generator commutators under conjugation in H."""
    gens = _closure(G, H.indices)[0]  # type: ignore[index]
    inv = G.inverse_table()
    conj = _orbit(_commutators(G, gens), _product_step(G, [(g, inv[g]) for g in gens]))
    return subgroup_generated(G, conj)  # type: ignore[arg-type]


def derived_series(G: FiniteGroup) -> List[SubgroupHandle]:
    """G >= G' >= G'' >= ... until the series stabilizes."""
    series = [full_subgroup(G)]
    current = derived_subgroup(G)
    while True:
        series.append(current)
        if current.order == 1 or current.order == series[-2].order:
            return series
        current = _derived_of_handle(G, current)


def is_solvable(G: FiniteGroup) -> bool:
    if G._solvable is None:
        G._solvable = derived_series(G)[-1].order == 1
    return G._solvable


def minimal_normal_subgroups(G: FiniteGroup) -> List[SubgroupHandle]:
    """Minimal nontrivial normal subgroups, deduplicated, sorted by (order, indices).

    Every minimal normal subgroup is the normal closure of any of its
    nonidentity elements, and it always contains an element of prime order,
    so scanning normal closures of prime-order class representatives finds
    exactly the minimal ones.
    """
    if G.order == 1:
        raise DomainError("the trivial group has no minimal normal subgroups")
    C = conjugacy_classes(G)
    orders = G.orders()
    closures: List[SubgroupHandle] = []
    seen_sets = set()
    for rep in C.reps:
        if rep == 0 or not is_prime(orders[rep]):
            continue
        H = normal_closure(G, [rep])
        if H.indices not in seen_sets:
            seen_sets.add(H.indices)
            closures.append(H)
    minimal = [H for H in closures
               if not any(K.order < H.order and K.member_set() <= H.member_set() for K in closures)]
    return sorted(minimal, key=lambda h: (h.order, h.indices))


def subgroup_intersection(A: SubgroupHandle, B: SubgroupHandle) -> SubgroupHandle:
    if A.parent is not B.parent:
        raise InputError("subgroup intersection needs handles into the same parent group")
    return SubgroupHandle(A.parent, A.member_set() & B.member_set())


def is_normal(G: FiniteGroup, H: SubgroupHandle) -> bool:
    """H is normal exactly when it is the union of the classes it meets."""
    C = conjugacy_classes(G)
    return sum(C.sizes[c] for c in {C.class_of[x] for x in H.indices}) == H.order


def center(G: FiniteGroup) -> SubgroupHandle:
    """Elements whose conjugacy class is a singleton."""
    C = conjugacy_classes(G)
    idx = sorted(C.members[c][0] for c in range(C.num_classes) if C.sizes[c] == 1)
    return SubgroupHandle(G, idx)


def point_stabilizer(G: FiniteGroup, point: int) -> SubgroupHandle:
    if not 0 <= point < G.degree:
        raise InputError(f"point {point} out of range for degree {G.degree}")
    return SubgroupHandle(G, np.flatnonzero(G.rows[:, point] == point).tolist())


def subgroup_as_group(G: FiniteGroup, H: SubgroupHandle) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Rebuild a subgroup as a standalone group; also return the index map back into G."""
    gens = _closure(G, H.indices)[0]  # type: ignore[index]
    sub = generate_group(G.rows[gens].tolist(), degree=G.degree, cap=G.order)
    return sub, tuple(G.index_rows(sub.rows).tolist())


def is_p_nilpotent(G: FiniteGroup, p: int, want_certificate: bool = True
                   ) -> Tuple[bool, Optional[SubgroupHandle]]:
    """Whether G has a normal p-complement, with the complement as certificate.

    Test: the set S of elements whose order is coprime to p must have exactly
    p'-part-of-|G| members and be closed under multiplication; S is then the
    unique normal p-complement.  With ``want_certificate=False`` the
    certificate is left out (None).
    """
    if not is_prime(p):
        raise InputError(f"p-nilpotence needs a prime, got {p}")
    if p not in G._pnil:
        target = p_prime_part(G.order, p)
        orders = G.orders()
        S = [i for i in range(G.order) if orders[i] % p != 0]
        # The closure contains S, so staying within target means it is S.
        ok = len(S) == target and _closure(G, S, limit=target) is not None
        G._pnil[p] = tuple(S) if ok else None
    complement = G._pnil[p]
    if complement is None:
        return False, None
    return True, SubgroupHandle(G, complement) if want_certificate else None
