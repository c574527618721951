"""Fully enumerated permutation groups and the subgroup machinery built on them.

A group is a canonically ordered list of permutations: breadth-first closure
from the sorted generator list, identity at index 0.  Every element is known
by its index, all operations below are pure functions of the group object,
and results are cached on the instance, so a group can be shared freely
between computations (and across forked worker processes).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import perm as pm
from .errors import DomainError, InputError, SizeLimitError
from .number_theory import is_prime, p_prime_part
from .perm import Perm

DEFAULT_ORDER_CAP = 20000
ORDER_CAP_ENV = "ACDLAB_ORDER_CAP"


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

    Construct via :func:`generate_group`.  ``elements[0]`` is the identity;
    ``elements`` is closed under composition and inversion.
    """

    def __init__(self, elements: Tuple[Perm, ...], generator_indices: Tuple[int, ...],
                 bfs_parents: Tuple[Tuple[int, int], ...]):
        self.elements = elements
        self.degree = len(elements[0])
        self.generator_indices = generator_indices
        self.identity = 0
        self._bfs_parents = bfs_parents
        self._index: Dict[bytes, int] = {self._pack(p): i for i, p in enumerate(elements)}
        self._inverse: Optional[Tuple[int, ...]] = None
        self._orders: Optional[Tuple[int, ...]] = None
        self._exponent: Optional[int] = None
        self._classes: Optional["ClassData"] = None
        # Subgroups are cached as index tuples, not SubgroupHandles: a handle
        # refers back to its parent, and that cycle would keep the group alive
        # until the cyclic garbage collector runs.
        self._derived: Optional[Tuple[int, ...]] = None
        self._solvable: Optional[bool] = None
        self._np: Optional[np.ndarray] = None
        self._pnil: Dict[int, Optional[Tuple[int, ...]]] = {}  # p -> complement or None

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> Tuple[Perm, ...]:
        return tuple(self.elements[i] for i in self.generator_indices)

    def _pack(self, p: Sequence[int]) -> bytes:
        if self.degree <= 255:
            return bytes(p)
        return np.asarray(p, dtype=np.uint16).tobytes()

    def index_of(self, p: Sequence[int]) -> int:
        try:
            return self._index[self._pack(p)]
        except KeyError:
            raise InputError(f"permutation {tuple(p)} is not an element of this group")

    def __contains__(self, p: Sequence[int]) -> bool:
        return self._pack(p) in self._index

    def mul(self, i: int, j: int) -> int:
        return self._index[self._pack(pm.compose(self.elements[i], self.elements[j]))]

    def inv(self, i: int) -> int:
        return self.inverse_table()[i]

    def conjugate(self, g: int, x: int) -> int:
        """Index of g x g^-1."""
        pg = self.elements[g]
        return self._index[self._pack(pm.compose(pg, pm.compose(self.elements[x], pm.inverse(pg))))]

    def power(self, i: int, k: int) -> int:
        return self._index[self._pack(pm.power(self.elements[i], k))]

    def powers(self, i: int, m: int) -> List[int]:
        """Indices of g^0, g^1, ..., g^(m-1) for g = element i."""
        g = self.np_elements()[i].astype(np.int64)
        rows = np.empty((m, self.degree), dtype=np.int64)
        cur = np.arange(self.degree, dtype=np.int64)
        for t in range(m):
            rows[t] = cur
            cur = g[cur]
        return self.index_rows(rows).tolist()

    def inverse_table(self) -> Tuple[int, ...]:
        if self._inverse is None:
            # The argsort of a permutation's image row is its inverse.
            inv_rows = np.argsort(self.np_elements(), axis=1, kind="stable")
            self._inverse = tuple(self.index_rows(inv_rows).tolist())
        return self._inverse

    def orders(self) -> Tuple[int, ...]:
        if self._orders is None:
            # Conjugate elements share their order: one cycle type per class.
            C = conjugacy_classes(self)
            rep_orders = [pm.order_of(self.elements[r]) for r in C.reps]
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

    # -- numpy views (hot paths in the character engine) --------------------

    def np_elements(self) -> np.ndarray:
        if self._np is None:
            dtype = np.uint8 if self.degree <= 255 else np.uint16
            self._np = np.array(self.elements, dtype=dtype)
        return self._np

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """Map an (n, degree) array of image rows to element indices."""
        dtype = np.uint8 if self.degree <= 255 else np.uint16
        packed = np.ascontiguousarray(rows, dtype=dtype)
        idx = self._index
        width = packed.shape[1] * packed.itemsize
        raw = packed.tobytes()
        return np.fromiter(
            (idx[raw[off:off + width]] for off in range(0, len(raw), width)),
            dtype=np.int64, count=packed.shape[0])

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


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
    ident = pm.identity(deg)
    gen_perms = [g for g in gen_perms if g != ident]

    elements: List[Perm] = [ident]
    parents: List[Tuple[int, int]] = [(-1, -1)]
    dtype = np.uint8 if deg <= 255 else np.uint16
    gen_idx = [np.asarray(g, dtype=np.int64) for g in gen_perms]
    seen: Set[bytes] = {np.asarray(ident, dtype=dtype).tobytes()}
    block = np.asarray([ident], dtype=dtype)
    pos = 0
    # Each round multiplies the whole unprocessed tail by every generator and
    # scans the products in (element, generator) order, which is exactly the
    # order a one-element-at-a-time BFS would discover them in.
    width = deg * np.dtype(dtype).itemsize
    while pos < len(elements) and gen_idx:
        prods = np.stack([block[:, g] for g in gen_idx], axis=1)
        raw = np.ascontiguousarray(prods).tobytes()
        new_rows: List[int] = []
        off = 0
        for b in range(block.shape[0]):
            for gi in range(len(gen_idx)):
                key = raw[off:off + width]
                off += width
                if key not in seen:
                    seen.add(key)
                    new_rows.append(b * len(gen_idx) + gi)
                    parents.append((pos + b, gi))
                    if len(elements) + len(new_rows) > cap:
                        raise SizeLimitError(
                            f"group order exceeds cap {cap}; raise {ORDER_CAP_ENV} to allow larger groups")
        pos = len(elements)
        block = prods.reshape(-1, deg)[new_rows]
        elements.extend(tuple(row) for row in block.tolist())

    group = FiniteGroup(tuple(elements), (), tuple(parents))
    group.generator_indices = tuple(group.index_of(g) for g in gen_perms)
    return group


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
    npE = G.np_elements()
    # conj[x] = index of g x g^-1, for each generator g at once over all x.
    conj_maps = []
    for i in G.generator_indices:
        g = npE[i]
        ginv = npE[G.inv(i)]
        conj_maps.append(G.index_rows(g[npE[:, ginv]]).tolist())
    class_of = [-1] * n
    reps: List[int] = []
    for start in range(n):
        if class_of[start] != -1:
            continue
        c = len(reps)
        reps.append(start)
        class_of[start] = c
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for x in frontier:
                for conj in conj_maps:
                    y = conj[x]
                    if class_of[y] == -1:
                        class_of[y] = c
                        nxt.append(y)
            frontier = nxt
    members: List[List[int]] = [[] for _ in reps]
    for i, c in enumerate(class_of):
        members[c].append(i)
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
    return tuple(C.class_of[G.power(r, k)] for r in C.reps)


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


def _mult_closure(G: FiniteGroup, gen_idx: Sequence[int], limit: Optional[int] = None) -> Optional[Set[int]]:
    """Multiplicative closure of the given elements; None if it grows past limit."""
    out: Set[int] = {0}
    frontier = [0]
    while frontier:
        nxt: List[int] = []
        for x in frontier:
            for g in gen_idx:
                y = G.mul(x, g)
                if y not in out:
                    out.add(y)
                    if limit is not None and len(out) > limit:
                        return None
                    nxt.append(y)
        frontier = nxt
    return out


def _greedy_generators(G: FiniteGroup, members: Sequence[int]) -> List[int]:
    """A short generating list for a subgroup given as its member indices."""
    gens: List[int] = []
    have: Set[int] = {0}
    for i in members:
        if i not in have:
            gens.append(i)
            have = _mult_closure(G, gens)  # type: ignore[assignment]
            if len(have) == len(members):
                break
    return gens


def _conjugation_closure(G: FiniteGroup, seed: Iterable[int], conjugator_idx: Sequence[int]) -> Set[int]:
    """Smallest superset of seed closed under conjugation by the given elements."""
    out: Set[int] = set(seed)
    frontier = list(out)
    conj = [(G.elements[i], pm.inverse(G.elements[i])) for i in conjugator_idx]
    pack, index = G._pack, G._index
    while frontier:
        nxt: List[int] = []
        for x in frontier:
            px = G.elements[x]
            for g, ginv in conj:
                y = index[pack(pm.compose(g, pm.compose(px, ginv)))]
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def subgroup_generated(G: FiniteGroup, seed: Iterable[int]) -> SubgroupHandle:
    """The subgroup generated by the given element indices."""
    gens: List[int] = []
    closed: Set[int] = {0}
    for i in sorted(set(seed)):
        if i not in closed:
            gens.append(i)
            closed = _mult_closure(G, gens)  # type: ignore[assignment]
    return SubgroupHandle(G, closed)


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> SubgroupHandle:
    """Smallest normal subgroup of G containing the seed elements."""
    orbit = _conjugation_closure(G, set(seed) - {0}, G.generator_indices)
    if not orbit:
        return trivial_subgroup(G)
    gens: List[int] = []
    closed: Set[int] = {0}
    for i in sorted(orbit):
        if i not in closed:
            gens.append(i)
            closed = _mult_closure(G, gens)  # type: ignore[assignment]
    return SubgroupHandle(G, closed)


def derived_subgroup(G: FiniteGroup) -> SubgroupHandle:
    """Commutator subgroup: normal closure of generator commutators."""
    if G._derived is None:
        inv = G.inverse_table()
        comms = set()
        for a in G.generator_indices:
            for b in G.generator_indices:
                comms.add(G.mul(G.mul(inv[a], inv[b]), G.mul(a, b)))
        G._derived = normal_closure(G, comms).indices
    return SubgroupHandle(G, G._derived)


def _derived_of_handle(G: FiniteGroup, H: SubgroupHandle) -> SubgroupHandle:
    gens = _greedy_generators(G, H.indices) or [0]
    inv = G.inverse_table()
    comms = set()
    for a in gens:
        for b in gens:
            comms.add(G.mul(G.mul(inv[a], inv[b]), G.mul(a, b)))
    comms.discard(0)
    if not comms:
        return trivial_subgroup(G)
    orbit = _conjugation_closure(G, comms, gens)
    sub_gens: List[int] = []
    closed: Set[int] = {0}
    for i in sorted(orbit):
        if i not in closed:
            sub_gens.append(i)
            closed = _mult_closure(G, sub_gens)  # type: ignore[assignment]
    return SubgroupHandle(G, closed)


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
    members = H.member_set()
    return all(G.conjugate(g, x) in members for g in G.generator_indices for x in H.indices)


def center(G: FiniteGroup) -> SubgroupHandle:
    """Elements whose conjugacy class is a singleton."""
    C = conjugacy_classes(G)
    idx = sorted(C.members[c][0] for c in range(C.num_classes) if C.sizes[c] == 1)
    return SubgroupHandle(G, idx)


def point_stabilizer(G: FiniteGroup, point: int) -> SubgroupHandle:
    if not 0 <= point < G.degree:
        raise InputError(f"point {point} out of range for degree {G.degree}")
    return SubgroupHandle(G, [i for i, p in enumerate(G.elements) if p[point] == point])


def subgroup_as_group(G: FiniteGroup, H: SubgroupHandle) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Rebuild a subgroup as a standalone group; also return the index map back into G."""
    gens = _greedy_generators(G, H.indices)
    sub = generate_group([G.elements[i] for i in gens], degree=G.degree, cap=G.order)
    to_parent = tuple(G.index_of(p) for p in sub.elements)
    return sub, to_parent


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
        ok = len(S) == target
        if ok:
            gens: List[int] = []
            closed: Set[int] = {0}
            for i in S:
                if i not in closed:
                    gens.append(i)
                    grown = _mult_closure(G, gens, limit=target)
                    if grown is None:
                        ok = False
                        break
                    closed = grown
            ok = ok and len(closed) == target
        G._pnil[p] = tuple(S) if ok else None
    complement = G._pnil[p]
    if complement is None:
        return False, None
    return True, SubgroupHandle(G, complement) if want_certificate else None
