"""Fully enumerated permutation groups and the subgroup machinery built on them.

A group is a canonically ordered array of permutation image rows:
breadth-first closure from the sorted generator list, identity at index 0.
Every element is known by its index and its permutation by its row
``G.rows[i]``; there is no other element representation.  A permutation
from outside the program enters as a sequence of images through
:func:`generate_group` or :meth:`FiniteGroup.index_of`, which check it.  All
operations below are pure functions of the group object, and results are
cached on the instance, so a group can be shared freely between computations
(and across forked worker processes).

``generate_group`` creates the rows and their ``bytes -> index`` dict, and
keeps the index of every product x s of an element and a generator that its
closure looks up: the generator table ``G._right``.  Conjugacy classes are
read off that table by integer gathers.  Subgroup closures (generated
subgroups, normal closures, the derived series, the p-complement test) are
one routine, :func:`_closure`, which grows a subgroup by whole cosets.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import DomainError, EngineInvariantError, InputError, SizeLimitError
from .number_theory import is_prime, p_prime_part

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


def check_size(degree: int, order: int, cap: Optional[int] = None) -> None:
    """Raise generate_group's errors for a group of at least ``order``
    elements on ``degree`` points, before anything is built."""
    if degree > MAX_DEGREE:
        raise InputError(f"degree {degree} exceeds the limit of {MAX_DEGREE} points")
    cap = resolve_order_cap(cap)
    if order > cap:
        raise SizeLimitError(f"group order exceeds cap {cap}; raise {ORDER_CAP_ENV} to allow larger groups")


class FiniteGroup:
    """A finite permutation group with a fixed canonical element order.

    Construct via :func:`generate_group`.  Element i is ``rows[i]``, its image
    row; row 0 is the identity, and the rows are closed under composition and
    inversion.  ``_index`` maps a row's bytes back to its index, and
    ``_right[x, s]`` is the index of x times the s-th generator
    (``generator_indices[s]``).
    """

    def __init__(self, rows: np.ndarray, index: Dict[bytes, int], right: np.ndarray,
                 generator_indices: Tuple[int, ...]):
        self.rows = rows
        self.degree = rows.shape[1]
        self.generator_indices = generator_indices
        self.identity = 0
        self._index = index
        self._right = right
        self._found_at: Optional[np.ndarray] = None
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

    def index_of(self, p: Sequence[int]) -> int:
        """Index of a permutation given by its images, checked to act on this group's points."""
        row = _image_row(p)
        if len(row) != self.degree:
            raise InputError(f"{tuple(row.tolist())} is not a permutation of 0..{self.degree - 1}")
        return int(self.index_rows(row[None])[0])

    def powers(self, i: int, m: int) -> List[int]:
        """Indices of g^0, g^1, ..., g^(m-1) for g = element i."""
        g = self.rows[i]
        rows = np.empty((m, self.degree), dtype=g.dtype)
        rows[:1] = np.arange(self.degree)
        s = 1
        # Doubling: with g^0 .. g^(s-1) known, g^(s+j) is g^j after g^s.
        while s < m:
            gs = rows[s - 1][g]
            c = min(s, m - s)
            rows[s:s + c] = rows[:c][:, gs]
            s += c
        return self.index_rows(rows).tolist()

    def inverse_table(self) -> Tuple[int, ...]:
        if self._inverse is None:
            # The argsort of a permutation's image row is its inverse.  The
            # stable sort of 8- and 16-bit rows is a radix sort, linear in
            # degree.  Its int64 result is taken in chunks of rows, so the
            # temporary stays near 64 k entries whatever the group's order.
            inv_rows = np.empty_like(self.rows)
            chunk = max(1, (1 << 16) // self.degree)
            for a in range(0, self.order, chunk):
                inv_rows[a:a + chunk] = np.argsort(self.rows[a:a + chunk], axis=1, kind="stable")
            self._inverse = tuple(self.index_rows(inv_rows).tolist())
        return self._inverse

    def orders(self) -> Tuple[int, ...]:
        if self._orders is None:
            # Conjugate elements share their order: one cycle type per class.
            C = conjugacy_classes(self)
            rep_orders = _perm_orders(self.rows[list(C.reps)])
            self._orders = tuple(rep_orders[list(C.class_of)].tolist())
        return self._orders

    def word_for(self, i: int) -> Tuple[int, ...]:
        """Generator-index word reaching element i along the closure BFS tree.

        The closure found element x > 0 as the first product y s equal to x
        in its (element, generator) scan, which is the order of
        ``_right.ravel()``: x's first position there is y * ngens + s.  Every
        element is a product (x s^-1) s, so the first positions, ranked by
        element, are indexed by element.
        """
        if i and self._found_at is None:
            self._found_at = _first_occurrences(self._right.ravel())
        ngens = self._right.shape[1]
        word: List[int] = []
        while i != 0:
            i, gen = divmod(int(self._found_at[i]), ngens)
            word.append(gen)
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


def _perm_orders(rows: np.ndarray) -> np.ndarray:
    """Order of each permutation of an (n, degree) array of image rows."""
    n, deg = rows.shape
    chunk = max(1, (1 << 16) // deg)  # rows per pass, which bounds the int64 work arrays
    if n > chunk:
        return np.concatenate([_perm_orders(rows[a:a + chunk]) for a in range(0, n, chunk)])
    # Number the points of all rows together, so each step is one flat gather.
    p = (rows + deg * np.arange(n)[:, None]).ravel()
    low = np.arange(n * deg)
    # Pointer doubling: after t rounds, low[i] is the least of p^j(i) for
    # j < 2^t, and p is the original permutation to the power 2^t.
    for _ in range((deg - 1).bit_length()):
        np.minimum(low, low[p], out=low)
        p = p[p]
    # low[i] is now the least point of i's cycle, so a cycle's length is
    # how many points share that point.
    lengths = np.bincount(low, minlength=n * deg)[low].reshape(n, deg)
    return np.lcm.reduce(lengths, axis=1)


def _image_row(p: Sequence[int]) -> np.ndarray:
    """p as a 1-D integer array, checked to be the image row of a permutation of 0..n-1."""
    try:
        row = np.asarray(p)
    except (TypeError, ValueError):  # ragged nesting
        raise InputError(f"a permutation is a sequence of integer images, got {p!r}") from None
    if row.ndim != 1:
        raise InputError(f"a permutation is one row of images, got an array of shape {row.shape}")
    if not len(row):
        raise InputError("a permutation needs at least one point")
    if row.dtype.kind not in "iu" or not np.array_equal(np.sort(row), np.arange(len(row))):
        raise InputError(f"not a permutation of 0..{len(row) - 1}: {tuple(row.tolist())}")
    return row


def generate_group(gens: Iterable[Sequence[int]], *, degree: Optional[int] = None,
                   cap: Optional[int] = None) -> FiniteGroup:
    """Breadth-first closure of the sorted generator list.

    The element order is canonical: identity first, then new products in BFS
    discovery order, multiplying existing elements on the right by each
    generator in sorted order.  Raises SizeLimitError past the order cap.
    """
    cap = resolve_order_cap(cap)
    # Sorted as tuples of Python ints, whatever container held each row: the
    # order fixes the canonical element order.
    gen_perms = sorted({tuple(_image_row(g).tolist()) for g in gens})
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
    check_size(deg, 1, cap)
    ident = tuple(range(deg))
    gen_perms = [g for g in gen_perms if g != ident]

    block = np.arange(deg, dtype=np.min_scalar_type(deg - 1))[None]
    index = {block.tobytes(): 0}
    blocks = [block]
    gen_rows = np.array(gen_perms, dtype=np.intp).reshape(-1, deg)
    ngens = len(gen_rows)
    right: List[np.ndarray] = []
    get = index.get
    # Each round multiplies the whole unprocessed tail by every generator and
    # scans the products in (element, generator) order, which is exactly the
    # order a one-element-at-a-time BFS would discover them in.
    while len(block) and ngens:
        prods = np.take(block, gen_rows, axis=1).reshape(-1, deg)
        new_rows: List[int] = []
        ids: List[int] = []
        for r, key in enumerate(_row_keys(prods)):
            j = get(key)
            if j is None:
                j = index[key] = len(index)
                new_rows.append(r)
                if j >= cap:
                    check_size(deg, j + 1, cap)
            ids.append(j)
        right.append(np.array(ids, dtype=np.int32).reshape(-1, ngens))
        block = prods[new_rows]
        blocks.append(block)

    rows = np.concatenate(blocks)
    gen_indices = tuple(index[np.asarray(g, dtype=rows.dtype).tobytes()] for g in gen_perms)
    right_table = np.concatenate(right) if ngens else np.zeros((1, 0), dtype=np.int32)
    return FiniteGroup(rows, index, right_table, gen_indices)


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
    inv = np.asarray(G.inverse_table())
    right = G._right
    # conj[x] = s^-1 x s for each generator s, by four gathers over all x.
    conj = [right[inv[right[inv, s]], s] for s in range(right.shape[1])]
    # Label every element with the least index in its class: take the least
    # label over each map and over its 2^t-th power (so one map's cycles
    # close in logarithmically many rounds), jump to the label's label, and
    # stop once a round changes nothing.  Labels stay within the class, and
    # a fixed point is constant along every map, so it is the class minimum.
    label = np.arange(n)
    jumps = conj
    while True:
        before = label
        for m, jump in zip(conj, jumps):
            label = np.minimum(label, label[m])
            label = np.minimum(label, label[jump])
        label = label[label]
        if np.array_equal(label, before):
            break
        jumps = [jump[jump] for jump in jumps]
    reps = np.flatnonzero(label == np.arange(n))
    class_of = np.empty(n, dtype=np.intp)
    class_of[reps] = np.arange(len(reps))
    class_of = class_of[label]
    sizes = np.bincount(class_of)
    if sizes.sum() != n or (n % sizes).any():
        raise EngineInvariantError("class sizes must divide the group order and sum to it")
    ends = np.cumsum(sizes).tolist()
    by_class = np.argsort(class_of, kind="stable").tolist()
    data = ClassData(
        num_classes=len(reps),
        reps=tuple(reps.tolist()),
        sizes=tuple(sizes.tolist()),
        class_of=tuple(class_of.tolist()),
        members=tuple(tuple(by_class[e - s:e]) for s, e in zip(sizes.tolist(), ends)),
        inverse_class=tuple(class_of[inv[reps]].tolist()),
    )
    G._classes = data
    return data


def exponent(G: FiniteGroup) -> int:
    if G._exponent is None:
        G._exponent = math.lcm(*set(G.orders()))
    return G._exponent


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


def _closure(G: FiniteGroup, candidates: Iterable[int], limit: Optional[int] = None,
             conjugators: Sequence[int] = ()) -> Optional[Tuple[List[int], List[int]]]:
    """Greedy generators and sorted members of the subgroup the candidates generate.

    Each candidate not yet in the closure H becomes a generator g, and H
    grows to <H, g> by whole right cosets of H (Dimino's algorithm): first
    the cosets H g^j for 0 < j < r, r the least with g^r in H, then, round by
    round, the coset H y of every product y of a new coset's representative
    and a generator that the closure does not hold yet.  The conjugates
    c^-1 g c of each generator by the conjugators are candidates too, so the
    result is also closed under conjugation by them.  None once the closure
    holds more than ``limit`` elements.
    """
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    H = np.zeros(1, dtype=np.intp)
    gens: List[int] = []
    queue = list(candidates)
    for g in queue:  # conjugates are appended while iterating
        if member[g]:
            continue
        gens.append(g)
        if conjugators:
            queue.extend(_conjugates(G, g, conjugators))
        cyclic = np.asarray(G.powers(g, G.orders()[g]))
        hits = np.flatnonzero(member[cyclic])
        r = int(hits[1]) if len(hits) > 1 else len(cyclic)
        if limit is not None and len(H) * r > limit:
            return None
        reps = cyclic[1:r]
        cosets = _products(G, H, reps).T
        while len(reps):
            member[cosets] = True
            size = np.count_nonzero(member)
            if size % len(H):
                raise EngineInvariantError("a coset step must keep |H| dividing the closure's order")
            if limit is not None and size > limit:
                return None
            y = _products(G, reps, gens).ravel()
            y = y[~member[y]]
            if not len(y):
                break
            y = y[_first_occurrences(y)]
            cosets = _products(G, H, y).T
            # Products in one coset have the same coset, so the same least element.
            first = _first_occurrences(cosets.min(axis=1))
            reps, cosets = y[first], cosets[first]
        H = np.flatnonzero(member)
    return gens, H.tolist()


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Position of the first occurrence of each distinct key (np.unique would import numpy.ma)."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    return order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]


def _products(G: FiniteGroup, left: Sequence[int], right: Sequence[int]) -> np.ndarray:
    """Indices of x y for x in left (rows) and y in right (columns)."""
    E = G.rows
    rows = np.take(E[left], E[right], axis=1).reshape(-1, G.degree)
    return G.index_rows(rows).reshape(len(left), len(right))


def _conjugates(G: FiniteGroup, x: int, conjugators: Sequence[int]) -> List[int]:
    """Indices of c^-1 x c for each c in conjugators."""
    E = G.rows
    inv = G.inverse_table()
    rows = np.take(E[[inv[c] for c in conjugators]], E[x], axis=1)
    return G.index_rows(np.take_along_axis(rows, E[conjugators], axis=1)).tolist()


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
    return SubgroupHandle(G, _closure(G, sorted(_commutators(G, gens)), conjugators=gens)[1])  # type: ignore[index]


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
    sub = generate_group(G.rows[gens], degree=G.degree, cap=G.order)
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
        S = np.flatnonzero(np.asarray(G.orders()) % p).tolist()
        # The closure contains S, so staying within target means it is S.
        ok = len(S) == target and _closure(G, S, limit=target) is not None
        G._pnil[p] = tuple(S) if ok else None
    complement = G._pnil[p]
    if complement is None:
        return False, None
    return True, SubgroupHandle(G, complement) if want_certificate else None
