"""Permutation group core: closure, classes, subgroup lattice, p-nilpotence."""

import pytest
from hypothesis import given, settings, strategies as st

import acdlab.perm as pm
from acdlab.constructions import (
    Alternating,
    Cyclic,
    Dihedral,
    DirectProduct,
    FieldSemidirect,
    Quaternion8,
    Symmetric,
    build,
)
from acdlab.errors import InputError, SizeLimitError
from acdlab.group import (
    _closure,
    center,
    conjugacy_classes,
    derived_series,
    derived_subgroup,
    exponent,
    full_subgroup,
    generate_group,
    is_normal,
    is_p_nilpotent,
    is_solvable,
    minimal_normal_subgroups,
    normal_closure,
    point_stabilizer,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
)
from acdlab.number_theory import p_prime_part, prime_divisors

from oracles import all_normal_subgroups, p_nilpotent_brute, power_map, subgroup_is_normal_brute

perms_of_5 = st.permutations(list(range(5)))


class TestPermOps:
    @given(perms_of_5, perms_of_5, perms_of_5)
    def test_composition_axioms(self, a, b, c):
        a, b, c = pm.validate(a), pm.validate(b), pm.validate(c)
        e = pm.identity(5)
        assert pm.compose(pm.compose(a, b), c) == pm.compose(a, pm.compose(b, c))
        assert pm.compose(a, e) == a
        assert pm.compose(e, a) == a
        assert pm.compose(a, pm.inverse(a)) == e

    @given(perms_of_5, st.integers(min_value=-6, max_value=6))
    def test_power(self, a, k):
        a = pm.validate(a)
        want = pm.identity(5)
        step = a if k >= 0 else pm.inverse(a)
        for _ in range(abs(k)):
            want = pm.compose(want, step)
        assert pm.power(a, k) == want

    @given(perms_of_5)
    def test_order(self, a):
        a = pm.validate(a)
        k = pm.order_of(a)
        assert pm.power(a, k) == pm.identity(5)
        assert all(pm.power(a, j) != pm.identity(5) for j in range(1, k))

    def test_validate_rejects_garbage(self):
        with pytest.raises(InputError):
            pm.validate([0, 0, 1])
        with pytest.raises(InputError):
            pm.validate([0, 2])
        with pytest.raises(InputError):
            pm.validate([])

    def test_cycle_format(self):
        assert pm.format_cycles(pm.validate([1, 0, 2])) == "(0 1)"
        assert pm.format_cycles(pm.identity(3)) == "()"


class TestGenerateGroup:
    def test_cyclic_from_single_cycle(self):
        G = generate_group([[1, 2, 3, 4, 5, 0]])
        assert G.order == 6
        assert G.orders()[G.index_of(pm.validate([1, 2, 3, 4, 5, 0]))] == 6

    def test_symmetric_from_coxeter_gens(self):
        G = generate_group([[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]])
        assert G.order == 24

    def test_closure_property(self):
        G = build(Dihedral(5))
        idx = set(range(G.order))
        assert {G.mul(i, j) for i in idx for j in idx} == idx
        assert {G.inv(i) for i in idx} == idx

    def test_identity_is_element_zero(self):
        G = build(Symmetric(3))
        assert G.elements[0] == pm.identity(G.degree)
        for i in range(G.order):
            assert G.mul(0, i) == i == G.mul(i, 0)

    def test_mul_matches_composition(self):
        G = build(Symmetric(4))
        for i in (3, 10, 17):
            for j in (1, 8, 21):
                assert G.elements[G.mul(i, j)] == pm.compose(G.elements[i], G.elements[j])

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            generate_group([[1, 2, 3, 4, 5, 6, 0]], cap=5)

    def test_cap_stops_a_cyclic_closure_one_past_it(self):
        # C7 grows one element per round; the seventh element crosses cap 6.
        with pytest.raises(SizeLimitError):
            generate_group([[1, 2, 3, 4, 5, 6, 0]], cap=6)
        assert generate_group([[1, 2, 3, 4, 5, 6, 0]], cap=7).order == 7

    def test_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("ACDLAB_ORDER_CAP", "5")
        with pytest.raises(SizeLimitError):
            generate_group([[1, 2, 3, 4, 5, 6, 0]])
        monkeypatch.setenv("ACDLAB_ORDER_CAP", "7")
        assert generate_group([[1, 2, 3, 4, 5, 6, 0]]).order == 7
        monkeypatch.setenv("ACDLAB_ORDER_CAP", "seven")
        with pytest.raises(InputError):
            generate_group([[1, 2, 3, 4, 5, 6, 0]])

    def test_degree_above_packing_limit_rejected(self):
        transposition = [1, 0] + list(range(2, 70000))
        with pytest.raises(InputError, match="65535"):
            generate_group([transposition])

    def test_entries_out_of_range_are_not_members(self):
        G = build(Cyclic(9))
        for p in (tuple(range(8)) + (300,), (-1,) * 9, tuple(range(8)) + (9,), (0,) * 10):
            with pytest.raises(InputError):
                G.index_of(p)
            assert p not in G
        assert tuple(range(9)) in G

    def test_non_member_rows_are_typed(self):
        G = build(Cyclic(9))
        swap = [[1, 0] + list(range(2, 9))]
        with pytest.raises(InputError, match="not an element"):
            G.index_rows(swap)
        with pytest.raises(InputError, match="not an element"):
            G.index_of(swap[0])

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(InputError):
            generate_group([[1, 0], [1, 2, 0]])

    def test_trivial_group(self):
        G = generate_group([], degree=4)
        assert G.order == 1

    def test_word_for_reaches_element(self):
        G = build(Symmetric(4))
        gens = G.generator_indices
        for i in range(G.order):
            x = 0
            for gi in G.word_for(i):
                x = G.mul(x, gens[gi])
            assert x == i

    def test_deterministic_element_order(self):
        a = build(FieldSemidirect(7, 1, 3))
        b = build(FieldSemidirect(7, 1, 3))
        assert a.elements == b.elements


class TestElementStructure:
    def test_orders_and_exponent(self):
        G = build(Symmetric(4))
        orders = G.orders()
        assert sorted(set(orders)) == [1, 2, 3, 4]
        assert exponent(G) == 12
        for i in range(G.order):
            assert G.power(i, orders[i]) == 0

    def test_inverse_table(self):
        G = build(Dihedral(6))
        inv = G.inverse_table()
        for i in range(G.order):
            assert G.mul(i, inv[i]) == 0


def _closure_by_loop(gens):
    """Element-at-a-time BFS closure with tuple composition: elements, parents."""
    gens = sorted({tuple(g) for g in gens})
    ident = pm.identity(len(gens[0]))
    gens = [g for g in gens if g != ident]
    elements, parents, seen = [ident], [(-1, -1)], {ident}
    pos = 0
    while pos < len(elements):
        for gi, g in enumerate(gens):
            y = pm.compose(elements[pos], g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
                parents.append((pos, gi))
        pos += 1
    return elements, parents


def _classes_by_loop(G):
    """Classes by conjugating with the generators, numbered by smallest member."""
    index = {p: i for i, p in enumerate(G.elements)}
    class_of = [-1] * G.order
    for start in range(G.order):
        if class_of[start] != -1:
            continue
        c = max(class_of) + 1
        class_of[start] = c
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in G.generators:
                y = index[pm.compose(g, pm.compose(G.elements[x], pm.inverse(g)))]
                if class_of[y] == -1:
                    class_of[y] = c
                    frontier.append(y)
    return class_of


def _span_by_loop(start, moves):
    """Every tuple reachable from start by the moves, each a function tuple -> tuple."""
    seen = set(start)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _generated_by_loop(ident, perms):
    return _span_by_loop([ident], [lambda x, g=g: pm.compose(x, g) for g in perms])


def _conjugates_by_loop(perms, conjugators):
    return _span_by_loop(perms, [lambda x, g=g: pm.compose(g, pm.compose(x, pm.inverse(g)))
                                 for g in conjugators])


def _generators_by_loop(ident, members):
    """Greedy generating list for a subgroup given as its tuples."""
    gens, span = [], {ident}
    for x in members:
        if x not in span:
            gens.append(x)
            span = _generated_by_loop(ident, gens)
    return gens


def _derived_by_loop(ident, members):
    """Commutator subgroup: generator commutators, closed under conjugation, then generated."""
    gens = _generators_by_loop(ident, members)
    comms = [pm.compose(pm.compose(pm.inverse(a), pm.inverse(b)), pm.compose(a, b))
             for a in gens for b in gens]
    return _generated_by_loop(ident, _conjugates_by_loop(comms, gens))


def _p_complement_by_loop(G, p):
    """The set of p'-elements if it is a subgroup of order the p'-part of |G|, else None."""
    S = {x for x in G.elements if pm.order_of(x) % p != 0}
    if len(S) != p_prime_part(G.order, p):
        return None
    return S if all(pm.compose(a, b) in S for a in S for b in S) else None


LOOP_REFERENCE_GROUPS = [
    build(Symmetric(4)),
    build(FieldSemidirect(7, 1, 3)),
    build(DirectProduct(Cyclic(3), Dihedral(5))),
    build(Quaternion8()),
    # Degree above 256 takes 16-bit image rows.
    generate_group([list(range(1, 300)) + [0]]),
]
LOOP_REFERENCE_IDS = ["S4", "F21", "C3xD10", "Q8", "C300"]


class TestAgainstLoopReference:
    """Array-based group routines give exactly what plain tuple loops give."""

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_group_tables(self, G):
        elements, parents = _closure_by_loop(G.generators)
        assert list(G.elements) == elements
        words = [()]
        for parent, gen in parents[1:]:  # a BFS parent comes before its child
            words.append(words[parent] + (gen,))
        assert [G.word_for(i) for i in range(G.order)] == words
        index = {p: i for i, p in enumerate(G.elements)}
        assert list(G.inverse_table()) == [index[pm.inverse(p)] for p in G.elements]
        assert list(G.orders()) == [pm.order_of(p) for p in G.elements]
        assert list(conjugacy_classes(G).class_of) == _classes_by_loop(G)
        for i in range(0, G.order, max(1, G.order // 7)):
            m = G.orders()[i]
            assert G.powers(i, m) == [G.power(i, t) for t in range(m)]

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_generator_table(self, G):
        assert G._right.shape == (G.order, len(G.generator_indices))
        for x in range(G.order):
            for s, g in enumerate(G.generator_indices):
                assert G._right[x, s] == G.mul(x, g)

    @pytest.mark.parametrize("spec, reflections", [
        (Dihedral(101), 101), (DirectProduct(Cyclic(2), Dihedral(53)), 53),
    ], ids=["D(202)", "C(2)*D(106)"])
    def test_classes_needing_many_label_rounds(self, spec, reflections):
        # The reflection classes (101 and 53 elements) are long cycles of
        # the conjugation maps, so their labels settle only after several
        # rounds of doubling; stopping early splits them.
        G = build(spec)
        assert list(conjugacy_classes(G).class_of) == _classes_by_loop(G)
        assert max(conjugacy_classes(G).sizes) == reflections

    @staticmethod
    def _seeds(G):
        return ([1], [G.order // 2], [G.order - 1], [1, G.order // 3])

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_closure_limit(self, G):
        ident = G.elements[0]
        for seed in self._seeds(G):
            size = len(_generated_by_loop(ident, [G.elements[i] for i in seed]))
            for limit in (1, size - 1, size, size + 1, G.order):
                got = _closure(G, seed, limit)
                assert (got is None) == (size > limit)
                if got is not None:
                    assert len(got[1]) == size

    @staticmethod
    def _perms(G, H):
        elements = G.elements
        return {elements[i] for i in H.indices}

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_generated_and_normal_closure(self, G):
        ident = G.elements[0]
        for seed in self._seeds(G):
            perms = [G.elements[i] for i in seed]
            assert self._perms(G, subgroup_generated(G, seed)) == _generated_by_loop(ident, perms)
            assert self._perms(G, normal_closure(G, seed)) == _generated_by_loop(
                ident, _conjugates_by_loop(perms, G.generators))

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_derived_series(self, G):
        ident = G.elements[0]
        want = [set(G.elements)]
        while True:
            want.append(_derived_by_loop(ident, want[-1]))
            if len(want[-1]) in (1, len(want[-2])):
                break
        assert [self._perms(G, H) for H in derived_series(G)] == want

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_is_normal(self, G):
        subgroups = [derived_subgroup(G), point_stabilizer(G, 0)]
        subgroups += [subgroup_generated(G, seed) for seed in self._seeds(G)]
        for H in subgroups:
            members = self._perms(G, H)
            want = _conjugates_by_loop(members, G.generators) == members
            assert is_normal(G, H) == want

    @pytest.mark.parametrize("G", LOOP_REFERENCE_GROUPS, ids=LOOP_REFERENCE_IDS)
    def test_is_p_nilpotent(self, G):
        for p in prime_divisors(G.order):
            want = _p_complement_by_loop(G, p)
            ok, K = is_p_nilpotent(G, p)
            assert ok == (want is not None)
            assert (self._perms(G, K) if ok else K) == want


class TestInvariantChecks:
    def test_class_size_check_survives_python_O(self):
        import subprocess
        import sys

        # With every inverse taken to be the identity, the conjugation maps
        # send each element to a generator, and the labels merge five of
        # S(3)'s six elements into one "class".
        code = (
            "assert False\n"
            "from acdlab.constructions import build\n"
            "from acdlab.group import conjugacy_classes\n"
            "from acdlab.specparse import parse_group_spec\n"
            "G = build(parse_group_spec('S(3)'))\n"
            "G._inverse = (0,) * G.order\n"
            "conjugacy_classes(G)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "AssertionError" not in proc.stderr
        assert proc.stderr.rstrip().endswith(
            "acdlab.errors.EngineInvariantError: class sizes must divide the group order and sum to it"
        ), proc.stderr


class TestConjugacyClasses:
    @pytest.mark.parametrize(
        "spec,num,sizes",
        [
            (Cyclic(6), 6, [1] * 6),
            (Symmetric(3), 3, [1, 2, 3]),
            (Symmetric(4), 5, [1, 3, 6, 6, 8]),
            (Alternating(4), 4, [1, 3, 4, 4]),
            (Alternating(5), 5, [1, 12, 12, 15, 20]),
            (Quaternion8(), 5, [1, 1, 2, 2, 2]),
            (Dihedral(5), 4, [1, 2, 2, 5]),
        ],
    )
    def test_known_class_structure(self, spec, num, sizes):
        G = build(spec)
        C = conjugacy_classes(G)
        assert C.num_classes == num
        assert sorted(C.sizes) == sorted(sizes)
        assert sum(C.sizes) == G.order

    def test_class_of_consistent(self):
        G = build(Symmetric(4))
        C = conjugacy_classes(G)
        for c, members in enumerate(C.members):
            for x in members:
                assert C.class_of[x] == c
        # Conjugation never leaves the class.
        for g in range(G.order):
            for c in range(C.num_classes):
                assert C.class_of[G.conjugate(g, C.reps[c])] == c

    def test_identity_class_first(self):
        for spec in (Symmetric(4), Quaternion8(), Dihedral(14)):
            C = conjugacy_classes(build(spec))
            assert C.reps[0] == 0 and C.sizes[0] == 1

    def test_inverse_class(self):
        G = build(FieldSemidirect(7, 1, 3))
        C = conjugacy_classes(G)
        for c in range(C.num_classes):
            assert C.class_of[G.inv(C.reps[c])] == C.inverse_class[c]

    def test_power_map(self):
        G = build(Symmetric(4))
        C = conjugacy_classes(G)
        assert power_map(G, C, 1) == tuple(range(C.num_classes))
        for k in (2, 3, 5):
            mapped = power_map(G, C, k)
            for c in range(C.num_classes):
                x = 0
                for _ in range(k):
                    x = G.mul(x, C.reps[c])
                assert C.class_of[x] == mapped[c]


class TestSubgroupLattice:
    def test_handles_basic(self):
        G = build(Symmetric(4))
        assert trivial_subgroup(G).order == 1
        assert full_subgroup(G).order == 24
        H = point_stabilizer(G, 0)
        assert H.order == 6
        assert 0 in H

    def test_subgroup_generated(self):
        G = build(Symmetric(4))
        i = G.index_of(pm.validate([1, 0, 2, 3]))
        j = G.index_of(pm.validate([0, 1, 3, 2]))
        H = subgroup_generated(G, [i, j])
        assert H.order == 4
        members = H.member_set()
        assert all(G.mul(a, b) in members for a in members for b in members)

    def test_normal_closure_and_is_normal(self):
        G = build(Symmetric(4))
        i = G.index_of(pm.validate([1, 0, 3, 2]))
        V = normal_closure(G, [i])
        assert V.order == 4
        assert is_normal(G, V)
        assert subgroup_is_normal_brute(G, V)
        t = G.index_of(pm.validate([1, 0, 2, 3]))
        T = subgroup_generated(G, [t])
        assert not is_normal(G, T)
        assert not subgroup_is_normal_brute(G, T)
        assert normal_closure(G, [t]).order == 24

    def test_center_examples(self):
        assert center(build(Symmetric(4))).order == 1
        assert center(build(Quaternion8())).order == 2
        assert center(build(Cyclic(12))).order == 12
        assert center(build(Dihedral(12))).order == 2
        assert center(build(Dihedral(5))).order == 1

    def test_derived_examples(self):
        S4 = build(Symmetric(4))
        assert derived_subgroup(S4).order == 12
        A4 = build(Alternating(4))
        assert derived_subgroup(A4).order == 4
        assert derived_subgroup(build(Dihedral(5))).order == 5
        assert derived_subgroup(build(Cyclic(9))).order == 1
        series = derived_series(S4)
        assert [H.order for H in series] == [24, 12, 4, 1]

    def test_solvability(self):
        assert is_solvable(build(Symmetric(4)))
        assert is_solvable(build(Quaternion8()))
        assert is_solvable(build(FieldSemidirect(11, 1, 10)))
        assert not is_solvable(build(Alternating(5)))
        assert not is_solvable(build(DirectProduct(Cyclic(2), Alternating(5))))

    def test_minimal_normal_subgroups(self):
        assert [H.order for H in minimal_normal_subgroups(build(Symmetric(4)))] == [4]
        assert sorted(H.order for H in minimal_normal_subgroups(build(Cyclic(6)))) == [2, 3]
        assert [H.order for H in minimal_normal_subgroups(build(Quaternion8()))] == [2]
        assert [H.order for H in minimal_normal_subgroups(build(Alternating(5)))] == [60]
        mins = minimal_normal_subgroups(build(DirectProduct(Cyclic(2), Symmetric(3))))
        assert sorted(H.order for H in mins) == [2, 3]

    def test_minimal_normals_against_lattice(self):
        for spec in (Symmetric(4), Dihedral(12), FieldSemidirect(3, 2, 8)):
            G = build(spec)
            lattice = [set(N) for N in all_normal_subgroups(G)]
            proper = [N for N in lattice if 1 < len(N) < G.order or len(N) == G.order]
            nontrivial = [N for N in lattice if len(N) > 1]
            want = {
                frozenset(N)
                for N in nontrivial
                if not any(1 < len(M) < len(N) and M < N for M in nontrivial)
            }
            got = {frozenset(H.member_set()) for H in minimal_normal_subgroups(G)}
            assert got == want

    def test_subgroup_as_group(self):
        G = build(Symmetric(4))
        H = point_stabilizer(G, 3)
        S, to_parent = subgroup_as_group(G, H)
        assert S.order == 6
        assert len(to_parent) == 6
        assert to_parent[0] == 0
        for a in range(S.order):
            for b in range(S.order):
                assert to_parent[S.mul(a, b)] == G.mul(to_parent[a], to_parent[b])


class TestPNilpotence:
    @pytest.mark.parametrize(
        "spec,p,want",
        [
            (Symmetric(4), 2, False),
            (Symmetric(4), 3, False),
            (Symmetric(3), 2, True),
            (Symmetric(3), 3, False),
            (Quaternion8(), 2, True),
            (Alternating(4), 2, False),
            (Alternating(4), 3, True),
            (FieldSemidirect(7, 1, 3), 3, True),
            (FieldSemidirect(7, 1, 3), 7, False),
            (Dihedral(5), 5, False),
            (Dihedral(5), 2, True),
            (Cyclic(12), 2, True),
            (Cyclic(12), 3, True),
        ],
    )
    def test_known_cases(self, spec, p, want):
        G = build(spec)
        ok, cert = is_p_nilpotent(G, p)
        assert ok == want
        assert p_nilpotent_brute(G, p) == want
        if ok:
            assert cert is not None
            assert cert.order == p_prime_part(G.order, p)
            assert is_normal(G, cert)
            assert subgroup_is_normal_brute(G, cert)
        else:
            assert cert is None

    def test_rejects_nonprime(self):
        with pytest.raises(InputError):
            is_p_nilpotent(build(Cyclic(6)), 4)

    def test_cached_answer_and_certificate(self):
        G = build(Alternating(4))
        assert is_p_nilpotent(G, 3, want_certificate=False) == (True, None)
        ok, cert = is_p_nilpotent(G, 3)
        assert ok and cert.order == 4
        assert is_p_nilpotent(G, 3) == (True, cert)
        assert is_p_nilpotent(G, 2) == (False, None)
        assert is_p_nilpotent(G, 2, want_certificate=False) == (False, None)
        assert derived_subgroup(G) == derived_subgroup(G) == cert

    @given(st.sampled_from([
        Cyclic(8), Cyclic(30), Dihedral(8), Dihedral(18), Dihedral(24),
        Symmetric(3), Symmetric(4), Alternating(4), Quaternion8(),
        FieldSemidirect(5, 1, 4), FieldSemidirect(3, 2, 4),
        DirectProduct(Cyclic(3), Dihedral(8)),
        DirectProduct(Cyclic(2), Symmetric(3)),
    ]))
    @settings(max_examples=26, deadline=None)
    def test_matches_brute_oracle(self, spec):
        G = build(spec)
        for p in prime_divisors(G.order):
            assert is_p_nilpotent(G, p)[0] == p_nilpotent_brute(G, p)
