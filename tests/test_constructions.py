"""Group builders: orders, validation, and the default catalog's invariants."""

import pytest

from acdlab.constructions import (
    Alternating,
    Cyclic,
    Dihedral,
    DirectProduct,
    FieldSemidirect,
    MatrixSemidirect,
    Quaternion8,
    Symmetric,
    build,
    default_catalog,
    dihedral,
    to_text,
    translation_subgroup,
    validate_spec,
)
from acdlab.errors import ConstructionError, EngineInvariantError, InputError
from acdlab.group import (
    center,
    conjugacy_classes,
    is_normal,
    is_solvable,
    subgroup_as_group,
)
from acdlab.number_theory import multiplicative_order


class TestBuilders:
    @pytest.mark.parametrize(
        "spec,order",
        [
            (Cyclic(1), 1),
            (Cyclic(12), 12),
            (Dihedral(2), 4),
            (Dihedral(7), 14),
            (Symmetric(4), 24),
            (Alternating(5), 60),
            (Quaternion8(), 8),
            (FieldSemidirect(7, 1, 3), 21),
            (FieldSemidirect(2, 2, 3), 12),
            (FieldSemidirect(5, 3, 124), 15500),
            (MatrixSemidirect(5, (((0, 4), (1, 4)), ((0, 1), (1, 0)))), 150),
            (DirectProduct(Cyclic(2), Symmetric(3)), 12),
        ],
    )
    def test_orders(self, spec, order):
        assert build(spec).order == order

    def test_cyclic_is_cyclic(self):
        G = build(Cyclic(12))
        assert max(G.orders()) == 12
        assert center(G).order == 12

    def test_dihedral_element_orders(self):
        G = build(Dihedral(9))
        orders = sorted(G.orders())
        # Nine reflections of order 2, rotations of orders dividing 9.
        assert orders.count(2) == 9
        assert orders.count(9) == 6

    def test_klein_four_realization(self):
        G = build(Dihedral(2))
        assert G.order == 4
        assert all(o <= 2 for o in G.orders())

    def test_quaternion_structure(self):
        G = build(Quaternion8())
        orders = sorted(G.orders())
        # A unique involution is what separates Q8 from D4.
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
        assert center(G).order == 2

    def test_field_semidirect_frobenius(self):
        G = build(FieldSemidirect(7, 1, 3))
        C = conjugacy_classes(G)
        assert C.num_classes == 5
        assert sorted(C.sizes) == [1, 3, 3, 7, 7]
        assert is_solvable(G)

    def test_field_semidirect_d_one_is_elementary_abelian(self):
        G = build(FieldSemidirect(3, 2, 1))
        assert G.order == 9
        assert center(G).order == 9
        assert all(o in (1, 3) for o in G.orders())

    def test_a4_as_field_semidirect(self):
        # C3 acting on F4 is the alternating group on 4 points.
        G = build(FieldSemidirect(2, 2, 3))
        C = conjugacy_classes(G)
        assert C.num_classes == 4
        assert sorted(C.sizes) == [1, 3, 4, 4]

    def test_matrix_semidirect_s3_on_f25(self):
        spec = MatrixSemidirect(5, (((0, 4), (1, 4)), ((0, 1), (1, 0))))
        G = build(spec)
        assert G.order == 150
        H = subgroup_as_group(G, translation_subgroup(G, 5, 2))[0]
        assert H.order == 25

    def test_direct_product_commutes_across_factors(self):
        G = build(DirectProduct(Cyclic(3), Dihedral(5)))
        assert G.order == 30
        assert center(G).order == 3

    def test_build_determinism(self):
        a = build(FieldSemidirect(3, 2, 8))
        b = build(FieldSemidirect(3, 2, 8))
        assert a.elements == b.elements


class TestDihedralWrapper:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_order_and_class_count(self, p):
        G = dihedral(p)
        assert G.order == 2 * p
        assert conjugacy_classes(G).num_classes == (p + 3) // 2

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            dihedral(4)
        with pytest.raises(InputError):
            dihedral(2)


class TestValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            Cyclic(0),
            Cyclic(-3),
            Dihedral(1),
            Symmetric(0),
            Symmetric(7),
            Alternating(2),
            Alternating(7),
            FieldSemidirect(4, 1, 3),
            FieldSemidirect(7, 0, 1),
            FieldSemidirect(7, 1, 4),
            FieldSemidirect(2, 1, 3),
            FieldSemidirect(5, 2, 4),
            FieldSemidirect(3, 2, 2),
            MatrixSemidirect(4, (((1, 0), (0, 1)),)),
            MatrixSemidirect(2, (((1, 1), (1, 1)),)),
            MatrixSemidirect(2, ()),
            MatrixSemidirect(2, (((1, 0), (0, 1)), ((1, 0),))),
            DirectProduct(Cyclic(2), Cyclic(0)),
        ],
    )
    def test_rejected(self, spec):
        with pytest.raises((ConstructionError, InputError)):
            validate_spec(spec)

    def test_irreducibility_condition(self):
        # d > 1 needs the Frobenius orbit of the action scalar to span the field.
        validate_spec(FieldSemidirect(5, 2, 3))
        assert multiplicative_order(5, 3) == 2
        validate_spec(FieldSemidirect(2, 3, 7))

    def test_entries_reduced_mod_p(self):
        # Entries are read mod p, so this is the identity and not singular.
        validate_spec(MatrixSemidirect(2, (((1, 2), (2, 1)),)))

    def test_missing_field_modulus_is_typed(self, monkeypatch):
        import acdlab.constructions as constructions

        assert constructions._field_modulus(2, 3) == (1, 1, 0, 1)
        monkeypatch.setattr(constructions, "_is_irreducible", lambda f, p: False)
        with pytest.raises(EngineInvariantError, match="irreducible"):
            constructions._field_modulus(2, 3)


class TestTranslationSubgroup:
    def test_members_and_normality(self):
        G = build(FieldSemidirect(3, 2, 8))
        V = translation_subgroup(G, 3, 2)
        assert V.order == 9
        assert is_normal(G, V)
        members = V.member_set()
        assert all(G.mul(a, b) in members for a in members for b in members)

    def test_wrong_shape_rejected(self):
        G = build(FieldSemidirect(3, 2, 8))
        with pytest.raises(InputError):
            translation_subgroup(G, 3, 1)

    def test_group_without_translations_rejected(self):
        # C(9) acts on 3^2 points, but the translations of (C_3)^2 are not in it.
        with pytest.raises(InputError, match="not an element"):
            translation_subgroup(build(Cyclic(9)), 3, 2)


class TestCatalog:
    def test_unique_and_valid(self):
        cat = default_catalog()
        texts = [to_text(s) for s in cat]
        assert len(texts) == len(set(texts))
        for s in cat:
            validate_spec(s)

    def test_field_semidirect_coverage(self):
        cat = default_catalog()
        fs = [s for s in cat if isinstance(s, FieldSemidirect)]
        assert all(s.p**s.a <= 125 for s in fs)
        # Every valid (p, a, d) with p^a <= 125 appears exactly once.
        from acdlab.number_theory import divisors

        want = set()
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113):
            q = p
            a = 1
            while q <= 125:
                for d in divisors(q - 1):
                    if d == 1 or multiplicative_order(p, d) == a:
                        want.add((p, a, d))
                q *= p
                a += 1
        assert {(s.p, s.a, s.d) for s in fs} == want

    def test_required_members_present(self):
        texts = {to_text(s) for s in default_catalog()}
        required = {
            "S(4)", "A(5)", "Q8", "F(7,3)", "C(2)*S(3)",
            "D(6)", "D(10)", "D(14)", "D(22)", "D(26)",
            "MAT(5;[[0,4],[1,4]],[[0,1],[1,0]])",
            "MAT(7;[[0,6],[1,6]],[[0,1],[1,0]])",
        }
        assert required <= texts

    def test_odd_order_members_solvable(self):
        # Spot-check the odd-order slice against the solvability engine.
        cat = [s for s in default_catalog()]
        odd = []
        for s in cat:
            G = build(s)
            if G.order % 2 == 1 and G.order <= 400:
                odd.append(G)
        assert odd
        assert all(is_solvable(G) for G in odd)
