"""Exact average-character-degree statistics and closed-form companions."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional

from .chartab import CharacterTable
from .errors import DomainError, InputError
from .fieldvals import FieldSpec, irr_subset
from .group import FiniteGroup, SubgroupHandle, is_normal
from .number_theory import is_prime

Rational = Fraction


def ave(values: Iterable[Rational]) -> Fraction:
    vals = list(values)
    if not vals:
        raise DomainError("average of an empty collection")
    return Fraction(sum(vals), len(vals))


@dataclass(frozen=True)
class AcdQuery:
    """Which characters enter the average: field, p'-degree filter, quotient."""

    field: FieldSpec = field(default_factory=FieldSpec.complexes)
    p_filter: Optional[int] = None
    quotient_by: Optional[SubgroupHandle] = None


def selected_rows(G: FiniteGroup, T: CharacterTable, query: Optional[AcdQuery] = None) -> List[int]:
    """Row indices passing the query filters.

    The quotient variant keeps rows whose kernel contains the given normal
    subgroup; those rows are exactly the characters of the quotient.
    """
    if T.group is not G:
        raise InputError("table does not belong to the given group")
    if query is None:
        query = AcdQuery()
    rows = irr_subset(T, query.field, query.p_filter)
    N = query.quotient_by
    if N is not None:
        if N.parent is not G:
            raise InputError("quotient subgroup belongs to a different group")
        if not is_normal(G, N):
            raise InputError("quotient subgroup must be normal")
        classes = {T.classes.class_of[i] for i in N.indices}
        rows = [r for r in rows if classes.issubset(T.kernel_classes[r])]
    return rows


def acd(G: FiniteGroup, T: CharacterTable, query: Optional[AcdQuery] = None) -> Fraction:
    """Average degree over rows passing the query filters."""
    return ave(T.degrees[r] for r in selected_rows(G, T, query))


def bound_f(p: int, x: int) -> Fraction:
    """The bound 2(p^x + 1)/(p^x + 3); increasing in x for fixed p >= 2."""
    if not isinstance(p, int) or p < 2:
        raise InputError(f"p must be an integer >= 2, got {p}")
    if not isinstance(x, int) or x < 1:
        raise DomainError(f"exponent must be an integer >= 1, got {x}")
    px = p**x
    return Fraction(2 * (px + 1), px + 3)


def abelian3_formula(p: int, a: int, d: int, index: int) -> Fraction:
    """Average degree d*(index + p^a - 1)/(d*index + p^a - 1) for V rtimes H.

    Here |V| = p^a, H cyclic of order d acting fixed-point-freely, and
    index = |H : A^k(H)| counts the linear characters of H with values in k.
    """
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if a < 1 or d < 1:
        raise InputError("a and d must be positive")
    pa = p**a
    if (pa - 1) % d != 0:
        raise InputError(f"d must divide p^a - 1, got d={d}, p^a={pa}")
    if index < 1 or d % index != 0:
        raise InputError(f"index must divide d, got index={index}, d={d}")
    return Fraction(d * (index + pa - 1), d * index + pa - 1)
