"""Field-of-values classification of characters and the A^k(G) subgroup.

A field descriptor is one of Q(zeta_m) (with Q = Q(zeta_1)), the reals, or
the complexes.  Because character values are stored at their minimal
conductor, membership in Q(zeta_m) reduces to a divisibility test, and
membership in R to fixedness under conjugation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .chartab import CharacterTable, check_row
from .errors import InputError
from .group import FiniteGroup, SubgroupHandle
from .number_theory import is_prime


@dataclass(frozen=True)
class FieldSpec:
    """An abelian field descriptor: Cyclotomic(m), Reals, or Complexes."""

    variant: str
    m: int = 0

    def __post_init__(self):
        if self.variant not in ("cyclotomic", "reals", "complexes"):
            raise InputError(f"unknown field variant {self.variant!r}")
        if self.variant == "cyclotomic":
            if self.m < 1:
                raise InputError(f"cyclotomic conductor must be >= 1, got {self.m}")
            m = self.m
            if m % 4 == 2:
                m //= 2  # Q(zeta_2k) = Q(zeta_k) for odd k
            object.__setattr__(self, "m", m)
        else:
            object.__setattr__(self, "m", 0)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("cyclotomic", 1)

    @staticmethod
    def cyclotomic(m: int) -> "FieldSpec":
        return FieldSpec("cyclotomic", m)

    @staticmethod
    def reals() -> "FieldSpec":
        return FieldSpec("reals")

    @staticmethod
    def complexes() -> "FieldSpec":
        return FieldSpec("complexes")

    def contains_root_of_unity(self, n: int) -> bool:
        """Whether zeta_n lies in the field."""
        if n in (1, 2):
            return True
        if self.variant == "complexes":
            return True
        if self.variant == "reals":
            return False
        m = self.m
        if n % 2 == 0 and n % 4 != 0:
            n //= 2
        return m % n == 0


def parse_field(text: str) -> FieldSpec:
    """Parse Q, R, C, Qp(p), or Q(zeta_m)."""
    s = "".join(text.split())
    if s == "Q":
        return FieldSpec.rationals()
    if s == "R":
        return FieldSpec.reals()
    if s == "C":
        return FieldSpec.complexes()
    m = re.fullmatch(r"Qp\((\d+)\)", s)
    if m:
        p = int(m.group(1))
        if not is_prime(p):
            raise InputError(f"Qp(p) needs a prime, got {p}")
        return FieldSpec.cyclotomic(p)
    m = re.fullmatch(r"Q\(zeta_(\d+)\)", s)
    if m:
        return FieldSpec.cyclotomic(int(m.group(1)))
    raise InputError(f"cannot parse field {text!r}: expected Q, R, C, Qp(p), or Q(zeta_m)")


def format_field(k: FieldSpec) -> str:
    if k.variant == "complexes":
        return "C"
    if k.variant == "reals":
        return "R"
    return "Q" if k.m == 1 else f"Q(zeta_{k.m})"


def _field_rows(T: CharacterTable, k: FieldSpec) -> np.ndarray:
    """Per row, whether every value lies in the field.

    Values sit at their minimal conductor, so Q(zeta_m) membership is
    divisibility of m by the row's conductor lcm (``T.row_conductors``), and
    R membership is invariance of every value under conjugation
    (``T.real_rows``).
    """
    if k.variant == "complexes":
        return np.ones(T.num_chars, dtype=bool)
    if k.variant == "reals":
        return np.array(T.real_rows, dtype=bool)
    return k.m % np.array(T.row_conductors, dtype=np.int64) == 0


def has_values_in(T: CharacterTable, char: int, k: FieldSpec) -> bool:
    """Whether every value of the character row lies in the field."""
    check_row(T, char)
    return bool(_field_rows(T, k)[char])


def irr_subset(T: CharacterTable, k: FieldSpec, p: Optional[int] = None) -> List[int]:
    """Rows with values in k and, when p is given, degree not divisible by p."""
    mask = _field_rows(T, k)
    if p is not None:
        if not is_prime(p):
            raise InputError(f"p-filter must be prime, got {p}")
        mask &= np.array(T.degrees) % p != 0
    return np.flatnonzero(mask).tolist()


def a_k_subgroup(G: FiniteGroup, T: CharacterTable, k: FieldSpec) -> SubgroupHandle:
    """A^k(G): intersection of kernels of linear characters with values in k."""
    if T.group is not G:
        raise InputError("table does not belong to the given group")
    classes = set(range(T.classes.num_classes))
    for r in np.flatnonzero(_field_rows(T, k) & (np.array(T.degrees) == 1)).tolist():
        classes.intersection_update(T.kernel_classes[r])
    members = T.classes.members
    return SubgroupHandle(G, [x for c in classes for x in members[c]])
