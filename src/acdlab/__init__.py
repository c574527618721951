"""Exact character tables for permutation groups and average-character-degree audits."""

from .audit import AuditRow, audit_many, audit_theorem, rows_to_jsonl
from .chartab import (
    CharacterTable,
    character_kernel,
    character_table,
    galois_conjugate,
    table_to_json,
    verify_orthogonality,
)
from .constructions import (
    Alternating,
    Cyclic,
    Dihedral,
    DirectProduct,
    FieldSemidirect,
    GroupSpec,
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
from .cyclotomic import CyclotomicValue, zeta
from .errors import (
    AcdlabError,
    ConstructionError,
    DomainError,
    EngineInvariantError,
    InputError,
    SizeLimitError,
    SpecSyntaxError,
)
from .fieldvals import FieldSpec, a_k_subgroup, format_field, has_values_in, irr_subset, parse_field
from .group import (
    FiniteGroup,
    SubgroupHandle,
    center,
    conjugacy_classes,
    derived_subgroup,
    exponent,
    generate_group,
    is_p_nilpotent,
    is_solvable,
    minimal_normal_subgroups,
    point_stabilizer,
)
from .specparse import parse_group_spec
from .stats import AcdQuery, abelian3_formula, acd, ave, bound_f, selected_rows

__version__ = "0.1.0"

__all__ = [
    "AcdQuery", "AcdlabError", "Alternating", "AuditRow", "CharacterTable",
    "ConstructionError", "Cyclic", "CyclotomicValue", "Dihedral", "DirectProduct",
    "DomainError", "EngineInvariantError", "FieldSemidirect", "FieldSpec",
    "FiniteGroup", "GroupSpec", "InputError", "MatrixSemidirect", "Quaternion8", "SizeLimitError",
    "SpecSyntaxError", "SubgroupHandle", "Symmetric", "a_k_subgroup",
    "abelian3_formula", "acd", "audit_many", "audit_theorem", "ave", "bound_f",
    "build", "center", "character_kernel", "character_table", "conjugacy_classes",
    "default_catalog", "derived_subgroup", "dihedral", "exponent", "format_field",
    "galois_conjugate", "generate_group", "has_values_in", "irr_subset",
    "is_p_nilpotent", "is_solvable", "minimal_normal_subgroups", "parse_field",
    "parse_group_spec", "point_stabilizer", "rows_to_jsonl", "selected_rows",
    "table_to_json", "to_text", "translation_subgroup", "validate_spec",
    "verify_orthogonality", "zeta",
]
