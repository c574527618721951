"""Statement-level audits of the average-degree criteria over a group catalog.

Each audited statement has the shape "if the average degree over some
character subset is below a bound, the group has a normal p-complement",
or is a structural identity about that average.  A row records one
(group, p, field) check.  Verdicts:

  consistent      - no conflict with the statement
  sharp-boundary  - the average equals the bound and the group is not
                    p-nilpotent (a witness that the bound is best possible)
  COUNTEREXAMPLE  - the statement's hypotheses hold, the average is below
                    the bound, and the group is not p-nilpotent; since the
                    statements are proved, this indicates an engine bug

Statements with a solvability hypothesis emit note-carrying rows for
nonsolvable members; odd-order-only statements skip other members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .chartab import CharacterTable, character_table
from .constructions import (
    FieldSemidirect,
    GroupSpec,
    MatrixSemidirect,
    Symmetric,
    build,
    to_text,
    translation_subgroup,
)
from .errors import EngineInvariantError, InputError
from .fieldvals import FieldSpec, format_field
from .group import (
    SubgroupHandle,
    _closure,
    _commutators,
    center,
    derived_subgroup,
    is_p_nilpotent,
    is_solvable,
    minimal_normal_subgroups,
    normal_closure,
    point_stabilizer,
)
from .number_theory import divisors, euler_phi, is_prime, prime_divisors
from .specparse import parse_group_spec
from .stats import AcdQuery, abelian3_formula, acd, bound_f

CONSISTENT = "consistent"
SHARP = "sharp-boundary"
COUNTEREXAMPLE = "COUNTEREXAMPLE"


@dataclass(frozen=True)
class AuditRow:
    statement: str
    spec: str
    order: int
    p: int
    field: str
    acd: Fraction
    bound: Fraction
    below_bound: bool
    p_nilpotent: bool
    verdict: str
    note: str = ""
    sharpness: str = ""
    acd_quotient: Optional[Fraction] = None
    subgroup: str = ""

    def sort_key(self) -> Tuple[str, int, str, str, str]:
        return (self.spec, self.p, self.field, self.statement, self.subgroup)

    def to_json_dict(self) -> dict:
        out = {
            "statement": self.statement,
            "spec": self.spec,
            "order": self.order,
            "p": self.p,
            "field": self.field,
            "acd": _frac(self.acd),
            "bound": _frac(self.bound),
            "below_bound": self.below_bound,
            "p_nilpotent": self.p_nilpotent,
            "verdict": self.verdict,
        }
        if self.note:
            out["note"] = self.note
        if self.sharpness:
            out["sharpness"] = self.sharpness
        if self.acd_quotient is not None:
            out["acd_quotient"] = _frac(self.acd_quotient)
        if self.subgroup:
            out["subgroup"] = self.subgroup
        return out


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def rows_to_jsonl(rows: Sequence[AuditRow]) -> str:
    return "".join(json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n" for r in rows)


def has_counterexample(rows: Sequence[AuditRow]) -> bool:
    return any(r.verdict == COUNTEREXAMPLE for r in rows)


class _Bundle:
    """One catalog entry with its table and memoized statistics.

    The character table is built on first use, so statements that skip a
    group on structure alone never pay for its table.
    """

    def __init__(self, text: str):
        self.text = text
        self.spec = parse_group_spec(text)
        self.G = build(self.spec)
        self._T: Optional[CharacterTable] = None
        self._acd: Dict[tuple, Fraction] = {}

    @property
    def T(self) -> CharacterTable:
        if self._T is None:
            self._T = character_table(self.G)
        return self._T

    @property
    def order(self) -> int:
        return self.G.order

    def pnil(self, p: int) -> bool:
        return is_p_nilpotent(self.G, p, want_certificate=False)[0]

    def acd_value(self, k: FieldSpec, p: Optional[int],
                  quotient: Optional[SubgroupHandle] = None) -> Fraction:
        key = (k, p, quotient)
        if key not in self._acd:
            self._acd[key] = acd(self.G, self.T, AcdQuery(field=k, p_filter=p, quotient_by=quotient))
        return self._acd[key]


@dataclass(frozen=True)
class _Variant:
    """One (field family, degree filter, bound) case of a p-nilpotence statement."""

    statement: str
    primes: str  # which prime divisors of |G| apply: odd | two | seven | odd-not-seven
    fields: Callable[[int], Tuple[FieldSpec, ...]]
    p_filtered: bool
    bound: Callable[[int], Fraction]
    solvable_required: bool = True
    odd_order_required: bool = False
    sharpness: str = ""


_C = (FieldSpec.complexes(),)
_Q = (FieldSpec.rationals(),)
_R = (FieldSpec.reals(),)
_TWO = Fraction(2)


def _zeta_p(p: int) -> Tuple[FieldSpec, ...]:
    return (FieldSpec.cyclotomic(p),)


def _zeta_p_and_c(p: int) -> Tuple[FieldSpec, ...]:
    return (FieldSpec.cyclotomic(p), FieldSpec.complexes())


_NILPOTENCE_VARIANTS: Dict[str, Tuple[_Variant, ...]] = {
    "first": (
        _Variant("first", "odd", lambda p: _C, True, lambda p: bound_f(p, 1)),
    ),
    "second": (
        _Variant("second-1", "two", lambda p: _Q, True, lambda p: _TWO),
        _Variant("second-2", "two", lambda p: _Q, False, lambda p: _TWO),
        _Variant("second-3", "two", lambda p: _R, True, lambda p: _TWO),
        _Variant("second-4", "two", lambda p: _R, False, lambda p: _TWO),
    ),
    "third": (
        _Variant("third-1", "odd", _zeta_p, True, lambda p: bound_f(p, 1)),
        _Variant("third-2", "odd", _zeta_p, False, lambda p: bound_f(p, 1)),
    ),
    "fourth": (
        _Variant("fourth-1", "seven", lambda p: _C, True, lambda p: Fraction(9, 5),
                 solvable_required=False, odd_order_required=True),
        _Variant("fourth-2", "odd-not-seven", lambda p: _C, True, lambda p: _TWO,
                 solvable_required=False, odd_order_required=True, sharpness="unknown"),
        _Variant("fourth-3", "odd", _zeta_p, True, lambda p: _TWO,
                 solvable_required=False, odd_order_required=True, sharpness="unknown"),
        _Variant("fourth-4", "odd", _zeta_p, False, lambda p: _TWO,
                 solvable_required=False, odd_order_required=True, sharpness="unknown"),
    ),
    "main-1": (
        _Variant("main-1", "odd", _zeta_p_and_c, True, lambda p: bound_f(p, 1)),
    ),
    "main-2": (
        _Variant("main-2", "two", lambda p: _Q, True, lambda p: _TWO),
    ),
    "main-3": (
        _Variant("main-3", "seven",
                 lambda p: (FieldSpec.cyclotomic(21), FieldSpec.complexes()),
                 True, lambda p: Fraction(9, 5), odd_order_required=True),
    ),
    "main-4": (
        _Variant("main-4", "seven", _zeta_p, True, lambda p: _TWO, odd_order_required=True),
    ),
    "main-5": (
        _Variant("main-5", "odd-not-seven", _zeta_p_and_c, True, lambda p: _TWO,
                 odd_order_required=True),
    ),
}

_NOT_SOLVABLE = "hypothesis failed: group is not solvable"


def _select_primes(kind: str, order: int) -> List[int]:
    ps = prime_divisors(order)
    if kind == "odd":
        return [p for p in ps if p != 2]
    if kind == "two":
        return [p for p in ps if p == 2]
    if kind == "seven":
        return [p for p in ps if p == 7]
    if kind == "odd-not-seven":
        return [p for p in ps if p not in (2, 7)]
    raise EngineInvariantError(f"unknown prime selection {kind!r}")


def _verdict(below: bool, at_bound: bool, pnil: bool, hyps_ok: bool) -> str:
    if hyps_ok and below and not pnil:
        return COUNTEREXAMPLE
    if at_bound and not pnil:
        return SHARP
    return CONSISTENT


def _nilpotence_rows(bundle: _Bundle, v: _Variant) -> List[AuditRow]:
    if v.odd_order_required and bundle.order % 2 == 0:
        return []
    note = _NOT_SOLVABLE if v.solvable_required and not is_solvable(bundle.G) else ""
    rows = []
    for p in _select_primes(v.primes, bundle.order):
        bnd = v.bound(p)
        pn = bundle.pnil(p)
        for k in v.fields(p):
            a = bundle.acd_value(k, p if v.p_filtered else None)
            rows.append(AuditRow(
                statement=v.statement, spec=bundle.text, order=bundle.order, p=p,
                field=format_field(k), acd=a, bound=bnd, below_bound=a < bnd,
                p_nilpotent=pn, verdict=_verdict(a < bnd, a == bnd, pn, not note),
                note=note, sharpness=v.sharpness))
    return rows


def _central_prime_subgroups(bundle: _Bundle) -> List[Tuple[str, SubgroupHandle]]:
    """Minimal normal K with K ∩ G' = 1; such K are central of prime order."""
    G = bundle.G
    Z = center(G)
    if Z.order == 1:
        return []
    Gp = derived_subgroup(G).member_set()
    orders = G.orders()
    found: Dict[Tuple[int, ...], int] = {}
    for z in Z.indices:
        if z == 0 or not is_prime(orders[z]) or z in Gp:
            continue
        found[tuple(sorted(G.powers(z, orders[z])))] = orders[z]
    per_prime: Dict[int, int] = {}
    out = []
    for members, q in sorted(found.items()):
        j = per_prime.get(q, 0)
        per_prime[q] = j + 1
        out.append((f"C{q}#{j}", SubgroupHandle(G, members)))
    return out


def _cent_k_rows(bundle: _Bundle) -> List[AuditRow]:
    ks = _central_prime_subgroups(bundle)
    if not ks:
        return []
    rows = []
    for p in prime_divisors(bundle.order):
        fields = [FieldSpec.rationals(), FieldSpec.reals(), FieldSpec.complexes()]
        if p != 2:
            fields.append(FieldSpec.cyclotomic(p))
        pn = bundle.pnil(p)
        for k in fields:
            a = bundle.acd_value(k, p)
            if a > _TWO:
                continue
            for label, K in ks:
                aq = bundle.acd_value(k, p, quotient=K)
                bad = aq > a
                rows.append(AuditRow(
                    statement="acd-cent-k", spec=bundle.text, order=bundle.order, p=p,
                    field=format_field(k), acd=a, bound=_TWO, below_bound=a < _TWO,
                    p_nilpotent=pn,
                    verdict=COUNTEREXAMPLE if bad else _verdict(False, a == _TWO, pn, True),
                    note="quotient average exceeds group average" if bad else "",
                    acd_quotient=aq, subgroup=label))
    return rows


def _abelian3_fields(p: int, d: int) -> List[FieldSpec]:
    seen: Dict[FieldSpec, None] = {}
    for m in divisors(d * p):
        k = FieldSpec.cyclotomic(m)
        if k.contains_root_of_unity(p):
            seen[k] = None
    out = sorted(seen, key=lambda k: k.m)
    out.append(FieldSpec.complexes())
    return out


def _abelian3_index(d: int, k: FieldSpec) -> int:
    """|H : A^k(H)| for H cyclic of order d.

    The linear characters of H with values in k form a subgroup of its dual,
    and their kernels meet in a subgroup of the same index; H has phi(n)
    characters of order n, each with values in k exactly when zeta_n is.
    """
    return sum(euler_phi(n) for n in divisors(d) if k.contains_root_of_unity(n))


def _abelian3_rows(bundle: _Bundle) -> List[AuditRow]:
    spec = bundle.spec
    if not isinstance(spec, FieldSemidirect) or spec.d == 1:
        return []
    p, a, d = spec.p, spec.a, spec.d
    pn = bundle.pnil(p)
    rows = []
    for k in _abelian3_fields(p, d):
        expected = abelian3_formula(p, a, d, _abelian3_index(d, k))
        got = bundle.acd_value(k, None)
        ok = got == expected
        rows.append(AuditRow(
            statement="abelian-3", spec=bundle.text, order=bundle.order, p=p,
            field=format_field(k), acd=got, bound=expected, below_bound=got < expected,
            p_nilpotent=pn, verdict=CONSISTENT if ok else COUNTEREXAMPLE,
            note="" if ok else "engine average differs from the closed form"))
    return rows


def _nonabelian3_rows(bundle: _Bundle) -> List[AuditRow]:
    spec = bundle.spec
    G = bundle.G
    if isinstance(spec, MatrixSemidirect):
        p = spec.p
        V = translation_subgroup(G, p, len(spec.matrices[0]))
    elif spec == Symmetric(4):
        p = 2
        H = point_stabilizer(G, 0)
        candidates = [K for K in minimal_normal_subgroups(G)
                      if K.order * H.order == G.order and (K.member_set() & H.member_set()) == {0}]
        if len(candidates) != 1:
            return []
        V = candidates[0]
    else:
        return []
    H = point_stabilizer(G, 0)
    if V.order * H.order != G.order or (V.member_set() & H.member_set()) != {0}:
        return []
    if not _commutators(G, _closure(G, H.indices)[0]):  # H is abelian
        return []
    if any(normal_closure(G, [v]).member_set() != V.member_set() for v in V.indices if v):
        return []
    fields = [FieldSpec.rationals(), FieldSpec.reals(), FieldSpec.complexes()] if p == 2 \
        else [FieldSpec.cyclotomic(p), FieldSpec.complexes()]
    pn = bundle.pnil(p)
    rows = []
    for k in fields:
        a = bundle.acd_value(k, p)
        rows.append(AuditRow(
            statement="nonabelian-3", spec=bundle.text, order=bundle.order, p=p,
            field=format_field(k), acd=a, bound=_TWO, below_bound=a < _TWO,
            p_nilpotent=pn, verdict=_verdict(a < _TWO, a == _TWO, pn, True)))
    return rows


_STRUCTURE_STATEMENTS: Dict[str, Callable[[_Bundle], List[AuditRow]]] = {
    "acd-cent-k": _cent_k_rows,
    "abelian-3": _abelian3_rows,
    "nonabelian-3": _nonabelian3_rows,
}

STATEMENT_NAMES: Tuple[str, ...] = (
    "first", "second", "third", "fourth",
    "main-1", "main-2", "main-3", "main-4", "main-5",
    "acd-cent-k", "abelian-3", "nonabelian-3",
)


def resolve_statements(name: str) -> Tuple[str, ...]:
    if name == "all":
        return STATEMENT_NAMES
    if name == "main":
        return tuple(n for n in STATEMENT_NAMES if n.startswith("main-"))
    if name in STATEMENT_NAMES:
        return (name,)
    raise InputError(
        f"unknown statement {name!r}; expected one of {', '.join(STATEMENT_NAMES)}, main, all")


def _rows_for_spec(text: str, names: Sequence[str]) -> List[AuditRow]:
    bundle = _Bundle(text)
    rows: List[AuditRow] = []
    for name in names:
        if name in _NILPOTENCE_VARIANTS:
            for v in _NILPOTENCE_VARIANTS[name]:
                rows.extend(_nilpotence_rows(bundle, v))
        else:
            rows.extend(_STRUCTURE_STATEMENTS[name](bundle))
    return rows


def _worker(args: Tuple[str, Tuple[str, ...]]) -> List[AuditRow]:
    return _rows_for_spec(*args)


def audit_many(names: Sequence[str], catalog_texts: Sequence[str], jobs: int = 1) -> List[AuditRow]:
    """Audit several statements over spec texts; rows sorted for stable output."""
    resolved: List[str] = []
    for name in names:
        for s in resolve_statements(name):
            if s not in resolved:
                resolved.append(s)
    tasks = [(t, tuple(resolved)) for t in catalog_texts]
    if jobs <= 1 or len(tasks) <= 1:
        chunks = [_worker(t) for t in tasks]
    else:
        # Imported here: a one-job run never pays for multiprocessing.
        from multiprocessing import Pool

        with Pool(processes=min(jobs, len(tasks))) as pool:
            chunks = pool.map(_worker, tasks, chunksize=1)
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=AuditRow.sort_key)
    return rows


def audit_theorem(name: str, catalog: Sequence[GroupSpec], jobs: int = 1) -> List[AuditRow]:
    return audit_many([name], [to_text(s) for s in catalog], jobs=jobs)
