"""Output checks that do not rely on acdlab's own code or on stored output.

* p-nilpotence from closed forms for the C, D, F, SD and Q8 families and
  their direct products;
* the audit report's required properties (no COUNTEREXAMPLE, every statement
  variant present, D(2p) sharp at 2(p+1)/(p+3), ``below_bound`` consistent);
* character tables evaluated in complex floating point: both orthogonality
  relations, and Galois twists as zeta -> zeta^t on the original row.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

STATEMENT_VARIANTS = frozenset({
    "first", "second-1", "second-2", "second-3", "second-4",
    "third-1", "third-2", "fourth-1", "fourth-2", "fourth-3", "fourth-4",
    "main-1", "main-2", "main-3", "main-4", "main-5",
})
SHARP_DIHEDRAL_PRIMES = (3, 5, 7, 11, 13)

_FACTOR = re.compile(r"^(C|D|F|SD)\(([\d,]+)\)$|^Q8$")


def split_factors(text: str) -> List[str]:
    """Direct factors of a spec text: split at '*' outside parentheses."""
    out, depth, cur = [], 0, ""
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if ch == "*" and depth == 0:
            out.append(cur)
            cur = ""
        else:
            cur += ch
    out.append(cur)
    return [f.strip() for f in out]


def _factor_p_nilpotent(factor: str, q: int) -> Optional[bool]:
    m = _FACTOR.match(factor)
    if m is None:
        return None
    if factor == "Q8" or m.group(1) == "C":
        return True  # a 2-group, or abelian
    args = [int(x) for x in m.group(2).split(",")]
    if m.group(1) == "D":
        # D(2m) = C_m : C_2.  The odd part of C_m is a normal 2-complement;
        # for odd q | m the reflections (q'-elements) generate all of D(2m).
        return q == 2 or (args[0] // 2) % q != 0
    # F(p,d) = SD(p,1,d) = F_p^a : C_d with C_d acting fixed-point-freely.
    # For q != p the preimage of the q'-part of C_d is a normal q-complement;
    # for q = p a normal p-complement would centralize V, so d must be 1.
    p, d = args[0], args[-1]
    return q != p or d == 1


def p_nilpotent_closed_form(text: str, q: int) -> Optional[bool]:
    """Whether the group has a normal q-complement, or None outside the known families.

    A direct product has a normal q-complement exactly when every factor has one.
    """
    verdicts = [_factor_p_nilpotent(f, q) for f in split_factors(text)]
    if any(v is None for v in verdicts):
        return None
    return all(verdicts)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_audit_report(rows: Sequence[dict], specs: Iterable[str]) -> Tuple[Dict[str, List[str]], List[str]]:
    """Problems per catalog spec and for the report as a whole."""
    per_spec: Dict[str, List[str]] = {s: [] for s in specs}
    whole: List[str] = []
    seen = set()
    for row in rows:
        spec = row["spec"]
        problems = per_spec.get(spec)
        if problems is None:
            whole.append(f"row for a spec outside the catalog: {spec}")
            continue
        seen.add(row["statement"])
        where = f"{row['statement']} p={row['p']} {row['field']}"
        if row["verdict"] == "COUNTEREXAMPLE":
            problems.append(f"COUNTEREXAMPLE {where}")
        if row["below_bound"] != (_frac(row["acd"]) < _frac(row["bound"])):
            problems.append(f"below_bound disagrees with acd < bound: {where}")
        expected = p_nilpotent_closed_form(spec, row["p"])
        if expected is not None and row["p_nilpotent"] != expected:
            problems.append(f"p_nilpotent is {row['p_nilpotent']}, closed form gives {expected}: {where}")
    missing = STATEMENT_VARIANTS - seen
    if missing:
        whole.append(f"statement variants missing: {sorted(missing)}")
    for p in SHARP_DIHEDRAL_PRIMES:
        spec = f"D({2 * p})"
        if spec not in per_spec:
            continue
        target = Fraction(2 * (p + 1), p + 3)
        hits = [r for r in rows if r["statement"] == "first" and r["spec"] == spec and r["p"] == p]
        if not hits:
            per_spec[spec].append(f"no first row at p={p}")
        for r in hits:
            if r["verdict"] != "sharp-boundary" or _frac(r["acd"]) != target or _frac(r["bound"]) != target:
                per_spec[spec].append(
                    f"first p={p}: verdict {r['verdict']}, acd {r['acd']}, bound {r['bound']}; "
                    f"expected sharp-boundary at {target}")
    return per_spec, whole


# -- complex evaluation of cyclotomic values ----------------------------------


class Values:
    """Cyclotomic values sum_j c_j zeta_m^j, each given as (m, [c_0, c_1, ...]), flattened once."""

    def __init__(self, values: Sequence[Tuple[int, Sequence[float]]]):
        self.n = len(values)
        counts = np.fromiter((len(c) for _, c in values), dtype=np.int64, count=self.n)
        self.owner = np.repeat(np.arange(self.n), counts)
        self.cond = np.repeat(np.fromiter((m for m, _ in values), dtype=np.int64, count=self.n), counts)
        starts = np.cumsum(counts) - counts
        self.expo = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        self.coef = np.fromiter((float(c) for _, cs in values for c in cs), dtype=float,
                                count=int(counts.sum()))

    def evaluate(self, t: int = 1) -> np.ndarray:
        """Complex value of each sum_j c_j zeta_m^(j t)."""
        angle = 2 * np.pi * (self.expo * t % self.cond) / self.cond
        re_ = np.bincount(self.owner, weights=self.coef * np.cos(angle), minlength=self.n)
        im_ = np.bincount(self.owner, weights=self.coef * np.sin(angle), minlength=self.n)
        return re_ + 1j * im_


def orthogonality_errors(X: np.ndarray, sizes: Sequence[int], order: int) -> Tuple[float, float]:
    """Largest deviation of the row and the column relation, as shares of the order."""
    s = np.asarray(sizes, dtype=float)
    rows = (X * s) @ X.conj().T
    cols = X.conj().T @ X
    row_err = np.abs(rows - order * np.eye(len(X))).max()
    col_err = np.abs(cols - np.diag(order / s)).max()
    return float(row_err) / order, float(col_err) / order


def check_table_json(doc: dict) -> List[str]:
    """Required properties of one table document from ``acdlab table``."""
    problems: List[str] = []
    order = doc["order"]
    sizes, degrees, values = doc["class_sizes"], doc["degrees"], doc["values"]
    k = doc["num_classes"]
    if not (len(sizes) == len(degrees) == len(values) == k and all(len(r) == k for r in values)):
        return [f"shape mismatch: {k} classes, {len(sizes)} sizes, {len(degrees)} degrees"]
    if sum(d * d for d in degrees) != order:
        problems.append("degree squares do not sum to the order")
    if sum(sizes) != order:
        problems.append("class sizes do not sum to the order")
    X = Values([(v["m"], [n / d for n, d in v["c"]]) for row in values for v in row]).evaluate()
    X = X.reshape(k, k)
    row_err, col_err = orthogonality_errors(X, sizes, order)
    if row_err > 1e-6:
        problems.append(f"first orthogonality relation off by {row_err:.3g} x order")
    if col_err > 1e-6:
        problems.append(f"second orthogonality relation off by {col_err:.3g} x order")
    return problems
