"""Spans around calls into acdlab's public functions, installed from outside.

The wrappers are bound in place of each traced function on every ``acdlab``
module that binds it, so calls through ``from .group import ...`` imports are
seen too.  Spans stay in memory as (name, start, end, parent, result count)
and are written out once, by :meth:`Tracer.dump`.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "constructions": ("build",),
    "group": (
        "generate_group", "conjugacy_classes", "exponent", "is_p_nilpotent", "is_solvable",
        "derived_subgroup", "normal_closure", "center", "minimal_normal_subgroups",
        "point_stabilizer", "subgroup_as_group",
    ),
    "linalg_mod": (
        "charpoly_mod", "poly_roots_mod", "simple_left_eigenvectors_mod", "nullspace_mod",
        "rref_mod",
    ),
    "chartab": (
        "class_matrix", "compute_mod_table", "character_table", "table_to_json",
        "verify_orthogonality", "galois_conjugate",
    ),
    "fieldvals": ("has_values_in", "irr_subset", "a_k_subgroup"),
    "stats": ("selected_rows", "acd"),
    "audit": ("audit_many",),
    "cli": ("main",),
}

# Work counts read off a traced call's result: span name -> (count, how).
RESULT_COUNTS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    "constructions.build": ("constructions.build.elements", lambda G: G.order),
    "chartab.character_table": ("chartab.character_table.classes", lambda T: T.num_chars),
    "chartab.table_to_json": ("chartab.table_to_json.bytes", len),
    "audit.audit_many": ("audit.rows", len),
}

# Modules whose functools.lru_cache statistics make up the cache counts.
CACHED_MODULES = ("cyclotomic", "number_theory")

# (name, start, end, parent index, result count); parent -1 marks a root span.
Span = Tuple[str, float, float, int, int]


def span_names() -> List[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = RESULT_COUNTS.get(name, (None, None))[1]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              count(result) if count is not None and result is not None else 0)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper for every traced function on every acdlab module."""
        importlib.import_module("acdlab.cli")
        for mod, fns in LAYERS.items():
            home = importlib.import_module(f"acdlab.{mod}")
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self.wrap(f"{mod}.{fn}", orig)
                for name, module in list(sys.modules.items()):
                    if name != "acdlab" and not name.startswith("acdlab."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)

    def summary(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, float]:
        """Calls, self seconds and result counts of the spans ``lo`` to ``hi``.

        ``timed_self_s`` is the summed self time of all of them.
        """
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= lo:
                child[parent - lo] += end - start
        out: Dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name, _ in RESULT_COUNTS.values():
            out[name] = 0
        out["timed_self_s"] = 0.0
        for i, (name, start, end, _, count) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
            out["timed_self_s"] += (end - start) - child[i]
            if name in RESULT_COUNTS:
                out[RESULT_COUNTS[name][0]] += count
        return out

    def dump(self, path: str, summary: Dict[str, float]) -> None:
        """Write every span as one JSON line, then the summary line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def cache_counts() -> Dict[str, int]:
    """Summed lru_cache hits and misses of the cyclotomic and number-theory helpers."""
    hits = misses = 0
    for mod in CACHED_MODULES:
        module = sys.modules.get(f"acdlab.{mod}")
        if module is None:
            continue
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == module.__name__:
                ci = info()
                hits += ci.hits
                misses += ci.misses
    return {"cyclotomic.cache.hits": hits, "cyclotomic.cache.misses": misses}
