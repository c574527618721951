"""The benchmark's span tracer binds acdlab functions by name.

``benchmark/spans.py`` looks each ``acdlab.<module>.<fn>`` of its ``LAYERS``
up with ``getattr`` when a traced run starts, so a refactor that renames or
removes one of them breaks only ``--trace 1`` runs.  This test reads the same
table, unchanged, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for mod, fns in spans.LAYERS.items():
        module = importlib.import_module(f"acdlab.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"acdlab.{mod}.{fn}"
