"""Entry points the benchmark starts in child processes.

    python benchmark/child.py cli TRACE_FILE ARG...
        run ``acdlab.cli.main(ARG...)`` with spans recorded, write them to
        TRACE_FILE and exit with main's code;
    python benchmark/child.py selfcheck JOB_FILE RESULT_FILE
        time ``verify_orthogonality`` and ``galois_conjugate`` on each of the
        job's character tables, built untimed just before; one round, with
        the times scaled to the probe's reference speed unless traced.

Untraced ``cli`` work runs as ``python benchmark/probe.py FILE -m acdlab ...``
instead, as a user runs it but with probes.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import probe
from checks import Values
from spans import Tracer, cache_counts


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cli(trace_file: str, argv: List[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import acdlab.cli
    try:
        return acdlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary.update(cache_counts())
        tracer.dump(trace_file, summary)


def _check_table(T, report, twists: Dict) -> List[str]:
    """The orthogonality report must be clean; each twist must match zeta -> zeta^t.

    Rows are evaluated one at a time, so the check adds little to the
    worker's peak RSS.
    """
    problems = []
    if not report.ok or report.row_failures or report.column_failures:
        problems.append("verify_orthogonality reported failures")

    def row_values(r: int) -> Values:
        return Values([(v.conductor, v.coeffs) for v in T.rows[r]])

    k = T.num_chars
    X = [row_values(r).evaluate() for r in range(k)]
    scale = max(T.degrees)
    ts = sorted({t for _, t in twists})
    for r in range(k):
        row = row_values(r)
        for t in ts:
            r2 = twists[(r, t)]
            if not 0 <= r2 < k or np.abs(row.evaluate(t) - X[r2]).max() > 1e-6 * scale:
                problems.append(f"twist of row {r} by {t} gave row {r2}, which does not match")
    return problems


def run_selfcheck(job_file: str, result_file: str) -> int:
    """One round over the job's specs: build a table untimed, time its checks, drop it.

    Holding one table at a time keeps the peak RSS that of the largest table
    and its checks, whatever else the seed drew.  With ``verify`` set, the
    results are also checked in floating point and a planted wrong value
    must be caught; every round reports a digest of its results, which must
    repeat.  In a round that is neither traced nor checking, the build and
    check times are scaled to the probe's reference speed (probe.py).
    """
    with open(job_file, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer: Optional[Tracer] = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    probed = not (job["trace"] or job["verify"])
    sampler = probe.Sampler()
    if probed:
        sampler.start()
    from acdlab.chartab import character_table, galois_conjugate, verify_orthogonality
    from acdlab.constructions import build
    from acdlab.number_theory import unit_group_generators
    from acdlab.specparse import parse_group_spec

    def table(text: str):
        return character_table(build(parse_group_spec(text)))

    timed_spans: List[Tuple[int, int]] = []  # span index ranges of the timed calls
    # (build start, check start, check end, check CPU seconds) per table
    intervals: List[Tuple[float, float, float, float]] = []
    digests: Dict[str, str] = {}
    problems: Dict[str, List[str]] = {}
    errors: Dict[str, str] = {}
    for text in job["specs"]:
        b0 = time.perf_counter()
        T = table(text)
        # -1 and generators of the unit group mod the exponent.
        ts = sorted(set(unit_group_generators(T.exponent)) | {max(T.exponent - 1, 1)})
        lo = len(tracer.spans) if tracer is not None else 0
        # The checks of every table start with no garbage left over from
        # the build or the checks before them.
        gc.collect()
        w0, c0 = time.perf_counter(), _cpu()
        try:
            report = verify_orthogonality(T)
            twists = {(r, t): galois_conjugate(T, r, t) for r in range(T.num_chars) for t in ts}
        except Exception as exc:  # noqa: BLE001 - an engine error fails this operation only
            errors[text] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            intervals.append((b0, w0, time.perf_counter(), _cpu() - c0))
            if tracer is not None:
                timed_spans.append((lo, len(tracer.spans)))
        digests[text] = hashlib.sha256(repr((report, sorted(twists.items()))).encode()).hexdigest()
        if job["verify"]:
            problems[text] = _check_table(T, report, twists)
    hi = len(tracer.spans) if tracer is not None else 0

    build_s = sum(w0 - b0 for b0, w0, _, _ in intervals)
    raw_wall_s = wall_s = sum(w1 - w0 for _, w0, w1, _ in intervals)
    cpu_s = sum(cpu for *_, cpu in intervals)
    if probed:
        sampler.stop()
        samples = sampler.samples
        build_s = wall_s = cpu_s = 0.0
        for b0, w0, w1, cpu in intervals:
            build_s += probe.scaled(samples, b0, w0)[0]
            wall, in_probes = probe.scaled(samples, w0, w1)
            wall_s += wall
            cpu_s += (cpu - in_probes) * wall / (w1 - w0 - in_probes)
    result = {"build_s": build_s, "wall_s": wall_s, "cpu_s": cpu_s, "raw_wall_s": raw_wall_s,
              "digests": digests, "errors": errors, "problems": problems}
    if job["verify"]:
        T = table(job["planted"])
        rows = [list(r) for r in T.rows]
        rows[1][1] = rows[1][1] + 1
        bad = dataclasses.replace(T, rows=tuple(tuple(r) for r in rows))
        result["planted_caught"] = not verify_orthogonality(bad).ok
    if tracer is not None:
        summary = tracer.summary(0, hi)
        summary.update(cache_counts())
        # Only the checks are timed; the builds between them are not.
        summary["timed_self_s"] = sum(tracer.summary(a, b)["timed_self_s"] for a, b in timed_spans)
        tracer.dump(job["trace"], summary)
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    if sys.argv[1] == "selfcheck":
        sys.exit(run_selfcheck(sys.argv[2], sys.argv[3]))
    sys.exit(f"unknown mode {sys.argv[1]!r}")
