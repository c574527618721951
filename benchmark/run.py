"""acdlab benchmark: one workload, its output checks and its metrics.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of an acdlab source checkout.  Workloads (README.md has
the details and the reasons):

  audit-all    ``python -m acdlab audit all --jobs 1`` over the default
               catalog, listed in a file;
  table-large  one ``python -m acdlab table SPEC`` process per group of a
               seeded panel of large tables, JSON written to a file;
  self-checks  ``verify_orthogonality`` and ``galois_conjugate`` on a seeded,
               cost-stratified sample of catalog tables built during set-up.

Each run repeats whole rounds of its workload for ``--seconds``: it starts
another round while one as long as the last still ends in time, and always
runs at least one.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
around acdlab's public functions with ``--trace 1``.  Untraced times are
scaled to the reference speed of probe.py, which says why.  Result and
trace files go to ``.benchrun/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import probe
from checks import check_audit_report, check_table_json
from spans import span_names

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("audit-all", "table-large", "self-checks")
IMPORT_RUNS = 11  # fresh interpreters timed for setup_s; the median is reported
RUN_BUDGET_S = 170  # every child is killed once the run has taken this long

# audit-all lists the catalog in its default order, whatever the seed.  The
# audit's peak RSS depends on when the cyclic garbage collector frees the
# groups already audited, and so on the order: ten seeded shuffles of the
# groups of order below 100 gave peaks of 107-128 MB, while one order
# repeats to within 1 MB.

# table-large: each slot draws one group by seed.  Members of a slot are of
# one kind and cost about the same, so the draw changes which tables are
# built but hardly the size of a round.  C(113) stays fixed: its process
# (the largest JSON) sets the workload's peak RSS, above every drawn group.
TABLE_SLOTS: Tuple[Tuple[str, ...], ...] = (
    ("SD(5,3,124)",),  # the catalog's largest order, 15500
    ("F(103,102)", "F(109,108)", "F(113,112)"),  # orders 10506-12656
    ("C(165)", "C(170)", "C(176)", "C(200)"),  # cyclic, k above the catalog's 125
    ("C(2)*C(88)", "C(2)*C(90)", "C(3)*C(57)"),  # non-cyclic abelian, k = 171-180
    ("Q8*C(26)", "Q8*C(30)"),  # non-abelian, k = 130 or 150
    ("C(113)",),  # the catalog's largest prime conductor, for the JSON writer
)

# self-checks: the SELFCHECK_ALWAYS most costly tables are always checked,
# and so is SELFCHECK_PEAK, whose orthogonality check allocates the largest
# pairs x conductor count array of the catalog and so sets the peak RSS.  It
# goes first, so the heap it meets does not depend on the seed.
# The rest are ranked by check cost and one table is drawn from each run of
# SELFCHECK_STRATUM neighbours (costs from catalog.tsv).
SELFCHECK_ALWAYS = 4
SELFCHECK_PEAK = "F(113,56)"
SELFCHECK_STRATUM = 16
PLANTED_SPEC = "S(4)"  # the table given a wrong value for verify_orthogonality


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    spec: str
    order: int
    classes: int
    build_s: float
    check_s: float


def read_catalog() -> List[Entry]:
    """The default catalog with each group's measured costs, from catalog.tsv."""
    out = []
    with open(os.path.join(HERE, "catalog.tsv"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            spec, order, k, build_s, check_s = line.rstrip("\n").split("\t")
            out.append(Entry(spec, int(order), int(k), float(build_s), float(check_s)))
    return out


def audit_catalog() -> List[str]:
    return [e.spec for e in read_catalog()]


def table_panel(seed: int) -> List[str]:
    rng = random.Random(seed)
    panel = [rng.choice(slot) for slot in TABLE_SLOTS]
    rng.shuffle(panel)
    return panel


def selfcheck_sample(seed: int) -> List[str]:
    """A cost-stratified sample of catalog specs, in a seeded order after SELFCHECK_PEAK.

    Within each stratum the tables are ranked by build cost.  The seed draws
    a rank in every other stratum, and the next stratum takes the mirrored
    rank, so a costly build in one is offset by a cheap one in the other.
    """
    rng = random.Random(seed)
    ranked = sorted(read_catalog(), key=lambda e: (e.check_s, e.classes, e.spec))
    always = ranked[-SELFCHECK_ALWAYS:] + [e for e in ranked if e.spec == SELFCHECK_PEAK]
    rest = [e for e in ranked if e not in always]
    strata = [sorted(rest[i:i + SELFCHECK_STRATUM], key=lambda e: (e.build_s, e.spec))
              for i in range(0, len(rest), SELFCHECK_STRATUM)]
    sample = [e.spec for e in always if e.spec != SELFCHECK_PEAK]
    share = 0.0
    for j, stratum in enumerate(strata):
        share = rng.random() if j % 2 == 0 else 1 - share
        sample.append(stratum[min(int(share * len(stratum)), len(stratum) - 1)].spec)
    rng.shuffle(sample)
    return [SELFCHECK_PEAK] + sample


# -- processes ---------------------------------------------------------------


def _children_usage() -> Tuple[float, float]:
    """CPU seconds and peak RSS (MB) of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


class Timing(NamedTuple):
    code: int  # the child's exit code
    wall: float  # wall seconds, at the probe's reference speed when probed
    cpu: float  # CPU seconds, likewise
    raw_wall: float  # wall seconds as the clock read them


@dataclass
class Context:
    root: str
    seconds: float
    trace: bool
    work: str
    trace_dir: str
    started: float = field(default_factory=time.perf_counter)

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.pop("ACDLAB_ORDER_CAP", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update({
            "PYTHONPATH": os.path.join(self.root, "src"),
            "PYTHONHASHSEED": "0",
            # The benchmark's own bytecode cache, warmed by warm_bytecode
            # before anything is timed, so no timing depends on the caches
            # an earlier run or another tool left behind.
            "PYTHONPYCACHEPREFIX": os.path.join(self.root, ".benchrun", "pycache"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
        })
        return env

    def python(self, args: List[str], stdout=subprocess.DEVNULL, probed: bool = False) -> Timing:
        """Run one child interpreter and time it.

        With ``probed``, ``args`` is ``-m MODULE ...`` or ``-c CODE``, run
        under probe.py, and the wall and CPU times are scaled to the probe's
        reference speed.
        """
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_BUDGET_S} s")
        samples_file = os.path.join(self.work, "probe-samples.json")
        if probed:
            args = [os.path.join(HERE, "probe.py"), samples_file, *args]
        cpu0, _ = _children_usage()
        t0 = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, *args], env=self.env, stdout=stdout,
                                  timeout=left, cwd=self.root).returncode
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the run budget of {RUN_BUDGET_S} s: {args}") from exc
        t1 = time.perf_counter()
        cpu1, _ = _children_usage()
        wall, cpu = t1 - t0, cpu1 - cpu0
        if not probed:
            return Timing(code, wall, cpu, wall)
        try:
            wall_ref, in_probes = probe.scaled(probe.load(samples_file), t0, t1)
            os.remove(samples_file)
        except (OSError, ValueError) as exc:
            raise BenchError(f"no probe samples from {args}: {exc}") from exc
        return Timing(code, wall_ref, (cpu - in_probes) * wall_ref / (wall - in_probes), wall)

    def acdlab(self, args: List[str], trace_name: str, stdout=subprocess.DEVNULL) -> Timing:
        """Run the acdlab CLI as a user does, under the probe, or under the tracer."""
        if self.trace:
            path = os.path.join(self.trace_dir, trace_name + ".jsonl")
            return self.python([os.path.join(HERE, "child.py"), "cli", path, *args], stdout)
        return self.python(["-m", "acdlab", *args], stdout, probed=True)

    def trace_summary(self, trace_name: str) -> Dict[str, float]:
        with open(os.path.join(self.trace_dir, trace_name + ".jsonl"), "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(0, fh.tell() - (1 << 16)))
            last = fh.read().splitlines()[-1]
        return json.loads(last)["summary"]

    def rounds(self, seconds: Optional[float] = None) -> Iterator[int]:
        """Yield round numbers while another round, as long as the last one,
        still ends within ``seconds`` (default ``--seconds``) from now;
        always at least one."""
        seconds = self.seconds if seconds is None else seconds
        start = last = time.perf_counter()
        n = 0
        while n == 0 or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            yield n
            n += 1


def warm_bytecode(ctx: Context) -> None:
    """Fill the benchmark's bytecode cache for acdlab and numpy."""
    if ctx.python(["-c", "import acdlab.cli"]).code != 0:
        raise BenchError("a fresh interpreter could not import acdlab.cli")


def measure_setup(ctx: Context) -> Tuple[float, List[float]]:
    """Median wall of a fresh interpreter importing acdlab.cli, at the
    probe's reference speed, and the raw walls."""
    runs = [ctx.python(["-c", "import acdlab.cli"], probed=True) for _ in range(IMPORT_RUNS)]
    return statistics.median(r.wall for r in runs), [r.raw_wall for r in runs]


def _sum_summaries(summaries: List[Dict[str, float]], rounds: int) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for s in summaries:
        for key, value in s.items():
            total[key] = total.get(key, 0) + value
    return {key: value / rounds for key, value in total.items()}


# -- workloads ----------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float  # per round
    cpu_s: float  # per round
    peak_rss_mb: float
    attempted: int
    failed: int
    correct: bool
    extra_setup_s: float = 0.0
    trace: Optional[Dict[str, float]] = None
    problems: List[str] = field(default_factory=list)
    rounds: List[Dict] = field(default_factory=list)  # raw timings, for the result file


def run_audit_all(ctx: Context, specs: List[str]) -> Outcome:
    catalog = os.path.join(ctx.work, "catalog.txt")
    with open(catalog, "w", encoding="utf-8") as fh:
        fh.write("\n".join(specs) + "\n")
    rounds: List[Tuple[Timing, str]] = []
    for r in ctx.rounds():
        out = os.path.join(ctx.work, f"audit-{r}.jsonl")
        timing = ctx.acdlab(
            ["audit", "all", "--jobs", "1", "--catalog", catalog, "--out", out], f"audit-{r}")
        rounds.append((timing, out))
    _, peak = _children_usage()

    failed, correct, problems = 0, True, []
    for (code, *_), out in rounds:
        if code not in (0, 2) or not os.path.exists(out):
            failed += len(specs)
            problems.append(f"audit exited with {code}")
            continue
        with open(out, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        per_spec, whole = check_audit_report(rows, specs)
        bad = [s for s, p in per_spec.items() if p]
        if code == 2 and not bad:
            whole.append("exit code 2 without a COUNTEREXAMPLE row")
        if whole:
            bad = specs
        problems.extend(whole + [f"{s}: {p}" for s in bad for p in per_spec[s]])
        failed += len(bad)
        correct = correct and not bad
    trace = None
    if ctx.trace:
        trace = _sum_summaries([ctx.trace_summary(f"audit-{i}") for i in range(len(rounds))], len(rounds))
    return Outcome(
        wall_s=statistics.median(t.wall for t, _ in rounds),
        cpu_s=statistics.median(t.cpu for t, _ in rounds),
        peak_rss_mb=peak, attempted=len(specs) * len(rounds), failed=failed, correct=correct,
        trace=trace, problems=problems, rounds=[t._asdict() for t, _ in rounds])


def run_table_large(ctx: Context, panel: List[str]) -> Outcome:
    runs: Dict[str, List[Tuple[Timing, str]]] = {spec: [] for spec in panel}
    n_rounds = 0
    for r in ctx.rounds():
        for i, spec in enumerate(panel):
            out = os.path.join(ctx.work, f"table-{r}-{i}.json")
            with open(out, "wb") as fh:
                timing = ctx.acdlab(["table", spec], f"table-{r}-{i}", stdout=fh)
            runs[spec].append((timing, out))
        n_rounds += 1
    _, peak = _children_usage()

    failed, correct, problems = 0, True, []
    for spec, results in runs.items():
        reference: Optional[bytes] = None
        for (code, *_), out in results:
            if code != 0:
                failed += 1
                problems.append(f"{spec}: exit code {code}")
                continue
            with open(out, "rb") as fh:
                data = fh.read()
            if reference is not None and data == reference:
                continue  # byte-identical to an output that passed
            try:
                found = check_table_json(json.loads(data))
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable table JSON: {exc}"]
            if found:
                failed += 1
                correct = False
                problems.extend(f"{spec}: {p}" for p in found)
            else:
                reference = data
    trace = None
    if ctx.trace:
        trace = _sum_summaries([ctx.trace_summary(f"table-{r}-{i}")
                                for r in range(n_rounds) for i in range(len(panel))], n_rounds)
    return Outcome(
        wall_s=sum(statistics.median(t.wall for t, _ in results) for results in runs.values()),
        cpu_s=sum(statistics.median(t.cpu for t, _ in results) for results in runs.values()),
        peak_rss_mb=peak, attempted=len(panel) * n_rounds, failed=failed, correct=correct,
        trace=trace, problems=problems,
        rounds=[{spec: runs[spec][r][0]._asdict() for spec in panel} for r in range(n_rounds)])


def run_self_checks(ctx: Context, specs: List[str]) -> Outcome:
    """A checking worker, then timed rounds, each one fresh worker process.

    The checking worker also evaluates every result in floating point and
    tries the planted wrong value.  Its times are not used, and the timed
    rounds do nothing between their checks but build the next table, so every
    timed round does the same work.  The timed rounds fill what is left of
    ``--seconds``.
    """
    def worker(name: str, check: bool) -> Dict:
        job_file = os.path.join(ctx.work, f"selfcheck-{name}-job.json")
        result_file = os.path.join(ctx.work, f"selfcheck-{name}-result.json")
        job = {"specs": specs, "verify": check, "planted": PLANTED_SPEC,
               "trace": os.path.join(ctx.trace_dir, f"selfcheck-{name}.jsonl")
               if ctx.trace and not check else None}
        with open(job_file, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        code = ctx.python([os.path.join(HERE, "child.py"), "selfcheck", job_file, result_file]).code
        if code != 0 or not os.path.exists(result_file):
            raise BenchError(f"self-check worker exited with {code}")
        with open(result_file, encoding="utf-8") as fh:
            return json.load(fh)

    start = time.perf_counter()
    first = worker("check", True)
    rounds = [worker(str(r), False)
              for r in ctx.rounds(ctx.seconds - (time.perf_counter() - start))]
    _, peak = _children_usage()

    problems = [f"{text}: {p}" for text, found in first["problems"].items() for p in found]
    bad = {text for text, found in first["problems"].items() if found}
    for r, res in enumerate([first] + rounds):
        problems += [f"{text}: {err}" for text, err in res["errors"].items()]
        for text, digest in res["digests"].items():
            if first["digests"].get(text, digest) != digest:
                problems.append(f"{text}: timed round {r - 1} gave other results than the checking worker")
                bad.add(text)
    workers = 1 + len(rounds)
    failed = sum(len(res["errors"]) for res in [first] + rounds) + len(bad) * workers
    if not first["planted_caught"]:
        problems.append(f"verify_orthogonality passed {PLANTED_SPEC} with a planted wrong value")
        failed += 1
    trace = None
    if ctx.trace:
        trace = _sum_summaries([ctx.trace_summary(f"selfcheck-{r}") for r in range(len(rounds))],
                               len(rounds))
    return Outcome(
        wall_s=statistics.median(r["wall_s"] for r in rounds),
        cpu_s=statistics.median(r["cpu_s"] for r in rounds),
        peak_rss_mb=peak, attempted=len(specs) * workers + 1, failed=failed,
        correct=not bad and first["planted_caught"],
        extra_setup_s=statistics.median(r["build_s"] for r in rounds),
        trace=trace, problems=problems,
        rounds=[{k: r[k] for k in ("build_s", "wall_s", "cpu_s", "raw_wall_s")} for r in rounds])


# -- metrics -------------------------------------------------------------------


def per_layer_metrics(trace: Dict[str, float], wall_s: float) -> Dict[str, Dict]:
    metrics: Dict[str, Dict] = {}
    for name in span_names():
        metrics[f"{name}.calls"] = {"value": trace[f"{name}.calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": trace[f"{name}.self_s"], "unit": "s"}
    tables = trace["chartab.compute_mod_table.calls"]
    counts = {
        "constructions.build.elements": "count",
        "chartab.character_table.classes": "count",
        "chartab.table_to_json.bytes": "B",
        "cyclotomic.cache.hits": "count",
        "cyclotomic.cache.misses": "count",
        "audit.rows": "count",
    }
    for name, unit in counts.items():
        metrics[name] = {"value": trace[name], "unit": unit}
    metrics["chartab.class_matrix.per_table"] = {
        "value": trace["chartab.class_matrix.calls"] / tables if tables else 0.0, "unit": "count/table"}
    metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    metrics["trace.unaccounted_s"] = {"value": wall_s - trace["timed_self_s"], "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        inputs: Optional[List[str]] = None) -> Dict:
    """One benchmark run; ``inputs`` replaces the seeded inputs (for the benchmark's tests)."""
    if not os.path.isfile(os.path.join(root, "src", "acdlab", "cli.py")):
        raise BenchError(f"no acdlab sources under {root}/src; run from the root of an acdlab checkout")
    out_dir = os.path.join(root, ".benchrun")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    trace_dir = os.path.join(out_dir, tag)
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        ctx = Context(root=root, seconds=seconds, trace=trace, work=work, trace_dir=trace_dir)
        warm_bytecode(ctx)
        setup_s, setup_raw = (0.0, []) if trace else measure_setup(ctx)
        if workload == "audit-all":
            inputs = inputs or audit_catalog()
            outcome = run_audit_all(ctx, inputs)
        elif workload == "table-large":
            inputs = inputs or table_panel(seed)
            outcome = run_table_large(ctx, inputs)
        else:
            inputs = inputs or selfcheck_sample(seed)
            outcome = run_self_checks(ctx, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(outcome.trace, outcome.wall_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s + outcome.extra_setup_s, "unit": "s"},
            "wall_s": {"value": outcome.wall_s, "unit": "s"},
            "cpu_s": {"value": outcome.cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, problems=outcome.problems, inputs=inputs, rounds=outcome.rounds,
                       setup_raw_walls=setup_raw), fh)
    for p in outcome.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
