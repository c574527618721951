"""The machine's speed, sampled while a benchmark process runs.

The benchmark shares a few cores of a host with other tenants, and their load
changes how fast the same Python code runs by up to 1.7x, for tens of seconds
at a time (a fixed loop of 16 ms took 25-27 ms for a minute on end).  A
round of a workload lasts long enough to meet such changes, so its raw wall
time says as much about the host as about acdlab.  To take the host out, a
process run under this module runs a fixed piece of pure-Python work, the
probe, every ``PERIOD_S`` seconds in a thread of its own, and keeps
(start, duration) of each probe.  :func:`scaled` then turns a stretch of
wall time into the time it would have taken at the probe's reference speed
``REF_S``: each stretch between two probes is scaled by ``REF_S`` over the
median duration of the probes around it.  The probes' own time is left out.

    python benchmark/probe.py SAMPLES_FILE -m MODULE ARG...
    python benchmark/probe.py SAMPLES_FILE -c CODE

run the module as ``python -m`` does, or the code as ``python -c`` does,
with probes, and write the samples to SAMPLES_FILE as JSON on the way out.
"""

from __future__ import annotations

import array
import json
import threading
import time
from typing import List, Sequence, Tuple

PERIOD_S = 0.1
# About the probe's duration on a quiet core of a 2-core x86-64 machine with
# Python 3.11 (0.51-0.82 ms there); only a scale, the same on every run.
REF_S = 0.0006
WINDOW = 9  # probes whose median duration sets the speed of a stretch

Sample = Tuple[float, float]  # (perf_counter at the start, duration)


_SLOTS = [0] * 512


def probe() -> None:
    """A fixed piece of interpreter work: integer arithmetic and list stores.

    It creates no object that the cyclic garbage collector tracks, so it
    does not move the collections of the process it runs in, nor with them
    the moments that process frees its cyclic garbage and its peak RSS.  A
    probe that built a list and a dict, run from a signal handler, made the
    audit's peak RSS range over 112-119 MB between runs.
    """
    acc, slots = 0, _SLOTS
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        slots[acc & 511] = slots[(acc >> 9) & 511] ^ i


class Sampler:
    """Runs :func:`probe` every PERIOD_S seconds in a daemon thread.

    Samples go to two float arrays, which the garbage collector does not
    track either.
    """

    def __init__(self) -> None:
        self.starts = array.array("d")
        self.durations = array.array("d")
        self._running = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def _run(self) -> None:
        while self._running:
            time.sleep(PERIOD_S)
            self._sample()

    def start(self) -> None:
        self._sample()
        self._running = True
        self._thread.start()

    def stop(self) -> None:
        """Take a last sample.  The thread is not waited for: it may sleep for
        up to PERIOD_S yet, which would add to the time of the process.  It
        ends when it next wakes, or with the process."""
        self._running = False
        self._sample()

    @property
    def samples(self) -> List[Sample]:
        return list(zip(self.starts, self.durations))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)


def load(path: str) -> List[Sample]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]


def scaled(samples: Sequence[Sample], t0: float, t1: float) -> Tuple[float, float]:
    """(wall of [t0, t1] at the reference speed, probe seconds inside [t0, t1]).

    Every instant belongs to the probe whose start is nearest, and is scaled
    by REF_S over the median duration of the WINDOW probes centred on it.
    Time spent inside probes is not counted.  Perf_counter is the system's
    monotonic clock, so samples from a child can be set against the parent's
    t0 and t1.
    """
    import statistics

    if not samples:
        raise ValueError("no probe samples")
    samples = sorted(samples)
    durations = [d for _, d in samples]
    half = WINDOW // 2
    total = probes = 0.0
    for i, (start, d) in enumerate(samples):
        lo = t0 if i == 0 else (samples[i - 1][0] + start) / 2
        hi = t1 if i == len(samples) - 1 else (start + samples[i + 1][0]) / 2
        lo, hi = max(lo, t0), min(hi, t1)
        if hi <= lo:
            continue
        inside = max(0.0, min(start + d, hi) - max(start, lo))
        speed = REF_S / statistics.median(durations[max(0, i - half):i + half + 1])
        total += (hi - lo - inside) * speed
        probes += inside
    return total, probes


def main(argv: List[str]) -> int:
    import os
    import runpy
    import sys

    path, mode, target, *rest = argv
    # As under ``python -m`` and ``python -c``, not this file's directory.
    sys.path[0] = os.getcwd() if mode == "-m" else ""
    sampler = Sampler()
    sampler.start()
    try:
        if mode == "-m":
            sys.argv = [target, *rest]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        elif mode == "-c":
            sys.argv = ["-c", *rest]
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        return 0
    finally:
        sampler.stop()
        sampler.dump(path)


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
