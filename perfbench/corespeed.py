"""The speed of the core the benchmark runs on, sampled while it runs.

On a shared host (measured on a 2-vCPU Xeon virtual machine) a core runs
the same Python code at one of two speeds about 1.7x apart, and switches
between them every 50 ms to every few seconds; the share of slow time
drifts over minutes, the two vCPUs switch independently of each other,
and CPU time slows down just as wall time does.  Repeating the work
does not average that out, and a probe run between two timed items
misses what happens during them.

So a run pins itself, and with it every child, to one CPU, and runs this
module as a sampler on the same CPU: every SAMPLE_EVERY_S it wakes, times
a fixed piece of Python work (about 0.2 ms) by its own CPU time, and
sleeps again.  A timed interval is scaled by the mean of REF_S / sample
over the samples taken during it (widened by WINDOW_S on each side, so
that a short interval sees one).  REF_S is what a sample takes on that
host's fast speed, so the scaled time is the time the work would take
if the core kept its fast speed throughout.  REF_S is a constant, not a
figure of the run: the fastest samples of a run move with the share of
slow time in it, and scaling by them moved the results of comedy-batch
by 15%.  A change to the program leaves the samples as they are, so it
moves the scaled times by the same share as the unscaled ones.

    python3 perfbench/corespeed.py OUT_FILE

runs the sampler until SIGTERM and then writes ``start_s cpu_s`` lines
to OUT_FILE.  Start times are ``time.perf_counter()``, which is
CLOCK_MONOTONIC on Linux and so comparable between processes.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SAMPLE_EVERY_S = 0.010
WINDOW_S = 0.010
REF_S = 0.000170
STOP_TIMEOUT_S = 10


def probe() -> None:
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i


def pin_to_one_cpu() -> int:
    """Pins this process, and so the children it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class CoreSpeed:
    """Runs the sampler while the with block runs; scale() is usable after it."""

    def __init__(self, out: Path):
        self.out = out
        self.times: list[float] = []
        self.factors: list[float] = []
        self.samples_s: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "CoreSpeed":
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.out)])
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        proc.terminate()
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if exc[0] is None:
            self.load(self.out.read_text("utf-8"))

    def load(self, text: str) -> None:
        samples = [tuple(map(float, line.split())) for line in text.splitlines()]
        if len(samples) < 2:
            raise RuntimeError("the core speed sampler recorded no samples")
        samples.sort()
        self.times = [start for start, _ in samples]
        self.samples_s = [spent for _, spent in samples]
        self.factors = [REF_S / spent for spent in self.samples_s]

    def scale(self, start: float, end: float) -> float:
        """end - start, scaled to the core's fast speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(lo, len(self.times) - 1)
            if lo > 0 and start - self.times[lo - 1] < self.times[lo] - end:
                lo -= 1
            hi = lo + 1
        return (end - start) * statistics.fmean(self.factors[lo:hi])


def main() -> int:
    out = Path(sys.argv[1])
    samples: list[tuple[float, float]] = []

    def stop(*_):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    clock, cpu_clock = time.perf_counter, time.thread_time
    try:
        while True:
            time.sleep(SAMPLE_EVERY_S)
            start, cpu = clock(), cpu_clock()
            probe()
            samples.append((start, cpu_clock() - cpu))
    finally:
        out.write_text("".join(f"{s!r} {c!r}\n" for s, c in samples), "utf-8")


if __name__ == "__main__":
    sys.exit(main())
