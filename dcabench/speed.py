"""Host speed probe: scales measured times to a reference CPU speed.

On a small shared VM the speed of a fixed Python loop swings by about
1.7x within seconds as other tenants load the host, and pass times swing
with it.  While the benchmark measures, a probe process times a fixed
loop every 50 ms (best of three, about 2 ms of work) and records
``(time.monotonic(), ms)``.  A time measured over a window is then
multiplied by ``ref_ms / mean(probe samples in the window)``: it reads
as if the host ran the probe loop in ``ref_ms`` throughout.  The mean,
not the median, because work slows in proportion to the time spent in
each speed regime.  Each sample is clipped at ``CLIP_MS`` so that a
probe that was itself descheduled (a 12 ms sample among 0.6-1 ms ones
has been seen) cannot rescale the work around it, and a window holding
fewer than ``MIN_SAMPLES`` samples takes the ones nearest its middle.

    python3 dcabench/speed.py OUT.json     # samples until stdin closes
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

Sample = Tuple[float, float]  # (monotonic seconds, loop milliseconds)
MIN_SAMPLES = 5
CLIP_MS = 3.0


def loop_ms() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(6000):
            table[i % 97] = table.get(i % 97, 0) + i
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def sample_until_stdin_closes(out_path: str) -> None:
    samples: List[Sample] = []
    while True:
        samples.append((time.monotonic(), loop_ms()))
        if select.select([sys.stdin], [], [], 0.05)[0]:
            break
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)


class Speed:
    """Probe samples and the reference they scale to."""

    def __init__(self, samples: Sequence[Sample], ref_ms: float):
        self.samples = sorted(samples)
        self.ref_ms = ref_ms

    def factor(self, t0: float, t1: float) -> float:
        """``ref / mean clipped probe`` over [t0, t1], widened to the
        ``MIN_SAMPLES`` samples nearest its middle when it holds fewer."""
        inside = [ms for t, ms in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2.0
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [ms for _t, ms in nearest[:MIN_SAMPLES]]
        return self.ref_ms / statistics.fmean(min(ms, CLIP_MS)
                                              for ms in inside)


class SpeedProbe:
    """The probe process; :meth:`stop` ends it and returns a :class:`Speed`."""

    def __init__(self, out_path: str, env, ref_ms: float):
        self.out_path = out_path
        self.ref_ms = ref_ms
        self.proc = subprocess.Popen(
            [sys.executable, __file__, out_path], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        )

    def stop(self) -> Speed:
        self.proc.communicate(timeout=30)
        with open(self.out_path, "r", encoding="utf-8") as handle:
            samples = [tuple(s) for s in json.load(handle)]
        return Speed(samples, self.ref_ms)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


if __name__ == "__main__":
    sample_until_stdin_closes(sys.argv[1])
