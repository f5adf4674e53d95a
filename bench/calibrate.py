"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same job can take 30% longer from one minute to the
next, because other tenants contend for the cores, caches and memory. A
median inside one run cannot remove a slow phase that lasts the whole run.
So the benchmark runs one slice of this computation between every two timed
jobs or set-ups, and scales each time by REF_S over the median of the slices
near it: a time reads as it would when a slice takes REF_S seconds.
The slice mixes the two kinds of work the workloads do: Gaussian kernel
log-sums over fresh arrays larger than the caches, computed as popalign's
dense KDE computes them (a BLAS product, then scipy's logsumexp), and
interpreter-bound JSON and dict work. It never calls popalign, so a change
to the library cannot move it.

Slices run in a child process, so that their memory does not count in the
benchmark process's peak RSS. Run as a script this file serves them: each
line read from standard input runs one slice and writes its seconds as one
line, until standard input closes.
"""

import json
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import logsumexp

# nominal seconds of one slice: about what it takes on the machine README.md
# describes, so scaled times read close to wall-clock seconds there
REF_S = 0.4
# slices on each side of a time that judge the machine's speed for it: one
# slice alone is as noisy as a job, while the whole run misses speed phases
# shorter than a run
REACH = 3


def slice_seconds():
    """Seconds one slice of the reference computation takes."""
    rng = np.random.default_rng(0)
    q, s = rng.standard_normal((1_500, 5)), rng.standard_normal((3_000, 5))
    t0 = time.perf_counter()
    for _ in range(2):
        d2 = np.einsum("ij,ij->i", q, q)[:, None] + np.einsum("ij,ij->i", s, s) - 2.0 * (q @ s.T)
        np.maximum(d2, 0.0, out=d2)
        d2 *= -12.5
        logsumexp(d2, axis=1)
    rows = [json.dumps({"id": f"e{i:06d}", "v": [i * 0.5, -i]}) for i in range(8_000)]
    sums = {}
    for row in rows:
        rec = json.loads(row)
        sums[rec["id"][-3:]] = sums.get(rec["id"][-3:], 0.0) + rec["v"][0]
    return time.perf_counter() - t0


class Calibrator:
    """Runs slices in a child process; a context manager that ends it on exit."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.measure()  # the first slice pays the child's start-up; discard it
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def measure(self):
        """Seconds of one slice, run now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self.proc.poll()}")
        return float(line)

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scale(times, slices):
    """Each of `times` at the machine speed where one slice takes REF_S.

    times[i] ran between slices[i] and slices[i + 1]; its speed is judged by
    the median of the REACH slices on either side of it.
    """
    if len(slices) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} slices, got {len(slices)}")
    return [
        t * REF_S / statistics.median(slices[max(0, i + 1 - REACH) : i + 1 + REACH])
        for i, t in enumerate(times)
    ]


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(slice_seconds()), flush=True)
